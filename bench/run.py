"""The vazhu benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload big4_verify --seed 1 --seconds 20 --trace 0

Each pass runs the workload's ops once, in a fresh interpreter started by
bench/worker.py, so process-global caches start empty every time.  Passes
repeat until --seconds have gone by (at least one), and every metric is the
median over passes.  Times are scaled to the host's reference speed,
sampled while they are measured (pace.py).  Untraced runs also start a few
interpreters that only set up, so that setup_s is a median of several
samples.

With --trace 1 the run makes one untraced pass and then traced passes, and
reports the per-layer metrics of BENCHMARK.json; trace.overhead_s is the
traced wall time minus the untraced one.  --toy runs every workload at a toy
size for the smoke test (bench/smoke.py).

The output is a human-readable report, one "record" line of JSON with the
environment and every metric, and, as the last line, the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit code 2 means the program or an argument is missing, 1 that a pass
crashed or overran; neither prints a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 9
MAX_PASSES = 40
# a run must end within 180 s; stop starting passes well before that
HARD_LIMIT_S = 165.0


class BenchError(Exception):
    """A pass could not be run; the run prints no result."""


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vazhu" / "__init__.py").is_file():
        print(f"no vazhu package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            values, passes = _traced(args)
            declared = spec["per_layer"]
        else:
            values, passes = _untraced(args)
            declared = spec["end_to_end"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    env = {
        "backend": passes[0]["backend"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "commit": _git_commit(),
    }
    values["ops_failed_frac"] = len(failures) / attempted
    _report(args, env, values, passes, attempted, failures)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def _untraced(args):
    start = time.monotonic()
    setups = [_spawn(args, start, "--setup-only") for _ in range(SETUP_SAMPLES)]
    passes = _passes(args, start)
    values = _end_to_end(passes)
    values["setup_s"] = statistics.median(
        pace.scaled(p["setup_s"], p["pace"]["setup"]) for p in setups + passes
    )
    values["measured_setup_s"] = statistics.median(
        p["setup_s"] for p in setups + passes
    )
    return values, passes


def _traced(args):
    start = time.monotonic()
    plain = _spawn(args, start)
    traced = _passes(args, start, "--trace")
    values = {
        name: statistics.median(_scaled_layer(p, name) for p in traced)
        for name in traced[0]["layers"]
    }
    values["trace.overhead_s"] = (
        _end_to_end(traced)["wall_s"] - _end_to_end([plain])["wall_s"]
    )
    return values, [plain] + traced


def _scaled_layer(p, name: str) -> float:
    """A per-layer metric of a traced pass; times at the reference speed."""
    value = p["layers"][name]
    if not name.endswith("_s"):
        return value
    return pace.scaled(value, [t for stage, v in p["pace"].items()
                               if stage != "setup" for t in v])


def _passes(args, start, *flags):
    """Passes until --seconds have gone by, at least one."""
    passes: list = []
    while len(passes) < MAX_PASSES:
        now = time.monotonic()
        if passes and now - start >= args.seconds:
            break
        if passes and now - start + passes[-1]["pass_s"] > HARD_LIMIT_S:
            break
        passes.append(_spawn(args, start, *flags))
    return passes


def _spawn(args, start, *flags) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, *flags]
    if args.toy:
        cmd.append("--toy")
    env = dict(os.environ, PYTHONHASHSEED="0")
    begin = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, start + HARD_LIMIT_S - begin),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass overran the time limit: {cmd}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record.pop("ready") - begin
    record["pass_s"] = time.monotonic() - begin
    return record


def _end_to_end(passes) -> dict:
    """Wall, stage and memory metrics: medians over passes.

    Stage times are scaled to the host's reference speed (see pace.py).  The
    measured_* values are the same medians unscaled; the record keeps them
    so that the two can be compared.
    """
    values = {"peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}
    stages = list(passes[0]["stages"])
    for i, stage in enumerate(stages, start=1):
        values[f"stage{i}_s"] = values[stage] = statistics.median(
            pace.scaled(sum(p["stages"][stage]), p["pace"][stage]) for p in passes
        )
        values[f"measured_stage{i}_s"] = statistics.median(
            sum(p["stages"][stage]) for p in passes
        )
    values["wall_s"] = sum(values[stage] for stage in stages)
    values["measured_wall_s"] = sum(
        values[f"measured_stage{i}_s"] for i in range(1, len(stages) + 1)
    )
    return values


def _report(args, env, values, passes, attempted, failures) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"{args.workload}: {len(passes)} passes, {mode}"
          + (", toy size" if args.toy else ""))
    print("  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    if not args.trace:
        rows = [("setup_s", "s"), ("wall_s", "s")]
        for i, stage in enumerate(passes[0]["stages"], start=1):
            rows.append((stage, f"s (stage{i}_s)"))
        rows.append(("peak_rss_mb", "MB"))
        for name, unit in rows:
            print(f"  {name:<16}{values[name]:>12.4f} {unit}")
    else:
        for name in sorted(values):
            if name != "ops_failed_frac":
                print(f"  {name:<40}{values[name]:>14.6g}")
    print(f"  {'ops_failed_frac':<16}{values['ops_failed_frac']:>12.4f}"
          f" ({len(failures)} of {attempted} ops)")
    for label, problem in failures[:10]:
        print(f"  FAILED {label}: {problem}")
    record = dict(env, workload=args.workload, trace=args.trace, toy=args.toy,
                  passes=len(passes), attempted=attempted,
                  failed=len(failures), failures=failures[:10], metrics=values)
    print("record " + json.dumps(record, sort_keys=True))


def _git_commit() -> str:
    """HEAD of the checkout, read from .git directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
