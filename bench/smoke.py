"""Smoke test of the benchmark: every workload at toy size, both modes.

    python3 bench/smoke.py

Runs bench/run.py with --toy, untraced and traced, for every workload in
BENCHMARK.json, and checks that each run passes its verdict gate, prints
every declared metric with its unit, names each stage metric in its
report, records its environment, and leaves the layers that are idle by
design at zero calls.  Takes about half a minute; exits 1 on the first
problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

STAGES = {
    "big4_verify": ["present_s", "axioms_s"],
    "vir_deep": ["products_s", "axioms_s"],
    "lie_zhu": ["lie_build_s", "lie_checks_s"],
}
IDLE_LAYERS = {
    "big4_verify": ["linalg", "liesuper"],
    "vir_deep": ["presentation", "linalg", "liesuper"],
    "lie_zhu": ["enveloping", "presentation"],
}
ENV_KEYS = {"backend", "python", "nproc", "seed", "commit"}


def run(workload: str, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(l for l in lines if l.startswith("record "))[7:])
    return json.loads(lines[-1]), record, proc.stdout


def check(workload: str, trace: int, spec: dict) -> None:
    result, record, text = run(workload, trace)
    where = f"{workload} trace={trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] and result["failed"] == 0, (where, record["failures"])
    assert result["attempted"] >= 1, where
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared], where
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (where, m["name"])
        assert isinstance(got["value"], (int, float)), (where, m["name"])
    assert ENV_KEYS <= set(record), (where, sorted(record))
    assert record["backend"] == "Fraction", (where, record["backend"])
    names = ["ops_failed_frac"]
    if not trace:
        names += ["setup_s", "wall_s", "peak_rss_mb", *STAGES[workload]]
    for name in names:
        assert f"  {name} " in text, (where, name)
    if trace:
        metrics = result["metrics"]
        for layer in IDLE_LAYERS[workload]:
            calls = [k for k in metrics if k.startswith(layer + ".")
                     and k.endswith(".calls")]
            assert calls and all(metrics[k]["value"] == 0 for k in calls), (
                where, layer)
        busy = [layer for layer in tracer.LAYERS
                if layer not in IDLE_LAYERS[workload]]
        for layer in busy:
            assert metrics[f"{layer}.busy_s"]["value"] > 0, (where, layer)
    print(f"ok  {where}: {result['attempted']} ops")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == tracer.METRICS
    try:
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                check(workload, trace, spec)
    except AssertionError as exc:
        print(f"FAILED {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
