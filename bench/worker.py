"""One pass of one workload, in the fresh interpreter this script starts.

Prints one JSON line: the monotonic time at which set-up finished, the
reference-loop samples taken after set-up and during each stage (pace.py),
the time of each op by stage, the op counts and failures, peak RSS and, when
traced, the per-layer metrics.  run.py starts it and reads that line.

    python3 bench/worker.py --workload big4_verify [--toy] [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pace  # noqa: E402  (the benchmark's own modules sit beside this file)
import tracer  # noqa: E402
import workloads  # noqa: E402
from vazhu import scalar  # noqa: E402

# reference samples right after set-up, to scale the set-up time with
SETUP_PACE_SAMPLES = 20


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    stages = workloads.WORKLOADS[args.workload](args.toy)
    host = pace.Pace()
    trace = tracer.Tracer(host) if args.trace else None
    if trace is not None:
        trace.install()
    record = {"ready": time.monotonic(), "backend": scalar._Q.__name__}
    for _ in range(SETUP_PACE_SAMPLES):
        host.sample()
    samples = {"setup": host.samples[:]}
    record["pace"] = samples
    if not args.setup_only:
        gate = workloads.Gate(host)
        op_seconds = {}
        host.start()
        for name, stage in stages:
            first, first_sample = len(gate.seconds), len(host.samples)
            host.sample()  # so that every stage has a sample
            stage(gate)
            op_seconds[name] = gate.seconds[first:]
            samples[name] = host.samples[first_sample:]
        host.stop()
        record.update(
            stages=op_seconds,
            attempted=gate.attempted,
            failures=gate.failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            layers=None if trace is None else trace.metrics(),
        )
    print(json.dumps(record))


if __name__ == "__main__":
    main()
