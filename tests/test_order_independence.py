"""Verdicts do not depend on the order in which the shared objects are built.

builtin_presentation and build_algebra hand out cached objects, and the
scalar layer keeps process-global caches, so a result could in principle
depend on what ran before it.  One script runs in two fresh interpreters
with the same hash seed: once in builtin_ids() and builder order, once with
the algebras first and both lists reversed.  It prints every builtin's
jacobi_witness() as its triple and residual text, and each algebra's
superdim and a digest of its sorted table; both outputs must be identical.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import hashlib, sys
from vazhu import liesuper, presentation

def text(vec):
    return repr(sorted((repr(k), str(c)) for k, c in vec.items()))

def witness(pid):
    w = presentation.builtin_presentation(pid).jacobi_witness()
    return "None" if w is None else f"{w[:3]} {text(w[3])}"

def algebra(aid):
    g = liesuper.build_algebra(aid)
    rows = repr(sorted((x, y, text(v)) for (x, y), v in g.table.items()))
    return f"{g.superdim()} {hashlib.sha256(rows.encode()).hexdigest()}"

jobs = [(pid, witness) for pid in presentation.builtin_ids()]
jobs += [(aid, algebra) for aid in liesuper._BUILDERS]
if sys.argv[1] == "reverse":
    jobs.reverse()
lines = sorted(f"{name}: {run(name)}" for name, run in jobs)
print("\\n".join(lines))
"""


def _run(order: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, order],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_results_do_not_depend_on_build_order():
    forward, reverse = _run("forward"), _run("reverse")
    assert forward.count("\n") == 25
    assert "big4_kwmiss1: ('J0', 'Kp', 'Gpm')" in forward
    assert forward == reverse
