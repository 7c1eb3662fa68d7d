"""The benchmark's hooks and gates still hold against the package.

bench/tracer.py wraps the functions listed in its TARGETS by owner and
attribute name, and bench/worker.py records scalar._Q.__name__ as the
backend; a rename in src/ would otherwise surface only when a traced
benchmark run fails.  bench/workloads.py pins the presentation verdicts
its big4_verify workload gates on; a change of result shape would
otherwise surface only as failed benchmark ops, and every workload runs at
toy size through its own gate, so a drift of canonical forms against its
ladder digests or suite counts fails here too.  The files are loaded,
never edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from vazhu import presentation

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    path = BENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_targets():
    return _load("tracer").TARGETS


WORKLOADS = _load("workloads")


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    for _layer, _name, owner, attrs in targets:
        mod_name, _, cls_name = owner.partition(":")
        module = importlib.import_module(f"vazhu.{mod_name}")
        for attr in attrs:
            if cls_name:
                # the tracer patches the class's own attribute
                own = getattr(module, cls_name).__dict__.get(attr)
                assert callable(own), (owner, attr)
            else:
                assert callable(getattr(module, attr, None)), (owner, attr)


def test_backend_name_resolves():
    from vazhu import scalar

    assert scalar._Q.__name__ == "Fraction"


@pytest.mark.parametrize("pid", WORKLOADS.PRESENTATIONS)
def test_workload_jacobi_witness_gate(pid):
    witness = presentation.builtin_presentation(pid).jacobi_witness()
    prefix = WORKLOADS.JACOBI_WITNESS.get(pid)
    if prefix is None:
        assert witness is None
    else:
        assert witness is not None and tuple(witness[: len(prefix)]) == prefix


@pytest.mark.parametrize("tag", WORKLOADS.EMBEDDINGS)
def test_workload_embedding_gate(tag):
    assert presentation.check_embedding(*presentation.builtin_embedding(tag)) is None


class _StubPace:
    """The one attribute a Gate reads of the host pace: no interrupts."""

    paused = 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_passes_its_gate_at_toy_size(name):
    gate = WORKLOADS.Gate(_StubPace())
    for _stage, run in WORKLOADS.WORKLOADS[name](True):
        run(gate)
    assert gate.attempted and gate.failures == []
