"""The benchmark's trace hooks still name functions of the package.

bench/tracer.py wraps the functions listed in its TARGETS by owner and
attribute name, and bench/worker.py records scalar._Q.__name__ as the
backend; a rename in src/ would otherwise surface only when a traced
benchmark run fails.  The tracer file is loaded, never edited.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


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
