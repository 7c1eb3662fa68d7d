"""Every module's exports resolve, so a deletion cannot leave a stale name."""

import importlib
import types

import pytest

import vazhu

MODULES = ["scalar", "linalg", "presentation", "enveloping", "liesuper"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"vazhu.{module}")
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_exports_nothing():
    # submodules become attributes once imported; nothing else may
    assert not hasattr(vazhu, "__all__")
    names = [
        n for n, v in vars(vazhu).items()
        if not n.startswith("__") and not isinstance(v, types.ModuleType)
    ]
    assert names == []
