"""Every module's exports resolve, so a deletion cannot leave a stale name."""

import importlib
import types
from pathlib import Path

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


def test_console_scripts_import():
    # every [project.scripts] entry names a callable the package defines
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr, None)), target
