"""Every module's exports resolve, so a deletion cannot leave a stale name."""

import ast
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


# each module imports only from lower layers; the top two not from each other
LAYER = {"scalar": 0, "linalg": 1, "presentation": 2, "enveloping": 3, "liesuper": 3}


def test_modules_import_only_lower_layers():
    src = Path(__file__).resolve().parents[1] / "src" / "vazhu"
    upward = []
    for module, layer in LAYER.items():
        tree = ast.parse((src / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if LAYER[node.module] >= layer:
                    upward.append(f"{module} -> {node.module}")
    assert upward == []


# bench/worker.py reads scalar._Q, the backend it reports
_READ_FROM_OUTSIDE = {"scalar.py:_Q"}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_defs(tree):
    """(name, node) of each module-level private name and private method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from ((n, node) for n in names if _private(n))
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and _private(m.name):
                    yield m.name, m


def test_no_unreferenced_private_code():
    # a private helper that nothing in the package uses besides its own
    # definition is dead, even when a test still calls it
    src = Path(__file__).resolve().parents[1] / "src" / "vazhu"
    defs, refs = [], {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs += [(name, path.name, node) for name, node in _private_defs(tree)]
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)):
                name = n.id if isinstance(n, ast.Name) else n.attr
                refs.setdefault(name, []).append((path.name, n.lineno))
    unused = {
        f"{file}:{name}"
        for name, file, node in defs
        if all(
            f == file and node.lineno <= line <= node.end_lineno
            for f, line in refs.get(name, ())
        )
    }
    assert unused == _READ_FROM_OUTSIDE


# public names that nothing in src or bench uses, each kept on purpose
_UNREFERENCED_PUBLIC = {
    # oracles the tests check the program against
    "linalg.py:contact_derivation": "oracle of contact_bracket",
    "linalg.py:supertranspose": "oracle of the osp form tests",
    "linalg.py:supertrace": "oracle of the supertrace tests",
    "linalg.py:scale": "ContactDerivation, the oracle of contact_bracket",
    # callers planned by ROADMAP items 1, 4 and 8
    "enveloping.py:summary_line": "the CLI's record line (item 1)",
    "linalg.py:verify_membership": "re-checks item 4's certificates",
    "scalar.py:substitute": "item 8's rational spot checks",
    # API the tests read results through
    "enveloping.py:generator": "test-facing API",
    "enveloping.py:dimension_by_weight": "test-facing API",
    "presentation.py:builtin_ids": "test-facing API",
    "scalar.py:decompose": "test-facing API",
    "scalar.py:parameter_names": "test-facing API",
    "scalar.py:to_fraction": "test-facing API",
}


def _public_defs(tree):
    """(name, node, is_method) of each module-level public def or class and
    each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        yield m.name, m, True


def _unreferenced_public(sources):
    """file:name of each public def in sources that nothing there uses.

    sources are (file, text, defines) triples.  Only the public defs of a
    file that defines count.  A method is used only through an attribute
    of its name, a module-level def or class also through a loaded name or
    an import alias; in a file that does not define, a string constant
    equal to the name is a use of either.  A use inside the def itself
    does not count.
    """
    defs, uses = [], {}
    for file, text, defines in sources:
        tree = ast.parse(text)
        if defines:
            defs += [(name, file, node, m) for name, node, m in _public_defs(tree)]
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute):
                name, by_attr = n.attr, True
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                name, by_attr = n.id, False
            elif isinstance(n, ast.alias):
                name, by_attr = n.name, False
            elif isinstance(n, ast.Constant) and not defines:
                name, by_attr = n.value, True
            else:
                continue
            if isinstance(name, str):
                uses.setdefault(name, []).append((file, n.lineno, by_attr))
    return {
        f"{file}:{name}"
        for name, file, node, method in defs
        if all(
            (method and not by_attr)
            or (f == file and node.lineno <= line <= node.end_lineno)
            for f, line, by_attr in uses.get(name, ())
        )
    }


def test_no_unreferenced_public_code():
    # a public function, class or method that nothing in src or bench uses
    # besides its own definition is dead unless it is listed above; bench
    # is only read, and its tracer names its targets as strings
    root = Path(__file__).resolve().parents[1]
    src, bench = root / "src" / "vazhu", root / "bench"
    sources = [(p.name, p.read_text(), True) for p in sorted(src.glob("*.py"))]
    sources += [
        (f"bench/{p.name}", p.read_text(), False) for p in sorted(bench.glob("*.py"))
    ]
    assert _unreferenced_public(sources) == set(_UNREFERENCED_PUBLIC)


def test_a_local_name_does_not_use_a_method():
    # a local variable named like a method is no use of the method
    snippet = (
        "class Box:\n"
        "    def scale(self):\n"
        "        return 1\n"
        "def run():\n"
        "    scale = Box()\n"
        "    return scale\n"
    )
    defining = ("m.py", snippet, True)
    assert _unreferenced_public([defining]) == {"m.py:scale", "m.py:run"}
    # an attribute uses a method, a string in a reading file either kind
    reading = ("b.py", "box.scale\n'run'\n", False)
    assert _unreferenced_public([defining, reading]) == set()


def test_no_dict_display_repeats_a_key():
    # a dict literal keeps only the last of two equal keys, silently; the
    # builtin bracket rows are such literals
    src = Path(__file__).resolve().parents[1] / "src" / "vazhu"
    repeats = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Dict):
                seen = set()
                for key in node.keys:
                    # None is a ** unpacking
                    if key is not None:
                        dump = ast.dump(key)
                        if dump in seen:
                            repeats.append(f"{path.name}:{key.lineno}")
                        seen.add(dump)
    assert repeats == []


def test_no_source_runs_dynamic_code():
    # scalar text is read through ast over a whitelist; nothing may hand
    # text to Python to run
    src = Path(__file__).resolve().parents[1] / "src" / "vazhu"
    banned = {"eval", "exec", "compile", "__import__"}
    calls = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in banned:
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
