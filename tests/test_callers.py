"""Every definition in safecomp has a caller.

A function, class or method that nothing in src/ or bench/ loads is code
that no verdict, report or benchmark depends on; tests alone do not keep it.
The scan reads the sources with `ast` and runs nothing. `__init__.py` only
re-exports names, so it neither holds definitions nor counts as a caller.
"""

import ast
import importlib.util
from pathlib import Path

import safecomp

ROOT = Path(__file__).resolve().parents[1]
SRC_FILES = sorted(p for p in Path(safecomp.__file__).parent.glob("*.py")
                   if p.name != "__init__.py")
BENCH_FILES = sorted((ROOT / "bench").glob("*.py"))

# definitions kept without a caller in src/ or bench/, with the reason
ALLOWED = {
    # the reachable-set view that tests/test_compose.py compares against the
    # reference breadth-first search
    "Product.explore",
}


def _definitions():
    """(module, qualified name) of every top-level function and class, and of
    every method that is not a dunder."""
    for path in SRC_FILES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and \
                            not (item.name.startswith("__") and item.name.endswith("__")):
                        yield path.stem, f"{node.name}.{item.name}"


def _loaded_names():
    """Every name and attribute that src/ (without __init__.py) or bench/ loads."""
    loaded = set()
    for path in SRC_FILES + BENCH_FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def _wrapped():
    """(module, qualified name) of what bench/layers.wrap_targets() wraps: a
    module function, or a method of a class."""
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    wrapped = set()
    for owner, attr, _, _ in layers.wrap_targets():
        if isinstance(owner, type):
            wrapped.add((owner.__module__.rsplit(".", 1)[-1], f"{owner.__qualname__}.{attr}"))
        else:
            wrapped.add((owner.__name__.rsplit(".", 1)[-1], attr))
    return wrapped


def test_every_definition_has_a_caller():
    loaded = _loaded_names()
    wrapped = _wrapped()
    uncalled = [f"{module}.py: {name}" for module, name in _definitions()
                if name.rsplit(".", 1)[-1] not in loaded
                and (module, name) not in wrapped and name not in ALLOWED]
    assert uncalled == []


def test_allowlist_entries_exist_and_lack_a_caller():
    # an entry whose definition is gone or has gained a caller is stale
    loaded = _loaded_names()
    names = {name for _, name in _definitions()}
    for name in ALLOWED:
        assert name in names
        assert name.rsplit(".", 1)[-1] not in loaded
