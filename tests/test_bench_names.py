"""The benchmark under bench/ still finds every program name it uses.

bench/ imports names from safecomp and wraps functions by (owner, attribute)
for its traced runs; a rename or deletion would otherwise surface only in the
slow bench/test_bench.py. These checks read bench/ without running it.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
BENCH_FILES = sorted(BENCH.glob("*.py"))


def _import_from(module_name, name):
    """What `from module_name import name` binds: an attribute or a submodule."""
    module = importlib.import_module(module_name)
    if not hasattr(module, name):
        try:
            return importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            pytest.fail(f"{module_name}.{name} is gone")
    return getattr(module, name)


def _safecomp_uses(tree):
    """(name bindings, calls of safecomp callables) for one bench file.

    A binding maps a local name to the safecomp module or object it was
    imported as; every `alias.attr` on a module binding is resolved too.
    """
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "safecomp":
            for alias in node.names:
                bound[alias.asname or alias.name] = _import_from(node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "safecomp":
                    bound[alias.asname or alias.name] = importlib.import_module(alias.name)

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return bound.get(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            owner = bound.get(expr.value.id)
            if inspect.ismodule(owner):
                assert hasattr(owner, expr.attr), f"{owner.__name__}.{expr.attr} is gone"
                return getattr(owner, expr.attr)
        return None

    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            resolve(node)
        elif isinstance(node, ast.Call):
            target = resolve(node.func)
            if callable(target):
                calls.append((target, node))
    return bound, calls


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_names_resolve_and_calls_bind(path):
    _, calls = _safecomp_uses(ast.parse(path.read_text()))
    for target, call in calls:
        if any(isinstance(a, ast.Starred) for a in call.args) or \
                any(k.arg is None for k in call.keywords):
            continue  # *args or **kwargs: the arguments are not known statically
        try:
            inspect.signature(target).bind(*call.args, **{k.arg: k for k in call.keywords})
        except TypeError as exc:
            pytest.fail(f"{path.name}:{call.lineno}: {target.__qualname__}: {exc}")


def test_bench_scans_find_safecomp_names():
    uses = [_safecomp_uses(ast.parse(p.read_text())) for p in BENCH_FILES]
    assert sum(len(bound) for bound, _ in uses) >= 10
    assert sum(len(calls) for _, calls in uses) >= 10


def test_wrap_targets_exist_and_are_callable():
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = layers.wrap_targets()
    assert targets
    for owner, attribute, span, _ in targets:
        assert callable(getattr(owner, attribute, None)), f"{span}: {attribute} is gone"
