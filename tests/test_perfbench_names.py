"""The ``qims`` names the benchmark harness needs still exist.

``perfbench/tracing.py`` wraps each ``(owner, attr)`` of its ``SPANS``
through ``owner.__dict__[attr]``, and ``perfbench/oracles.py`` imports
names from ``qims``; a removed or renamed name would otherwise show only in
``python -m pytest perfbench``.  Both files are read with ``ast``, so
nothing under ``perfbench/`` is imported or run here.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _parse(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _qims_imports(tree):
    """(module, name, bound name) of every ``from qims... import``."""
    return [(node.module, alias.name, alias.asname or alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qims"
            for alias in node.names]


def _lookup(module, name):
    """``from module import name``: an attribute, or else a submodule."""
    mod = importlib.import_module(module)
    return getattr(mod, name) if hasattr(mod, name) else importlib.import_module(
        f"{module}.{name}")


def test_oracles_imports_exist():
    imports = _qims_imports(_parse("oracles.py"))
    assert imports
    for module, name, _ in imports:
        _lookup(module, name)


def test_traced_spans_patch_existing_attributes():
    tree = _parse("tracing.py")
    scope = {bound: _lookup(module, name) for module, name, bound in _qims_imports(tree)}
    spans = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SPANS"])
    assert spans.elts

    def resolve(expr):  # a bound name or an attribute chain on one
        if isinstance(expr, ast.Name):
            return scope[expr.id]
        assert isinstance(expr, ast.Attribute), ast.dump(expr)
        return getattr(resolve(expr.value), expr.attr)

    for entry in spans.elts:
        owner_expr, attr_expr = entry.elts[:2]
        owner, attr = resolve(owner_expr), ast.literal_eval(attr_expr)
        assert attr in vars(owner), (ast.unparse(owner_expr), attr)


def test_counted_flatop_members_exist():
    # the counters patch FlatOp methods by name and read attributes of each
    # FlatOp built, through the first argument ``self_`` of their wrappers
    import random

    from conftest import random_params
    from qims.weylops import FlatOp, P, flatten

    tree = _parse("tracing.py")
    named = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Attribute) and node.value.attr == "FlatOp"}
    for loop in ast.walk(tree):
        if isinstance(loop, ast.For) and "FlatOp" in ast.unparse(loop.body[-1]):
            named |= {ast.literal_eval(entry.elts[0]) for entry in loop.iter.elts}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self_"}
    assert {"apply_index", "__init__"} <= named and "terms" in read
    for attr in named:
        assert attr in vars(FlatOp), attr
    op = flatten(P(1, 1), random_params(2, 1, random.Random(0)))
    for attr in read:
        assert hasattr(op, attr), attr
