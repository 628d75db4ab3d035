"""The driver entry stays table-driven.

An AST scan of ``__ray_entry__.py``: queries are rows of ``_QUERIES`` or
functions registered with ``@_bespoke(name)``; output rounding goes through
the one helper ``_round_cols``; no query carries its own rounding, renaming
or planting closure, and no per-row ``np.isnan`` loop comes back — in the
entry or anywhere in ``engine/`` (``pa.array(x, mask=np.isnan(x))`` is the
vectorized spelling).
"""

import ast
import importlib.util

from proc_group import REPO

ENTRY = REPO / "__ray_entry__.py"
TREE = ast.parse(ENTRY.read_text())


def _functions(tree):
    return [n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _calls_to(node, name):
    return [c for c in ast.walk(node) if isinstance(c, ast.Call)
            and isinstance(c.func, ast.Name) and c.func.id == name]


def _table_rows():
    """Keys of the ``_QUERIES`` dict literal whose value is a ``_row``
    call."""
    for node in TREE.body:
        target = node.target if isinstance(node, ast.AnnAssign) else (
            node.targets[0] if isinstance(node, ast.Assign) else None)
        if isinstance(target, ast.Name) and target.id == "_QUERIES":
            assert isinstance(node.value, ast.Dict)
            return {k.value: v for k, v in zip(node.value.keys,
                                                node.value.values)}
    return {}


def _bespoke_names():
    names = []
    for fn in TREE.body:
        for d in getattr(fn, "decorator_list", []):
            if isinstance(d, ast.Call) and isinstance(d.func, ast.Name) \
                    and d.func.id == "_bespoke":
                names.append(d.args[0].value)
    return names


def test_no_per_query_closures():
    nested = [inner.name for fn in _functions(TREE) for inner in
              _functions(fn) if inner is not fn
              and inner.name in ("_round", "_rename", "_plant")]
    assert nested == []


def test_round_half_away_called_only_by_the_rounding_helper():
    callers = [fn.name for fn in _functions(TREE)
               if _calls_to(fn, "_round_half_away")]
    assert callers == ["_round_cols"]


def test_no_comprehension_tests_isnan():
    comps = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    trees = {ENTRY.name: TREE, **{
        f"engine/{p.name}": ast.parse(p.read_text())
        for p in sorted((REPO / "engine").glob("*.py"))}}
    bad = [f"{name}:{c.lineno}" for name, tree in trees.items()
           for c in ast.walk(tree) if isinstance(c, comps)
           for a in ast.walk(c) if isinstance(a, ast.Attribute)
           and a.attr == "isnan"]
    assert bad == []


def test_every_query_is_a_row_or_a_bespoke_function():
    rows = _table_rows()
    assert rows, "no _QUERIES table"
    assert all(isinstance(v, ast.Call) and isinstance(v.func, ast.Name)
               and v.func.id == "_row" for v in rows.values())
    bespoke = _bespoke_names()
    assert len(bespoke) == len(set(bespoke))
    assert not set(rows) & set(bespoke)
    spec = importlib.util.spec_from_file_location("_entry_guard", ENTRY)
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    assert sorted(m.queries()) == sorted(set(rows) | set(bespoke))
