"""``engine/kernels.py`` walks a plan in one place.

:func:`engine.kernels.eval_emit` (with :func:`_object_emit` for object
nodes) is the only plan walker; records and per-row failure counts are two
sinks of the same walk. A second function that descends into a plan's
subschemas would be a second walker whose keyword coverage can drift from
the first, so this test fails on it.
"""

import ast
import pathlib

KERNELS = pathlib.Path(__file__).resolve().parents[1] / "engine" / "kernels.py"
SUBSCHEMA_ATTRS = {"any_of", "one_of", "items", "properties"}
WALKERS = {"eval_emit", "_object_emit"}


def _subschema_readers():
    """{top-level function name: [line, ...]} of every ``<x>.any_of``,
    ``.one_of``, ``.items`` or ``.properties`` read in kernels.py. Method
    calls such as ``dict.items()`` are not plan reads and are skipped."""
    found: dict[str, list[int]] = {}
    for top in ast.parse(KERNELS.read_text()).body:
        called = {id(n.func) for n in ast.walk(top) if isinstance(n, ast.Call)}
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute)
                    and node.attr in SUBSCHEMA_ATTRS
                    and id(node) not in called):
                name = getattr(top, "name", "<module>")
                found.setdefault(name, []).append(node.lineno)
    return found


def test_only_eval_emit_walks_plans():
    readers = _subschema_readers()
    extra = {f: ln for f, ln in readers.items() if f not in WALKERS}
    assert not extra, ("plan subschemas read outside eval_emit/_object_emit "
                       f"(a second walker?): {extra}")
    assert set(readers) == WALKERS, f"stale walker names: {sorted(readers)}"


# -- the record sink stays columnar -----------------------------------------

SINK = "Records"
#: what a loop in the sink may walk: record groups, rank or path depth and
#: the output column names, never the failing slots of a group
SINK_LOOP_SOURCES = {"self.groups", "groups", "ctx.rank", "ctx.segs",
                     "ordinal", "parts"}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


def _loop_sources(expr):
    """Dotted names an iterable expression reads. A called function such as
    ``zip`` or ``enumerate`` is not a source; the object of a called method
    (``idx`` of ``idx.tolist()``) is."""
    funcs = {id(n.func): n.func for n in ast.walk(expr)
             if isinstance(n, ast.Call)}
    inner = {id(n.value) for n in ast.walk(expr)
             if isinstance(n, ast.Attribute)}
    found = set()
    for n in ast.walk(expr):
        if not isinstance(n, (ast.Name, ast.Attribute)) or id(n) in inner:
            continue
        if id(n) not in funcs:
            found.add(_dotted(n))
        elif isinstance(n, ast.Attribute):
            found.add(_dotted(n.value))
    return found


def _sink_methods():
    tree = ast.parse(KERNELS.read_text())
    cls = [n for n in tree.body
           if isinstance(n, ast.ClassDef) and n.name == SINK]
    assert cls, f"kernels.py has no {SINK} sink"
    return {f.name: f for f in cls[0].body if isinstance(f, ast.FunctionDef)}


def test_record_sink_never_loops_over_slots():
    methods = _sink_methods()
    assert {"emit", "build"} <= set(methods)
    bad = []
    for name in ("emit", "build"):
        for node in ast.walk(methods[name]):
            iters = ([node.iter] if isinstance(node, ast.For) else
                     [g.iter for g in node.generators]
                     if isinstance(node, COMPREHENSIONS) else [])
            for it in iters:
                extra = _loop_sources(it) - SINK_LOOP_SOURCES
                if extra:
                    bad.append((name, it.lineno, sorted(extra)))
    assert not bad, f"{SINK} loops over something per slot: {bad}"


def test_ctx_fn_gets_the_failing_slot_array():
    """Context callbacks take the index array of every failing slot: the
    only ``ctx_fn(...)`` call passes ``idx = np.nonzero(fail)[0]``, and
    every callback handed to a sink names its parameter ``idx``."""
    tree = ast.parse(KERNELS.read_text())
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    calls = [(fn, n) for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef)
             for n in ast.walk(fn)
             if isinstance(n, ast.Call) and _dotted(n.func) == "ctx_fn"]
    assert calls, "no ctx_fn call left in kernels.py"
    for fn, call in calls:
        assert [_dotted(a) for a in call.args] == ["idx"], (
            f"{fn.name}:{call.lineno} passes {ast.unparse(call)}")
        binds = [ast.unparse(a.value) for a in ast.walk(fn)
                 if isinstance(a, ast.Assign)
                 and [_dotted(t) for t in a.targets] == ["idx"]]
        assert binds == ["np.nonzero(fail)[0]"], (fn.name, binds)
    for kw in (n for n in ast.walk(tree)
               if isinstance(n, ast.keyword) and n.arg == "ctx_fn"):
        cb = kw.value
        if isinstance(cb, ast.Call):  # a factory: check what it returns
            rets = [r.value for r in ast.walk(funcs[_dotted(cb.func)])
                    if isinstance(r, ast.Return)]
            assert len(rets) == 1, ast.unparse(cb)
            cb = rets[0]
        assert isinstance(cb, ast.Lambda) and \
            cb.args.args[0].arg == "idx", (kw.value.lineno, ast.unparse(cb))
