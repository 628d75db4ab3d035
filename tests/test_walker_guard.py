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
