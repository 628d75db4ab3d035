"""``engine/drift.py`` has one sketch codec and one merge.

A sketch row's payload (a t-digest or a ``{value: count}`` dict) is
decoded and encoded only by ``_decode_row`` / ``_encode_row``, and
payloads merge only in ``_merge_into``. Any other function in the module
that (de)serializes or merges a sketch by hand fails this test.
"""

import ast
import pathlib

DRIFT = pathlib.Path(__file__).resolve().parents[1] / "engine" / "drift.py"
CODEC = {"_decode_row", "_encode_row"}
# called attribute -> the only functions that may call it
ALLOWED = {"from_bytes": CODEC, "to_bytes": CODEC, "loads": CODEC,
           "dumps": CODEC, "merge": {"_merge_into"}}


def _attribute_calls():
    """(innermost enclosing function, attribute, line) of every call of
    the form ``x.attr(...)`` in drift.py."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            if isinstance(child, ast.Call) and \
                    isinstance(child.func, ast.Attribute):
                yield name, child.func.attr, child.lineno
            yield from walk(child, name)
    yield from walk(ast.parse(DRIFT.read_text()), "<module>")


def test_one_codec_and_one_merge():
    found = [f"drift.py:{ln} in {fn}: .{attr}(...)"
             for fn, attr, ln in _attribute_calls()
             if attr in ALLOWED and fn not in ALLOWED[attr]]
    assert not found, ("sketch (de)serialization outside the codec or a "
                       "merge outside _merge_into:\n" + "\n".join(found))


def test_codec_functions_are_current():
    seen = {(fn, attr) for fn, attr, _ in _attribute_calls()}
    assert {("_decode_row", "from_bytes"), ("_decode_row", "loads"),
            ("_encode_row", "to_bytes"), ("_encode_row", "dumps"),
            ("_merge_into", "merge")} <= seen
