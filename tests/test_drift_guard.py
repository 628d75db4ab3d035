"""``engine/drift.py`` has one profile codec and one merge.

A profile row's sketches (HLL, t-digest, ``{value: count}``) are decoded
and encoded only by ``_decode_row`` / ``_encode_row``, and profiles merge
only in ``_merge_into``. Any other function in the module that
(de)serializes or merges a sketch by hand fails this test, and so does
any such call in ``engine/stats.py``, whose stats are merges of profiles.
"""

import ast
import pathlib

ENGINE = pathlib.Path(__file__).resolve().parents[1] / "engine"
DRIFT = ENGINE / "drift.py"
STATS = ENGINE / "stats.py"
CODEC = {"_decode_row", "_encode_row"}
# called attribute -> the only functions that may call it
ALLOWED = {"from_bytes": CODEC, "to_bytes": CODEC, "loads": CODEC,
           "dumps": CODEC, "merge": {"_merge_into"}}


def _attribute_calls(path=DRIFT):
    """(innermost enclosing function, attribute, line) of every call of
    the form ``x.attr(...)`` in ``path``."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            if isinstance(child, ast.Call) and \
                    isinstance(child.func, ast.Attribute):
                yield name, child.func.attr, child.lineno
            yield from walk(child, name)
    yield from walk(ast.parse(path.read_text()), "<module>")


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


def test_stats_merges_profiles_only_through_the_codec():
    found = [f"stats.py:{ln} in {fn}: .{attr}(...)"
             for fn, attr, ln in _attribute_calls(STATS)
             if attr in {"from_bytes", "to_bytes", "merge"}]
    assert not found, ("stats.py (de)serializes or merges a sketch by "
                       "hand instead of through engine/drift.py:\n"
                       + "\n".join(found))
