"""``engine.shuffle.join``: the engine's one hash join.

Each kind of side (rows, rows behind a zero-row first block, a zero-row
``from_arrow``, a side lazily filtered to empty, all-NULL keys) joins a
side with rows, both ways round, at 1, 2 and 4 partitions, inner and
left-anti. The rows equal pyarrow's ``Table.join`` of the same sides, no
seed row leaks, NULL-key left rows survive the anti join, and every
block has the joined schema (an anti join's zero-row blocks may have
none: see below).
"""

import pyarrow as pa
import pytest

LEFT = pa.schema([("k", pa.int64()), ("a", pa.string())])
RIGHT = pa.schema([("rk", pa.int64()), ("b", pa.float64())])


def _tables(kind, schema, rows):
    """The blocks of one side, as Arrow tables."""
    def table(data):
        return pa.table([pa.array(c, f.type) for c, f in
                         zip(zip(*data) if data else [[]] * 2, schema)],
                        schema=schema)
    if kind == "rows":
        return [table(rows[:3]), table(rows[3:])]
    if kind == "late":  # the first block has no rows
        return [table([]), table(rows)]
    if kind == "null":
        return [table([(None, v) for _, v in rows])]
    return [table([])]  # "empty" and "filtered"


LEFT_ROWS = [(1, "x"), (2, "y"), (None, "n"), (3, "z"), (3, "w"), (5, "v")]
RIGHT_ROWS = [(3, 0.5), (1, 1.5), (None, 2.5), (4, 3.5), (3, 4.5)]
KINDS = ["rows", "late", "empty", "filtered", "null"]
#: every kind of side against a side with rows, and two empty sides
PAIRS = [(k, "rows") for k in KINDS] + [("rows", k) for k in KINDS[2:]] \
    + [("empty", "filtered")]


def _side(kind, schema, rows):
    import ray.data
    if kind == "filtered":
        return ray.data.from_arrow(_tables("rows", schema, rows)) \
            .map_batches(lambda b: b.slice(0, 0), batch_format="pyarrow")
    return ray.data.from_arrow(_tables(kind, schema, rows))


def _sorted(rows):
    return sorted(rows, key=lambda r: [(v is None, v) for v in r.values()])


@pytest.mark.parametrize("how", ["inner", "left_anti"])
@pytest.mark.parametrize("parts", [1, 2, 4])
def test_join_matches_arrow(ray_session, how, parts):
    import ray
    from engine.shuffle import join

    for lk, rk in PAIRS:
        lt = pa.concat_tables(_tables(lk, LEFT, LEFT_ROWS))
        rt = pa.concat_tables(_tables(rk, RIGHT, RIGHT_ROWS))
        expect = lt.join(rt, "k", right_keys="rk",
                         join_type=how.replace("_", " "))
        out = join(_side(lk, LEFT, LEFT_ROWS), _side(rk, RIGHT, RIGHT_ROWS),
                   "k", how, right_on="rk", num_partitions=parts)
        blocks = [ray.get(ref) for bundle in out.iter_internal_ref_bundles()
                  for ref, _ in bundle.blocks]
        case = (lk, rk)
        for b in blocks:
            # the anti join drops its seed in a map, and Ray skips a map
            # on a zero-row block and emits it without a schema
            if how == "inner" or b.num_rows:
                assert b.schema.remove_metadata() == expect.schema, case
            else:
                assert b.schema.names in ([], expect.schema.names), case
        got = [r for b in blocks for r in b.to_pylist()]
        assert _sorted(got) == _sorted(expect.to_pylist()), case


def test_anti_join_keeps_null_key_rows_and_drops_the_seed(ray_session):
    from engine.shuffle import join
    out = join(_side("rows", LEFT, LEFT_ROWS),
               _side("rows", RIGHT, RIGHT_ROWS), "k", "left_anti",
               right_on="rk", num_partitions=2)
    assert _sorted(out.take_all()) == _sorted([
        {"k": 2, "a": "y"}, {"k": 5, "a": "v"}, {"k": None, "a": "n"}])


def test_a_side_without_a_schema_has_no_rows(ray_session):
    """A map over an empty input never runs, so Ray knows no schema of
    it: the inner join with it and its anti join are empty, and an anti
    join against it keeps every left row."""
    import ray.data
    from engine.shuffle import join
    unknown = ray.data.from_arrow(LEFT.empty_table()).map_batches(
        lambda b: b, batch_format="pyarrow")
    rows = _side("rows", RIGHT, RIGHT_ROWS)
    assert join(rows, unknown, "rk", right_on="k").count() == 0
    assert join(unknown, rows, "k", "left_anti", right_on="rk").count() == 0
    assert join(rows, unknown, "rk", "left_anti",
                right_on="k").count() == len(RIGHT_ROWS)


def test_unknown_join_type_is_refused():
    from engine.shuffle import join
    with pytest.raises(ValueError, match="left_outer"):
        join(None, None, "k", "left_outer")
