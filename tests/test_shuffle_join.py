"""``engine.shuffle.join``: the engine's one join, on both routes (the
``route`` fixture: a broadcast right side, and the hash join).

Each kind of side (rows, rows behind a zero-row first block, a zero-row
``from_arrow``, a side lazily filtered to empty, all-NULL keys) joins a
side with rows, both ways round, at 1, 2 and 4 partitions, inner and
left-anti. The rows equal pyarrow's ``Table.join`` of the same sides
(duplicate keys on both sides, int and string keys), no seed row leaks,
NULL-key left rows survive the anti join, the result is typed, and
every block has the joined schema (an anti join's zero-row blocks may
have none: see below).
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


def _check_join(out, expect, how, case):
    """``out`` has ``expect``'s rows, and the blocks and schema above."""
    import ray
    blocks = [ray.get(ref) for bundle in out.iter_internal_ref_bundles()
              for ref, _ in bundle.blocks]
    for b in blocks:
        # an anti join runs a map over the left side (the hash route's
        # seed filter, the broadcast probe), and Ray skips a map on a
        # zero-row block and emits it without a schema
        if how == "inner" or b.num_rows:
            assert b.schema.remove_metadata() == expect.schema, case
        else:
            assert b.schema.names in ([], expect.schema.names), case
    if any(b.num_rows for b in blocks) or how == "inner":
        assert out.schema().base_schema.remove_metadata() \
            == expect.schema, case
    got = [r for b in blocks for r in b.to_pylist()]
    assert _sorted(got) == _sorted(expect.to_pylist()), case


@pytest.mark.parametrize("how", ["inner", "left_anti"])
@pytest.mark.parametrize("parts", [1, 2, 4])
def test_join_matches_arrow(ray_session, route, how, parts):
    from engine.shuffle import join

    for lk, rk in PAIRS:
        lt = pa.concat_tables(_tables(lk, LEFT, LEFT_ROWS))
        rt = pa.concat_tables(_tables(rk, RIGHT, RIGHT_ROWS))
        expect = lt.join(rt, "k", right_keys="rk",
                         join_type=how.replace("_", " "))
        out = join(_side(lk, LEFT, LEFT_ROWS), _side(rk, RIGHT, RIGHT_ROWS),
                   "k", how, right_on="rk", num_partitions=parts)
        _check_join(out, expect, how, (lk, rk))


@pytest.mark.parametrize("how", ["inner", "left_anti"])
def test_string_keys_with_duplicates_match_arrow(ray_session, route, how):
    """String keys, a key repeated on both sides (rows multiply), a NULL
    key on both sides and a key on one side only; the key columns share
    one name, so the right key is dropped as with ``right_on``."""
    import ray.data
    from engine.shuffle import join

    lt = pa.table({"k": ["b", "a", None, "b", "zz", "é"],
                   "n": [1, 2, 3, 4, 5, 6]})
    rt = pa.table({"k": ["b", "c", "b", None, "é", "a", "b"],
                   "v": [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5]})
    expect = lt.join(rt, "k", join_type=how.replace("_", " "))
    out = join(ray.data.from_arrow([lt.slice(0, 3), lt.slice(3)]),
               ray.data.from_arrow([rt.slice(0, 4), rt.slice(4)]), "k", how)
    _check_join(out, expect, how, how)


def test_anti_join_keeps_null_key_rows_and_drops_the_seed(ray_session,
                                                          route):
    from engine.shuffle import join
    out = join(_side("rows", LEFT, LEFT_ROWS),
               _side("rows", RIGHT, RIGHT_ROWS), "k", "left_anti",
               right_on="rk", num_partitions=2)
    assert _sorted(out.take_all()) == _sorted([
        {"k": 2, "a": "y"}, {"k": 5, "a": "v"}, {"k": None, "a": "n"}])


def test_a_side_without_a_schema_has_no_rows(ray_session, route):
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


@pytest.mark.parametrize("how", ["inner", "left_anti"])
def test_broadcast_side_is_freed_with_the_join(ray_session, monkeypatch,
                                               how):
    """The broadcast right side lives as long as the join's dataset:
    once the result is consumed and dropped, no process references the
    shipped object (no worker keeps it, or an index of it, past a
    batch)."""
    import gc
    import time

    import ray
    from engine.shuffle import join

    shipped, put = [], ray.put

    def _put(value, **kwargs):
        ref = put(value, **kwargs)
        if isinstance(value, tuple):
            shipped.append(ref.hex().encode())
        return ref

    monkeypatch.setattr(ray, "put", _put)
    out = join(_side("rows", LEFT, LEFT_ROWS),
               _side("rows", RIGHT, RIGHT_ROWS), "k", how, right_on="rk")
    assert len(out.take_all()) == (5 if how == "inner" else 3)
    assert len(shipped) == 1
    del out
    gc.collect()
    core = ray._private.worker.global_worker.core_worker
    deadline = time.monotonic() + 30
    while shipped[0] in core.get_all_reference_counts():
        assert time.monotonic() < deadline, "the broadcast side is held"
        time.sleep(0.2)


@pytest.mark.parametrize("how", ["inner", "left_anti"])
def test_int32_key_meets_int64_key(ray_session, how):
    """On the broadcast route, integer keys of different widths join on
    their values, negative ones included (the hash route, like pyarrow's
    ``Table.join``, refuses keys of different types)."""
    import ray.data
    from engine.shuffle import join
    lt = pa.table({"k": pa.array([-3, 1, 7, None], pa.int32()),
                   "a": ["p", "q", "r", "s"]})
    rt = pa.table({"k": pa.array([-3, 7, 8], pa.int64()),
                   "b": [0.5, 1.5, 2.5]})
    out = join(ray.data.from_arrow(lt), ray.data.from_arrow(rt), "k", how)
    got = sorted(r["a"] for r in out.take_all())
    assert got == (["p", "r"] if how == "inner" else ["q", "s"])
