"""``engine.shuffle.combine``: per-batch partials merged by key.

Covers the NULL-key contract across blocks, the typed empty result,
min/max/count merging, re-combining partial rows (what a ``by_key``
partial output or carried streaming state relies on), ``derive``, the
keyless global row and ``finish`` over an empty result.
"""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

AGGS = {"n": ("n", "sum"), "lo": ("n", "min"), "hi": ("n", "max"),
        "c": ("n", "count")}


def _rows(ds):
    return sorted(ds.take_all(), key=lambda r: r["k"])


def _blocks(table, n):
    """``table`` as a materialized dataset of ``n`` blocks."""
    import ray.data
    ds = ray.data.from_arrow(table)
    if n > 1:
        ds = ds.repartition(n).materialize()
        assert ds.num_blocks() == n
    return ds


def test_string_key_with_nulls_over_blocks(ray_session):
    # Ray's sort-based groupby alone raises TypeError comparing None with
    # a string once a NULL and a value key share a reduce
    from engine.shuffle import combine
    ds = _blocks(pa.table({"k": ["a", None, "a", None, "b"],
                           "n": [1, 2, 3, 4, 5]}), 2)
    assert _rows(combine(ds, "k", {"n": ("n", "sum")})) == [
        {"k": "a", "n": 4}, {"k": "b", "n": 5}]


def test_nan_key_drops_like_null(ray_session):
    from engine.shuffle import combine
    ds = _blocks(pa.table({"k": [1.0, float("nan"), 1.0, None],
                           "n": [1, 2, 3, 4]}), 2)
    assert _rows(combine(ds, "k", {"n": ("n", "sum")})) == [
        {"k": 1.0, "n": 4}]


@pytest.mark.parametrize("keys", [[None, None], []])
def test_typed_empty_result(ray_session, keys):
    """An empty input and an all-NULL-key input both give a zero-row
    result typed as the non-empty one."""
    from engine.shuffle import combine
    ds = _blocks(pa.table({"k": pa.array(keys, pa.string()),
                           "n": pa.array([1, 2][:len(keys)], pa.int32())}),
                 1)
    out = combine(ds, "k", AGGS)
    assert out.count() == 0
    sch = out.schema()
    assert list(sch.names) == ["k", "n", "lo", "hi", "c"]
    assert list(sch.types) == [pa.string(), pa.int64(), pa.int32(),
                               pa.int32(), pa.int64()]


def test_min_max_count_merge_across_blocks(ray_session):
    from engine.shuffle import combine
    ks = ["x", "y", "x", "y", "x", "z", "x", "y"]
    ns = [5, None, -2, 7, 9, None, 1, 3]
    ds = _blocks(pa.table({"k": ks, "n": ns}), 4)
    out = _rows(combine(ds, "k", AGGS))
    expect = []
    for k in sorted(set(ks)):
        vals = [n for kk, n in zip(ks, ns) if kk == k and n is not None]
        expect.append({"k": k, "n": sum(vals) if vals else None,
                       "lo": min(vals) if vals else None,
                       "hi": max(vals) if vals else None, "c": len(vals)})
    assert out == expect


def test_recombining_partials_gives_the_same_rows(ray_session):
    from engine.shuffle import combine
    ds = _blocks(pa.table({"k": ["a", "b", "a", "c", "b", "a"],
                           "n": [1, 2, 3, 4, 5, 6]}), 3)
    once = combine(ds, "k", AGGS)
    again = combine(once.repartition(3), "k", {
        "n": ("n", "sum"), "lo": ("lo", "min"), "hi": ("hi", "max"),
        "c": ("c", "sum")})
    assert _rows(again) == _rows(once)


def test_derive_projects_before_the_partial(ray_session):
    from engine.shuffle import combine
    ds = _blocks(pa.table({"word": ["Aa", "aa", "b", None],
                           "w": [1.0, 2.0, 3.0, 4.0]}), 2)

    def lower(b):
        return pa.table({"k": pc.utf8_lower(b.column("word")),
                         "v": b.column("w")})

    out = combine(ds, "k", {"v": ("v", "sum")}, derive=lower)
    assert _rows(out) == [{"k": "aa", "v": 3.0}, {"k": "b", "v": 3.0}]


def test_keyless_combine_is_one_global_row(ray_session):
    from engine.shuffle import combine
    ds = _blocks(pa.table({"n": [1, 2, 3, None]}), 2)
    assert combine(ds, [], {"s": ("n", "sum"), "c": ("n", "count")}) \
        .take_all() == [{"s": 6, "c": 3}]


def test_finish_keeps_an_empty_result_typed(ray_session):
    from engine.shuffle import combine, finish
    ds = _blocks(pa.table({"k": pa.array([None], pa.string()),
                           "n": [1]}), 1)

    def mean(b):
        return pa.table({"k": b.column("k"),
                         "m": pc.divide(pc.cast(b.column("s"), pa.float64()),
                                        b.column("c"))})

    out = finish(combine(ds, "k", {"s": ("n", "sum"),
                                   "c": ("n", "count")}), mean)
    assert out.count() == 0
    assert list(out.schema().types) == [pa.string(), pa.float64()]


def test_tiny_combine_blocks_concatenate(ray_session):
    """Five rows over three keys merged by at least 8 reduces: every
    block of the result holds rows of one schema, so the block tables
    concatenate (zero-row schemaless reduce blocks raised ArrowInvalid),
    and ``finish`` over them does too."""
    import ray
    from engine.shuffle import combine, finish
    ds = _blocks(pa.table({"k": ["a", "b", "a", "c", "b"],
                           "n": [1, 2, 3, 4, 5]}), 2)
    out = combine(ds, "k", {"n": ("n", "sum")})
    for res in (out, finish(out, lambda b: b)):
        t = pa.concat_tables(ray.get(res.to_arrow_refs()))
        assert sorted(t.to_pylist(), key=lambda r: r["k"]) == [
            {"k": "a", "n": 4}, {"k": "b", "n": 7}, {"k": "c", "n": 4}]
