"""Regression tests for self-review findings (round 1): numeric overflow
paths, huge consts, decimal routing, sliced fixed-size lists."""

import pyarrow as pa
import pytest

from engine.compile import compile_plan
from engine.kernels import validate_batch
from engine.oracle import validate as oracle_validate
from engine.rows import table_to_json_rows
from engine.schema import parse_schema


def parity(schema_json, table):
    schema = parse_schema(schema_json)
    got = validate_batch(compile_plan(schema), table)
    exp = []
    for r, inst in enumerate(table_to_json_rows(table)):
        for s, e in enumerate(oracle_validate(schema, inst)):
            exp.append((r, s, e))
    assert got == exp
    return got


def test_int64_beyond_2_53_with_bounds_does_not_crash():
    t = pa.table({"x": pa.array([2**53 + 1, -(2**53) - 1, 5], pa.int64())})
    s = ('{"type":"object","properties":'
         '{"x":{"type":"integer","minimum":0,"maximum":1e20}}}')
    errs = parity(s, t)
    # -(2^53)-1 is below minimum; big positives pass via lossy f64
    assert [e["kind"] for _, _, e in errs] == ["BelowMinimum"]


def test_huge_and_negative_consts_against_uint64():
    t = pa.table({"x": pa.array([2**63 + 5, 1], pa.uint64())})
    big = 2**63 + 5
    errs = parity('{"type":"object","properties":{"x":{"const": %d}}}' % big, t)
    assert [(d, e["kind"]) for d, _, e in errs] == [(1, "NotConst")]
    errs = parity('{"type":"object","properties":{"x":{"const": -1}}}', t)
    assert len(errs) == 2
    errs = parity('{"type":"object","properties":{"x":{"const": %d}}}'
                  % (2**64 + 1), t)
    assert len(errs) == 2  # out-of-range const matches nothing, no crash


def test_oracle_huge_python_int_clamps_to_inf():
    s = parse_schema('{"type":"number","minimum":0}')
    big = int("9" + "0" * 400)
    assert oracle_validate(s, big) == []
    s2 = parse_schema('{"type":"number","maximum":100}')
    errs = oracle_validate(s2, big)
    assert [e["kind"] for e in errs] == ["AboveMaximum"]
    # integer type still rejects > i64 (reference as_i64 semantics)
    s3 = parse_schema('{"type":"integer"}')
    assert [e["kind"] for e in oracle_validate(s3, big)] == \
        ["ExpectedInteger"]


def test_decimal_column_routes_to_unsupported():
    t = pa.table({"x": pa.array([1, 2], pa.decimal128(5, 2))})
    s = '{"type":"object","properties":{"x":{"type":"number"}}}'
    with pytest.raises(TypeError, match="no JSON mapping"):
        validate_batch(compile_plan(parse_schema(s)), t)


def test_sliced_fixed_size_list_offsets():
    fsl = pa.array([[1, 2], [3, 4], [99, -5]],
                   pa.list_(pa.int64(), 2)).slice(2)
    t = pa.Table.from_arrays([fsl], names=["x"])
    s = ('{"type":"object","properties":{"x":{"type":"array",'
         '"items":{"type":"integer","minimum":0}}}}')
    errs = parity(s, t)
    assert [(d, e["path"]) for d, _, e in errs] == [(0, ("x", "1"))]


def test_zero_column_rows_fail_required():
    t = pa.table({"meta": pa.array([1, 2])}).select([])
    s = '{"type":"object","required":["x"]}'
    errs = validate_batch(compile_plan(parse_schema(s)), t)
    assert [(d, e["kind"]) for d, _, e in errs] == \
        [(0, "MissingRequired"), (1, "MissingRequired")]


def test_exact_dedup_string_keys(ray_session):
    import pandas as pd
    import ray.data
    from engine.dedup import exact_duplicates
    df = pd.DataFrame({"doc_id": ["doc-a", "doc-b", "doc-c"],
                       "text": ["same", "same", "other"]})
    out = exact_duplicates(ray.data.from_pandas(df)).to_pandas()
    dup = out[out["dup_count"] > 1]
    assert list(dup["keep_id"]) == ["doc-a"]


def test_salt_scatters_hot_key_across_batches(ray_session):
    import pandas as pd
    import ray.data
    from engine.uniqueness import _KeyCountBatch
    import pyarrow as pa
    stage = _KeyCountBatch("k", 16, 2)
    b = pa.table({"k": pa.array(["hot"] * 100)})
    salts = {stage(b).column("salt")[0].as_py() for _ in range(24)}
    assert len(salts) > 1  # same key, same batch size -> different lanes


def test_null_json_instance_reported(ray_session):
    import pandas as pd
    import ray.data
    from engine.dataset import validate_json_column
    df = pd.DataFrame({"event_id": [1, 2], "props": ['{"k": 1}', None]})
    out = validate_json_column(
        ray.data.from_pandas(df), '{"type":"object","required":["k"]}',
        column="props", key_column="event_id").to_pandas()
    assert list(out["error_kind"]) == ["MissingInstance"]
    assert list(out["event_id"]) == [2]


def test_drift_unpartitioned_corpus(ray_session):
    import ray.data
    from engine.drift import build_baseline, drift_check
    ds = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")
    base = build_baseline(ds, numeric=("n_chars",), categorical=("lang",))
    res = drift_check(ds, base, numeric=("n_chars",),
                      categorical=("lang",)).to_pandas()
    assert set(res["partition_id"]) == {"all"}
    assert not res["drifted"].any()  # identical distribution


def test_empty_fact_fk_count(ray_session):
    import ray.data
    from engine.referential import count_dangling_fk
    orders = ray.data.read_parquet(
        "/root/testdata/sf0.001/orders.parquet").filter(
        lambda r: False)
    cust = ray.data.read_parquet("/root/testdata/sf0.001/customer.parquet")
    t = count_dangling_fk(orders, cust, fk="o_custkey", pk="c_custkey")
    assert t.column("n_dangling").to_pylist() == [0]


def test_fk_count_on_both_routes(ray_session, route):
    """Repeated, NULL and dangling fact keys against a dimension with a
    NULL key: each dangling fact ROW counts (key 9 twice), a NULL fk is
    no reference, and the NULL pk matches nothing."""
    import pyarrow as pa
    import ray.data
    from engine.referential import count_dangling_fk
    facts = ray.data.from_arrow([
        pa.table({"fk": pa.array([1, 9, None, 2], pa.int64())}),
        pa.table({"fk": pa.array([9, 1, 7, None], pa.int64())})])
    dim = ray.data.from_arrow(
        pa.table({"pk": pa.array([1, 2, None, 3], pa.int64())}))
    t = count_dangling_fk(facts, dim, fk="fk", pk="pk")
    assert t.column("n_dangling").to_pylist() == [3]


def test_lsh_pipelines_with_no_candidates(ray_session):
    """Empty candidate-pair sets must yield typed empty results, not a
    join crash on schemaless blocks (round-2 regression)."""
    import ray.data
    import pyarrow as pa
    import numpy as np
    from engine.dedup import (embedding_near_duplicates,
                              minhash_near_duplicates,
                              simhash_near_duplicates,
                              verify_pairs_jaccard)
    texts = [f"completely unique document number {i} with words {i*7}"
             for i in range(30)]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(30), pa.int64()),
        "text": pa.array(texts, pa.string())}))
    assert minhash_near_duplicates(ds, threshold=0.5).count() == 0
    assert simhash_near_duplicates(ds).count() == 0
    rng = np.random.default_rng(1)
    vecs = rng.standard_normal((20, 16))
    eds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(20), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float64()))}))
    assert embedding_near_duplicates(eds, dim=16,
                                     threshold=0.999).count() == 0
    pairs = ray.data.from_arrow(pa.table({
        "key_a": pa.array([], pa.int64()),
        "key_b": pa.array([], pa.int64())}))
    assert verify_pairs_jaccard(pairs, ds, threshold=0.0).count() == 0


def test_streaming_empty_micro_batch(ray_session, tmp_path):
    """An empty micro-batch must advance nothing and not crash."""
    import ray.data
    import numpy as np
    import pyarrow as pa
    from engine.streaming import process_micro_batch
    sd = str(tmp_path / "state")
    base = np.datetime64("2024-01-01T00:00:00", "us")
    full = pa.table({
        "user_id": pa.array([1], pa.int64()),
        "ts": pa.array([base], pa.timestamp("us")),
        "value": pa.array([1.0], pa.float64())})
    process_micro_batch(ray.data.from_arrow(full), sd, window="1h",
                        allowed_lateness="0s")
    empty = ray.data.from_arrow(full.slice(0, 0))
    closed, summary = process_micro_batch(empty, sd, window="1h",
                                          allowed_lateness="0s")
    assert closed.count() == 0
    assert summary["late_events"] == 0
    assert summary["open_windows"] == 1
