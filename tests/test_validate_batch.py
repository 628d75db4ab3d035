"""``ValidateBatch`` output, pinned.

The violations table of a batch is the engine's product: its bytes must not
move when the emission internals change. Digests pin every output column of
seeded SynthSpans batches; small literal cases pin the schema and rows of
the edge batches (no violation, no row, escaped property names, array
indexes at two depths).
"""

import hashlib
import json

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from engine.dataset import ValidateBatch
from engine.synth import SynthSpans
from test_dataset import SF_DIR


def _digest(table: pa.Table) -> str:
    h = hashlib.sha256()
    for name in table.column_names:
        col = table.column(name)
        h.update(f"{name}:{col.type}\n".encode())
        h.update(json.dumps(col.to_pylist(), default=str).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def documents():
    return pq.read_table(f"{SF_DIR}/documents.parquet",
                         columns=["doc_id", "text"])


def _spans(documents, rate: float) -> pa.Table:
    """2,000 SynthSpans documents (500 sources x 4 replicas), seed 7."""
    table = SynthSpans(replicate=4, partitions=4, seed=7,
                       violation_rate=rate)(documents)
    assert table.num_rows == 2000
    return table


@pytest.mark.parametrize("rate, with_message, rows, digest", [
    (0.02, False, 296,
     "8013c45a6849772ffc9e902b30c0a498e271be0f44612de69044661abaea580f"),
    (0.02, True, 296,
     "e1cfbe4c09111f1344e573119a68174ef4cb5316809c4518f6fe0c989c6cdbf0"),
    (0.2, False, 2862,
     "e41491e3a384556be0df4dfff8854f772a31862a8c5a1e19b402dbf4bad14af1"),
    (0.2, True, 2862,
     "451b5df2430bb2f0cdd54ebc1f77d5ef71fd5111dd2032dec6c4aa30b45ac191"),
])
def test_synth_batch_bytes_pinned(documents, rate, with_message, rows,
                                  digest):
    out = ValidateBatch(with_message=with_message)(_spans(documents, rate))
    assert out.num_rows == rows
    assert _digest(out) == digest


OUT_SCHEMA = [("partition_id", "string"), ("doc_id", "string"),
              ("error_seq", "int32"), ("error_kind", "string"),
              ("instance_path", "string"), ("message", "string"),
              ("context", "string"),
              ("spans", "list<item: struct<kind: string, text: string, "
                        "media_ref: string, offset: int32>>")]


def _schema(table: pa.Table):
    return [(f.name, str(f.type)) for f in table.schema]


@pytest.mark.parametrize("with_message", [True, False])
def test_violation_free_and_zero_row_batches(documents, with_message):
    stage = ValidateBatch(with_message=with_message)
    want = [f for f in OUT_SCHEMA if with_message or f[0] != "message"]
    clean = _spans(documents, 0.0)
    for batch in (clean, clean.slice(0, 0)):
        out = stage(batch)
        assert out.num_rows == 0
        assert _schema(out) == want


ESCAPES_SCHEMA = json.dumps({
    "type": "object",
    "required": ["id", "a/b", "m~n"],
    "properties": {
        "id": {"type": "string"},
        "a/b": {"type": "object", "properties": {
            "~/x": {"type": "integer", "maximum": 3}}},
        "m~n": {"type": "string", "maxLength": 2},
    },
    "additionalProperties": False,
})


def test_escaped_property_names():
    batch = pa.table({
        "id": ["d0", "d1", "d2"],
        "a/b": pa.array([{"~/x": 9}, None, {"~/x": 1}],
                        pa.struct([("~/x", pa.int64())])),
        "m~n": ["ok", "long", None],
        "x/~y": [None, None, "extra"],
    })
    out = ValidateBatch(ESCAPES_SCHEMA, key_column="id", carry_columns=(),
                        instance_columns=["id", "a/b", "m~n", "x/~y"])(batch)
    assert _schema(out) == [
        ("id", "string"), ("error_seq", "int32"), ("error_kind", "string"),
        ("instance_path", "string"), ("message", "string"),
        ("context", "string")]
    assert out.to_pylist() == [
        {"id": "d0", "error_seq": 0, "error_kind": "AboveMaximum",
         "instance_path": "/a~1b/~0~1x",
         "message": "/a~1b/~0~1x: value 9 is above maximum 3",
         "context": '{"maximum": 3.0, "actual": 9.0}'},
        {"id": "d1", "error_seq": 0, "error_kind": "MissingRequired",
         "instance_path": "/a~1b",
         "message": '/a~1b: missing required property "a/b"',
         "context": '{"property": "a/b"}'},
        {"id": "d1", "error_seq": 1, "error_kind": "TooLong",
         "instance_path": "/m~0n",
         "message": "/m~0n: string has 4 code points, maxLength is 2",
         "context": '{"max_length": 2, "actual_length": 4}'},
        {"id": "d2", "error_seq": 0, "error_kind": "MissingRequired",
         "instance_path": "/m~0n",
         "message": '/m~0n: missing required property "m~n"',
         "context": '{"property": "m~n"}'},
        {"id": "d2", "error_seq": 1,
         "error_kind": "DisallowedAdditionalProperty",
         "instance_path": "/x~1~0y",
         "message": '/x~1~0y: additional property "x/~y" not allowed',
         "context": '{"property": "x/~y"}'},
    ]


NESTED_SCHEMA = json.dumps({
    "type": "object",
    "properties": {
        "id": {"type": "string"},
        "m": {"type": "array", "maxItems": 2, "items": {
            "type": "array", "items": {"type": "integer", "maximum": 5}}},
    },
})


def test_index_segments_at_two_depths():
    batch = pa.table({
        "id": ["d0", "d1", "d2"],
        "m": pa.array([[[1, 9], [7]], [[6, 6, 1]], [[], [2], [3]]],
                      pa.list_(pa.list_(pa.int64()))),
    })
    out = ValidateBatch(NESTED_SCHEMA, key_column="id", carry_columns=(),
                        with_message=False)(batch)
    assert [(r["id"], r["error_seq"], r["error_kind"], r["instance_path"],
             r["context"]) for r in out.to_pylist()] == [
        ("d0", 0, "AboveMaximum", "/m/0/1",
         '{"maximum": 5.0, "actual": 9.0}'),
        ("d0", 1, "AboveMaximum", "/m/1/0",
         '{"maximum": 5.0, "actual": 7.0}'),
        ("d1", 0, "AboveMaximum", "/m/0/0",
         '{"maximum": 5.0, "actual": 6.0}'),
        ("d1", 1, "AboveMaximum", "/m/0/1",
         '{"maximum": 5.0, "actual": 6.0}'),
        ("d2", 0, "TooManyItems", "/m",
         '{"max_items": 2, "actual_count": 3}'),
    ]
