"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the DRIVER before this module is imported; nothing here
calls ``ray.init``/``ray.shutdown``. Each ``queries()`` entry is one operator
/ pipeline from SURVEY.md §2 (plus the training-data operators); each
``oracle_sql()`` entry is the DuckDB-equivalent SQL over the pre-registered
views (region nation customer supplier part orders lineitem events documents
embeddings). Column names match exactly between the Ray result and the SQL.

Most queries are one row of the query table ``_QUERIES``: an engine operator,
its sources and kwargs, and how :func:`_finish` rounds, renames, keeps and
sorts its output. The queries that do not fit a row are functions registered
with ``@_bespoke(name)``, and they finish through the same :func:`_finish`.

Float-valued aggregates are rounded half-away-from-zero on BOTH sides (same
decimals) so summation-order differences cannot flip the value hash.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections.abc import Callable
from typing import Any, NamedTuple

import numpy as np
import pyarrow as pa


# ---------------------------------------------------------------------------
# helpers

#: below this on-disk size the read is split to cluster width explicitly —
#: a small single-row-group file otherwise becomes ONE block and every
#: downstream map_batches stage runs on one CPU; large tables keep Ray's
#: natural per-file/row-group splitting (an override there would CAP read
#: parallelism, the opposite failure)
_SPLIT_SMALL_READ_BYTES = 256 * 1024 * 1024


def _split_blocks(path: str):
    try:
        if os.path.getsize(path) >= _SPLIT_SMALL_READ_BYTES:
            return None
    except OSError:  # pragma: no cover - remote path
        return None
    from engine.shuffle import reduce_blocks
    return reduce_blocks()


def _read(sf_dir: str, name: str, columns: str | None = None):
    """Column-pruned parquet read: pass ``columns`` (space-separated names)
    so only the needed columns leave storage (Ray does not push
    projections through ``map_batches``; at 100 TB an unpruned scan is the
    largest wasted-IO multiplier)."""
    import ray.data
    path = os.path.join(sf_dir, f"{name}.parquet")
    return ray.data.read_parquet(
        path, columns=columns.split() if columns else None,
        override_num_blocks=_split_blocks(path))


def _round_half_away(x, decimals: int):
    """Matches DuckDB ROUND (half away from zero), unlike numpy's half-even."""
    f = 10.0 ** decimals
    return np.sign(x) * np.floor(np.abs(np.asarray(x, dtype=np.float64)) * f
                                 + 0.5) / f


def _round_cols(t, cols: dict):
    """Round each ``{column: decimals}`` of an Arrow table or a pandas frame
    half away from zero. In Arrow a NaN result is stored as NULL; the
    driver's pandas frame reads both as NaN."""
    for c, d in cols.items():
        if isinstance(t, pa.Table):
            v = _round_half_away(t.column(c).to_numpy(zero_copy_only=False),
                                 d)
            t = t.set_column(t.column_names.index(c), c,
                             pa.array(v, pa.float64(), from_pandas=True))
        else:
            t[c] = _round_half_away(t[c].to_numpy(), d)
    return t


def _shape(t, round: dict, rename, keep):
    """:func:`_round_cols`, then ``rename`` and ``keep`` (the output
    columns, in order) on one Arrow batch or pandas frame."""
    t = _round_cols(t, round)
    if isinstance(t, pa.Table):
        if rename:
            t = t.rename_columns([rename.get(c, c) for c in t.column_names])
        return t.select(keep) if keep else t
    if rename:
        t = t.rename(columns=rename)
    return t[keep] if keep else t


def _finish(out, round=None, keep=None, sort=None, descending=None,
            rename=None):
    """The one finish every query shares: round, rename and keep through
    :func:`_shape` (one ``map_batches`` on a Dataset), then sort by the
    key(s) ``sort`` (``descending`` as in ``Dataset.sort``)."""
    import pandas as pd
    if round or rename or keep:
        shape = functools.partial(_shape, round=round or {}, rename=rename,
                                  keep=keep)
        out = shape(out) if isinstance(out, (pa.Table, pd.DataFrame)) \
            else out.map_batches(shape, batch_format="pyarrow")
    if not sort:
        return out
    if isinstance(out, pd.DataFrame):
        asc = [not d for d in descending] if descending else True
        return out.sort_values(sort, ascending=asc).reset_index(drop=True)
    return out.sort(sort, descending=descending or False)


class _Query(NamedTuple):
    """One row of the query table: the engine operator ``op``
    (``"module.function"`` under ``engine``) applied to ``sources`` and
    ``kwargs``, collected to pandas when ``pandas``, then :func:`_finish`
    with ``finish``. The operator is imported when the query runs, so one
    broken engine import fails only its own queries."""
    op: str
    sources: tuple
    kwargs: dict
    finish: dict
    pandas: bool

    def __call__(self, sf_dir: str):
        module, name = self.op.rsplit(".", 1)
        op = getattr(importlib.import_module(f"engine.{module}"), name)
        out = op(*(_source(sf_dir, s) for s in self.sources), **self.kwargs)
        return _finish(out.to_pandas() if self.pandas else out,
                       **self.finish)


def _row(op: str, *sources, round=None, keep=None, sort=None,
         descending=None, rename=None, pandas=False, **kwargs) -> _Query:
    """A table row: the named keywords go to :func:`_finish` (``pandas``
    collects the result first); every other keyword goes to ``op``."""
    return _Query(op, sources, kwargs,
                  dict(round=round, keep=keep, sort=sort,
                       descending=descending, rename=rename), pandas)


def _source(sf_dir: str, src: tuple):
    """A row source: ``(table, columns)`` is a :func:`_read` (all columns
    when ``columns`` is left out); ``(helper, *args)`` calls a named source
    helper or a nested row."""
    if callable(src[0]):
        return src[0](sf_dir, *src[1:])
    return _read(sf_dir, *src)


_BESPOKE: dict[str, Callable[[str], Any]] = {}


def _bespoke(name: str):
    """Register a query that does not fit one table row under ``name``."""
    def _register(fn):
        _BESPOKE[name] = fn
        return fn
    return _register


#: Typed-validation schema applied to the ``documents`` table — exercises
#: required / type / bounds / length / enum / pattern keywords on real data.
DOCS_SCHEMA_JSON = """
{"type": "object",
 "required": ["doc_id", "text", "lang", "source", "n_chars"],
 "properties": {
   "doc_id": {"type": "integer", "minimum": 0},
   "text":   {"type": "string", "minLength": 1, "maxLength": 400},
   "lang":   {"enum": ["en", "de", "fr", "es"]},
   "source": {"type": "string", "pattern": "^src[0-9]$"},
   "n_chars": {"type": "integer", "minimum": 0, "maximum": 500}}}
"""

#: Second documents schema for the one-pass multi-schema query: stricter
#: bounds so its violation set differs from DOCS_SCHEMA_JSON.
DOCS_SCHEMA_STRICT_JSON = """
{"type": "object",
 "required": ["doc_id", "text"],
 "properties": {
   "text":   {"type": "string", "minLength": 20},
   "n_chars": {"type": "integer", "maximum": 200}}}
"""

#: List-keyword schema applied to ``embeddings`` — array length, per-element
#: bounds, uniqueItems, integer bounds on ``label``.
EMB_SCHEMA_JSON = """
{"type": "object",
 "required": ["vec_id", "embedding", "label"],
 "properties": {
   "vec_id": {"type": "integer", "minimum": 0},
   "embedding": {"type": "array", "minItems": 64, "maxItems": 64,
                  "uniqueItems": true,
                  "items": {"type": "number", "minimum": -0.5,
                            "maximum": 0.45}},
   "label": {"type": "integer", "minimum": 0, "maximum": 8}}}
"""

#: Schema for the JSON strings in ``events.props``.
PROPS_SCHEMA_JSON = ('{"type":"object","required":["k"],'
                     '"properties":{"k":{"type":"integer","minimum":0,'
                     '"maximum":50}}}')

_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


# ---------------------------------------------------------------------------
# source helpers: derived inputs that table rows name as (helper, *args)

_DOC_TEXT = ("documents", "doc_id text")
_EVENTS = ("events", "event_id ts user_id value")


def _spans_corpus(sf_dir: str, partitions: int = 4):
    from engine.synth import SynthSpans
    return _read(sf_dir, *_DOC_TEXT).map_batches(
        SynthSpans(replicate=1, partitions=partitions, seed=42),
        batch_format="pyarrow", batch_size=4096)


def _media_catalog(sf_dir: str):
    """Every media_ref the spans corpus may point at."""
    import ray.data
    from engine.synth import CATALOG_SIZE, media_ref_for
    return ray.data.from_arrow(pa.table({
        "media_ref": [media_ref_for(i) for i in range(CATALOG_SIZE)]}))


def _restricted_customers(sf_dir: str):
    """Customer keys with c_custkey % 7 != 0, so an anti-join against them
    leaves a non-empty, checkable dangling set."""
    def _restrict(b: pa.Table) -> pa.Table:
        keys = b.column("c_custkey").to_numpy(zero_copy_only=False)
        return b.filter(pa.array((keys % 7) != 0))
    return _read(sf_dir, "customer", "c_custkey").map_batches(
        _restrict, batch_format="pyarrow")


def _hi_value_users(sf_dir: str, kind: str):
    """Events of one type with value > 95, projected to user_id — the
    filtered side of the set-op queries (vectorized Arrow filter)."""
    import pyarrow.compute as pc

    def _keep(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(b.column("event_type"), kind),
                    pc.greater(b.column("value"), 95.0))
        return b.filter(m).select(["user_id"])

    return _read(sf_dir, "events", "user_id event_type value") \
        .map_batches(_keep, batch_format="pyarrow")


def _planted_embeddings(sf_dir: str, *plants):
    """The embeddings table plus an exact copy of every vec_id < limit at
    vec_id + offset, for each ``(limit, offset)``. Identical vectors land in
    the same LSH bucket in every table (guaranteed recall) at cosine 1.0;
    the max organic pairwise cosine in the corpus is ~0.51, so the SQL
    brute-force pair set matches the LSH candidate set at 0.99."""
    import pyarrow.compute as pc
    base = _read(sf_dir, "embeddings", "vec_id embedding")

    def _copies(limit: int, offset: int):
        def _fn(b: pa.Table) -> pa.Table:
            sub = b.filter(pc.less(b.column("vec_id"), limit))
            return pa.table({
                "vec_id": pc.add(sub.column("vec_id"), offset),
                "embedding": sub.column("embedding")})
        return _fn

    return base.union(*[base.map_batches(_copies(*p), batch_format="pyarrow")
                        for p in plants])


def _planted_docs(sf_dir: str):
    """Documents with deterministically planted PII markers (the synthetic
    corpus has none): doc_id % 7 == 0 gains an email, % 11 == 0 an IPv4.
    The oracles reproduce the augmentation, and pyarrow and DuckDB share
    RE2 semantics."""
    import pyarrow.compute as pc

    def _mark(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        base = pc.fill_null(pc.cast(b.column("text"), pa.string()), "")
        out = [t + (f" contact_{i}@example.com" if i % 7 == 0 else "")
               + (f" ip 10.0.0.{i % 256}" if i % 11 == 0 else "")
               for i, t in zip(ids, base.to_pylist())]
        return pa.table({"doc_id": b.column("doc_id"),
                         "text": pa.array(out, pa.string())})

    return _read(sf_dir, *_DOC_TEXT).map_batches(_mark,
                                                 batch_format="pyarrow")


def _contamination_side(sf_dir: str, test: bool):
    """One side of a deterministic train/test split of the documents:
    doc_id % 5 == 0 is the test side."""
    def _fn(b: pa.Table) -> pa.Table:
        m = (b.column("doc_id").to_numpy(zero_copy_only=False) % 5) == 0
        return b.filter(pa.array(m if test else ~m))
    return _read(sf_dir, *_DOC_TEXT).map_batches(_fn, batch_format="pyarrow")


def _novelty_side(sf_dir: str, ref: bool):
    """doc_id < 100 is the reference corpus; the rest are scored."""
    import pyarrow.compute as pc

    def _fn(b: pa.Table) -> pa.Table:
        m = pc.less(b.column("doc_id"), 100)
        return b.filter(m if ref else pc.invert(m))
    return _read(sf_dir, *_DOC_TEXT).map_batches(_fn, batch_format="pyarrow")


def _day_values(sf_dir: str):
    """(day, value) per event with a timestamp; day is 'YYYY-MM-DD'."""
    def _day(b: pa.Table) -> pa.Table:
        import pandas as pd
        ts = b.column("ts").to_numpy(zero_copy_only=False)
        sub = b.filter(pa.array(~pd.isna(ts)))
        day = np.datetime_as_string(
            sub.column("ts").to_numpy(zero_copy_only=False)
            .astype("datetime64[D]"))
        return pa.table({"day": pa.array(day, pa.string()),
                         "value": sub.column("value")})
    return _read(sf_dir, "events", "ts value").map_batches(
        _day, batch_format="pyarrow")


def _month_priorities(sf_dir: str):
    """(month, pri) per order with a date; month is 'YYYY-MM'."""
    def _month(b: pa.Table) -> pa.Table:
        import pandas as pd
        od = b.column("o_orderdate").to_numpy(zero_copy_only=False)
        sub = b.filter(pa.array(~pd.isna(od)))
        month = np.datetime_as_string(
            sub.column("o_orderdate").to_numpy(zero_copy_only=False)
            .astype("datetime64[M]"))
        return pa.table({"month": pa.array(month, pa.string()),
                         "pri": sub.column("o_orderpriority")})
    return _read(sf_dir, "orders", "o_orderdate o_orderpriority") \
        .map_batches(_month, batch_format="pyarrow")


def _custkey_day_keys(sf_dir: str):
    """One composite 'custkey|YYYY-MM-DD' key (``ckey``) per order."""
    def _key(b: pa.Table) -> pa.Table:
        import pandas as pd
        day = pd.Series(b.column("o_orderdate")
                        .to_numpy(zero_copy_only=False)) \
            .dt.strftime("%Y-%m-%d")
        ck = b.column("o_custkey").to_numpy(zero_copy_only=False)
        return pa.table({"ckey": pa.array(
            [f"{c}|{d}" for c, d in zip(ck.tolist(), day.tolist())],
            pa.string())})
    return _read(sf_dir, "orders", "o_custkey o_orderdate") \
        .map_batches(_key, batch_format="pyarrow")


def _qty_buckets(sf_dir: str):
    """(qty_bucket, l_discount) per line item with a quantity;
    qty_bucket = floor(l_quantity / 10)."""
    def _bucket(b: pa.Table) -> pa.Table:
        q = b.column("l_quantity").to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore"):
            keep = ~np.isnan(q)
        sub = b.filter(pa.array(keep))
        bucket = np.floor(q[keep] / 10.0).astype(np.int64)
        return pa.table({"qty_bucket": pa.array(bucket, pa.int64()),
                         "l_discount": sub.column("l_discount")})
    return _read(sf_dir, "lineitem", "l_quantity l_discount") \
        .map_batches(_bucket, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# bespoke queries: pipelines that do not fit one table row

@_bespoke("quality_scores")
def _q_quality(sf_dir: str):
    import pyarrow.compute as pc
    from engine.textstats import token_count_batch

    def _count(x):
        return pc.cast(pc.fill_null(x, 0), pa.int64())

    def _fn(batch: pa.Table) -> pa.Table:
        t = batch.column("text")
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_chars": _count(pc.utf8_length(t)),
            "n_tokens": _count(token_count_batch(t)),
            "n_punct": _count(pc.count_substring_regex(t, r"[.,!?;:]")),
            "n_digits": _count(pc.count_substring_regex(t, r"[0-9]"))})

    return _read(sf_dir, *_DOC_TEXT).map_batches(
        _fn, batch_format="pyarrow", zero_copy_batch=True)


@_bespoke("lang_distribution")
def _q_lang_distribution(sf_dir: str):
    return _finish(_read(sf_dir, "documents", "lang").groupby("lang").count(),
                   rename={"count()": "n_docs"})


@_bespoke("simhash_fingerprints")
def _q_simhash(sf_dir: str):
    from engine.dedup import simhash_fingerprints

    def _hex(b: pa.Table) -> pa.Table:
        # uint64 -> hex string for portable hashing by the driver
        # (np.char.mod formats the whole column in one call)
        v = b.column("simhash").to_numpy(zero_copy_only=False)
        hx = np.char.mod("%016x", v.astype(np.uint64))
        return pa.table({
            "doc_id": b.column("doc_id"),
            "simhash": pa.array(hx.tolist(), pa.string())})
    return simhash_fingerprints(_read(sf_dir, *_DOC_TEXT)).map_batches(
        _hex, batch_format="pyarrow")


@_bespoke("jaccard_verify")
def _q_jaccard_verify(sf_dir: str):
    """Exact n-gram Jaccard of a deterministic candidate-pair set
    (consecutive doc_ids among the first 200 docs)."""
    import ray.data
    from engine.dedup import verify_pairs_jaccard
    pairs = ray.data.from_arrow(pa.table({
        "key_a": pa.array(range(0, 199), pa.int64()),
        "key_b": pa.array(range(1, 200), pa.int64())}))
    out = verify_pairs_jaccard(pairs, _read(sf_dir, *_DOC_TEXT), n=3,
                               threshold=0.0)
    return _finish(out, round={"jaccard": 4})


@_bespoke("ann_cosine_topk")
def _q_ann_topk(sf_dir: str):
    import pyarrow.parquet as pq
    from engine.similarity import cosine_topk
    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                        columns=["vec_id", "embedding"])
    df = emb.to_pandas().set_index("vec_id")
    qids = [0, 7]
    queries = np.stack([np.asarray(df.loc[q, "embedding"]) for q in qids])
    out = cosine_topk(_read(sf_dir, "embeddings", "vec_id embedding"),
                      queries, k=5).to_pandas()
    out["query_id"] = out["query_id"].map(
        {i: q for i, q in enumerate(qids)}).astype("int32")
    return _finish(out, round={"cosine": 4}, rename={"key": "vec_id"},
                   keep=["query_id", "vec_id", "cosine", "rank"])


@_bespoke("ivf_topk")
def _q_ivf_topk(sf_dir: str):
    import pyarrow.parquet as pq
    from engine.similarity import ivf_topk, train_codebook
    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                        columns=["vec_id", "embedding"]).to_pandas()
    queries = np.stack([np.asarray(v) for v in emb["embedding"].head(3)])
    ds = _read(sf_dir, "embeddings", "vec_id embedding")
    cb = train_codebook(ds, n_cells=8)
    return ivf_topk(ds, queries, cb, k=5, nprobe=4)


@_bespoke("infer_schema_documents")
def _q_infer_schema_documents(sf_dir: str):
    """Reverse codegen (C10): infer a JSON Schema from the documents table's
    Arrow schema, one row per property with its schema fragment."""
    import json
    import pyarrow.parquet as pq
    from engine.schema_compiler import arrow_schema_to_json_schema
    sch = pq.ParquetFile(
        os.path.join(sf_dir, "documents.parquet")).schema_arrow
    inferred = arrow_schema_to_json_schema(sch)
    return pa.Table.from_pylist([
        {"property": k, "fragment": json.dumps(v, sort_keys=True)}
        for k, v in sorted(inferred["properties"].items())])


def _media_query(op_name: str, col: str, **kwargs):
    """A multimodal operator over 200 synthetic media refs (stubbed decode,
    real pipeline); the feature lists come back as float32 lists."""
    import ray.data
    from engine import multimodal
    from engine.synth import media_ref_for
    refs = [media_ref_for(i) for i in range(200)]
    ds = ray.data.from_arrow(multimodal.synth_media_table(refs))
    out = getattr(multimodal, op_name)(ds, batch_size=32, **kwargs) \
        .to_pandas()
    out[col] = out[col].map(lambda a: np.asarray(a, np.float32).tolist())
    return out


@_bespoke("audio_features")
def _q_audio_features(sf_dir: str):
    return _media_query("audio_features", "audio_features", n_samples=1024)


@_bespoke("multimodal_features")
def _q_multimodal_features(sf_dir: str):
    return _media_query("decode_and_featurize", "features", target=16)


@_bespoke("exact_quantiles_lineitem")
def _q_exact_quantiles(sf_dir: str):
    """Exact quantile_cont over l_extendedprice via the distributed
    selection operator (three map-only passes; the corpus never shuffles)
    — bit-compatible with DuckDB's interpolation."""
    from engine.stats import exact_quantiles
    qs = [0.25, 0.5, 0.75, 0.95]
    got = exact_quantiles(_read(sf_dir, "lineitem", "l_extendedprice"),
                          "l_extendedprice", qs)
    return _finish(pa.table({"q": pa.array(qs, pa.float64()),
                             "value": [got[q] for q in qs]}),
                   round={"value": 4})


@_bespoke("asof_last_purchase")
def _q_asof_last_purchase(sf_dir: str):
    """Point-in-time join: for every non-purchase event, the value of the
    user's latest purchase at or before the event (DuckDB ASOF JOIN
    parity; right-side ties dedup to the greatest event_id)."""
    import pyarrow.compute as pc
    from engine.relational import asof_join
    ev = _read(sf_dir, "events", "event_id ts user_id event_type value")

    def _split(want_purchase: bool):
        def _fn(b: pa.Table) -> pa.Table:
            m = pc.equal(b.column("event_type"), "purchase")
            return b.filter(m if want_purchase else pc.invert(m))
        return _fn

    def _name(b: pa.Table) -> pa.Table:
        # an empty block's value column arrives untyped
        return pa.table({
            "event_id": b.column("event_id"),
            "last_purchase_value": pc.cast(b.column("value"), pa.float64())})

    out = asof_join(ev.map_batches(_split(False), batch_format="pyarrow"),
                    ev.map_batches(_split(True), batch_format="pyarrow"))
    return out.map_batches(_name, batch_format="pyarrow").sort("event_id")


@_bespoke("events_after_purchase")
def _q_events_after_purchase(sf_dir: str):
    """Range join: every non-purchase event inside the 2-hour window after
    a purchase by the same user (overlapping windows emit one row per
    match) — bounded-length interval-join parity with a DuckDB
    inequality join."""
    import pyarrow.compute as pc
    from engine.relational import interval_join
    ev = _read(sf_dir, "events", "event_id ts user_id event_type")

    def _points(b: pa.Table) -> pa.Table:
        return b.filter(pc.invert(pc.equal(b.column("event_type"),
                                           "purchase")))

    def _windows(df):
        import pandas as pd
        sub = df[df["event_type"] == "purchase"]
        return pd.DataFrame({
            "purchase_id": sub["event_id"].to_numpy(),
            "user_id": sub["user_id"].to_numpy(),
            "start": sub["ts"].to_numpy(),
            "end": sub["ts"].to_numpy() + np.timedelta64(2, "h")})

    out = interval_join(
        ev.map_batches(_points, batch_format="pyarrow"),
        ev.map_batches(_windows, batch_format="pandas"),
        max_duration_s=7200.0, interval_id_col="purchase_id")
    return _finish(out, keep=["event_id", "purchase_id"],
                   sort=["event_id", "purchase_id"])


@_bespoke("streaming_dedup")
def _q_streaming_dedup(sf_dir: str):
    """Streaming exact dedup: documents replayed as four doc_id-ordered
    micro-batches through the Bloom+exact seen-state operator; the union
    of emitted keeps must equal batch exact dedup (min doc_id per md5) —
    which is exactly the DuckDB oracle."""
    import tempfile
    import pyarrow.compute as pc
    from engine.streaming import stream_dedup_micro_batch
    docs = _read(sf_dir, *_DOC_TEXT)
    size = (docs.count() + 3) // 4
    kept = []
    with tempfile.TemporaryDirectory(prefix="streamdedup_") as state:
        for i in range(4):
            lo_k, hi_k = i * size, (i + 1) * size

            def _slice(b: pa.Table, lo_k=lo_k, hi_k=hi_k) -> pa.Table:
                ids = b.column("doc_id")
                return b.filter(pc.and_(pc.greater_equal(ids, lo_k),
                                        pc.less(ids, hi_k)))
            out, _ = stream_dedup_micro_batch(
                docs.map_batches(_slice, batch_format="pyarrow"), state,
                batch_id=f"b{i}")
            df = out.to_pandas()  # keeps are a Dataset; small at test sf
            if "doc_id" in df.columns and len(df):
                kept.append(pa.table({"doc_id": pa.array(
                    df["doc_id"].to_numpy(), pa.int64())}))
    return pa.concat_tables(kept).sort_by("doc_id")


@_bespoke("streaming_windows")
def _q_streaming_windows(sf_dir: str):
    """Micro-batch streaming windows: the events table replayed as three
    time-ordered micro-batches through the watermark operator; with in-order
    arrival the union of closed + flushed windows must equal the plain
    (user, hour) groupby — which is exactly the DuckDB oracle."""
    import tempfile
    import pandas as pd
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Min
    from engine.streaming import flush, process_micro_batch
    ev = _read(sf_dir, "events", "user_id ts value")
    bounds = ev.aggregate(Min("ts"), Max("ts"))
    lo = pd.Timestamp(bounds["min(ts)"])
    hi = pd.Timestamp(bounds["max(ts)"])
    cuts = [None] + [pa.scalar((lo + (hi - lo) * i / 3).to_datetime64(),
                               pa.timestamp("us")) for i in (1, 2)] + [None]

    def _between(lo_c, hi_c):
        def _fn(b: pa.Table) -> pa.Table:
            ts = pc.cast(b.column("ts"), pa.timestamp("us"))
            mask = pa.array(np.ones(len(b), dtype=bool))
            if lo_c is not None:
                mask = pc.and_(mask, pc.greater_equal(ts, lo_c))
            if hi_c is not None:
                mask = pc.and_(mask, pc.less(ts, hi_c))
            return b.filter(mask)
        return _fn

    with tempfile.TemporaryDirectory(prefix="stream_state_") as sd:
        parts = []
        for lo_c, hi_c in zip(cuts, cuts[1:]):
            closed, _ = process_micro_batch(
                ev.map_batches(_between(lo_c, hi_c),
                               batch_format="pyarrow"),
                sd, key_col="user_id", ts_col="ts", value_col="value",
                window="1h", allowed_lateness="30m")
            parts.append(closed)
        parts.append(flush(sd))
        # closed windows are Datasets; small at test sf — collect the
        # arrow batches (empty ones come out schemaless, drop them)
        tbls = [t for p in parts for t in p.iter_batches(
            batch_format="pyarrow", batch_size=None)
            if t.num_columns and len(t)]
    return _finish(pa.concat_tables(tbls), round={"value_sum": 4},
                   rename={"key": "user_id"},
                   keep=["user_id", "window_start", "n_events", "value_sum"])


@_bespoke("similar_docs_to_first")
def _q_similar_docs_to_first(sf_dir: str):
    """Top-10 documents by token-set Jaccard to doc 0 — the
    find-similar-documents search with a broadcast query set."""
    from engine.textstats import jaccard_to_query
    docs = _read(sf_dir, *_DOC_TEXT)
    row = docs.filter(expr="doc_id == 0").take(1)
    qtoks = (row[0]["text"] or "").split() if row else []
    return _finish(jaccard_to_query(docs, query_tokens=qtoks, k=10),
                   round={"jaccard": 6})


# ---------------------------------------------------------------------------
# the query table: one row per query that is one operator call

_QUERIES: dict[str, _Query] = {
    # keyword validation over real typed tables
    "validate_documents": _row(
        "dataset.validate_dataset", ("documents",),
        schema_json=DOCS_SCHEMA_JSON, key_column="doc_id", carry_columns=(),
        with_message=False, keep=["doc_id", "error_kind", "instance_path"]),
    "validate_embeddings": _row(
        "dataset.validate_dataset", ("embeddings",),
        schema_json=EMB_SCHEMA_JSON, key_column="vec_id", carry_columns=(),
        with_message=False, keep=["vec_id", "error_kind", "instance_path"]),
    # N schemas validated in ONE corpus pass, violations tagged by schema
    "multi_validate_documents": _row(
        "dataset.validate_dataset_multi", ("documents",),
        schema_jsons={"base": DOCS_SCHEMA_JSON,
                      "strict": DOCS_SCHEMA_STRICT_JSON},
        key_column="doc_id",
        keep=["schema_name", "doc_id", "error_kind", "instance_path"]),
    "events_props_validation": _row(
        "dataset.validate_json_column", ("events", "event_id props"),
        schema_json=PROPS_SCHEMA_JSON, column="props", key_column="event_id",
        keep=["event_id", "error_seq", "error_kind", "instance_path"]),
    # corpus-level checks
    "stats_documents": _row(
        "stats.column_stats", ("documents",), pandas=True,
        rename={"count": "cnt", "nulls": "n_nulls"},
        keep=["column", "cnt", "n_nulls", "null_rate"], sort="column"),
    "duplicate_keys_lineitem": _row(
        "uniqueness.duplicate_keys", ("lineitem", "l_orderkey"),
        key="l_orderkey", rename={"key": "l_orderkey"},
        keep=["l_orderkey", "dup_count"]),
    "duplicate_custkey_orderdate": _row(
        "uniqueness.duplicate_keys", (_custkey_day_keys,), key="ckey",
        sort="key"),
    "referential_orders": _row(
        "referential.count_dangling_fk", ("orders", "o_custkey"),
        ("customer", "c_custkey"), fk="o_custkey", pk="c_custkey"),
    "referential_lineitem_part": _row(
        "referential.count_dangling_fk", ("lineitem", "l_partkey"),
        ("part", "p_partkey"), fk="l_partkey", pk="p_partkey"),
    "anti_join_orders_restricted": _row(
        "referential.dangling_fk_rows", ("orders", "o_custkey"),
        (_restricted_customers,), fk="o_custkey", pk="c_custkey",
        rename={"key": "o_custkey"}, keep=["o_custkey", "n_occurrences"]),
    "token_doc_frequency": _row("textstats.token_doc_frequency", _DOC_TEXT),
    # capacity > vocabulary: no counter is evicted, the sketch is exact
    "heavy_hitter_tokens": _row(
        "textstats.heavy_hitter_tokens", _DOC_TEXT, k=20, capacity=4096),
    # dedup family; max_bucket_size=None uncaps the shingle blocking, which
    # oracle parity needs (the SQL self-join is flood-blind); scale runs
    # keep the capped default
    "dedup_exact": _row("dedup.exact_duplicates", _DOC_TEXT),
    "dedup_normalized": _row("dedup.normalized_duplicates", _DOC_TEXT),
    "minhash_near_dup": _row(
        "dedup.minhash_near_duplicates", _DOC_TEXT, threshold=0.5),
    "embedding_near_dup": _row(
        "dedup.embedding_near_duplicates",
        (_planted_embeddings, (20, 1_000_000)), threshold=0.99,
        round={"cosine": 4}),
    # components of size 3 (two planted copies) and 2 both occur
    "embedding_dup_clusters": _row(
        "cluster.connected_components",
        (_row("dedup.embedding_near_duplicates",
              (_planted_embeddings, (20, 1_000_000), (10, 2_000_000)),
              threshold=0.99),),
        rename={"node": "vec_id"}, keep=["vec_id", "cluster_id"],
        sort="vec_id"),
    "near_dup_clusters": _row(
        "cluster.near_dup_clusters", _DOC_TEXT, threshold=0.6,
        max_bucket_size=None, rename={"node": "doc_id"},
        keep=["doc_id", "cluster_id"], sort="doc_id"),
    # each near-dup cluster keeps only its minimum doc_id
    "near_dup_survivors": _row(
        "cluster.resolve_near_duplicates", _DOC_TEXT, threshold=0.6,
        max_bucket_size=None, keep=["doc_id"], sort="doc_id"),
    "train_test_contamination": _row(
        "contamination.cross_corpus_near_duplicates",
        (_contamination_side, False), (_contamination_side, True),
        threshold=0.6, method="shingle", max_bucket_size=None,
        round={"jaccard": 4}, rename={"key_a": "train_id", "key_b": "test_id"},
        keep=["train_id", "test_id", "jaccard"], sort=["train_id", "test_id"]),
    # text analysis
    "token_counts": _row("textstats.token_counts", _DOC_TEXT),
    "bpe_token_counts": _row("textstats.bpe_ish_token_counts", _DOC_TEXT),
    # marker words counted with RE2 on both sides (pyarrow, DuckDB)
    "language_id": _row(
        "textstats.language_id", _DOC_TEXT, round={"lang_score": 4}),
    "fingerprints": _row("textstats.fingerprints", _DOC_TEXT),
    "compression_ratio_docs": _row(
        "textstats.compression_ratio", _DOC_TEXT, sort="doc_id"),
    # novelty of doc_id >= 100 against the doc_id < 100 reference corpus
    "ngram_novelty_docs": _row(
        "textstats.ngram_novelty", (_novelty_side, False),
        (_novelty_side, True), sort="doc_id"),
    "pii_flags_docs": _row("textstats.pii_flags", (_planted_docs,),
                           sort="doc_id"),
    "redact_pii_docs": _row("textstats.redact_pii", (_planted_docs,),
                            sort="doc_id"),
    # shard-local next-fit packing, shard = doc_id // 128
    "pack_sequences_docs": _row(
        "textstats.pack_sequences", _DOC_TEXT, token_budget=512,
        shard_size=128, sort="doc_id"),
    "pack_sequences_bpe": _row(
        "textstats.pack_sequences", _DOC_TEXT, token_budget=512,
        shard_size=128, counter="bpe", sort="doc_id"),
    "token_type_ratio_docs": _row(
        "textstats.token_type_ratio", _DOC_TEXT, round={"ttr": 6},
        sort="doc_id"),
    "text_chunks_docs": _row(
        "textstats.text_chunks", _DOC_TEXT, chunk_tokens=64, stride=32,
        sort=["doc_id", "chunk_start"]),
    "bigram_heavy_hitters": _row(
        "textstats.bigram_heavy_hitters", _DOC_TEXT, k=20),
    "token_entropy_docs": _row(
        "textstats.token_entropy", _DOC_TEXT,
        round={"entropy": 6, "top_share": 6}, sort="doc_id"),
    "tfidf_top_terms": _row(
        "textstats.tfidf_topk", _DOC_TEXT, k=5, round={"score": 6},
        sort=["doc_id", "token"]),
    "doc_mean_idf": _row(
        "textstats.doc_mean_idf", _DOC_TEXT, round={"mean_idf": 6},
        sort="doc_id"),
    "vocabulary_stats": _row("textstats.vocabulary_stats",
                             ("documents", "text")),
    "top_tokens_per_lang": _row(
        "relational.grouped_topk",
        (_row("textstats.token_counts_by_group", ("documents", "lang text"),
              group_col="lang"),),
        group_col="lang", score_col="cnt", id_col="token", k=3,
        ascending=False, keep=["lang", "token", "cnt"],
        sort=["lang", "token"]),
    # similarity
    "label_centroids": _row(
        "similarity.grouped_centroids", ("embeddings", "label embedding"),
        group_col="label", vec_col="embedding", dim=64, round={"value": 6},
        sort=["label", "dim"]),
    "embedding_covariance": _row(
        "similarity.embedding_covariance", ("embeddings", "embedding"),
        dim=64, use_dims=4, round={"cov": 6}, sort=["i", "j"]),
    # relational
    "q1_pricing_summary": _row(
        "relational.q1_pricing_summary", ("lineitem", "l_returnflag "
                                          "l_linestatus l_quantity "
                                          "l_extendedprice l_discount"),
        pandas=True, round={"sum_qty": 4, "sum_base_price": 4,
                            "sum_disc_price": 4, "avg_qty": 4}),
    # ASIA customers and suppliers sharing a nation, orders in 1996
    "q5_local_supplier_volume": _row(
        "relational.q5_local_supplier_volume",
        ("lineitem", "l_orderkey l_suppkey l_extendedprice l_discount"),
        ("orders", "o_orderkey o_custkey o_orderdate"),
        ("customer", "c_custkey c_nationkey"),
        ("supplier", "s_suppkey s_nationkey"), ("nation",), ("region",),
        pandas=True, round={"revenue": 4}, sort="n_name"),
    "q3_shipping_priority": _row(
        "relational.q3_shipping_priority",
        ("lineitem", "l_orderkey l_extendedprice l_discount l_shipdate"),
        ("orders", "o_orderkey o_custkey o_orderdate"),
        ("customer", "c_custkey c_mktsegment")),
    "q6_forecast_revenue": _row(
        "relational.q6_forecast_revenue",
        ("lineitem", "l_shipdate l_discount l_quantity l_extendedprice"),
        round={"revenue": 4}),
    "q10_returned_items": _row(
        "relational.q10_returned_item_reporting",
        ("lineitem", "l_orderkey l_returnflag l_extendedprice l_discount"),
        ("orders", "o_orderkey o_custkey o_orderdate"),
        ("customer", "c_custkey c_name c_acctbal c_nationkey"),
        ("nation", "n_nationkey n_name"), round={"revenue": 4}),
    "revenue_by_segment": _row(
        "relational.revenue_by_segment", ("orders", "o_custkey o_totalprice"),
        ("customer", "c_custkey c_mktsegment"), pandas=True,
        round={"revenue": 4}),
    "events_per_user_hour": _row(
        "relational.events_per_user_hour", ("events", "user_id ts value"),
        pandas=True, round={"value_sum": 4}),
    "sessionize_events": _row(
        "relational.sessionize", ("events", "user_id ts"), gap_minutes=30),
    "top_event_types": _row(
        "relational.top_event_types", ("events", "event_type"), k=5,
        pandas=True, sort=["n_events", "event_type"],
        descending=[True, False]),
    # ties broken by o_orderkey (row_number() parity)
    "top_orders_per_priority": _row(
        "relational.grouped_topk",
        ("orders", "o_orderkey o_orderpriority o_totalprice"),
        group_col="o_orderpriority", score_col="o_totalprice",
        id_col="o_orderkey", k=5,
        sort=["o_orderpriority", "o_totalprice", "o_orderkey"],
        descending=[False, True, False]),
    # interleaved spans corpus (derived deterministically from documents)
    "validate_spans": _row(
        "dataset.validate_dataset", (_spans_corpus,),
        keep=["doc_id", "error_seq", "error_kind", "instance_path",
              "message"]),
    "spans_verdicts": _row("dataset.partition_verdicts", (_spans_corpus,)),
    "spans_drift": _row(
        "drift.drift_check", (_spans_corpus,),
        (_row("drift.build_baseline", (_spans_corpus,),
              exclude_partitions=["p0003"]),)),
    "spans_dangling_refs": _row(
        "referential.check_references", (_spans_corpus,), (_media_catalog,),
        exact=True),
    "spans_stats": _row("stats.column_stats", (_spans_corpus,)),
    # deterministic sampling / splits (md5 buckets)
    "train_test_split": _row(
        "sampling.assign_split", ("documents", "doc_id"), key_col="doc_id",
        train_frac=0.9, keep=["doc_id", "split"]),
    "sample_fraction": _row(
        "sampling.sample_fraction", ("documents", "doc_id"), frac=0.25,
        key_col="doc_id", keep=["doc_id"]),
    # 30% of 'en', 10% of 'de', 5% of everything else
    "stratified_sample_docs": _row(
        "sampling.stratified_sample", ("documents", "doc_id lang"),
        fractions={"en": 0.30, "de": 0.10}, strat_col="lang",
        key_col="doc_id", default_frac=0.05, keep=["doc_id", "lang"],
        sort="doc_id"),
    # exact quantiles and their uses
    "grouped_quantiles_lineitem": _row(
        "stats.grouped_quantiles",
        ("lineitem", "l_returnflag l_extendedprice"),
        group_col="l_returnflag", value_col="l_extendedprice", qs=[0.5, 0.9],
        round={"value": 4}, sort=["l_returnflag", "q"]),
    "grouped_median_orders": _row(
        "stats.grouped_quantiles", ("orders", "o_orderpriority o_totalprice"),
        group_col="o_orderpriority", value_col="o_totalprice", qs=[0.5],
        round={"value": 4}, sort=["o_orderpriority", "q"]),
    "daily_value_quantiles": _row(
        "stats.grouped_quantiles", (_day_values,), group_col="day",
        value_col="value", qs=[0.5, 0.9], round={"value": 4},
        sort=["day", "q"]),
    "winsorize_events": _row(
        "stats.winsorize", ("events", "event_id value"), col="value",
        lower_q=0.05, upper_q=0.95, round={"value": 4}, sort="event_id"),
    "outlier_events": _row(
        "stats.iqr_outliers", ("events", "event_id value"), col="value",
        keep=["event_id", "value"], sort="event_id"),
    "grouped_iqr_outliers_events": _row(
        "stats.grouped_iqr_outliers", ("events", "event_id event_type value"),
        group_col="event_type", value_col="value", id_col="event_id",
        sort="event_id"),
    "quantile_buckets_events": _row(
        "stats.quantile_buckets", ("events", "event_id value"), col="value",
        keep=["event_id", "bucket"], sort="event_id"),
    "doc_length_quartiles_by_lang": _row(
        "stats.grouped_quantile_buckets", ("documents", "doc_id lang n_chars"),
        group_col="lang", value_col="n_chars", id_col="doc_id",
        sort="doc_id"),
    "robust_zscore_events": _row(
        "stats.robust_zscore", ("events", "event_id value"), col="value",
        id_col="event_id", round={"rz": 6}, sort="event_id"),
    "percentile_rank_events": _row(
        "stats.percentile_rank", ("events", "event_id value"), col="value",
        id_col="event_id", sort="event_id"),
    "value_mad_by_type": _row(
        "stats.grouped_mad", ("events", "event_type value"),
        group_col="event_type", value_col="value", round={"mad": 6},
        sort="event_type"),
    # histograms and profiles
    "histogram_orders": _row(
        "stats.value_histogram", ("orders", "o_totalprice"),
        col="o_totalprice", lo=0.0, hi=600000.0, bins=20, sort="bin"),
    "active_days_histogram": _row(
        "stats.value_histogram",
        (_row("relational.user_activity_span", ("events", "user_id ts")),),
        col="n_active_days", lo=0.0, hi=100.0, bins=20, sort="bin"),
    "grouped_histogram_events": _row(
        "stats.grouped_histogram", ("events", "event_type value"),
        group_col="event_type", col="value", lo=0.0, hi=500.0, bins=20,
        sort=["event_type", "bin"]),
    "grouped_moments_lineitem": _row(
        "stats.grouped_moments", ("lineitem", "l_returnflag l_extendedprice"),
        group_col="l_returnflag", value_col="l_extendedprice",
        round={"mean": 4, "std_samp": 4, "vmin": 4, "vmax": 4},
        sort="l_returnflag"),
    "grouped_corr_lineitem": _row(
        "stats.grouped_corr",
        ("lineitem", "l_returnflag l_quantity l_extendedprice"),
        group_col="l_returnflag", x_col="l_quantity", y_col="l_extendedprice",
        round={"corr": 6}, rename={"corr": "pearson_r"},
        sort="l_returnflag"),
    "weighted_avg_price_by_flag": _row(
        "stats.grouped_weighted_mean",
        ("lineitem", "l_returnflag l_extendedprice l_quantity"),
        group_col="l_returnflag", value_col="l_extendedprice",
        weight_col="l_quantity", round={"weighted_mean": 4},
        sort="l_returnflag"),
    "spearman_qty_price": _row(
        "stats.spearman_corr", ("lineitem", "l_quantity l_extendedprice"),
        x_col="l_quantity", y_col="l_extendedprice",
        round={"spearman_r": 6}),
    # all pairwise correlations in ONE pass (pairwise NULL exclusion)
    "corr_matrix_lineitem": _row(
        "stats.corr_matrix", ("lineitem", "l_quantity l_extendedprice "
                                          "l_discount l_tax"),
        cols=["l_quantity", "l_extendedprice", "l_discount", "l_tax"],
        round={"r": 6}, sort=["col_x", "col_y"]),
    "type_value_mutual_information": _row(
        "stats.mutual_information", ("events", "event_type value"),
        a_col="event_type", b_col="value", lo=0.0, hi=500.0, bins=10,
        round={"mi": 6}),
    "value_gini_by_type": _row(
        "stats.grouped_gini", ("events", "event_type value"),
        group_col="event_type", value_col="value", round={"gini": 6},
        sort="event_type"),
    # share of total order revenue held by the top 20% of customers
    "revenue_pareto_share": _row(
        "stats.pareto_share", ("orders", "o_custkey o_totalprice"),
        key_col="o_custkey", value_col="o_totalprice",
        round={"top_share": 6}),
    "source_lang_profile": _row(
        "stats.grouped_count_mean", ("documents", "source lang n_chars"),
        group_cols=["source", "lang"], value_col="n_chars",
        round={"mean": 4}, rename={"n": "n_docs", "mean": "mean_chars"},
        sort=["source", "lang"]),
    "discount_by_qty_bucket": _row(
        "stats.grouped_count_mean", (_qty_buckets,),
        group_cols=["qty_bucket"], value_col="l_discount",
        round={"mean": 6}, rename={"mean": "mean_discount"},
        sort="qty_bucket"),
    "distinct_users_per_event_type": _row(
        "relational.count_distinct", ("events", "event_type user_id"),
        group_col="event_type", value_col="user_id", sort="event_type"),
    # per-user series in (ts, event_id) order
    "ewma_user_value": _row(
        "relational.ewma", _EVENTS, alpha=0.3, round={"ewma": 4},
        sort="event_id"),
    # weights halve per hour of elapsed time, not per row
    "ewma_halflife_user_value": _row(
        "relational.ewma_halflife", _EVENTS, halflife_seconds=3600.0,
        round={"ewma_hl": 4}, sort="event_id"),
    # first row of each user is NULL
    "lag_diff_user_value": _row(
        "relational.lag_diff", _EVENTS, round={"lag_diff": 4},
        sort="event_id"),
    "running_sum_user_value": _row(
        "relational.running_sum", _EVENTS, round={"running_sum": 4},
        sort="event_id"),
    "running_min_max_user_value": _row(
        "relational.running_min_max", _EVENTS,
        round={"running_min": 4, "running_max": 4}, sort="event_id"),
    "delta_from_first_user_value": _row(
        "relational.delta_from_first", _EVENTS,
        round={"delta_from_first": 4}, sort="event_id"),
    # trailing 3-hour RANGE frames (tie peers included)
    "rolling_user_mean": _row(
        "relational.rolling_window_mean", _EVENTS, window_seconds=3 * 3600,
        round={"rolling_mean": 4}, sort="event_id"),
    "rolling_user_sum": _row(
        "relational.rolling_window_sum_count", _EVENTS,
        round={"rolling_sum": 4}, sort="event_id"),
    "rolling_user_min_max": _row(
        "relational.rolling_window_min_max", _EVENTS,
        round={"rolling_min": 4, "rolling_max": 4}, sort="event_id"),
    "rolling_rows_mean_user": _row(
        "relational.rolling_rows_mean", _EVENTS, window_rows=3,
        round={"rolling_mean": 4}, sort="event_id"),
    "latest_event_per_user": _row(
        "relational.keep_latest", _EVENTS, key_col="user_id", ts_col="ts",
        id_col="event_id", keep=["user_id", "event_id", "ts", "value"],
        sort="user_id"),
    "pivot_events_value": _row(
        "relational.pivot_agg", ("events", "user_id event_type value"),
        group_col="user_id", pivot_col="event_type", value_col="value",
        values=_EVENT_TYPES, round={f"sum_{k}": 4 for k in _EVENT_TYPES},
        sort="user_id"),
    "session_value_sums": _row(
        "relational.session_aggregate", ("events", "user_id ts value"),
        round={"value_sum": 4}, sort=["user_id", "session_id"]),
    # ties go to the lexicographically smallest event type
    "mode_event_type_per_user": _row(
        "relational.grouped_mode", ("events", "user_id event_type"),
        group_col="user_id", value_col="event_type", sort="user_id"),
    "window_ranks_events": _row(
        "relational.window_ranks", ("events", "event_id user_id value"),
        sort="event_id"),
    "window_rank_fractions_events": _row(
        "relational.window_rank_fractions",
        ("events", "event_id user_id value"), ntile_k=4,
        round={"pct_rank": 6, "cume_dist": 6}, sort="event_id"),
    "user_event_sequences": _row(
        "relational.collect_sequence", ("events", "event_id ts user_id "
                                                  "event_type"),
        sort="user_id"),
    "user_gap_stats": _row(
        "relational.interevent_gap_stats", ("events", "event_id ts user_id"),
        round={"avg_gap_s": 4, "max_gap_s": 4}, sort="user_id"),
    "grouped_zscore_events": _row(
        "relational.grouped_zscore", ("events", "event_id user_id value"),
        round={"z": 6}, sort="event_id"),
    "grouped_minmax_scale_events": _row(
        "relational.grouped_minmax_scale",
        ("events", "event_id user_id value"), round={"scaled": 6},
        sort="event_id"),
    # high-value (> 95) click / purchase user sets
    "click_not_purchase_users": _row(
        "relational.except_distinct", (_hi_value_users, "click"),
        (_hi_value_users, "purchase"), key_col="user_id", sort="user_id"),
    "click_and_purchase_users": _row(
        "relational.intersect_distinct", (_hi_value_users, "click"),
        (_hi_value_users, "purchase"), key_col="user_id", sort="user_id"),
    "click_xor_purchase_users": _row(
        "relational.symmetric_difference_distinct",
        (_hi_value_users, "click"), (_hi_value_users, "purchase"),
        key_col="user_id", sort="user_id"),
    "click_or_purchase_users": _row(
        "relational.union_distinct", (_hi_value_users, "click"),
        (_hi_value_users, "purchase"), key_col="user_id", sort="user_id"),
    "semi_join_events_purchases": _row(
        "relational.semi_join", _EVENTS, (_hi_value_users, "purchase"),
        key_col="user_id", sort="event_id"),
    "anti_join_events_purchases": _row(
        "relational.anti_join", _EVENTS, (_hi_value_users, "purchase"),
        key_col="user_id", sort="event_id"),
    # calendar and behaviour profiles
    "user_activity_span": _row(
        "relational.user_activity_span", ("events", "user_id ts"),
        sort="user_id"),
    "event_type_cooccurrence": _row(
        "relational.event_type_cooccurrence", ("events", "user_id event_type"),
        sort=["type_a", "type_b"]),
    "user_event_type_set": _row(
        "relational.collect_distinct_sorted", ("events", "user_id event_type"),
        sort="user_id"),
    "daily_event_counts_dense": _row(
        "relational.dense_daily_counts", ("events", "ts"), sort="day"),
    "session_duration_stats": _row(
        "relational.session_duration_stats", ("events", "user_id ts"),
        round={"avg_session_s": 4, "max_session_s": 4}, sort="user_id"),
    "events_rollup": _row(
        "relational.rollup_counts", ("events", "event_type ts"),
        sort=["lvl", "event_type", "day"]),
    "activity_heatmap": _row(
        "relational.activity_heatmap", ("events", "ts"), sort=["dow", "hod"]),
    "user_hour_entropy": _row(
        "relational.user_hour_entropy", ("events", "user_id ts"),
        round={"hour_entropy": 6}, sort="user_id"),
    "cohort_retention": _row(
        "relational.cohort_retention", ("events", "user_id ts"),
        sort=["cohort", "day_offset"]),
    "event_transition_matrix": _row(
        "relational.event_transition_matrix",
        ("events", "event_id user_id ts event_type"),
        sort=["from_type", "to_type"]),
    # NULL when the user never purchases
    "time_to_first_purchase": _row(
        "relational.time_to_first_target", ("events", "user_id ts event_type"),
        target="purchase", round={"seconds_to_target": 4},
        rename={"seconds_to_target": "seconds_to_purchase"}, sort="user_id"),
    "daily_active_users": _row(
        "relational.daily_active_users", ("events", "user_id ts"),
        sort="day"),
    "peak_hourly_rate": _row(
        "relational.peak_hourly_rate", ("events", "user_id ts"),
        sort="user_id"),
    # includes customers with no orders
    "orders_per_customer_histogram": _row(
        "relational.orders_per_customer_histogram", ("orders", "o_custkey"),
        ("customer", "c_custkey"), sort="n_orders"),
    "priority_share_by_month": _row(
        "relational.share_within_group", (_month_priorities,),
        outer_col="month", inner_col="pri", round={"share": 6},
        sort=["month", "pri"]),
    "user_repeat_rate": _row(
        "relational.user_repeat_rate",
        ("events", "event_id user_id ts event_type"),
        round={"repeat_rate": 6}, sort="user_id"),
    "user_value_concentration": _row(
        "relational.user_value_concentration", ("events", "user_id value"),
        round={"max_share": 6}, sort="user_id"),
    # purchases per click per day
    "daily_conversion_ratio": _row(
        "relational.daily_ratio", ("events", "ts event_type"),
        round={"ratio": 6}, sort="day"),
    "longest_daily_streak": _row(
        "relational.longest_daily_streak", ("events", "user_id ts"),
        sort="user_id"),
}


def entry() -> Any:
    """Flagship pipeline at sf0.001: synthesize the interleaved spans corpus
    from documents.parquet, validate it against the FIXTURES §3 schema,
    return the violations Dataset."""
    _q_validate_spans = _QUERIES["validate_spans"]
    return _q_validate_spans("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    return {**_QUERIES, **_BESPOKE}


def oracle_sql() -> dict[str, str]:
    return {
        "validate_documents": """
            with d as (select * from documents)
            select doc_id, 'MissingRequired' as error_kind,
                   '/text' as instance_path from d where text is null
            union all
            select doc_id, 'MissingRequired', '/lang' from d
            where lang is null
            union all
            select doc_id, 'MissingRequired', '/source' from d
            where source is null
            union all
            select doc_id, 'MissingRequired', '/n_chars' from d
            where n_chars is null
            union all
            select doc_id, 'BelowMinimum', '/doc_id' from d
            where doc_id < 0
            union all
            select doc_id, 'TooShort', '/text' from d
            where text is not null and length(text) < 1
            union all
            select doc_id, 'TooLong', '/text' from d
            where text is not null and length(text) > 400
            union all
            select doc_id, 'NotInEnum', '/lang' from d
            where lang is not null
              and lang not in ('en', 'de', 'fr', 'es')
            union all
            select doc_id, 'PatternMismatch', '/source' from d
            where source is not null
              and not regexp_matches(source, '^src[0-9]$')
            union all
            select doc_id, 'BelowMinimum', '/n_chars' from d
            where n_chars < 0
            union all
            select doc_id, 'AboveMaximum', '/n_chars' from d
            where n_chars > 500
        """,
        "validate_embeddings": """
            with e as (select * from embeddings),
            elems as (
              select vec_id, unnest(embedding) as v,
                     generate_subscripts(embedding, 1) as i from e)
            select vec_id, 'TooFewItems' as error_kind,
                   '/embedding' as instance_path
            from e where len(embedding) < 64
            union all
            select vec_id, 'TooManyItems', '/embedding' from e
            where len(embedding) > 64
            union all
            select vec_id, 'DuplicateArrayItems', '/embedding' from e
            where len(list_distinct(embedding)) <> len(embedding)
            union all
            select vec_id, 'BelowMinimum',
                   '/embedding/' || (i - 1) from elems where v < -0.5
            union all
            select vec_id, 'AboveMaximum',
                   '/embedding/' || (i - 1) from elems where v > 0.45
            union all
            select vec_id, 'BelowMinimum', '/label' from e where label < 0
            union all
            select vec_id, 'AboveMaximum', '/label' from e where label > 8
        """,
        "multi_validate_documents": """
            with d as (select * from documents),
            base as (
              select doc_id, 'MissingRequired' as error_kind,
                     '/text' as instance_path from d where text is null
              union all
              select doc_id, 'MissingRequired', '/lang' from d
              where lang is null
              union all
              select doc_id, 'MissingRequired', '/source' from d
              where source is null
              union all
              select doc_id, 'MissingRequired', '/n_chars' from d
              where n_chars is null
              union all
              select doc_id, 'BelowMinimum', '/doc_id' from d
              where doc_id < 0
              union all
              select doc_id, 'TooShort', '/text' from d
              where text is not null and length(text) < 1
              union all
              select doc_id, 'TooLong', '/text' from d
              where text is not null and length(text) > 400
              union all
              select doc_id, 'NotInEnum', '/lang' from d
              where lang is not null
                and lang not in ('en', 'de', 'fr', 'es')
              union all
              select doc_id, 'PatternMismatch', '/source' from d
              where source is not null
                and not regexp_matches(source, '^src[0-9]$')
              union all
              select doc_id, 'BelowMinimum', '/n_chars' from d
              where n_chars < 0
              union all
              select doc_id, 'AboveMaximum', '/n_chars' from d
              where n_chars > 500),
            strict as (
              select doc_id, 'MissingRequired' as error_kind,
                     '/text' as instance_path from d where text is null
              union all
              select doc_id, 'TooShort', '/text' from d
              where text is not null and length(text) < 20
              union all
              select doc_id, 'AboveMaximum', '/n_chars' from d
              where n_chars > 200)
            select 'base' as schema_name, * from base
            union all
            select 'strict', * from strict
        """,
        "stats_documents": """
            with d as (select * from documents),
            cols as (
              select 'doc_id' as "column",
                     count(*) as cnt,
                     sum(case when doc_id is null then 1 else 0
                         end)::bigint as n_nulls from d
              union all
              select 'lang', count(*), sum(case when lang is null then 1
                     else 0 end)::bigint from d
              union all
              select 'n_chars', count(*), sum(case when n_chars is null
                     then 1 else 0 end)::bigint from d
              union all
              select 'source', count(*), sum(case when source is null
                     then 1 else 0 end)::bigint from d
              union all
              select 'text', count(*), sum(case when text is null then 1
                     else 0 end)::bigint from d)
            select "column", cnt, n_nulls,
                   n_nulls::double / cnt as null_rate
            from cols order by "column"
        """,
        "duplicate_keys_lineitem": """
            select l_orderkey, count(*) as dup_count
            from lineitem group by l_orderkey having count(*) > 1
        """,
        "duplicate_custkey_orderdate": """
            select o_custkey::varchar || '|'
                   || strftime(o_orderdate, '%Y-%m-%d') as key,
                   count(*) as dup_count
            from orders group by key having count(*) > 1
            order by key
        """,
        "source_lang_profile": """
            select source, lang, count(*)::bigint as n_docs,
                   round(avg(n_chars), 4) as mean_chars
            from documents
            where source is not null and lang is not null
              and n_chars is not null
            group by source, lang order by source, lang
        """,
        "vocabulary_stats": r"""
            with tok as (
              select unnest(regexp_extract_all(coalesce(text, ''),
                                               '\S+')) as t
              from documents),
            c as (select t, count(*)::bigint as n from tok group by t)
            select count(*)::bigint as vocab_size,
                   coalesce(count(*) filter (n = 1), 0)::bigint
                       as hapax_count,
                   coalesce(sum(n), 0)::bigint as total_tokens
            from c
        """,
        "similar_docs_to_first": r"""
            with q as (
              select list_distinct(regexp_extract_all(
                  coalesce(text, ''), '\S+')) as qs
              from documents where doc_id = 0),
            d as (
              select doc_id, list_distinct(regexp_extract_all(
                  coalesce(text, ''), '\S+')) as ts
              from documents),
            s as (
              select d.doc_id,
                     len(list_intersect(d.ts, q.qs))::double
                     / nullif(len(list_distinct(d.ts || q.qs)), 0)
                         as j
              from d, q)
            select doc_id, round(j, 6) as jaccard
            from s order by j desc nulls last, doc_id limit 10
        """,
        "embedding_covariance": """
            with p as (
              select unnest([
                  struct_pack(i := 0, j := 0),
                  struct_pack(i := 0, j := 1),
                  struct_pack(i := 0, j := 2),
                  struct_pack(i := 0, j := 3),
                  struct_pack(i := 1, j := 1),
                  struct_pack(i := 1, j := 2),
                  struct_pack(i := 1, j := 3),
                  struct_pack(i := 2, j := 2),
                  struct_pack(i := 2, j := 3),
                  struct_pack(i := 3, j := 3)], recursive := true))
            select p.i::bigint as i, p.j::bigint as j,
                   round(covar_samp(embedding[p.i + 1],
                                    embedding[p.j + 1]), 6) as cov,
                   count(*)::bigint as n
            from embeddings, p
            group by p.i, p.j order by i, j
        """,
        "event_transition_matrix": """
            with s as (
              select user_id, event_type,
                     lead(event_type) over (
                         partition by user_id
                         order by ts, event_id) as nxt
              from events
              where ts is not null and user_id is not null
                and event_type is not null)
            select event_type as from_type, nxt as to_type,
                   count(*)::bigint as n
            from s where nxt is not null
            group by from_type, to_type order by from_type, to_type
        """,
        "time_to_first_purchase": """
            with f as (
              select user_id, min(ts) as first_ts from events
              where ts is not null and user_id is not null
              group by user_id),
            p as (
              select user_id, min(ts) as first_purchase from events
              where ts is not null and user_id is not null
                and event_type = 'purchase'
              group by user_id)
            select f.user_id,
                   round(epoch(p.first_purchase - f.first_ts), 4)
                       as seconds_to_purchase
            from f left join p using (user_id) order by user_id
        """,
        "daily_active_users": """
            select strftime(ts, '%Y-%m-%d') as day,
                   count(distinct user_id)::bigint as dau
            from events
            where ts is not null and user_id is not null
            group by day order by day
        """,
        "peak_hourly_rate": """
            with c as (
              select user_id, date_trunc('hour', ts) as h,
                     count(*)::bigint as n
              from events
              where ts is not null and user_id is not null
              group by user_id, h)
            select user_id, max(n)::bigint as peak_events_per_hour
            from c group by user_id order by user_id
        """,
        "orders_per_customer_histogram": """
            with o as (
              select o_custkey, count(*)::bigint as n
              from orders where o_custkey is not null
              group by o_custkey)
            select coalesce(o.n, 0)::bigint as n_orders,
                   count(*)::bigint as n_customers
            from customer c left join o on c.c_custkey = o.o_custkey
            group by n_orders order by n_orders
        """,
        "doc_mean_idf": r"""
            with tok as (
              select doc_id,
                     unnest(regexp_extract_all(coalesce(text, ''),
                                               '\S+')) as t
              from documents),
            dt as (select distinct doc_id, t from tok where t <> ''),
            df as (select t, count(*)::double as df from dt group by t),
            n as (select count(*)::double as n from documents)
            select dt.doc_id, round(avg(ln(n.n / df.df)), 6) as mean_idf,
                   count(*)::bigint as n_distinct
            from dt join df using (t), n
            group by dt.doc_id order by dt.doc_id
        """,
        "priority_share_by_month": """
            with c as (
              select strftime(o_orderdate, '%Y-%m') as month,
                     o_orderpriority as pri, count(*)::bigint as n
              from orders
              where o_orderdate is not null
                and o_orderpriority is not null
              group by month, pri)
            select month, pri, n,
                   round(n / sum(n) over (partition by month), 6)
                       as share
            from c order by month, pri
        """,
        "user_repeat_rate": """
            with s as (
              select user_id, event_type,
                     lead(event_type) over (
                         partition by user_id
                         order by ts, event_id) as nxt
              from events
              where ts is not null and user_id is not null
                and event_type is not null)
            select user_id,
                   count(*) filter (nxt is not null)::bigint
                       as n_transitions,
                   round(count(*) filter (nxt = event_type)::double
                         / nullif(count(*) filter (nxt is not null), 0),
                         6) as repeat_rate
            from s group by user_id order by user_id
        """,
        "user_value_concentration": """
            select user_id,
                   round(max(value) / nullif(sum(value), 0), 6)
                       as max_share
            from events
            where user_id is not null and value is not null
            group by user_id order by user_id
        """,
        "daily_conversion_ratio": """
            with c as (
              select strftime(ts, '%Y-%m-%d') as day,
                     count(*) filter (event_type = 'purchase')::bigint
                         as n_num,
                     count(*) filter (event_type = 'click')::bigint
                         as n_den
              from events
              where ts is not null
                and event_type in ('purchase', 'click')
              group by day)
            select day, n_num, n_den,
                   round(n_num::double / nullif(n_den, 0), 6) as ratio
            from c order by day
        """,
        "discount_by_qty_bucket": """
            select floor(l_quantity / 10.0)::bigint as qty_bucket,
                   count(*)::bigint as n,
                   round(avg(l_discount), 6) as mean_discount
            from lineitem
            where l_quantity is not null and l_discount is not null
            group by qty_bucket order by qty_bucket
        """,
        "longest_daily_streak": """
            with d as (
              select distinct user_id, date_trunc('day', ts) as day
              from events
              where ts is not null and user_id is not null),
            r as (
              select user_id, day,
                     row_number() over (partition by user_id
                                        order by day) as rn
              from d),
            g as (select user_id, day - rn * interval 1 day as grp
                  from r),
            s as (select user_id, count(*)::bigint as len
                  from g group by user_id, grp)
            select user_id, max(len)::bigint as longest_streak,
                   count(*)::bigint as n_streaks
            from s group by user_id order by user_id
        """,
        "referential_orders": """
            select count(*)::bigint as n_dangling from orders
            where o_custkey is not null
              and o_custkey not in (select c_custkey from customer)
        """,
        "referential_lineitem_part": """
            select count(*)::bigint as n_dangling from lineitem
            where l_partkey is not null
              and l_partkey not in (select p_partkey from part)
        """,
        "anti_join_orders_restricted": """
            select o_custkey, count(*) as n_occurrences
            from orders
            where o_custkey % 7 = 0
            group by o_custkey
        """,
        "token_doc_frequency": r"""
            select token, count(distinct doc_id) as df
            from (select doc_id,
                         unnest(string_split_regex(coalesce(text, ''),
                                                   '\s+')) as token
                  from documents)
            where token <> ''
            group by token
        """,
        "heavy_hitter_tokens": r"""
            select token, count(*)::bigint as est_count,
                   0::bigint as max_error
            from (select unnest(regexp_extract_all(coalesce(text, ''),
                                                   '\S+')) as token
                  from documents)
            group by token
            order by est_count desc, token
            limit 20
        """,
        "dedup_exact": """
            select md5(coalesce(text, '')) as text_hash,
                   min(doc_id) as keep_id,
                   count(*) as dup_count
            from documents group by md5(coalesce(text, ''))
        """,
        "dedup_normalized": r"""
            with n as (
              select doc_id,
                     md5(regexp_replace(regexp_replace(
                         lower(coalesce(text, '')), '\s+', ' ', 'g'),
                         '^ | $', '', 'g')) as norm_hash
              from documents)
            select norm_hash, min(doc_id) as keep_id,
                   count(*) as dup_count
            from n group by norm_hash
        """,
        "weighted_avg_price_by_flag": """
            select l_returnflag, count(*)::bigint as n,
                   round(sum(l_extendedprice * l_quantity)
                         / sum(l_quantity), 4) as weighted_mean
            from lineitem
            where l_extendedprice is not null and l_quantity is not null
            group by l_returnflag order by l_returnflag
        """,
        "token_type_ratio_docs": r"""
            with toks as (
              select doc_id,
                     regexp_extract_all(coalesce(text, ''), '\S+') as t
              from documents)
            select doc_id, len(t)::bigint as n_tokens,
                   len(list_distinct(t))::bigint as n_distinct,
                   case when len(t) = 0 then null
                        else round(len(list_distinct(t))::double
                                   / len(t), 6) end as ttr
            from toks order by doc_id
        """,
        "text_chunks_docs": r"""
            with toks as (
              select doc_id,
                     regexp_extract_all(coalesce(text, ''), '\S+') as t
              from documents)
            select doc_id, s::bigint as chunk_start,
                   least(64, len(t) - s)::bigint as n_tokens,
                   array_to_string(t[s + 1: s + 64], ' ') as chunk
            from toks,
                 lateral (select unnest(range(0, greatest(len(t), 1),
                                              32)) as s)
            where s < len(t)
            order by doc_id, chunk_start
        """,
        "bigram_heavy_hitters": r"""
            with toks as (
              select doc_id,
                     regexp_extract_all(coalesce(text, ''), '\S+') as t
              from documents),
            z as (select unnest(list_zip(t[1:-2], t[2:-1])) as p
                  from toks where len(t) >= 2)
            select p[1] || ' ' || p[2] as bigram,
                   count(*)::bigint as n_occurrences
            from z group by bigram
            order by n_occurrences desc, bigram limit 20
        """,
        "token_entropy_docs": r"""
            with tok as (
              select doc_id, token, count(*)::double as c
              from (select doc_id,
                           unnest(regexp_extract_all(coalesce(text, ''),
                                                     '\S+')) as token
                    from documents)
              group by doc_id, token)
            select d.doc_id,
                   coalesce(sum(t.c), 0)::bigint as n_tokens,
                   round(-sum((t.c / s.n) * ln(t.c / s.n)), 6) as entropy,
                   round(max(t.c) / any_value(s.n), 6) as top_share
            from documents d
            left join tok t using (doc_id)
            left join (select doc_id, sum(c) as n from tok
                       group by doc_id) s using (doc_id)
            group by d.doc_id order by d.doc_id
        """,
        "grouped_zscore_events": """
            select event_id,
                   case when stddev_samp(value) over (
                            partition by user_id) > 0
                        then round((value - avg(value) over (
                                 partition by user_id))
                             / stddev_samp(value) over (
                                 partition by user_id), 6)
                   end as z
            from events where value is not null order by event_id
        """,
        "token_counts": r"""
            select doc_id,
                   len(regexp_extract_all(coalesce(text, ''),
                                          '\S+'))::bigint as n_tokens
            from documents
        """,
        "bpe_token_counts": r"""
            select doc_id,
                   len(regexp_extract_all(
                       coalesce(text, ''),
                       '[A-Za-z]+|[0-9]|[^A-Za-z0-9\s]'))::bigint
                   as n_bpe_tokens
            from documents
        """,
        "quality_scores": r"""
            with d as (select doc_id, coalesce(text, '') as t from documents)
            select doc_id,
                   length(t)::bigint as n_chars,
                   len(regexp_extract_all(t, '\S+'))::bigint as n_tokens,
                   len(regexp_extract_all(t, '[.,!?;:]'))::bigint as n_punct,
                   len(regexp_extract_all(t, '[0-9]'))::bigint as n_digits
            from d
        """,
        "lang_distribution": """
            select lang, count(*) as n_docs from documents group by lang
        """,
        "ann_cosine_topk": """
            with q as (
              select vec_id as query_id, embedding as qe
              from embeddings where vec_id in (0, 7)),
            scored as (
              select q.query_id, e.vec_id,
                     list_cosine_similarity(
                         e.embedding::double[], q.qe::double[]) as cos
              from embeddings e, q),
            ranked as (
              select query_id, vec_id, cos,
                     row_number() over (partition by query_id
                                        order by cos desc, vec_id)
                         as rank
              from scored)
            select query_id::int as query_id, vec_id,
                   round(cos, 4) as cosine, rank::int as rank
            from ranked where rank <= 5
        """,
        "q1_pricing_summary": """
            select l_returnflag, l_linestatus,
                   round(sum(l_quantity), 4) as sum_qty,
                   round(sum(l_extendedprice), 4) as sum_base_price,
                   round(sum(l_extendedprice * (1 - l_discount)), 4)
                       as sum_disc_price,
                   round(sum(l_quantity) / count(*), 4) as avg_qty,
                   count(*) as count_order
            from lineitem group by l_returnflag, l_linestatus
        """,
        "q5_local_supplier_volume": """
            select n_name,
                   round(sum(l_extendedprice * (1 - l_discount)), 4)
                       as revenue
            from customer, orders, lineitem, supplier, nation, region
            where c_custkey = o_custkey and l_orderkey = o_orderkey
              and l_suppkey = s_suppkey and c_nationkey = s_nationkey
              and s_nationkey = n_nationkey and n_regionkey = r_regionkey
              and r_name = 'ASIA'
              and o_orderdate >= date '1996-01-01'
              and o_orderdate < date '1997-01-01'
            group by n_name order by n_name
        """,
        "q3_shipping_priority": """
            with r as (
              select l.l_orderkey, o.o_orderdate,
                     round(sum(l.l_extendedprice * (1 - l.l_discount)), 4)
                         as revenue
              from customer c
              join orders o on c.c_custkey = o.o_custkey
              join lineitem l on l.l_orderkey = o.o_orderkey
              where c.c_mktsegment = 'BUILDING'
                and o.o_orderdate < timestamp '1998-06-01'
                and l.l_shipdate > timestamp '1998-06-01'
              group by 1, 2)
            select l_orderkey, o_orderdate, revenue from r
            order by revenue desc, o_orderdate, l_orderkey limit 10
        """,
        "revenue_by_segment": """
            select c_mktsegment, round(sum(o_totalprice), 4) as revenue,
                   count(*) as n_orders
            from orders o join customer c on o.o_custkey = c.c_custkey
            group by c_mktsegment
        """,
        "events_per_user_hour": """
            select user_id, date_trunc('hour', ts) as "hour",
                   count(*) as n_events,
                   round(sum(value), 4) as value_sum
            from events group by 1, 2
        """,
        "top_event_types": """
            select event_type, count(*) as n_events from events
            group by event_type
            order by n_events desc, event_type limit 5
        """,
        "top_orders_per_priority": """
            select o_orderpriority, o_totalprice, o_orderkey
            from (select o_orderpriority, o_totalprice, o_orderkey,
                         row_number() over (
                             partition by o_orderpriority
                             order by o_totalprice desc, o_orderkey) as rn
                  from orders) t
            where rn <= 5
            order by o_orderpriority, o_totalprice desc, o_orderkey
        """,
        "sessionize_events": """
            with marked as (
              select user_id, ts,
                     case when ts - lag(ts) over w > interval 30 minutes
                          or lag(ts) over w is null then 1 else 0 end as new_s
              from events
              window w as (partition by user_id order by ts)
            ), sess as (
              select user_id, ts,
                     sum(new_s) over (partition by user_id order by ts
                                      rows unbounded preceding)::bigint
                         as session_id
              from marked)
            select user_id, session_id, count(*) as n_events,
                   min(ts) as session_start, max(ts) as session_end
            from sess group by 1, 2
        """,
        "train_test_split": f"""
            select doc_id,
                   case when substr(md5(cast(doc_id as varchar)), 1, 8)
                        < printf('%08x', {int(0.9 * 2**32)})
                        then 'train' else 'test' end as split
            from documents
        """,
        "sample_fraction": f"""
            select doc_id from documents
            where substr(md5(cast(doc_id as varchar)), 1, 8)
                  < printf('%08x', {int(0.25 * 2**32)})
        """,
        "stratified_sample_docs": f"""
            select doc_id, lang from documents
            where substr(md5(cast(doc_id as varchar) || '|'
                             || coalesce(lang, '')), 1, 8)
                  < case coalesce(lang, '')
                      when 'en' then printf('%08x', {int(0.30 * 2**32)})
                      when 'de' then printf('%08x', {int(0.10 * 2**32)})
                      else printf('%08x', {int(0.05 * 2**32)})
                    end
            order by doc_id
        """,
        "exact_quantiles_lineitem": """
            select 0.25::double as q,
                   round(quantile_cont(l_extendedprice, 0.25), 4) as value
            from lineitem
            union all select 0.5::double,
                   round(quantile_cont(l_extendedprice, 0.5), 4)
            from lineitem
            union all select 0.75::double,
                   round(quantile_cont(l_extendedprice, 0.75), 4)
            from lineitem
            union all select 0.95::double,
                   round(quantile_cont(l_extendedprice, 0.95), 4)
            from lineitem
            order by q
        """,
        "histogram_orders": """
            select least(floor((o_totalprice - 0.0) * 20 / 600000.0),
                         19)::bigint as bin,
                   count(*) as n
            from orders
            where o_totalprice >= 0.0 and o_totalprice <= 600000.0
            group by bin order by bin
        """,
        "q6_forecast_revenue": """
            select round(sum(l_extendedprice * l_discount), 4)
                       as revenue,
                   count(*)::bigint as n_items
            from lineitem
            where l_shipdate >= timestamp '1996-01-01'
              and l_shipdate < timestamp '1997-01-01'
              and l_discount >= 0.05 and l_discount <= 0.07
              and l_quantity < 24
        """,
        "event_type_cooccurrence": """
            with dt as (
              select distinct user_id, event_type
              from events
              where user_id is not null and event_type is not null)
            select a.event_type as type_a, b.event_type as type_b,
                   count(*)::bigint as n_keys
            from dt a join dt b
              on a.user_id = b.user_id
             and a.event_type < b.event_type
            group by type_a, type_b order by type_a, type_b
        """,
        "user_event_type_set": """
            select user_id,
                   string_agg(distinct event_type, ','
                              order by event_type) as vals,
                   count(distinct event_type)::bigint as n_distinct
            from events
            where user_id is not null and event_type is not null
            group by user_id order by user_id
        """,
        "type_value_mutual_information": """
            with c as (
              select event_type as a,
                     least(floor((value - 0.0) * 10 / 500.0),
                           9)::bigint as b,
                     count(*)::double as n
              from events
              where value >= 0.0 and value <= 500.0
                and event_type is not null
              group by a, b),
            tot as (select sum(n) as t from c),
            ma as (select a, sum(n) as na from c group by a),
            mb as (select b, sum(n) as nb from c group by b)
            select round(sum((n / t.t) * ln((n * t.t) / (na * nb))), 6)
                       as mi,
                   sum(n)::bigint as n
            from c join ma using (a) join mb using (b), tot t
        """,
        "spearman_qty_price": """
            with d as (
              select l_quantity as x, l_extendedprice as y
              from lineitem
              where l_quantity is not null
                and l_extendedprice is not null),
            r as (
              select (rank() over (order by x)
                      + (count(*) over (partition by x) - 1) / 2.0)
                         as rx,
                     (rank() over (order by y)
                      + (count(*) over (partition by y) - 1) / 2.0)
                         as ry
              from d)
            select round(corr(rx, ry), 6) as spearman_r,
                   count(*)::bigint as n
            from r
        """,
        "corr_matrix_lineitem": """
            with p as (
              select 'l_quantity' as col_x, 'l_extendedprice' as col_y,
                     corr(l_quantity, l_extendedprice) as r,
                     count(*) filter (l_quantity is not null and
                                      l_extendedprice is not null) as n
              from lineitem
              union all
              select 'l_quantity', 'l_discount',
                     corr(l_quantity, l_discount),
                     count(*) filter (l_quantity is not null and
                                      l_discount is not null)
              from lineitem
              union all
              select 'l_quantity', 'l_tax', corr(l_quantity, l_tax),
                     count(*) filter (l_quantity is not null and
                                      l_tax is not null)
              from lineitem
              union all
              select 'l_extendedprice', 'l_discount',
                     corr(l_extendedprice, l_discount),
                     count(*) filter (l_extendedprice is not null and
                                      l_discount is not null)
              from lineitem
              union all
              select 'l_extendedprice', 'l_tax',
                     corr(l_extendedprice, l_tax),
                     count(*) filter (l_extendedprice is not null and
                                      l_tax is not null)
              from lineitem
              union all
              select 'l_discount', 'l_tax', corr(l_discount, l_tax),
                     count(*) filter (l_discount is not null and
                                      l_tax is not null)
              from lineitem)
            select col_x, col_y, round(r, 6) as r, n::bigint as n
            from p order by col_x, col_y
        """,
        "daily_event_counts_dense": """
            with c as (
              select date_trunc('day', ts) as day, count(*)::bigint as n
              from events where ts is not null group by day),
            b as (select min(day) as lo, max(day) as hi from c),
            cal as (select unnest(generate_series(lo, hi,
                                                  interval 1 day)) as day
                    from b)
            select cal.day, coalesce(c.n, 0)::bigint as n
            from cal left join c using (day) order by day
        """,
        "session_duration_stats": """
            with e as (
              select user_id, ts from events
              where ts is not null and user_id is not null),
            m as (
              select user_id, ts,
                     case when lag(ts) over w is null
                               or ts - lag(ts) over w
                                  > interval 30 minutes
                          then 1 else 0 end as new_s
              from e window w as (partition by user_id order by ts)),
            s as (
              select user_id, ts,
                     sum(new_s) over (partition by user_id order by ts
                         rows unbounded preceding) as sid
              from m),
            d as (
              select user_id, sid, epoch(max(ts) - min(ts)) as dur
              from s group by user_id, sid)
            select user_id, count(*)::bigint as n_sessions,
                   round(avg(dur), 4) as avg_session_s,
                   round(max(dur), 4) as max_session_s
            from d group by user_id order by user_id
        """,
        "events_rollup": """
            select grouping_id(event_type,
                               strftime(ts, '%Y-%m-%d'))::bigint as lvl,
                   event_type, strftime(ts, '%Y-%m-%d') as day,
                   count(*)::bigint as n
            from events
            where ts is not null and event_type is not null
            group by grouping sets
                ((event_type, strftime(ts, '%Y-%m-%d')),
                 (event_type), (strftime(ts, '%Y-%m-%d')), ())
            order by lvl, event_type nulls last, day nulls last
        """,
        "activity_heatmap": """
            select dayofweek(ts)::bigint as dow, hour(ts)::bigint as hod,
                   count(*)::bigint as n
            from events where ts is not null
            group by dow, hod order by dow, hod
        """,
        "doc_length_quartiles_by_lang": """
            with f as (
              select lang,
                     quantile_cont(n_chars, 0.25) as q1,
                     quantile_cont(n_chars, 0.5) as q2,
                     quantile_cont(n_chars, 0.75) as q3
              from documents
              where n_chars is not null and lang is not null
              group by lang)
            select d.doc_id, d.lang,
                   cast(1 + cast(d.n_chars > f.q1 as int)
                          + cast(d.n_chars > f.q2 as int)
                          + cast(d.n_chars > f.q3 as int) as bigint)
                       as bucket
            from documents d join f using (lang)
            where d.n_chars is not null
            order by doc_id
        """,
        "user_hour_entropy": """
            with c as (
              select user_id, hour(ts) as hod, count(*)::double as n
              from events
              where ts is not null and user_id is not null
              group by user_id, hod),
            t as (select user_id, sum(n) as tot from c group by user_id)
            select c.user_id,
                   round(-sum((n / tot) * ln(n / tot)), 6)
                       as hour_entropy,
                   sum(n)::bigint as n_events
            from c join t using (user_id)
            group by c.user_id order by c.user_id
        """,
        "value_mad_by_type": """
            with m as (
              select event_type, median(value) as med
              from events
              where value is not null and event_type is not null
              group by event_type)
            select e.event_type,
                   round(median(abs(e.value - m.med)), 6) as mad,
                   count(*)::bigint as n
            from events e join m using (event_type)
            where e.value is not null
            group by e.event_type order by e.event_type
        """,
        "cohort_retention": """
            with e as (
              select user_id, date_trunc('day', ts) as day
              from events
              where ts is not null and user_id is not null),
            f as (select user_id, min(day) as cohort from e
                  group by user_id)
            select strftime(f.cohort, '%Y-%m-%d') as cohort,
                   datediff('day', f.cohort, e.day)::bigint as day_offset,
                   count(distinct e.user_id)::bigint as n_users
            from e join f using (user_id)
            group by 1, 2 order by 1, 2
        """,
        "rolling_rows_mean_user": """
            select event_id,
                   round(avg(value) over (
                       partition by user_id order by ts, event_id
                       rows between 2 preceding and current row),
                       4) as rolling_mean
            from events order by event_id
        """,
        "active_days_histogram": """
            with s as (
              select user_id,
                     count(distinct date_trunc('day', ts))::double as d
              from events where ts is not null group by user_id)
            select least(floor((d - 0.0) * 20 / 100.0), 19)::bigint
                       as bin,
                   count(*) as n
            from s where d >= 0.0 and d <= 100.0
            group by bin order by bin
        """,
        "top_tokens_per_lang": r"""
            with tok as (
              select lang,
                     unnest(regexp_extract_all(coalesce(text, ''),
                                               '\S+')) as token
              from documents where lang is not null),
            c as (select lang, token, count(*)::bigint as cnt
                  from tok group by lang, token),
            rk as (select *, row_number() over (partition by lang
                       order by cnt desc, token) as rn
                   from c)
            select lang, token, cnt from rk where rn <= 3
            order by lang, token
        """,
        "q10_returned_items": """
            select c.c_custkey, c.c_name,
                   round(sum(l.l_extendedprice * (1 - l.l_discount)), 4)
                       as revenue,
                   c.c_acctbal, n.n_name
            from lineitem l
            join orders o on l.l_orderkey = o.o_orderkey
            join customer c on o.o_custkey = c.c_custkey
            join nation n on c.c_nationkey = n.n_nationkey
            where o.o_orderdate >= timestamp '1996-01-01'
              and o.o_orderdate < timestamp '1996-04-01'
              and l.l_returnflag = 'R'
            group by c.c_custkey, c.c_name, c.c_acctbal, n.n_name
            order by revenue desc, c_custkey limit 20
        """,
        "revenue_pareto_share": """
            with r as (
              select o_custkey, sum(o_totalprice) as rev
              from orders
              where o_custkey is not null and o_totalprice is not null
              group by o_custkey),
            rk as (
              select rev,
                     row_number() over (order by rev desc, o_custkey)
                         as rn,
                     count(*) over () as n,
                     sum(rev) over () as tot
              from r)
            select round(sum(case when rn <= ceil(0.2 * n)
                                  then rev else 0 end)
                         / any_value(tot), 6) as top_share,
                   any_value(n)::bigint as n_keys
            from rk
        """,
        "daily_value_quantiles": """
            with e as (
              select strftime(ts, '%Y-%m-%d') as day, value
              from events where ts is not null and value is not null)
            select day, 0.5 as q,
                   round(quantile_cont(value, 0.5), 4) as value
            from e group by day
            union all
            select day, 0.9 as q,
                   round(quantile_cont(value, 0.9), 4) as value
            from e group by day
            order by day, q
        """,
        "value_gini_by_type": """
            with r as (
              select event_type, value,
                     row_number() over (partition by event_type
                                        order by value, event_id) as rn,
                     count(*) over (partition by event_type) as n,
                     sum(value) over (partition by event_type) as s
              from events
              where value is not null and event_type is not null)
            select event_type,
                   case when any_value(s) != 0 then
                       round(sum((2.0 * rn - n - 1) * value)
                             / (any_value(n) * any_value(s)), 6)
                   end as gini,
                   any_value(n)::bigint as n
            from r group by event_type order by event_type
        """,
        "grouped_iqr_outliers_events": """
            with f as (
              select event_type,
                     quantile_cont(value, 0.25) as q1,
                     quantile_cont(value, 0.75) as q3
              from events
              where value is not null and event_type is not null
              group by event_type)
            select e.event_id, e.event_type, e.value
            from events e join f using (event_type)
            where e.value is not null
              and (e.value < f.q1 - 1.5 * (f.q3 - f.q1)
                   or e.value > f.q3 + 1.5 * (f.q3 - f.q1))
            order by e.event_id
        """,
        "grouped_histogram_events": """
            select event_type,
                   least(floor((value - 0.0) * 20 / 500.0),
                         19)::bigint as bin,
                   count(*) as n
            from events
            where value >= 0.0 and value <= 500.0
              and event_type is not null
            group by event_type, bin order by event_type, bin
        """,
        "grouped_minmax_scale_events": """
            select event_id,
                   case when max(value) over (partition by user_id)
                             > min(value) over (partition by user_id)
                        then round((value - min(value) over (
                                 partition by user_id))
                             / (max(value) over (partition by user_id)
                                - min(value) over (
                                    partition by user_id)), 6)
                   end as scaled
            from events where value is not null order by event_id
        """,
        "user_activity_span": """
            select user_id, count(*)::bigint as n_events,
                   count(distinct date_trunc('day', ts))::bigint
                       as n_active_days,
                   min(ts) as first_ts, max(ts) as last_ts
            from events where ts is not null
            group by user_id order by user_id
        """,
        "distinct_users_per_event_type": """
            select event_type, count(distinct user_id) as n_distinct
            from events
            where event_type is not null and user_id is not null
            group by event_type order by event_type
        """,
        "ewma_user_value": """
            with recursive
            s as (select event_id, user_id, value,
                         row_number() over (partition by user_id
                                            order by ts, event_id) as rn
                  from events
                  where value is not null and user_id is not null),
            e(user_id, rn, event_id, y) as (
              select user_id, rn, event_id, value from s where rn = 1
              union all
              select s.user_id, s.rn, s.event_id,
                     0.3 * s.value + 0.7 * e.y
              from e join s on s.user_id = e.user_id and s.rn = e.rn + 1)
            select event_id, round(y, 4) as ewma
            from e order by event_id
        """,
        "ewma_halflife_user_value": """
            with recursive
            s as (select event_id, user_id, value,
                         epoch_us(ts) as tus,
                         row_number() over (partition by user_id
                                            order by ts, event_id) as rn
                  from events
                  where value is not null and ts is not null
                    and user_id is not null),
            e(user_id, rn, event_id, tus, w, y) as (
              -- seed w must be DOUBLE: a bare 1.0 types the CTE column
              -- DECIMAL(2,1) and rounds the carried weight every step
              select user_id, rn, event_id, tus, 1.0::double, value
              from s where rn = 1
              union all
              select s.user_id, s.rn, s.event_id, s.tus,
                     e.w * pow(0.5, (s.tus - e.tus) / 3600000000.0) + 1.0,
                     (e.w * pow(0.5, (s.tus - e.tus) / 3600000000.0) * e.y
                      + s.value)
                     / (e.w * pow(0.5, (s.tus - e.tus) / 3600000000.0)
                        + 1.0)
              from e join s on s.user_id = e.user_id and s.rn = e.rn + 1)
            select event_id, round(y, 4) as ewma_hl
            from e order by event_id
        """,
        "percentile_rank_events": """
            select event_id,
                   percent_rank() over (order by value) as pct_rank
            from events where value is not null
            order by event_id
        """,
        "lag_diff_user_value": """
            select event_id,
                   round(value - lag(value) over (
                       partition by user_id order by ts, event_id),
                         4) as lag_diff
            from events order by event_id
        """,
        "grouped_moments_lineitem": """
            select l_returnflag, count(l_extendedprice) as n,
                   round(avg(l_extendedprice), 4) as mean,
                   round(stddev_samp(l_extendedprice), 4) as std_samp,
                   round(min(l_extendedprice), 4) as vmin,
                   round(max(l_extendedprice), 4) as vmax
            from lineitem group by l_returnflag order by l_returnflag
        """,
        "grouped_corr_lineitem": """
            select l_returnflag, count(*) as n,
                   round(corr(l_quantity, l_extendedprice), 6) as pearson_r
            from lineitem
            where l_quantity is not null and l_extendedprice is not null
            group by l_returnflag order by l_returnflag
        """,
        "winsorize_events": """
            with b as (
                select quantile_cont(value, 0.05) as lo,
                       quantile_cont(value, 0.95) as hi
                from events where value is not null)
            select event_id,
                   round(least(greatest(value, b.lo), b.hi), 4) as value
            from events, b where value is not null
            order by event_id
        """,
        "pack_sequences_docs": r"""
            with recursive
            s as (
              select doc_id, doc_id // 128 as shard,
                     len(regexp_extract_all(coalesce(text, ''),
                         '\S+'))::bigint as n,
                     row_number() over (partition by doc_id // 128
                                        order by doc_id) as rn
              from documents),
            p(shard, rn, doc_id, n, running, bin) as (
              select shard, rn, doc_id, n, n, 0::bigint from s
              where rn = 1
              union all
              select s.shard, s.rn, s.doc_id, s.n,
                     case when p.running + s.n <= 512
                          then p.running + s.n else s.n end,
                     case when p.running + s.n <= 512
                          then p.bin else p.bin + 1 end
              from p join s on s.shard = p.shard and s.rn = p.rn + 1)
            select doc_id, shard, bin, n as n_tokens
            from p order by doc_id
        """,
        "pack_sequences_bpe": r"""
            with recursive
            s as (
              select doc_id, doc_id // 128 as shard,
                     len(regexp_extract_all(coalesce(text, ''),
                         '[A-Za-z]+|[0-9]|[^A-Za-z0-9\s]'))::bigint as n,
                     row_number() over (partition by doc_id // 128
                                        order by doc_id) as rn
              from documents),
            p(shard, rn, doc_id, n, running, bin) as (
              select shard, rn, doc_id, n, n, 0::bigint from s
              where rn = 1
              union all
              select s.shard, s.rn, s.doc_id, s.n,
                     case when p.running + s.n <= 512
                          then p.running + s.n else s.n end,
                     case when p.running + s.n <= 512
                          then p.bin else p.bin + 1 end
              from p join s on s.shard = p.shard and s.rn = p.rn + 1)
            select doc_id, shard, bin, n as n_tokens
            from p order by doc_id
        """,
        "pii_flags_docs": r"""
            with d as (
              select doc_id,
                     coalesce(text, '')
                     || case when doc_id % 7 = 0
                             then ' contact_' || doc_id || '@example.com'
                             else '' end
                     || case when doc_id % 11 = 0
                             then ' ip 10.0.0.' || (doc_id % 256)
                             else '' end as t
              from documents)
            select doc_id,
                   len(regexp_extract_all(t,
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'
                       ))::bigint as n_emails,
                   len(regexp_extract_all(t,
                       '\b[0-9]{3}[-. ][0-9]{3}[-. ][0-9]{4}\b'
                       ))::bigint as n_phones,
                   len(regexp_extract_all(t,
                       '\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b'
                       ))::bigint as n_ipv4,
                   len(regexp_extract_all(t,
                       '\b[0-9]{3}-[0-9]{2}-[0-9]{4}\b'
                       ))::bigint as n_ssn_like,
                   (len(regexp_extract_all(t,
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'
                       )) > 0
                    or len(regexp_extract_all(t,
                       '\b[0-9]{3}[-. ][0-9]{3}[-. ][0-9]{4}\b')) > 0
                    or len(regexp_extract_all(t,
                       '\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b'
                       )) > 0
                    or len(regexp_extract_all(t,
                       '\b[0-9]{3}-[0-9]{2}-[0-9]{4}\b')) > 0) as has_pii
            from d order by doc_id
        """,
        "redact_pii_docs": r"""
            with d as (
              select doc_id,
                     coalesce(text, '')
                     || case when doc_id % 7 = 0
                             then ' contact_' || doc_id || '@example.com'
                             else '' end
                     || case when doc_id % 11 = 0
                             then ' ip 10.0.0.' || (doc_id % 256)
                             else '' end as t
              from documents)
            select doc_id,
                   regexp_replace(regexp_replace(regexp_replace(
                       regexp_replace(t,
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                       '[EMAIL]', 'g'),
                       '\b[0-9]{3}-[0-9]{2}-[0-9]{4}\b', '[SSN]', 'g'),
                       '\b[0-9]{3}[-. ][0-9]{3}[-. ][0-9]{4}\b',
                       '[PHONE]', 'g'),
                       '\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b',
                       '[IP]', 'g') as redacted_text
            from d order by doc_id
        """,
        "streaming_dedup": """
            select min(doc_id) as doc_id from documents
            group by md5(coalesce(text, ''))
            order by doc_id
        """,
        "ngram_novelty_docs": r"""
            with d as (
              select doc_id,
                     list_filter(string_split_regex(
                         lower(coalesce(text, '')), '\s+'),
                         x -> x <> '') as w
              from documents),
            g as (
              select doc_id,
                     list_distinct(case
                       when len(w) = 0 then []::varchar[]
                       when len(w) < 3 then [array_to_string(w, ' ')]
                       else list_transform(range(1, len(w) - 1),
                            i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
                     end) as grams
              from d),
            refg as (select distinct unnest(grams) as gram from g
                     where doc_id < 100),
            ex as (select doc_id, unnest(grams) as gram from g
                   where doc_id >= 100),
            sc as (select e.doc_id,
                          count(*) as total_grams,
                          count(*) filter (r.gram is null) as novel_grams
                   from ex e left join refg r on r.gram = e.gram
                   group by e.doc_id)
            select b.doc_id,
                   coalesce(sc.novel_grams, 0) as novel_grams,
                   coalesce(sc.total_grams, 0) as total_grams,
                   coalesce(sc.novel_grams::double / sc.total_grams,
                            0.0) as novelty
            from (select doc_id from g where doc_id >= 100) b
            left join sc on sc.doc_id = b.doc_id
            order by b.doc_id
        """,
        "grouped_quantiles_lineitem": """
            select l_returnflag, q, round(v, 4) as value
            from (
              select l_returnflag, 0.5 as q,
                     quantile_cont(l_extendedprice, 0.5) as v
              from lineitem group by l_returnflag
              union all
              select l_returnflag, 0.9,
                     quantile_cont(l_extendedprice, 0.9)
              from lineitem group by l_returnflag)
            order by l_returnflag, q
        """,
        "outlier_events": """
            with q as (select quantile_cont(value, 0.25) as q1,
                              quantile_cont(value, 0.75) as q3
                       from events)
            select event_id, value from events, q
            where value < q1 - 1.5 * (q3 - q1)
               or value > q3 + 1.5 * (q3 - q1)
            order by event_id
        """,
        "rolling_user_mean": """
            select event_id,
                   round(avg(value) over (
                       partition by user_id order by ts
                       range between interval 3 hours preceding
                             and current row), 4) as rolling_mean
            from events order by event_id
        """,
        "asof_last_purchase": """
            with l as (select event_id, user_id, ts from events
                       where event_type <> 'purchase'),
            r as (select user_id, ts, value from events
                  where event_type = 'purchase'
                  qualify row_number() over (partition by user_id, ts
                                             order by event_id desc) = 1)
            select l.event_id, r.value as last_purchase_value
            from l asof join r
              on l.user_id = r.user_id and l.ts >= r.ts
            order by l.event_id
        """,
        "events_after_purchase": """
            select l.event_id, r.event_id as purchase_id
            from (select event_id, user_id, ts from events
                  where event_type <> 'purchase') l
            join (select event_id, user_id, ts from events
                  where event_type = 'purchase') r
              on l.user_id = r.user_id
             and l.ts >= r.ts
             and l.ts < r.ts + interval 2 hours
            order by l.event_id, purchase_id
        """,
        "streaming_windows": """
            select user_id, date_trunc('hour', ts) as window_start,
                   count(*) as n_events,
                   round(sum(value), 4) as value_sum
            from events group by 1, 2
        """,
        "events_props_validation": """
            with e as (select event_id, props from events),
            k as (
              select event_id, props,
                     json_extract(props, '$.k') as kv,
                     json_type(props, '$.k') as kt
              from e where props is not null and json_valid(props))
            select event_id, 0 as error_seq,
                   'MissingInstance' as error_kind, '' as instance_path
            from e where props is null
            union all
            select event_id, 0, 'InvalidJson', '' from e
            where props is not null and not json_valid(props)
            union all
            select event_id, 0, 'MissingRequired', '/k' from k
            where kv is null
            union all
            select event_id, 0, 'ExpectedInteger', '/k' from k
            where kv is not null and kt not in ('UBIGINT', 'BIGINT')
            union all
            select event_id, 0, 'BelowMinimum', '/k' from k
            where kt in ('UBIGINT', 'BIGINT') and kv::bigint < 0
            union all
            select event_id, 0, 'AboveMaximum', '/k' from k
            where kt in ('UBIGINT', 'BIGINT') and kv::bigint > 50
        """,
        "embedding_near_dup": """
            with aug as (
              select vec_id, embedding from embeddings
              union all
              select vec_id + 1000000, embedding from embeddings
              where vec_id < 20),
            pairs as (
              select a.vec_id as key_a, b.vec_id as key_b,
                     list_cosine_similarity(a.embedding::double[],
                                            b.embedding::double[]) as cos
              from aug a join aug b on a.vec_id < b.vec_id)
            select key_a, key_b, round(cos, 4) as cosine
            from pairs where cos >= 0.99
        """,
        "embedding_dup_clusters": """
            with recursive
            aug as (
              select vec_id, embedding from embeddings
              union all
              select vec_id + 1000000, embedding from embeddings
              where vec_id < 20
              union all
              select vec_id + 2000000, embedding from embeddings
              where vec_id < 10),
            e as (
              select a.vec_id as u, b.vec_id as v
              from aug a join aug b on a.vec_id < b.vec_id
              where list_cosine_similarity(a.embedding::double[],
                                           b.embedding::double[]) >= 0.99),
            sym as (select u as a, v as b from e
                    union all select v, u from e),
            reach(node, l) as (
              select distinct a, a from sym
              union
              select s.b, r.l from reach r join sym s on s.a = r.node)
            select node as vec_id, min(l) as cluster_id
            from reach group by node order by vec_id
        """,

        "language_id": r'''
            with t as (select doc_id, coalesce(text, '') as txt
                       from documents),
            b as (select doc_id, txt,
                    greatest(len(regexp_extract_all(txt, '\S+')),
                             1)::double as denom,
                    greatest(length(txt), 1)::double as nchars
                  from t),
            s as (select doc_id, [
                    struct_pack(prio := 0, lang := 'en',
                      score := len(regexp_extract_all(txt,
                        '(?i)\b(the|and|of|to|a|in|is|that|it|for)\b'
                        ))::double / denom),
                    struct_pack(prio := 1, lang := 'de',
                      score := len(regexp_extract_all(txt,
                        '(?i)\b(der|die|und|das|ist|nicht|ein|mit|zu)\b'
                        ))::double / denom),
                    struct_pack(prio := 2, lang := 'fr',
                      score := len(regexp_extract_all(txt,
                        '(?i)\b(le|la|les|et|des|est|une|dans|que)\b'
                        ))::double / denom),
                    struct_pack(prio := 3, lang := 'es',
                      score := len(regexp_extract_all(txt,
                        '(?i)\b(el|la|los|de|que|y|en|un|una|es)\b'
                        ))::double / denom),
                    struct_pack(prio := 4, lang := 'zh',
                      score := len(regexp_extract_all(txt,
                        '[\x{4e00}-\x{9fff}]'))::double / nchars * 5.0)
                  ] as cand from b),
            u as (select doc_id, unnest(cand, recursive := true) from s),
            r as (select doc_id, lang, score,
                         row_number() over (partition by doc_id
                                            order by score desc, prio) as rn
                  from u)
            select doc_id,
                   case when score > 0.01 then lang else 'und'
                       end as lang_pred,
                   round(score, 4) as lang_score
            from r where rn = 1
        ''',
        "jaccard_verify": r"""
            with d as (
              select doc_id,
                     list_filter(string_split_regex(
                         lower(coalesce(text, '')), '\s+'),
                         x -> x <> '') as w
              from documents where doc_id <= 199),
            sh as (
              select doc_id,
                     case
                       when len(w) = 0 then []::varchar[]
                       when len(w) < 3 then [array_to_string(w, ' ')]
                       else list_transform(range(1, len(w) - 1),
                            i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
                     end as grams
              from d),
            g as (select doc_id, list_distinct(grams) as grams from sh),
            pairs as (
              select a.doc_id as key_a, b.doc_id as key_b,
                     a.grams as ga, b.grams as gb
              from g a join g b on b.doc_id = a.doc_id + 1
              where a.doc_id < 199)
            select key_a, key_b,
                   round(case
                     when len(ga) = 0 and len(gb) = 0 then 1.0
                     else len(list_distinct(list_intersect(ga, gb)))::double
                          / len(list_distinct(ga || gb))
                   end, 4) as jaccard
            from pairs
        """,
        "near_dup_clusters": r"""
            with recursive
            d as (
              select doc_id,
                     list_filter(string_split_regex(
                         lower(coalesce(text, '')), '\s+'),
                         x -> x <> '') as w
              from documents),
            g as (
              select doc_id,
                     list_distinct(case
                       when len(w) = 0 then []::varchar[]
                       when len(w) < 3 then [array_to_string(w, ' ')]
                       else list_transform(range(1, len(w) - 1),
                            i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
                     end) as grams
              from d),
            ex as (select doc_id, unnest(grams) as gram from g),
            cand as (
              select distinct a.doc_id as u, b.doc_id as v
              from ex a join ex b using (gram)
              where a.doc_id < b.doc_id),
            e as (
              select u, v from cand
              join g ga on ga.doc_id = cand.u
              join g gb on gb.doc_id = cand.v
              where (case when len(ga.grams) = 0 and len(gb.grams) = 0
                          then 1.0
                          else len(list_distinct(list_intersect(
                                   ga.grams, gb.grams)))::double
                               / len(list_distinct(ga.grams || gb.grams))
                     end) >= 0.6),
            sym as (select u as a, v as b from e
                    union all select v, u from e),
            reach(node, l) as (
              select distinct a, a from sym
              union
              select s.b, r.l from reach r join sym s on s.a = r.node)
            select node as doc_id, min(l) as cluster_id
            from reach group by node order by doc_id
        """,
        "near_dup_survivors": r"""
            with recursive
            d as (
              select doc_id,
                     list_filter(string_split_regex(
                         lower(coalesce(text, '')), '\s+'),
                         x -> x <> '') as w
              from documents),
            g as (
              select doc_id,
                     list_distinct(case
                       when len(w) = 0 then []::varchar[]
                       when len(w) < 3 then [array_to_string(w, ' ')]
                       else list_transform(range(1, len(w) - 1),
                            i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
                     end) as grams
              from d),
            ex as (select doc_id, unnest(grams) as gram from g),
            cand as (
              select distinct a.doc_id as u, b.doc_id as v
              from ex a join ex b using (gram)
              where a.doc_id < b.doc_id),
            e as (
              select u, v from cand
              join g ga on ga.doc_id = cand.u
              join g gb on gb.doc_id = cand.v
              where (case when len(ga.grams) = 0 and len(gb.grams) = 0
                          then 1.0
                          else len(list_distinct(list_intersect(
                                   ga.grams, gb.grams)))::double
                               / len(list_distinct(ga.grams || gb.grams))
                     end) >= 0.6),
            sym as (select u as a, v as b from e
                    union all select v, u from e),
            reach(node, l) as (
              select distinct a, a from sym
              union
              select s.b, r.l from reach r join sym s on s.a = r.node),
            comp as (select node, min(l) as cluster_id
                     from reach group by node),
            losers as (select node from comp where node <> cluster_id)
            select doc_id from documents
            where doc_id not in (select node from losers)
            order by doc_id
        """,
        "train_test_contamination": r"""
            with d as (
              select doc_id,
                     list_filter(string_split_regex(
                         lower(coalesce(text, '')), '\s+'),
                         x -> x <> '') as w
              from documents),
            g as (
              select doc_id,
                     list_distinct(case
                       when len(w) = 0 then []::varchar[]
                       when len(w) < 3 then [array_to_string(w, ' ')]
                       else list_transform(range(1, len(w) - 1),
                            i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
                     end) as grams
              from d),
            ex as (select doc_id, unnest(grams) as gram from g),
            cand as (
              select distinct a.doc_id as u, b.doc_id as v
              from ex a join ex b using (gram)
              where a.doc_id % 5 <> 0 and b.doc_id % 5 = 0),
            j as (
              select u, v,
                     (case when len(ga.grams) = 0 and len(gb.grams) = 0
                           then 1.0
                           else len(list_distinct(list_intersect(
                                    ga.grams, gb.grams)))::double
                                / len(list_distinct(ga.grams || gb.grams))
                      end) as jac
              from cand
              join g ga on ga.doc_id = cand.u
              join g gb on gb.doc_id = cand.v)
            select u as train_id, v as test_id, round(jac, 4) as jaccard
            from j where jac >= 0.6
            order by train_id, test_id
        """,
        "latest_event_per_user": """
            select user_id, event_id, ts, value
            from (select user_id, event_id, ts, value,
                         row_number() over (partition by user_id
                             order by ts desc, event_id desc) as rn
                  from events)
            where rn = 1
            order by user_id
        """,
        "pivot_events_value": """
            select user_id,
                   round(coalesce(sum(value) filter (
                       where event_type = 'click'), 0), 4) as sum_click,
                   round(coalesce(sum(value) filter (
                       where event_type = 'error'), 0), 4) as sum_error,
                   round(coalesce(sum(value) filter (
                       where event_type = 'purchase'), 0), 4)
                       as sum_purchase,
                   round(coalesce(sum(value) filter (
                       where event_type = 'signup'), 0), 4) as sum_signup,
                   round(coalesce(sum(value) filter (
                       where event_type = 'view'), 0), 4) as sum_view
            from events
            where user_id is not null
            group by user_id
            order by user_id
        """,
        "click_not_purchase_users": """
            select user_id from (
              select distinct user_id from events
              where event_type = 'click' and value > 95.0
                and user_id is not null
              except
              select distinct user_id from events
              where event_type = 'purchase' and value > 95.0
                and user_id is not null)
            order by user_id
        """,
        "click_xor_purchase_users": """
            with c as (
              select distinct user_id from events
              where event_type = 'click' and value > 95.0
                and user_id is not null),
            p as (
              select distinct user_id from events
              where event_type = 'purchase' and value > 95.0
                and user_id is not null)
            select user_id from (
              (select user_id from c except select user_id from p)
              union
              (select user_id from p except select user_id from c))
            order by user_id
        """,
        "session_value_sums": """
            with marked as (
              select user_id, ts, value,
                     case when ts - lag(ts) over w > interval 30 minutes
                          or lag(ts) over w is null then 1 else 0
                     end as new_s
              from events
              window w as (partition by user_id order by ts)
            ), sess as (
              select user_id, ts, value,
                     sum(new_s) over (partition by user_id order by ts
                                      rows unbounded preceding)::bigint
                         as session_id
              from marked)
            select user_id, session_id, count(*) as n_events,
                   min(ts) as session_start, max(ts) as session_end,
                   round(sum(value), 4) as value_sum,
                   count(value) as n_values
            from sess group by 1, 2
            order by user_id, session_id
        """,
        "click_and_purchase_users": """
            select user_id from (
              select distinct user_id from events
              where event_type = 'click' and value > 95.0
                and user_id is not null
              intersect
              select distinct user_id from events
              where event_type = 'purchase' and value > 95.0
                and user_id is not null)
            order by user_id
        """,
        "mode_event_type_per_user": """
            with c as (
              select user_id, event_type, count(*) as n
              from events where event_type is not null
                and user_id is not null
              group by user_id, event_type),
            m as (select user_id, max(n) as mn from c group by user_id)
            select c.user_id,
                   min(c.event_type) as mode_value,
                   m.mn as n
            from c join m on c.user_id = m.user_id and c.n = m.mn
            group by c.user_id, m.mn
            order by c.user_id
        """,
        "running_sum_user_value": """
            select event_id,
                   round(coalesce(sum(value) over (
                       partition by user_id order by ts, event_id
                       rows unbounded preceding), 0), 4) as running_sum
            from events
            order by event_id
        """,
        "rolling_user_min_max": """
            select event_id,
                   round(min(value) over (
                       partition by user_id order by ts
                       range between interval 3 hours preceding
                             and current row), 4) as rolling_min,
                   round(max(value) over (
                       partition by user_id order by ts
                       range between interval 3 hours preceding
                             and current row), 4) as rolling_max
            from events where ts is not null order by event_id
        """,
        "running_min_max_user_value": """
            select event_id,
                   round(min(value) over (
                       partition by user_id order by ts, event_id
                       rows unbounded preceding), 4) as running_min,
                   round(max(value) over (
                       partition by user_id order by ts, event_id
                       rows unbounded preceding), 4) as running_max
            from events order by event_id
        """,
        "user_gap_stats": """
            with g as (
              select user_id,
                     epoch(ts - lag(ts) over (
                         partition by user_id order by ts, event_id))
                         as gap
              from events where ts is not null)
            select user_id, count(gap)::bigint as n_gaps,
                   round(avg(gap), 4) as avg_gap_s,
                   round(max(gap), 4) as max_gap_s
            from g group by user_id order by user_id
        """,
        "delta_from_first_user_value": """
            select event_id,
                   round(value - first_value(value) over (
                       partition by user_id order by ts, event_id
                       rows unbounded preceding), 4) as delta_from_first
            from events order by event_id
        """,
        "window_ranks_events": """
            select event_id,
                   row_number() over (partition by user_id
                       order by value asc nulls last, event_id)
                       as row_number,
                   rank() over (partition by user_id
                       order by value asc nulls last) as rank,
                   dense_rank() over (partition by user_id
                       order by value asc nulls last) as dense_rank
            from events order by event_id
        """,
        "tfidf_top_terms": r"""
            with tok as (
              select doc_id, token, count(*)::bigint as tf
              from (select doc_id,
                           unnest(string_split_regex(coalesce(text, ''),
                                                     '\s+')) as token
                    from documents)
              where token <> '' group by doc_id, token),
            d as (select token, count(*)::bigint as df
                  from tok group by token),
            n as (select count(*)::double as n from documents),
            scored as (
              select t.doc_id, t.token, t.tf,
                     t.tf * ln(n.n / d.df) as score,
                     row_number() over (partition by t.doc_id
                         order by t.tf * ln(n.n / d.df) desc,
                                  t.token) as rn
              from tok t join d using(token), n)
            select doc_id, token, tf, round(score, 6) as score
            from scored where rn <= 5
            order by doc_id, token
        """,
        "label_centroids": """
            select cast(label as bigint) as label,
                   i as dim,
                   round(avg(embedding[i + 1]), 6) as value
            from embeddings, range(64) t(i)
            where label is not null and len(embedding) = 64
            group by label, i
            order by label, dim
        """,
        "quantile_buckets_events": """
            with f as (
              select quantile_cont(value, 0.25) as q1,
                     quantile_cont(value, 0.5) as q2,
                     quantile_cont(value, 0.75) as q3
              from events where value is not null)
            select event_id,
                   cast(1 + cast(value > q1 as int)
                          + cast(value > q2 as int)
                          + cast(value > q3 as int) as bigint) as bucket
            from events, f where value is not null
            order by event_id
        """,
        "robust_zscore_events": """
            with m as (
              select quantile_cont(value, 0.5) as med
              from events where value is not null),
            d as (
              select quantile_cont(abs(value - med), 0.5) as mad
              from events, m where value is not null)
            select event_id, round((value - med) / mad, 6) as rz
            from events, m, d where value is not null
            order by event_id
        """,
        "window_rank_fractions_events": """
            select event_id,
                   round(percent_rank() over (partition by user_id
                       order by value asc nulls last), 6) as pct_rank,
                   round(cume_dist() over (partition by user_id
                       order by value asc nulls last), 6) as cume_dist,
                   ntile(4) over (partition by user_id
                       order by value asc nulls last, event_id) as bucket
            from events order by event_id
        """,
        "grouped_median_orders": """
            select o_orderpriority, cast(0.5 as double) as q,
                   round(quantile_cont(o_totalprice, 0.5), 4) as value
            from orders group by o_orderpriority
            order by o_orderpriority, q
        """,
        "rolling_user_sum": """
            select event_id,
                   round(sum(value) over (
                       partition by user_id order by ts
                       range between interval 3 hours preceding
                             and current row), 4) as rolling_sum,
                   count(value) over (
                       partition by user_id order by ts
                       range between interval 3 hours preceding
                             and current row) as rolling_n
            from events order by event_id
        """,
        "user_event_sequences": """
            select user_id,
                   string_agg(event_type, ','
                       order by ts, event_id) as seq,
                   count(event_type) as n_items
            from events
            where user_id is not null
            group by user_id
            having count(event_type) > 0
            order by user_id
        """,
        "click_or_purchase_users": """
            select user_id from (
              select distinct user_id from events
              where event_type = 'click' and value > 95.0
                and user_id is not null
              union
              select distinct user_id from events
              where event_type = 'purchase' and value > 95.0
                and user_id is not null)
            order by user_id
        """,
        "semi_join_events_purchases": """
            select event_id, ts, user_id, value from events e
            where exists (
              select 1 from events p
              where p.user_id = e.user_id
                and p.event_type = 'purchase' and p.value > 95.0)
            order by event_id
        """,
        "anti_join_events_purchases": """
            select event_id, ts, user_id, value from events e
            where not exists (
              select 1 from events p
              where p.user_id = e.user_id
                and p.event_type = 'purchase' and p.value > 95.0)
            order by event_id
        """,
    }
