"""Deduplication operators over the ``documents`` table.

Five dedup families, each Ray-Data-first (combiner inside ``map_batches``
before any shuffle; the shuffle key is always a short hash, never the text):

* **exact**: md5(text) groups -> keep lowest doc_id (hash-partition + per-group
  first; md5 so a DuckDB oracle can reproduce it bit-for-bit).
* **MinHash + LSH**: word-shingle -> K minhashes (one base hash per shingle +
  K cheap splitmix re-mixes, per-doc min via reduceat) -> band buckets ->
  within-bucket candidate pairs -> signature-similarity filter.
* **SimHash**: 64-bit sign-of-weighted-sum fingerprints; near-dup candidates
  by exact match on any of 4 16-bit chunks (Hamming<=3 guaranteed recall for
  <=3-bit flips by pigeonhole).
* **n-gram Jaccard**: exact verification kernel for candidate pairs.
* **embedding cosine**: random-hyperplane LSH buckets -> within-bucket cosine
  >= threshold (brute-force verify for small buckets).
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np
import pyarrow as pa

from engine.sketches import _splitmix, hash64

# ---------------------------------------------------------------------------
# exact dedup


def _md5_hex(texts) -> list[str]:
    return [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in texts]


def exact_duplicates(ds, *, text_col: str = "text", key_col: str = "doc_id",
                     batch_size: int = 8192, concurrency=None):
    """Groups of byte-identical texts: (text_hash, keep_id, dup_count).

    Per-batch partials first (:func:`engine.shuffle.combine`), so the
    merge shuffles one row per distinct text per batch (md5 keys, 32
    bytes) — never the text bytes.
    """
    return _hash_groups(ds, "text_hash", text_col, key_col, batch_size,
                        concurrency)


def _hash_groups(ds, hash_col, text_col, key_col, batch_size, concurrency,
                 normalize=None):
    """(``hash_col``, keep_id, dup_count) per md5 of the (``normalize``-d)
    text: the lowest key and the non-NULL key count of each group."""
    from engine.shuffle import combine

    def _hashed(batch: pa.Table) -> pa.Table:
        t = batch.column(text_col)
        if normalize is not None:
            t = normalize(t)
        return pa.table({hash_col: pa.array(_md5_hex(t.to_pylist()),
                                            pa.string()),
                         "k": batch.column(key_col)})

    return combine(ds, hash_col, {"keep_id": ("k", "min"),
                                  "dup_count": ("k", "count")},
                   derive=_hashed, batch_size=batch_size,
                   concurrency=concurrency)


# ---------------------------------------------------------------------------
# shingles + minhash


def _doc_shingle_hashes(texts: list, n: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Flattened 64-bit hashes of word n-gram shingles + per-doc counts.

    Vectorized: words are hashed ONCE (one pd.hash_array over the flat word
    list) and a shingle hash is an ordered splitmix chain of its n word
    hashes — shingle strings are never materialized. Documents with
    1..n-1 words contribute one shingle (the chain over all their words);
    empty documents contribute none. Equivalent shingle-set semantics to
    string n-grams for minhash/simhash (only the hash basis differs).
    """
    word_lists = [(t or "").lower().split() for t in texts]
    wcounts = np.array([len(w) for w in word_lists], dtype=np.int64)
    flat: list = []
    for w in word_lists:
        flat.extend(w)
    counts = np.where(wcounts >= n, wcounts - n + 1,
                      np.where(wcounts > 0, 1, 0)).astype(np.int64)
    total = int(counts.sum())
    out = np.empty(total, dtype=np.uint64)
    if total == 0:
        return out, counts
    wh = hash64(np.array(flat, dtype=object))
    L = len(wh)
    with np.errstate(over="ignore"):
        # acc[i] = chain over wh[i..i+n-1] (tail positions are garbage and
        # masked out below; shifted-array chaining keeps this one pass)
        acc = _splitmix(wh, 101)
        for j in range(1, n):
            nxt = np.zeros(L, dtype=np.uint64)
            nxt[:L - j] = wh[j:]
            acc = _splitmix(acc ^ nxt, 101 + j)
        doc_start = np.concatenate([[0], np.cumsum(wcounts)[:-1]])
        pos = 0
        for i in range(len(texts)):
            W = int(wcounts[i])
            if W == 0:
                continue
            ds_ = int(doc_start[i])
            if W >= n:
                k = W - n + 1
                out[pos:pos + k] = acc[ds_:ds_ + k]
                pos += k
            else:  # short doc: chain over all W words, zero-padded to n
                a = _splitmix(wh[ds_], 101)
                for j in range(1, n):
                    x = wh[ds_ + j] if j < W else np.uint64(0)
                    a = _splitmix(a ^ x, 101 + j)
                out[pos] = a
                pos += 1
    return out, counts


def minhash_signatures_batch(texts: list, k: int = 64,
                             shingle_n: int = 3) -> np.ndarray:
    """(len(texts), k) uint64 signature matrix; empty docs get all-max."""
    h, counts = _doc_shingle_hashes(texts, shingle_n)
    sig = np.full((len(texts), k), np.iinfo(np.uint64).max, dtype=np.uint64)
    nonempty = counts > 0
    if not nonempty.any():
        return sig
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    sel_starts = starts[nonempty]
    with np.errstate(over="ignore"):
        for j in range(k):
            hj = _splitmix(h, j + 101)
            mins = np.minimum.reduceat(hj, sel_starts)
            sig[nonempty, j] = mins
    return sig


def _band_hashes(sig: np.ndarray, bands: int, r: int) -> np.ndarray:
    """(n * bands,) uint64 band hashes, band-major."""
    n = len(sig)
    bh = np.empty(bands * n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for b in range(bands):
            chunk = sig[:, b * r:(b + 1) * r]
            acc = np.zeros(n, dtype=np.uint64)
            for c in range(r):
                acc = _splitmix(acc ^ chunk[:, c], b + 7)
            bh[b * n:(b + 1) * n] = acc
    return bh


class _MinHashBandBatch:
    """batch -> LIGHT (band, band_hash, key) rows for the LSH groupby.

    Signatures are deliberately NOT shipped: at 10^12 docs x 16 bands the
    512-byte signature would dominate the shuffle (~8 KB/doc). Candidates
    surviving the hot-bucket filter are sparse, so their signatures are
    recomputed afterwards on the filtered corpus slice instead.
    """

    def __init__(self, text_col: str, key_col: str, k: int, bands: int,
                 shingle_n: int, extra_cols: list | None = None):
        self.text_col = text_col
        self.key_col = key_col
        self.k = k
        self.bands = bands
        self.r = k // bands
        self.shingle_n = shingle_n
        self.extra_cols = extra_cols or []

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        keys = batch.column(self.key_col).to_numpy(zero_copy_only=False)
        sig = minhash_signatures_batch(texts, self.k, self.shingle_n)
        n = len(texts)
        out = {
            "band": pa.array(np.repeat(np.arange(self.bands,
                                                 dtype=np.int32), n)),
            "band_hash": pa.array(_band_hashes(sig, self.bands, self.r),
                                  pa.uint64()),
            "key": pa.array(np.tile(keys, self.bands).tolist()),
        }
        for c in self.extra_cols:
            v = batch.column(c).to_numpy(zero_copy_only=False)
            out[c] = pa.array(np.tile(v, self.bands).tolist())
        return pa.table(out)


_TRIU_CACHE: dict = {}


def _triu_idx(s: int):
    t = _TRIU_CACHE.get(s)
    if t is None:
        t = np.triu_indices(s, 1)
        _TRIU_CACHE[s] = t
    return t


def _emit_partition_pairs(df, max_bucket_size: int = 64, value_col=None):
    """All within-bucket (key_a < key_b) pairs of ONE coarse hash partition.

    The partition holds complete buckets (``by_key`` on bkey), so pair
    emission is exact, and the work is vectorized over the whole partition
    instead of one pandas UDF call per bucket: on the partition sorted by
    (bkey, key), find bucket boundaries, emit cached-triu index pairs per
    qualifying bucket.
    Duplicate keys within a bucket (possible only via a ~2^-63 bkey
    collision merging two buckets) are dropped, matching the np.unique of
    the per-bucket formulation.

    Defensive cap: a degenerate bucket of B members costs B^2 pairs; buckets
    above ``max_bucket_size`` are dropped here too (the hot-bucket join
    already filters them) so one flood bucket can never stall a reduce task.
    Byte-identical floods belong to exact dedup, which has no such cap.
    """
    import pandas as pd
    from engine.shuffle import key_starts
    val_cols = [f"{value_col}_a", f"{value_col}_b"] if value_col else []
    cols = ["key_a", "key_b"] + val_cols
    if "key" not in df.columns or not len(df):
        return pd.DataFrame({c: [] for c in cols})
    sub = df.drop_duplicates(subset=["bkey", "key"])
    bk = sub["bkey"].to_numpy()
    starts = np.flatnonzero(key_starts(bk) == np.arange(len(bk)))
    sizes = np.diff(np.r_[starts, len(bk)])
    ok = (sizes >= 2) & (sizes <= max_bucket_size)
    if not ok.any():
        return pd.DataFrame({c: [] for c in cols})
    ia_parts, ib_parts = [], []
    for o, s in zip(starts[ok], sizes[ok]):
        iu, ju = _triu_idx(int(s))
        ia_parts.append(o + iu)
        ib_parts.append(o + ju)
    ia = np.concatenate(ia_parts)
    ib = np.concatenate(ib_parts)
    keys = sub["key"].to_numpy()
    out = {"key_a": keys[ia], "key_b": keys[ib]}
    if value_col:
        vals = sub[value_col].to_numpy()
        out[f"{value_col}_a"] = vals[ia]
        out[f"{value_col}_b"] = vals[ib]
    return pd.DataFrame(out)


def _pairs_via_partitions(cand, *, max_bucket_size: int = 64,
                          value_col=None, post=None):
    """bkey-co-located candidate rows -> within-bucket candidate pairs.

    Whole buckets co-locate (:func:`engine.shuffle.by_key` on ``bkey``)
    and ONE vectorized UDF runs per partition — per-group pandas overhead
    is O(P), not O(#buckets). ``post`` optionally transforms each
    partition's pair frame in place (e.g. simhash hamming filter) before
    it is shipped anywhere.
    """
    import pandas as pd
    from engine.shuffle import by_key

    def _udf(df):
        out = _emit_partition_pairs(df, max_bucket_size, value_col)
        return post(out) if post is not None else out

    return by_key(cand, "bkey", _udf, order=["key"],
                  empty=_udf(pd.DataFrame()))


def _unique_pairs(pairs, *, min_col=None):
    """Distinct (key_a, key_b) rows: every copy of a pair shares its
    ``key_a``, so :func:`engine.shuffle.by_key` on ``key_a`` lands all
    copies in one partition and one vectorized drop_duplicates — or a
    min-aggregate over ``min_col`` — runs per partition, replacing a full
    groupby over the pair columns."""
    import pandas as pd
    from engine.shuffle import by_key
    cols = ["key_a", "key_b"] + ([min_col] if min_col else [])

    def _dedup(df):
        if min_col:
            return df.groupby(["key_a", "key_b"],
                              as_index=False)[min_col].min()[cols]
        return df.drop_duplicates(["key_a", "key_b"])[cols]

    return by_key(pairs, "key_a", _dedup, prep=lambda df: df[cols],
                  empty=pd.DataFrame({c: [] for c in cols}))


def _key_type(ds, key_col: str) -> pa.DataType:
    try:
        return ds.schema().base_schema.field(key_col).type
    except Exception:  # pragma: no cover - schema unavailable
        return pa.int64()


def _empty_pairs(key_type: pa.DataType, value_name: str,
                 value_type: pa.DataType):
    import ray.data
    return ray.data.from_arrow(pa.table({
        "key_a": pa.array([], key_type),
        "key_b": pa.array([], key_type),
        value_name: pa.array([], value_type)}))


def _add_bkey(cols: list[str]):
    """Batch fn appending ``bkey`` = one uint64 mix of the bucket columns.

    A single fixed-width shuffle/join key instead of a multi-column tuple;
    a 2^-64 hash collision merely merges two buckets, and every downstream
    pair is re-verified (signature similarity / hamming / cosine), so a
    collision can produce no wrong output.
    """
    def _fn(b: pa.Table) -> pa.Table:
        acc = np.zeros(len(b), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for c in cols:
                v = b.column(c).to_numpy(zero_copy_only=False)
                acc = _splitmix(acc ^ v.astype(np.uint64), 29)
        # 63-bit int64 (non-negative): uint64 keys round-trip Ray's
        # sort-groupby as pickled objects, which breaks the acero hash join
        bkey = (acc >> np.uint64(1)).astype(np.int64)
        return b.append_column("bkey", pa.array(bkey, pa.int64()))
    return _fn


def _hot_bucket_join(banded, cols: list[str], *, max_bucket_size: int = 64,
                     n_rows_hint: Optional[int] = None,
                     pin_rows_limit: int = 20_000_000):
    """Rows of an LSH-banded dataset whose bucket has 2..max members.

    Nothing unbounded touches the driver and the banded dataset is never
    pinned in the object store (at 10^12 docs x 16 bands a materialized
    banded set would hold ~16x corpus rows; the cheap deterministic banding
    map re-executes instead):

    1. append ``bkey`` (63-bit bucket hash) per batch;
    2. per-bucket counts of a bkey-only projection (8-byte rows) in one
       :func:`engine.shuffle.combine`;
    3. keep bucket ids with ``2 <= count <= max_bucket_size`` — singletons
       cannot form pairs, floods are pathological (see
       _emit_partition_pairs) and are counted to the worker log;
       the hot-id set is materialized (bucket ids only — bounded by the
       corpus near-dup rate, orders of magnitude below the banded rows);
    4. semi-join the banded rows against the hot ids with
       :func:`engine.shuffle.join` (a small hot set broadcasts and the
       filter is map-only; a large one hash-joins).
    """
    import pyarrow.compute as pc

    from engine.shuffle import combine, join

    keyed = banded.map_batches(_add_bkey(cols), batch_format="pyarrow")
    # size-gated pin (broadcast-vs-shuffle-join style selection): when the
    # caller KNOWS the banded row count and it is small, pinning the light
    # rows skips the deterministic re-banding pass; above the limit — or
    # when the count is unknown — the recompute path is the scale default
    # (a pinned banded set at 10^12 docs would hold ~16x corpus rows)
    if n_rows_hint is not None and n_rows_hint <= pin_rows_limit:
        keyed = keyed.materialize()
    counts = combine(keyed, "bkey", {"n": ("bkey", "count")},
                     derive=lambda b: b.select(["bkey"]))

    def _hot_only(b: pa.Table) -> pa.Table:
        n = b.column("n")
        keep = pc.and_(pc.greater_equal(n, 2),
                       pc.less_equal(n, max_bucket_size))
        n_flood = len(b) - int(pc.sum(pc.less_equal(n, max_bucket_size))
                               .as_py() or 0)
        if n_flood:
            # recall-cliff observability (a >cap bucket yields ZERO pairs):
            # worker-side log, aggregated by reading the ray data logs
            import logging
            logging.getLogger(__name__).warning(
                "dropping %d flood bucket(s) larger than max_bucket_size=%d",
                n_flood, max_bucket_size)
        return b.filter(keep).select(["bkey"])

    return join(keyed, counts.map_batches(_hot_only,
                                          batch_format="pyarrow"), "bkey")


def _pair_key_bloom(uniq_pairs, n_pairs: Optional[int] = None, *,
                    fpr: float = 1e-3):
    """Broadcastable Bloom filter over the distinct keys of a candidate-pair
    dataset. Candidate keys are sparse (near-dup pairs only), so the filter
    stays small; false positives only cost a wasted signature computation,
    never a wrong answer (scoring joins on exact keys). Pass ``n_pairs``
    when already known to skip the extra count job."""
    from engine.referential import build_bloom

    def _emit_keys(b: pa.Table) -> pa.Table:
        ka = b.column("key_a")
        kb = b.column("key_b")
        if isinstance(ka, pa.ChunkedArray):
            ka = ka.combine_chunks()
        if isinstance(kb, pa.ChunkedArray):
            kb = kb.combine_chunks()
        return pa.table({"key": pa.concat_arrays([ka, kb])})

    if n_pairs is None:
        n_pairs = uniq_pairs.count()
    keys_ds = uniq_pairs.map_batches(_emit_keys, batch_format="pyarrow")
    return build_bloom(keys_ds, "key", capacity=max(n_pairs, 1) * 2,
                       fpr=fpr)


def _join_pair_payload(uniq_pairs, payload, col: str, n_pairs: int):
    """Join a (key, <col>) payload dataset onto both sides of a pair
    dataset, producing ``<col>_a`` / ``<col>_b`` columns — the distributed
    replacement for a driver-built key->payload dict.

    Two :func:`engine.shuffle.join` calls: a payload of the
    sparse-candidate common case broadcasts and both sides attach
    map-only; a large one hash-joins, with a partition count that scales
    with the pair count (>= ~64 pairs expected per partition, floor 1),
    so a small candidate set does not start an aggregator per CPU, while
    a large one still tracks cluster CPUs. Inner-join semantics: pairs
    whose key is missing from the payload drop out."""
    from engine.shuffle import join

    def _rename(side: str):
        def _fn(b: pa.Table) -> pa.Table:
            return pa.table({f"key_{side}": b.column("key"),
                             f"{col}_{side}": b.column(col)})
        return _fn

    pa_side = payload.map_batches(_rename("a"), batch_format="pyarrow")
    pb_side = payload.map_batches(_rename("b"), batch_format="pyarrow")
    n = n_pairs // 64 + 1
    # the pair set is pandas-blocked (a by_key output), whose schema lacks
    # Arrow types: the join's left schema comes from typed Arrow blocks.
    # The first join's output is materialized, so the second join's left
    # schema does not run it twice.
    pairs = uniq_pairs.map_batches(lambda b: b.select(["key_a", "key_b"]),
                                   batch_format="pyarrow")
    out = join(pairs, pa_side, "key_a", num_partitions=n).materialize()
    return join(out, pb_side, "key_b", num_partitions=n)


class _SigCandidatesBatch:
    """Sparse signature recompute: keep only rows whose key hits the
    broadcast candidate Bloom, and emit (key, sig-bytes). The Bloom ships
    ONCE via ``ray.put`` and is read per actor, never per batch."""

    def __init__(self, bloom_ref, text_col: str, key_col: str, k: int,
                 shingle_n: int):
        self.bloom_ref = bloom_ref
        self.text_col = text_col
        self.key_col = key_col
        self.k = k
        self.shingle_n = shingle_n
        self._bloom = None

    def _get_bloom(self):
        if self._bloom is None:
            import ray
            obj = self.bloom_ref
            self._bloom = ray.get(obj) if isinstance(
                obj, ray.ObjectRef) else obj
        return self._bloom

    def __call__(self, batch: pa.Table) -> pa.Table:
        bloom = self._get_bloom()
        keys = batch.column(self.key_col).to_numpy(zero_copy_only=False)
        mask = bloom.contains(keys)
        if not mask.any():
            return pa.table({"key": pa.array([], batch.schema.field(
                self.key_col).type), "sig": pa.array([], pa.binary())})
        sub = batch.filter(pa.array(mask))
        sig = minhash_signatures_batch(
            sub.column(self.text_col).to_pylist(), self.k, self.shingle_n)
        return pa.table({
            "key": sub.column(self.key_col),
            "sig": pa.array([sig[i].tobytes() for i in range(len(sub))],
                            pa.binary()),
        })


def _score_sig_pairs(threshold: float):
    """Vectorized est-jaccard over joined (sig_a, sig_b) pair rows."""
    def _fn(b: pa.Table) -> pa.Table:
        empty = pa.table({
            "key_a": pa.array([], b.schema.field("key_a").type),
            "key_b": pa.array([], b.schema.field("key_b").type),
            "est_jaccard": pa.array([], pa.float64())})
        if len(b) == 0:
            return empty
        sa = np.stack([np.frombuffer(x, dtype=np.uint64)
                       for x in b.column("sig_a").to_pylist()])
        sb = np.stack([np.frombuffer(x, dtype=np.uint64)
                       for x in b.column("sig_b").to_pylist()])
        est = (sa == sb).mean(axis=1)
        keep = est >= threshold
        if not keep.any():
            return empty
        mask = pa.array(keep)
        return pa.table({
            "key_a": b.column("key_a").filter(mask),
            "key_b": b.column("key_b").filter(mask),
            "est_jaccard": pa.array(est[keep], pa.float64())})
    return _fn


def minhash_near_duplicates(ds, *, text_col: str = "text",
                            key_col: str = "doc_id", k: int = 64,
                            bands: int = 16, shingle_n: int = 3,
                            threshold: float = 0.7,
                            max_bucket_size: int = 64,
                            batch_size: int = 8192, concurrency=None):
    """Near-duplicate pairs (key_a, key_b, est_jaccard) with est >= threshold.

    Scale shape — nothing unbounded touches the driver or is pinned:

    1. LIGHT band rows (bkey uint64, key) shuffle — signatures deliberately
       NOT shipped (at 10^12 docs x 16 bands the 512-byte signature would
       dominate the shuffle);
    2. native count aggregate keeps buckets with 2..max_bucket_size members;
    3. distributed hash-join selects banded rows in hot buckets (the cheap
       deterministic banding map re-executes instead of materializing);
    4. surviving buckets emit candidate key pairs, deduped by groupby; the
       pair set (sparse) is the ONLY thing materialized;
    5. signatures are recomputed for candidate docs only (broadcast Bloom of
       candidate keys — false positives waste one signature, never corrupt
       a result) and joined back onto both pair sides distributedly;
    6. vectorized signature-agreement scoring filters est >= threshold.

    ``batch_size="auto"`` sizes the banding batches from the corpus's
    observed bytes/row (engine/tuning.py).
    """
    import ray

    if batch_size == "auto":
        from engine.tuning import autotune_batch_size
        batch_size = autotune_batch_size(ds)
    banded = ds.map_batches(
        _MinHashBandBatch(text_col, key_col, k, bands, shingle_n),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, concurrency=concurrency)
    # parquet-backed inputs answer count() from metadata; the hint gates
    # the light-row pin inside the semi-join (scale default: recompute)
    try:
        hint = ds.count() * bands
    except Exception:  # pragma: no cover
        hint = None
    cand = _hot_bucket_join(banded, ["band", "band_hash"],
                            max_bucket_size=max_bucket_size,
                            n_rows_hint=hint)
    pairs = _pairs_via_partitions(cand, max_bucket_size=max_bucket_size)
    # a pair can surface from several bands: keep one copy; the pair set is
    # sparse/bounded, so materializing it (to reuse for bloom + joins
    # without re-running the LSH) is the intended scale behavior
    uniq_pairs = _unique_pairs(pairs).materialize()
    n_pairs = uniq_pairs.count()
    if n_pairs == 0:  # no candidates: typed empty result
        return _empty_pairs(_key_type(ds, key_col), "est_jaccard",
                            pa.float64())

    bloom_ref = ray.put(_pair_key_bloom(uniq_pairs, n_pairs))
    sigs = ds.map_batches(
        _SigCandidatesBatch(bloom_ref, text_col, key_col, k, shingle_n),
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency).materialize()  # sparse: candidate keys only

    joined = _join_pair_payload(uniq_pairs, sigs, "sig", n_pairs)
    return joined.map_batches(_score_sig_pairs(threshold),
                              batch_format="pyarrow")


# ---------------------------------------------------------------------------
# simhash


def simhash_batch(texts: list, shingle_n: int = 2) -> np.ndarray:
    """64-bit simhash per text (sign of token-hash bit-vote sums).

    Bit votes via ``np.unpackbits`` on the little-endian byte view (one C
    pass) instead of a 64-wide shift matrix; a bit is set when strictly
    more than half the token hashes have it set — identical fingerprints
    to the ±1-sum formulation, ~4x faster.
    """
    h, counts = _doc_shingle_hashes(texts, shingle_n)
    n = len(texts)
    out = np.zeros(n, dtype=np.uint64)
    if len(h) == 0:
        return out
    # (tokens, 64) 0/1; little-endian uint64 -> byte 0 is LSB, and
    # bitorder="little" makes column b == bit b of the hash
    bits = np.unpackbits(h.view(np.uint8).reshape(-1, 8), axis=1,
                         bitorder="little")
    # segment sums via contiguous per-bit cumsum + boundary differences —
    # ~20x a 2D reduceat / axis-0 cumsum, whose strided passes dominate
    bits_t = np.ascontiguousarray(bits.T)  # (64, tokens), rows contiguous
    csum = np.zeros((64, len(h) + 1), dtype=np.int32)
    np.cumsum(bits_t, axis=1, dtype=np.int32, out=csum[:, 1:])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    nonempty = counts > 0
    ends = starts + counts
    ones = (csum[:, ends[nonempty]] - csum[:, starts[nonempty]]).T
    fp = (2 * ones > counts[nonempty][:, None]).astype(np.uint64)
    vals = np.zeros(len(ones), dtype=np.uint64)
    for b in range(64):
        vals |= fp[:, b] << np.uint64(b)
    out[nonempty] = vals
    return out


def simhash_fingerprints(ds, *, text_col: str = "text",
                         key_col: str = "doc_id", shingle_n: int = 2,
                         batch_size: int = 8192, concurrency=None):
    def _fp(batch: pa.Table) -> pa.Table:
        fps = simhash_batch(batch.column(text_col).to_pylist(), shingle_n)
        return pa.table({
            key_col: batch.column(key_col),
            "simhash": pa.array(fps, pa.uint64()),
        })

    return ds.map_batches(_fp, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size, concurrency=concurrency)


def _simhash_blocks(m: int) -> list[tuple[int, int]]:
    """Split the 64 fingerprint bits into ``m`` near-equal (shift, width)
    blocks; the first ``64 % m`` blocks carry the extra bit."""
    base, extra = divmod(64, m)
    out, start = [], 0
    for b in range(m):
        w = base + (1 if b < extra else 0)
        out.append((start, w))
        start += w
    return out


def simhash_block_count(n_docs: Optional[int], max_hamming: int = 3, *,
                        target_load: int = 16) -> int:
    """Smallest block count ``m`` whose bucket key space keeps the MEAN
    bucket occupancy at or below ``1/target_load`` docs.

    A combination of ``m - max_hamming`` blocks keys at least
    ``(m - max_hamming) * (64 // m)`` bits (the conservative all-narrow
    case), so the bucket space GROWS with ``m``: for max_hamming=3 the
    ladder is m=4 -> 2^16 buckets (the old fixed ceiling), m=5 -> 2^24,
    m=6 -> 2^30, m=7 -> 2^36, m=8 -> 2^40 (~10^10-10^11 docs at load
    16). The trade is table count C(m, max_hamming) rows per doc
    (4/10/20/35/56), which is why the smallest adequate m wins. Unknown
    corpus size picks the mid-ladder m (max_hamming+3) rather than the
    2^16 floor — at unknown scale the saturated-bucket cliff is the
    worse default.
    """
    k = max_hamming
    if n_docs is None:
        return k + 3
    for m in range(k + 1, k + 5):
        if (1 << ((m - k) * (64 // m))) >= n_docs * target_load:
            return m
    return k + 5


def simhash_near_duplicates(ds, *, text_col: str = "text",
                            key_col: str = "doc_id", max_hamming: int = 3,
                            shingle_n: int = 2, max_bucket_size: int = 64,
                            n_blocks: Optional[int] = None,
                            batch_size: int = 8192, concurrency=None):
    """Pairs with Hamming(simhash) <= max_hamming via block-combination
    LSH (the simhash dedup scheme of Manku, Jain & Sarma, "Detecting
    Near-Duplicates for Web Crawling", WWW'07): the 64-bit fingerprint
    splits into ``m`` near-equal blocks (m > max_hamming); a pair within
    ``max_hamming`` differing bits leaves at least ``m - max_hamming``
    blocks untouched, so bucketing once per (m - max_hamming)-block
    combination guarantees every qualifying pair shares >= 1 bucket.

    ``m`` auto-scales with the corpus (:func:`simhash_block_count`), so
    the bucket key space grows from 2^16 (m=4, the old fixed ceiling
    that saturated around 10^8-10^9 docs) up to 2^40 (m=8) — pass
    ``n_blocks`` to pin it. Beyond ~10^10-10^11 docs the C(m, k) table
    fan-out becomes the limiting cost and MinHash remains the
    recommended path.

    ``max_bucket_size`` caps the members a bucket may hold before it is
    dropped as a flood (dropped buckets are logged by the hot-bucket
    filter) — raise it when recall over dense clusters matters more than
    worst-case pair cost.
    """
    import itertools

    import pandas as pd

    try:
        n_docs = ds.count()
    except Exception:  # pragma: no cover
        n_docs = None
    m = n_blocks if n_blocks is not None \
        else simhash_block_count(n_docs, max_hamming)
    if m <= max_hamming:
        raise ValueError(
            f"n_blocks must exceed max_hamming ({max_hamming}), got {m}")
    blocks = _simhash_blocks(m)
    combos = list(itertools.combinations(range(m), m - max_hamming))

    def _chunks(batch: pa.Table) -> pa.Table:
        fps = simhash_batch(batch.column(text_col).to_pylist(), shingle_n)
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        n = len(fps)
        t = len(combos)
        vals = np.empty(t * n, dtype=np.int64)
        for ci, combo in enumerate(combos):
            v = np.zeros(n, dtype=np.uint64)
            for b in combo:  # concat block values; <= 64*(m-k)/m < 63 bits
                sh, w = blocks[b]
                v = (v << np.uint64(w)) \
                    | ((fps >> np.uint64(sh)) & np.uint64((1 << w) - 1))
            vals[ci * n:(ci + 1) * n] = v.astype(np.int64)
        return pa.table({
            "chunk": pa.array(
                np.repeat(np.arange(t, dtype=np.int32), n), pa.int32()),
            "chunk_val": pa.array(vals, pa.int64()),
            "key": pa.array(np.tile(keys, t)),
            "simhash": pa.array(np.tile(fps, t), pa.uint64()),
        })

    def _hamming_post(pdf):
        """Vectorized popcount(xor) filter applied inside the pair
        partition, so only pairs within max_hamming ever shuffle again."""
        if not len(pdf):
            return pd.DataFrame({"key_a": [], "key_b": [], "hamming": []})
        a = pdf["simhash_a"].to_numpy().astype(np.uint64)
        b = pdf["simhash_b"].to_numpy().astype(np.uint64)
        x = np.bitwise_xor(a, b)
        ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8),
                            axis=1).sum(axis=1).astype(np.int64)
        keep = ham <= max_hamming
        return pd.DataFrame({"key_a": pdf["key_a"].to_numpy()[keep],
                             "key_b": pdf["key_b"].to_numpy()[keep],
                             "hamming": ham[keep]})

    chunked = ds.map_batches(_chunks, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=batch_size,
                             concurrency=concurrency)
    hint = n_docs * len(combos) if n_docs is not None else None
    cand = _hot_bucket_join(chunked, ["chunk", "chunk_val"],
                            max_bucket_size=max_bucket_size,
                            n_rows_hint=hint)
    pairs = _pairs_via_partitions(cand, max_bucket_size=max_bucket_size,
                                  value_col="simhash", post=_hamming_post)
    # a pair can match on several chunks: keep one copy (hamming identical
    # for every copy, so the min is just the dedup tie-break)
    agg = _unique_pairs(pairs, min_col="hamming")
    kt = _key_type(ds, key_col)

    def _final(df):
        if "key_a" not in df.columns or not len(df):
            return pa.table({"key_a": pa.array([], kt),
                             "key_b": pa.array([], kt),
                             "hamming": pa.array([], pa.int64())})
        return pa.table({"key_a": pa.array(df["key_a"].tolist(), kt),
                         "key_b": pa.array(df["key_b"].tolist(), kt),
                         "hamming": pa.array(
                             df["hamming"].to_numpy().astype(np.int64))})

    return agg.map_batches(_final, batch_format="pandas")


# ---------------------------------------------------------------------------
# exact n-gram jaccard (verification kernel)


def ngram_jaccard(text_a: str, text_b: str, n: int = 3,
                  mode: str = "word") -> float:
    def grams(t: str) -> set:
        if mode == "word":
            w = (t or "").lower().split()
            if len(w) < n:
                return {" ".join(w)} if w else set()
            return {" ".join(w[i:i + n]) for i in range(len(w) - n + 1)}
        t = (t or "").lower()
        return {t[i:i + n] for i in range(max(len(t) - n + 1, 0))} or set()

    a, b = grams(text_a), grams(text_b)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def verify_pairs_jaccard(ds_pairs, docs_ds, *, text_col: str = "text",
                         key_col: str = "doc_id", n: int = 3,
                         threshold: float = 0.6):
    """Exact-jaccard verification of candidate pairs.

    Scale shape: the candidate pair set (sparse — near-dup pairs only) is
    materialized once; a broadcast Bloom of its keys filters the corpus down
    to candidate docs map-only (false positives are joined away); candidate
    texts are then joined onto both pair sides DISTRIBUTEDLY — no driver-side
    key set or text dict at any size. Pairs whose keys have no corpus row
    drop out (inner join).
    """
    import pyarrow.compute as pc
    import ray

    uniq_pairs = ds_pairs.select_columns(["key_a", "key_b"]).materialize()
    n_pairs = uniq_pairs.count()
    if n_pairs == 0:
        return _empty_pairs(_key_type(docs_ds, key_col), "jaccard",
                            pa.float64())
    bloom_ref = ray.put(_pair_key_bloom(uniq_pairs, n_pairs))

    class _KeepCandidates:
        def __init__(self, ref):
            self.ref = ref
            self._bloom = None

        def __call__(self, batch: pa.Table) -> pa.Table:
            if self._bloom is None:
                self._bloom = ray.get(self.ref) if isinstance(
                    self.ref, ray.ObjectRef) else self.ref
            keys = batch.column(key_col).to_numpy(zero_copy_only=False)
            mask = self._bloom.contains(keys)
            sub = batch.filter(pa.array(mask))
            return pa.table({"key": sub.column(key_col),
                             "text": pc.fill_null(
                                 pc.cast(sub.column(text_col), pa.string()),
                                 "")})

    cand_docs = docs_ds.map_batches(
        _KeepCandidates(bloom_ref), batch_format="pyarrow").materialize()
    joined = _join_pair_payload(uniq_pairs, cand_docs, "text", n_pairs)

    def _verify(batch: pa.Table) -> pa.Table:
        ta = batch.column("text_a").to_pylist()
        tb = batch.column("text_b").to_pylist()
        jac = [ngram_jaccard(a, b, n) for a, b in zip(ta, tb)]
        out = pa.table({
            "key_a": batch.column("key_a"),
            "key_b": batch.column("key_b"),
            "jaccard": pa.array(jac, pa.float64())})
        return out.filter(pc.greater_equal(out.column("jaccard"), threshold))

    return joined.map_batches(_verify, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# embedding cosine near-dup (random hyperplane LSH)


def embedding_near_duplicates(ds, *, vec_col: str = "embedding",
                              key_col: str = "vec_id", dim: int = 64,
                              n_planes: Optional[int] = None,
                              n_tables: int = 3,
                              n_probes: int = 1,
                              threshold: float = 0.95,
                              max_bucket_size: int = 64,
                              seed: int = 13, batch_size: int = 8192,
                              concurrency=None):
    """Pairs with cosine >= threshold: random-hyperplane sign-LSH buckets,
    ``n_tables`` independent hash tables (recall boost for pairs straddling
    one table's boundaries) with MULTI-PROBE: each vector also lands in the
    ``n_probes`` neighbor buckets obtained by flipping its least-confident
    sign bits (smallest |projection| margin) — the standard multi-probe LSH
    recall/width trade (Lv et al., VLDB'07): probes buy the recall of extra
    tables at (1 + n_probes)/2x the row volume instead of 2x.

    Scale shape mirrors minhash: LIGHT (bkey, key) rows shuffle (the
    512-byte vector never does); singleton buckets drop via a native count
    aggregate; candidate pairs are key-only; candidate vectors are fetched
    behind a broadcast Bloom and joined distributedly for scoring — a
    spurious probe candidate costs one cosine, never a wrong answer.
    """
    import ray

    if n_planes is None:
        # bucket space must OUTGROW the corpus or every bucket goes hot and
        # organic sign-collisions flood the pair stage (the simhash
        # saturation failure mode, measured 43s -> 7s at sf0.1): planes ~
        # log2(n) + 4 + probes keeps expected occupancy ~1/16 per lane
        # while identical/near-identical vectors still collide by
        # construction; pass n_planes explicitly to trade recall/width
        n_vecs = max(int(ds.count()), 2)
        n_planes = max(12, int(np.ceil(np.log2(n_vecs))) + 4 + n_probes)
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_tables, dim, n_planes))

    def _bucket(batch: pa.Table) -> pa.Table:
        from engine.similarity import _batch_matrix
        mat = _batch_matrix(batch, vec_col)
        norm = np.linalg.norm(mat, axis=1, keepdims=True)
        norm[norm == 0] = 1.0
        unit = mat / norm
        n = len(batch)
        keys = batch.column(key_col)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        tables, buckets, key_parts = [], [], []
        for ti in range(n_tables):
            proj = unit @ planes[ti]
            signs = proj > 0
            bucket = np.zeros(n, dtype=np.int64)
            for p in range(n_planes):
                bucket |= signs[:, p].astype(np.int64) << p
            tables.append(np.full(n, ti, dtype=np.int32))
            buckets.append(bucket)
            key_parts.append(keys)
            if n_probes > 0 and n:
                flip_order = np.argsort(np.abs(proj), axis=1)
                for pi in range(min(n_probes, n_planes)):
                    flip_bit = flip_order[:, pi].astype(np.int64)
                    tables.append(np.full(n, ti, dtype=np.int32))
                    buckets.append(bucket ^ (np.int64(1) << flip_bit))
                    key_parts.append(keys)
        return pa.table({
            "table": pa.array(np.concatenate(tables)),
            "bucket": pa.array(np.concatenate(buckets)),
            "key": pa.concat_arrays(list(key_parts)),
        })

    bucketed = ds.map_batches(_bucket, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=batch_size,
                              concurrency=concurrency)
    try:
        hint = ds.count() * n_tables * (1 + n_probes)
    except Exception:  # pragma: no cover
        hint = None
    cand = _hot_bucket_join(bucketed, ["table", "bucket"],
                            max_bucket_size=max_bucket_size,
                            n_rows_hint=hint)
    pairs = _pairs_via_partitions(cand, max_bucket_size=max_bucket_size)
    # sparse pair set: the only materialized intermediate (see minhash)
    uniq_pairs = _unique_pairs(pairs).materialize()
    n_pairs = uniq_pairs.count()
    if n_pairs == 0:
        return _empty_pairs(_key_type(ds, key_col), "cosine", pa.float64())

    bloom_ref = ray.put(_pair_key_bloom(uniq_pairs, n_pairs))

    class _FetchVecs:
        def __init__(self, ref):
            self.ref = ref
            self._bloom = None

        def __call__(self, batch: pa.Table) -> pa.Table:
            from engine.similarity import _batch_matrix, _normalize
            if self._bloom is None:
                self._bloom = ray.get(self.ref) if isinstance(
                    self.ref, ray.ObjectRef) else self.ref
            keys = batch.column(key_col).to_numpy(zero_copy_only=False)
            mask = self._bloom.contains(keys)
            if not mask.any():
                return pa.table({"key": pa.array([], batch.schema.field(
                    key_col).type), "vec": pa.array([], pa.binary())})
            sub = batch.filter(pa.array(mask))
            unit = _normalize(_batch_matrix(sub, vec_col))
            return pa.table({
                "key": sub.column(key_col),
                "vec": pa.array([unit[i].astype(np.float64).tobytes()
                                 for i in range(len(sub))], pa.binary()),
            })

    vecs = ds.map_batches(_FetchVecs(bloom_ref), batch_format="pyarrow",
                          batch_size=batch_size).materialize()
    joined = _join_pair_payload(uniq_pairs, vecs, "vec", n_pairs)

    def _score(b: pa.Table) -> pa.Table:
        empty = pa.table({
            "key_a": pa.array([], b.schema.field("key_a").type),
            "key_b": pa.array([], b.schema.field("key_b").type),
            "cosine": pa.array([], pa.float64())})
        if len(b) == 0:
            return empty
        va = np.stack([np.frombuffer(x, dtype=np.float64)
                       for x in b.column("vec_a").to_pylist()])
        vb = np.stack([np.frombuffer(x, dtype=np.float64)
                       for x in b.column("vec_b").to_pylist()])
        cos = np.einsum("ij,ij->i", va, vb)
        keep = cos >= threshold
        if not keep.any():
            return empty
        mask = pa.array(keep)
        return pa.table({
            "key_a": b.column("key_a").filter(mask),
            "key_b": b.column("key_b").filter(mask),
            "cosine": pa.array(cos[keep], pa.float64())})

    return joined.map_batches(_score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# LSH parameter auto-tuning


def tune_bands(threshold: float, k: int = 64) -> tuple[int, int]:
    """Choose (bands, rows) for MinHash LSH from the target jaccard
    threshold: the S-curve P(candidate | jaccard=s) = 1 - (1 - s^r)^b has
    its steepest point near (1/b)^(1/r); pick the divisor pair of ``k``
    whose inflection lands closest to ``threshold``, breaking ties toward
    more bands (higher recall at the threshold).

    Standard MMDS construction (Leskovec/Rajaraman/Ullman ch.3, public
    algorithm); deterministic, no corpus pass needed.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    best = None
    for b in range(1, k + 1):
        if k % b:
            continue
        r = k // b
        inflection = (1.0 / b) ** (1.0 / r)
        score = (abs(inflection - threshold), -b)
        if best is None or score < best[0]:
            best = (score, (b, r))
    return best[1]


def candidate_probability(jaccard: float, bands: int, r: int) -> float:
    """P(pair becomes an LSH candidate) at a given true jaccard."""
    return 1.0 - (1.0 - jaccard ** r) ** bands


def normalized_duplicates(ds, *, text_col: str = "text",
                          key_col: str = "doc_id", batch_size: int = 8192,
                          concurrency=None):
    """Groups of texts identical AFTER canonicalization — lowercase,
    whitespace collapsed to single spaces, leading/trailing whitespace
    stripped (the standard pre-dedup text normalization of a training
    pipeline; NULL text normalizes to the empty string). Returns
    (norm_hash, keep_id, dup_count), keep = lowest key.

    Same scale shape as :func:`exact_duplicates` — the normalization is
    fused into the per-batch partial (Arrow ``utf8_lower`` +
    ``replace_substring_regex`` kernels, no second corpus pass), the
    hash is md5 of the NORMALIZED text so a DuckDB oracle reproduces it
    bit-for-bit, and only (32-byte hash, key) partial rows shuffle.
    """
    import pyarrow.compute as pc

    def _normalize(t):
        t = pc.utf8_lower(pc.fill_null(t, ""))
        t = pc.replace_substring_regex(t, pattern=r"\s+", replacement=" ")
        return pc.replace_substring_regex(t, pattern=r"^ | $",
                                          replacement="")

    return _hash_groups(ds, "norm_hash", text_col, key_col, batch_size,
                        concurrency, normalize=_normalize)
