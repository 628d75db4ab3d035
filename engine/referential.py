"""Referential integrity: every non-empty ``spans.media_ref`` must exist in
the media catalog.

Broadcast semi-join (SURVEY.md §2.4): the catalog side is distilled into a
Bloom filter — built distributedly (per-batch partial Blooms OR-merged, a few
KB..MB each) — then shipped ONCE via ``ray.put`` and read inside every
``map_batches`` task. No shuffle of the documents table. Bloom misses are
definitely dangling (no false negatives); Bloom hits may be false positives
at the configured fpr, so ``exact=True`` swaps in an exact membership set for
small catalogs / correctness oracles, and at scale a second exact pass over
the (rare) hits of suspected-dangling refs is the documented pattern.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from engine.kernels import _decode, _flatten, _is_list_t, _valid_mask
from engine.sketches import Bloom


def build_bloom(catalog_ds, column: str = "media_ref", *,
                capacity: Optional[int] = None, fpr: float = 0.01,
                batch_size: int = 65536) -> Bloom:
    """Distributed Bloom build: per-batch partial filters, OR-merged by a
    distributed tree reduction (engine/shuffle.py tree_reduce) so the
    driver merges O(cluster) partials, never one bitmap per batch."""
    from engine.shuffle import tree_reduce

    if capacity is None:
        capacity = catalog_ds.count()
    proto = Bloom.for_capacity(capacity, fpr)
    n_bits, k = proto.n_bits, proto.k

    def _partial(batch: pa.Table) -> pa.Table:
        b = Bloom(n_bits, k)
        vals = batch.column(column).drop_null().to_numpy(zero_copy_only=False)
        b.add(vals)
        return pa.table({"bloom": pa.array([b.to_bytes()], pa.binary())})

    def _merge_block(b: pa.Table) -> pa.Table:
        m = Bloom(n_bits, k)
        for blob in b.column("bloom").to_pylist():
            m.merge(Bloom.from_bytes(blob))
        return pa.table({"bloom": pa.array([m.to_bytes()], pa.binary())})

    parts = catalog_ds.map_batches(
        _partial, batch_format="pyarrow", batch_size=batch_size)
    final = tree_reduce(parts, _merge_block)
    merged = Bloom(n_bits, k)
    for row in final.iter_rows():
        merged.merge(Bloom.from_bytes(row["bloom"]))
    return merged


def exact_set(values) -> pa.Array:
    """The exact check's value set: the distinct ``values`` (an Arrow
    array or chunked array) as one Arrow string array."""
    return pc.unique(pc.cast(values, pa.string()))


def build_exact_set(catalog_ds, column: str = "media_ref") -> pa.Array:
    return exact_set(pa.chunked_array(
        [pc.cast(b.column(column), pa.string()) for b in
         catalog_ds.select_columns([column]).iter_batches(
             batch_format="pyarrow", batch_size=None)], pa.string()))


def count_dangling_fk(fact_ds, dim_ds, *, fk: str, pk: str,
                      batch_size: int = 65536, concurrency=None):
    """Generic FK check: count of fact rows whose ``fk`` is not a ``pk`` of
    the dimension table (a NULL ``fk`` is no reference).

    One :func:`engine.shuffle.combine` pre-aggregates the fact keys to
    (key, row count), so only distinct keys reach the join; one
    ``left_anti`` :func:`engine.shuffle.join` of them against the
    dimension keys (a small dimension broadcasts, a large one
    hash-joins) keeps the dangling ones, and their counts sum. See
    :func:`dangling_fk_rows` for the dangling keys themselves.
    """
    from engine.shuffle import combine, join

    counts = combine(fact_ds, fk, {"n": (fk, "count")},
                     derive=lambda b: b.select([fk]), batch_size=batch_size,
                     concurrency=concurrency)
    n = join(counts, dim_ds.select_columns([pk]), fk, "left_anti",
             right_on=pk).sum("n")
    return pa.table({"n_dangling": pa.array([int(n or 0)], pa.int64())})


def dangling_fk_rows(fact_ds, dim_ds, *, fk: str, pk: str,
                     batch_size: int = 65536, concurrency=None):
    """The dangling keys themselves, with their fact-row counts: an exact
    distributed anti-join (SURVEY §2.4 "exact verify" variant).

    Both sides tag their keys (fact: one occurrence each, dimension: one
    ``in_dim`` mark) and ONE :func:`engine.shuffle.combine` over their
    union detects fact keys never seen on the dimension side; the
    per-batch partials keep the shuffled volume at distinct keys, not
    rows. Returns (key, n_occurrences).
    """
    from engine.shuffle import combine, finish

    def _tag(col, occ, in_dim):
        def _keys(batch: pa.Table) -> pa.Table:
            k = batch.column(col)
            if pa.types.is_integer(k.type):
                k = pc.cast(k, pa.int64())
            n = len(k)
            return pa.table({"key": k,
                             "occ": pa.array(np.full(n, occ, np.int64)),
                             "in_dim": pa.array(np.full(n, in_dim,
                                                        np.int64))})
        return _keys

    f = fact_ds.map_batches(_tag(fk, 1, 0), batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=batch_size,
                            concurrency=concurrency)
    d = dim_ds.map_batches(_tag(pk, 0, 1), batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=batch_size)

    def _dangling(b: pa.Table) -> pa.Table:
        occ = b.column("n_occurrences")
        return b.filter(pc.and_(pc.equal(b.column("in_dim"), 0),
                                pc.greater(occ, 0))) \
            .select(["key", "n_occurrences"])

    return finish(combine(f.union(d), "key", {
        "n_occurrences": ("occ", "sum"), "in_dim": ("in_dim", "sum")}),
        _dangling)


class _RefCheckBatch:
    """Checks flattened ``<list_col>.<ref_field>`` membership against the
    broadcast filter; emits one row per dangling ref occurrence — or, with
    ``present``, per occurrence of a ref IN the side set (the targeted
    third pass that fetches the row contexts of Bloom false positives).

    With ``emit_hit_keys`` the batch ALSO emits its distinct Bloom-HIT keys
    as marker rows (span_index = -1, key_column = '') so a downstream exact
    pass can audit them without a second corpus scan (the hit-key rows are
    distinct-per-batch, a combiner output, never one row per ref)."""

    def __init__(self, side_ref, list_col: str, ref_field: str,
                 key_column: str, exact: bool, emit_hit_keys: bool = False,
                 carry: Sequence[str] = (), present: bool = False):
        self.side_ref = side_ref  # ray.ObjectRef or the object itself
        self.list_col = list_col
        self.ref_field = ref_field
        self.key_column = key_column
        self.exact = exact
        self.emit_hit_keys = emit_hit_keys
        self.carry = tuple(carry)  # row columns appended to each ref row
        self.present = present
        self._side = None

    def _get_side(self):
        if self._side is None:
            import ray
            obj = self.side_ref
            if isinstance(obj, ray.ObjectRef):
                obj = ray.get(obj)
            self._side = obj
        return self._side

    def __call__(self, batch: pa.Table) -> pa.Table:
        side = self._get_side()
        arr = _decode(batch.column(self.list_col))
        if not _is_list_t(arr.type):
            raise TypeError(f"{self.list_col} is not a list column")
        elems, parent, within = _flatten(arr, _valid_mask(arr))
        refs = pc.cast(_decode(elems.field(self.ref_field)), pa.string())
        nonempty = pc.fill_null(pc.not_equal(refs, ""), False)
        check = refs.filter(nonempty)
        if self.exact:
            hit = pc.is_in(check, value_set=side).to_numpy(
                zero_copy_only=False)
        else:
            hit = side.contains(check.to_numpy(zero_copy_only=False))
        sel = np.nonzero(nonempty.to_numpy(zero_copy_only=False))[0][
            hit if self.present else ~hit]
        rows = batch.select([self.key_column, *self.carry]).take(
            pa.array(parent[sel]))
        out = pa.table({
            self.key_column: rows.column(self.key_column),
            "span_index": pa.array(within[sel].astype(np.int32)),
            "media_ref": refs.take(pa.array(sel, pa.int64())),
            **{c: rows.column(c) for c in self.carry},
        })
        if self.emit_hit_keys:
            hit_keys = np.unique(check.filter(pa.array(hit))
                                 .to_numpy(zero_copy_only=False))
            marker = pa.table({
                self.key_column: pa.array([""] * len(hit_keys), pa.string()),
                "span_index": pa.array(
                    np.full(len(hit_keys), -1, dtype=np.int32)),
                "media_ref": pa.array(hit_keys.tolist(), pa.string()),
            })
            out = pa.concat_tables([out, marker])
        return out


def check_references(docs_ds, catalog_ds, *, list_col: str = "spans",
                     ref_field: str = "media_ref",
                     key_column: str = "doc_id", exact: bool = False,
                     verify_hits: bool = False, fpr: float = 0.01,
                     batch_size: int = 8192, concurrency=None):
    """Dangling-reference Dataset: (key, span_index, media_ref).

    The side input is built once on the driver and broadcast via ``ray.put``
    (read zero-copy-ish by every task), never re-shipped per batch.

    ``verify_hits=True`` (Bloom mode only) adds the two-phase exact audit
    of Bloom HITS: at 10^12 refs and 1% fpr, ~10^10 dangling refs would
    otherwise pass silently. Phase 1 emits the definite misses and the
    per-batch distinct hit keys; phase 2 anti-joins the distinct hit keys
    against the catalog (``dangling_fk_rows`` — shuffles distinct keys,
    never rows); only when that finds false positives (rare) does a third
    targeted pass fetch their row contexts behind a broadcast of the
    (tiny) FP key set.
    """
    import ray

    side = (build_exact_set(catalog_ds, ref_field) if exact
            else build_bloom(catalog_ds, ref_field, fpr=fpr))
    side_ref = ray.put(side)
    if exact or not verify_hits:
        return docs_ds.map_batches(
            _RefCheckBatch(side_ref, list_col, ref_field, key_column, exact),
            batch_format="pyarrow", zero_copy_batch=True,
            batch_size=batch_size, concurrency=concurrency)

    phase1 = docs_ds.map_batches(
        _RefCheckBatch(side_ref, list_col, ref_field, key_column, False,
                       emit_hit_keys=True),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, concurrency=concurrency).materialize()

    def _miss_rows(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater_equal(b.column("span_index"), 0))

    def _hit_keys(b: pa.Table) -> pa.Table:
        sub = b.filter(pc.equal(b.column("span_index"), -1))
        return pa.table({"media_ref": sub.column("media_ref")})

    misses = phase1.map_batches(_miss_rows, batch_format="pyarrow")
    hits = phase1.map_batches(_hit_keys, batch_format="pyarrow")
    fp = dangling_fk_rows(hits, catalog_ds, fk="media_ref", pk=ref_field,
                          batch_size=batch_size).materialize()
    if fp.count() == 0:
        return misses

    fp_ref = ray.put(build_exact_set(fp, "key"))
    fp_rows = docs_ds.map_batches(
        _RefCheckBatch(fp_ref, list_col, ref_field, key_column, True,
                       present=True),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, concurrency=concurrency)
    return misses.union(fp_rows)

