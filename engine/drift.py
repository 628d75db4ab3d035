"""Distribution drift: per-partition KS (numeric) / PSI (categorical) against
a baseline sketch store.

The corpus is sketched ONCE. :func:`partition_sketches` runs
``_DriftPartialBatch`` inside ``map_batches`` and merges the partials per
(partition, column) in a small groupby — the corpus is never shuffled.
The sketches are mergeable (t-digest / value counts), so the baseline is
exactly the merge of the non-excluded partitions' sketches
(:func:`baseline_from`, tree-reduced), and :func:`score` compares every
partition sketch against that broadcast baseline. ``build_baseline`` and
``drift_check`` compose these; the checkpoint job materializes the
sketches once and feeds both.

A sketch row is ``(partition_id, column, kind, tdigest, counts)``; its
payload is a :class:`TDigest` (numeric) or a ``{value: count}`` dict
(categorical). ``_decode_row`` / ``_encode_row`` are the one codec between
the two, ``_merge_into`` the one merge and ``_verdict`` the one scorer.

* KS distance: max |ECDF_part(x) - ECDF_base(x)| evaluated on the union of
  centroid locations of both digests.
* PSI: sum (p-q) ln(p/q) over categories with add-one smoothing.
"""

from __future__ import annotations

import json
import os
from typing import Sequence

import numpy as np
import pyarrow as pa

from engine.sketches import TDigest
from engine.storage import atomic_replace

NUMERIC_DEFAULT = ("spans.offset", "spans.__len")
CATEGORICAL_DEFAULT = ("spans.kind",)

_PARTIAL_SCHEMA = pa.schema([
    ("partition_id", pa.string()),
    ("column", pa.string()),
    ("kind", pa.string()),          # "numeric" | "categorical"
    ("tdigest", pa.binary()),
    ("counts", pa.string()),        # JSON {value: count}
])
_VERDICT_SCHEMA = pa.schema([
    ("partition_id", pa.string()), ("column", pa.string()),
    ("metric", pa.string()), ("value", pa.float64()),
    ("drifted", pa.bool_())])


def _decode_row(row) -> TDigest | dict:
    """Payload of a sketch row."""
    if row["kind"] == "numeric":
        return TDigest.from_bytes(bytes(row["tdigest"]))
    return json.loads(row["counts"])


def _encode_row(partition_id: str, column: str, kind: str, payload) -> dict:
    """Sketch row of a payload (inverse of :func:`_decode_row`)."""
    numeric = kind == "numeric"
    return {"partition_id": partition_id, "column": column, "kind": kind,
            "tdigest": payload.to_bytes() if numeric else b"",
            "counts": "" if numeric else json.dumps(payload)}


def _merge_into(store: dict, col: str, kind: str, payload) -> None:
    """Merge one payload into a store ``{column: (kind, payload)}``."""
    if col not in store:
        store[col] = (kind, payload)
    elif kind == "numeric":
        store[col][1].merge(payload)
    else:
        cur = store[col][1]
        for k, v in payload.items():
            cur[k] = cur.get(k, 0) + v


def _merge_rows(rows) -> dict:
    """Store ``{column: (kind, payload)}`` merged from sketch rows."""
    store: dict = {}
    for r in rows:
        _merge_into(store, r["column"], r["kind"], _decode_row(r))
    return store


def _sketch_table(partition_id: str, store: dict) -> pa.Table:
    return pa.Table.from_pylist(
        [_encode_row(partition_id, col, kind, payload)
         for col, (kind, payload) in sorted(store.items())],
        schema=_PARTIAL_SCHEMA)


def _verdict(col: str, kind: str, payload, base: dict,
             ks_threshold: float, psi_threshold: float):
    """KS (numeric) / PSI (categorical) verdict of one sketch against the
    baseline store; ``None`` when the baseline has no sketch of ``col``."""
    entry = base.get(col)
    if entry is None:
        return None
    if kind == "numeric":
        metric, d, limit = "ks", ks_distance(payload, entry[1]), ks_threshold
    else:
        metric, d, limit = "psi", psi(payload, entry[1]), psi_threshold
    return {"column": col, "metric": metric, "value": d, "drifted": d > limit}


class _DriftPartialBatch:
    def __init__(self, numeric: Sequence[str], categorical: Sequence[str]):
        self.numeric = tuple(numeric)
        self.categorical = tuple(categorical)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if "partition_id" in batch.column_names:
            parts = batch.column("partition_id").to_numpy(
                zero_copy_only=False)
        else:  # unpartitioned corpus: one logical partition
            parts = np.full(len(batch), "all", dtype=object)
        rows = []
        wanted = set(self.numeric) | set(self.categorical)
        # map each leaf column's slots back to batch rows
        from engine.kernels import _decode, _flatten, _is_list_t
        for name in wanted:
            if name in batch.column_names:
                arr = _decode(batch.column(name))
                parent = np.arange(len(batch))
            else:
                base, _, field = name.partition(".")
                if base not in batch.column_names:
                    continue
                lst = _decode(batch.column(base))
                if not _is_list_t(lst.type):
                    continue
                active = np.ones(len(lst), dtype=bool)
                if lst.null_count:
                    active = np.asarray(pc.is_valid(lst)).astype(bool)
                if field == "__len":
                    arr = pc.list_value_length(lst)
                    arr = pc.fill_null(arr, 0)
                    parent = np.arange(len(batch))
                else:
                    elems, parent, _ = _flatten(lst, active)
                    arr = _decode(elems.field(field))
            vals = arr.to_numpy(zero_copy_only=False)
            pvals = parts[parent]
            for p in np.unique(pvals):
                sel = vals[pvals == p]
                if name in self.numeric:
                    sel = sel[~(sel == None)]  # noqa: E711
                    kind, payload = "numeric", TDigest().update(
                        np.asarray(sel, dtype=np.float64))
                else:
                    u, c = np.unique(sel[sel != None], return_counts=True)  # noqa: E711
                    kind, payload = "categorical", {
                        str(k): int(v) for k, v in zip(u, c)}
                rows.append(_encode_row(str(p), name, kind, payload))
        return pa.Table.from_pylist(rows, schema=_PARTIAL_SCHEMA)


def _partials(ds, numeric, categorical, batch_size):
    """Sketch rows of every (batch, partition, column) — the corpus pass."""
    return ds.map_batches(
        _DriftPartialBatch(numeric, categorical),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


def partition_sketches(ds, *, numeric: Sequence[str] = NUMERIC_DEFAULT,
                       categorical: Sequence[str] = CATEGORICAL_DEFAULT,
                       batch_size: int = 8192):
    """One sketch row per (partition, column), from one pass over ``ds``."""
    def _merge_group(t: pa.Table) -> pa.Table:
        rows = t.to_pylist()  # [] on the zero-column frame of an empty ds
        return _sketch_table(rows[0]["partition_id"] if rows else "",
                             _merge_rows(rows))

    return _partials(ds, numeric, categorical, batch_size) \
        .groupby(["partition_id", "column"]) \
        .map_groups(_merge_group, batch_format="pyarrow")


def baseline_from(sketches, exclude_partitions: Sequence[str] = ()) -> dict:
    """Baseline store ``{column: (kind, payload)}``: the merge of the
    partition sketches outside ``exclude_partitions``.

    The rows are tree-reduced (engine/shuffle.py tree_reduce), so the
    driver merges O(columns x cluster) rows, never one per partition;
    merged rows carry the partition marker ''.
    """
    from engine.shuffle import tree_reduce

    excl = set(exclude_partitions)

    def _kept(rows) -> dict:
        return _merge_rows(r for r in rows if r["partition_id"] not in excl)

    final = tree_reduce(
        sketches, lambda b: _sketch_table("", _kept(b.to_pylist())))
    return _kept(final.iter_rows())


def score(sketches, baseline: dict, *, ks_threshold: float = 0.15,
          psi_threshold: float = 0.2):
    """Per (partition, column) drift verdicts of partition sketches vs the
    broadcast baseline."""
    def _score(b: pa.Table) -> pa.Table:
        out = []
        for r in b.to_pylist():
            v = _verdict(r["column"], r["kind"], _decode_row(r), baseline,
                         ks_threshold, psi_threshold)
            if v is not None:
                out.append({"partition_id": r["partition_id"], **v})
        return pa.Table.from_pylist(out, schema=_VERDICT_SCHEMA)

    return sketches.map_batches(_score, batch_format="pyarrow")


def build_baseline(ds, *, numeric: Sequence[str] = NUMERIC_DEFAULT,
                   categorical: Sequence[str] = CATEGORICAL_DEFAULT,
                   exclude_partitions: Sequence[str] = (),
                   batch_size: int = 8192) -> dict:
    """Baseline sketch store {column: (kind, payload)} from a clean corpus
    (excluded partitions are left out of the merge)."""
    return baseline_from(partition_sketches(
        ds, numeric=numeric, categorical=categorical,
        batch_size=batch_size), exclude_partitions)


def ks_distance(a: TDigest, b: TDigest) -> float:
    xs = np.unique(np.concatenate([a.means, b.means]))
    if len(xs) == 0:
        return 0.0
    return float(np.max(np.abs(a.cdf(xs) - b.cdf(xs))))


def psi(p_counts: dict, q_counts: dict) -> float:
    cats = sorted(set(p_counts) | set(q_counts))
    if not cats:
        return 0.0
    p = np.array([p_counts.get(c, 0) + 1.0 for c in cats])
    q = np.array([q_counts.get(c, 0) + 1.0 for c in cats])
    p /= p.sum()
    q /= q.sum()
    return float(np.sum((p - q) * np.log(p / q)))


def drift_check(ds, baseline: dict, *,
                numeric: Sequence[str] = NUMERIC_DEFAULT,
                categorical: Sequence[str] = CATEGORICAL_DEFAULT,
                ks_threshold: float = 0.15, psi_threshold: float = 0.2,
                batch_size: int = 8192):
    """Per (partition, column) drift verdicts vs the broadcast baseline."""
    return score(partition_sketches(
        ds, numeric=numeric, categorical=categorical, batch_size=batch_size),
        baseline, ks_threshold=ks_threshold, psi_threshold=psi_threshold)


# ---------------------------------------------------------------------------
# incremental drift over streaming micro-batches


def save_baseline(baseline: dict, path: str) -> None:
    """Serialize a baseline sketch store to one parquet file (atomic
    commit: engine/storage.py ``atomic_replace``)."""
    import pyarrow.parquet as pq
    with atomic_replace(path, "wb") as f:
        pq.write_table(
            _sketch_table("", baseline).drop_columns(["partition_id"]), f)


def load_baseline(path: str) -> dict:
    import pyarrow.parquet as pq
    return _merge_rows(pq.read_table(path).to_pylist())


def drift_micro_batch(ds, state_dir: str, *,
                      numeric: Sequence[str] = NUMERIC_DEFAULT,
                      categorical: Sequence[str] = CATEGORICAL_DEFAULT,
                      ks_threshold: float = 0.15,
                      psi_threshold: float = 0.2,
                      update_baseline: str = "if_clean",
                      batch_size: int = 8192):
    """Incremental drift: check one micro-batch against the persistent
    baseline sketch store under ``state_dir``; returns (verdicts, summary).

    * first micro-batch seeds the baseline (no verdicts);
    * ``update_baseline``: "if_clean" merges the batch's sketches into the
      baseline only when NO column drifted (a drifting batch must not
      poison the reference distribution), "always" merges regardless,
      "never" keeps the original baseline frozen;
    * sketches are mergeable (t-digest / counts), so the baseline grows
      without ever re-reading history — the streaming analog of
      ``build_baseline``. State commits are atomic renames.
    """
    bpath = os.path.join(state_dir, "drift_baseline.parquet")
    mpath = os.path.join(state_dir, "drift_meta.json")
    os.makedirs(state_dir, exist_ok=True)

    # one-partition sketch of this micro-batch (distributed partial pass)
    batch_sketch = _merge_rows(
        _partials(ds, numeric, categorical, batch_size).iter_rows())
    meta = {"version": 0, "drifted_batches": 0}
    if os.path.exists(mpath):
        with open(mpath) as f:
            meta = json.load(f)

    seeded = not os.path.exists(bpath)  # an empty baseline scores nothing
    baseline = {} if seeded else load_baseline(bpath)
    rows = [_verdict(col, kind, payload, baseline, ks_threshold,
                     psi_threshold)
            for col, (kind, payload) in sorted(batch_sketch.items())]
    rows = [r for r in rows if r is not None]
    n_drifted = sum(r["drifted"] for r in rows)

    if seeded or update_baseline == "always" or (
            update_baseline == "if_clean" and n_drifted == 0):
        for col, (kind, payload) in batch_sketch.items():
            _merge_into(baseline, col, kind, payload)
        save_baseline(baseline, bpath)

    meta["version"] += 1
    meta["drifted_batches"] += int(n_drifted > 0)
    with atomic_replace(mpath) as f:
        json.dump(meta, f)
    verdicts = pa.Table.from_pylist(rows, schema=_VERDICT_SCHEMA.remove(0))
    return verdicts, {"seeded": seeded, "version": meta["version"],
                      "drifted_columns": n_drifted}
