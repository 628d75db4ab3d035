"""Column profiles and distribution drift: per-partition KS (numeric) / PSI
(categorical) against a baseline.

The corpus is profiled ONCE. A profile row summarizes one (partition, leaf
column): ``count, nulls, min, max`` plus mergeable sketches — an HLL
(distinct count), a t-digest (numeric quantiles, delta 100) and, for the
categorical columns asked for, ``{value: count}``. :class:`ProfileBatch`
emits one row per (batch, partition, column) and :func:`profile`
tree-reduces them into one row per (partition, column); the corpus is never
shuffled. ``stats.column_stats`` is the merge of a column's rows over all
partitions; the drift baseline is the merge over the non-excluded
partitions (:func:`baseline_from`), and :func:`score` compares every
partition's row against it. The checkpoint job commits each partition's
profile rows once and runs both merges over the committed rows.

``_decode_row`` / ``_encode_row`` are the one codec between a row and a
:class:`Profile`, ``_merge_into`` the one merge and ``_verdict`` the one
scorer. A baseline is ``{column: (kind, payload)}``: a :class:`TDigest`
(``"numeric"``) or a ``{value: count}`` dict (``"categorical"``).

* KS distance: max |ECDF_part(x) - ECDF_base(x)| evaluated on the union of
  centroid locations of both digests.
* PSI: sum (p-q) ln(p/q) over categories with add-one smoothing.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from engine.kernels import (_decode, _flatten, _is_float_t, _is_int_t,
                            _is_list_t, _is_string_t, _valid_mask,
                            partition_codes)
from engine.sketches import HLL, TDigest
from engine.storage import atomic_replace

NUMERIC_DEFAULT = ("spans.offset", "spans.__len")
CATEGORICAL_DEFAULT = ("spans.kind",)

PROFILE_SCHEMA = pa.schema([
    ("partition_id", pa.string()),
    ("column", pa.string()),
    ("count", pa.int64()),
    ("nulls", pa.int64()),
    ("min_num", pa.float64()),
    ("max_num", pa.float64()),
    ("min_str", pa.string()),
    ("max_str", pa.string()),
    ("hll", pa.binary()),
    ("tdigest", pa.binary()),
    ("counts", pa.string()),        # JSON {value: count}; "" = not counted
])
_VERDICT_SCHEMA = pa.schema([
    ("partition_id", pa.string()), ("column", pa.string()),
    ("metric", pa.string()), ("value", pa.float64()),
    ("drifted", pa.bool_())])


@dataclass
class Profile:
    """Mergeable summary of one column's values."""
    count: int = 0
    nulls: int = 0
    lo: float | str | None = None
    hi: float | str | None = None
    hll: Optional[HLL] = None
    td: Optional[TDigest] = None
    counts: Optional[dict] = None


def _decode_row(row) -> Profile:
    """Profile of a row."""
    num = row["min_num"] is not None
    return Profile(
        row["count"], row["nulls"],
        row["min_num"] if num else row["min_str"],
        row["max_num"] if num else row["max_str"],
        HLL.from_bytes(bytes(row["hll"])) if row["hll"] else None,
        TDigest.from_bytes(bytes(row["tdigest"])) if row["tdigest"] else None,
        json.loads(row["counts"]) if row["counts"] else None)


def _encode_row(partition_id: str, column: str, p: Profile) -> dict:
    """Row of a profile (inverse of :func:`_decode_row`)."""
    num = isinstance(p.lo, float)
    return {"partition_id": partition_id, "column": column,
            "count": p.count, "nulls": p.nulls,
            "min_num": p.lo if num else None,
            "max_num": p.hi if num else None,
            "min_str": None if num else p.lo,
            "max_str": None if num else p.hi,
            "hll": b"" if p.hll is None else p.hll.to_bytes(),
            "tdigest": b"" if p.td is None else p.td.to_bytes(),
            "counts": "" if p.counts is None else json.dumps(p.counts)}


def _merge_into(store: dict, key, p: Profile) -> None:
    """Merge ``p`` into ``store[key]`` (a copy of ``p`` when absent)."""
    cur = store.get(key)
    if cur is None:
        store[key] = copy.deepcopy(p)
        return
    cur.count += p.count
    cur.nulls += p.nulls
    if p.lo is not None:
        cur.lo = p.lo if cur.lo is None else min(cur.lo, p.lo)
        cur.hi = p.hi if cur.hi is None else max(cur.hi, p.hi)
    for f in ("hll", "td"):
        mine, theirs = getattr(cur, f), getattr(p, f)
        if theirs is not None:
            setattr(cur, f, copy.deepcopy(theirs) if mine is None
                    else mine.merge(theirs))
    if p.counts is not None:
        cur.counts = cur.counts or {}
        for k, v in p.counts.items():
            cur.counts[k] = cur.counts.get(k, 0) + v


def _merge_rows(rows) -> dict:
    """Store ``{(partition_id, column): Profile}`` merged from rows."""
    store: dict = {}
    for r in rows:
        _merge_into(store, (r["partition_id"], r["column"]), _decode_row(r))
    return store


def profile_table(store: dict) -> pa.Table:
    """Rows of a ``{(partition_id, column): Profile}`` store."""
    return pa.Table.from_pylist(
        [_encode_row(pid, col, p) for (pid, col), p in sorted(store.items())],
        schema=PROFILE_SCHEMA)


def by_column(store: dict) -> dict:
    """``{column: Profile}``: the merge of a store's rows over partitions."""
    out: dict = {}
    for (_, col), p in store.items():
        _merge_into(out, col, p)
    return out


def leaf_columns(batch: pa.Table):
    """``(name, values, parent)`` of every top-level column and of one
    flattening level of list<struct> columns (``<list>.<field>`` plus the
    list length ``<list>.__len``); ``parent`` maps each value to its batch
    row, ``None`` when values and rows align."""
    for name in batch.column_names:
        arr = _decode(batch.column(name))
        t = arr.type
        if not (_is_list_t(t) and pa.types.is_struct(t.value_type)):
            yield name, arr, None
            continue
        elems, parent, _ = _flatten(arr, _valid_mask(arr))
        yield name + ".__len", pc.fill_null(pc.list_value_length(arr), 0), \
            None
        for f in elems.type:
            yield f"{name}.{f.name}", _decode(elems.field(f.name)), parent


class ProfileBatch:
    """Profile stage: batch -> one row per (partition, leaf column).

    Rows group by partition through the dictionary codes of
    ``partition_id`` (``kernels.partition_codes``; one partition, the
    common case, takes no filter). Delta-100 t-digests serve both stats
    and drift. ``categorical`` columns also count their values.
    """

    def __init__(self, columns: Optional[Sequence[str]] = None,
                 categorical: Sequence[str] = ()):
        self.columns = set(columns) if columns is not None else None
        self.categorical = set(categorical)

    @staticmethod
    def _profile(arr: pa.Array, categorical: bool) -> Profile:
        p = Profile(len(arr), arr.null_count)
        t = arr.type
        if p.count > p.nulls and (_is_int_t(t) or _is_float_t(t)
                                  or _is_string_t(t)
                                  or pa.types.is_boolean(t)):
            vals = arr.drop_null()
            mm = pc.min_max(vals)
            p.lo, p.hi = mm["min"].as_py(), mm["max"].as_py()
            if not _is_string_t(t):
                p.lo, p.hi = float(p.lo), float(p.hi)
                # HLL must hash native values (a float64 cast collapses
                # int64 ids beyond 2^53); the t-digest alone takes the cast
                p.td = TDigest().update(pc.cast(
                    vals, pa.float64(), safe=False).to_numpy(
                    zero_copy_only=False))
            p.hll = HLL().update(vals.to_numpy(zero_copy_only=False))
        if categorical:
            vc = pc.value_counts(arr.drop_null())
            p.counts = {str(v): c for v, c in zip(
                vc.field("values").to_pylist(),
                vc.field("counts").to_pylist())}
        return p

    def __call__(self, batch: pa.Table) -> pa.Table:
        pids, codes = partition_codes(batch)
        rows = []
        for name, arr, parent in leaf_columns(batch):
            if self.columns is not None and name not in self.columns:
                continue
            slot = codes if parent is None else codes[parent]
            for i, pid in enumerate(pids):
                part = arr if len(pids) == 1 else arr.filter(
                    pa.array(slot == i))
                rows.append(_encode_row(pid, name, self._profile(
                    part, name in self.categorical)))
        return pa.Table.from_pylist(rows, schema=PROFILE_SCHEMA)


def profile(ds, columns: Optional[Sequence[str]] = None,
            categorical: Sequence[str] = (), *, batch_size=8192,
            concurrency=None) -> dict:
    """Profile store ``{(partition_id, column): Profile}`` of ``ds`` from
    one pass. The per-batch rows are tree-reduced (engine/shuffle.py
    tree_reduce), so the driver merges O(partitions x columns) rows, never
    one per batch."""
    from engine.shuffle import tree_reduce

    parts = ds.map_batches(
        ProfileBatch(columns, categorical), batch_format="pyarrow",
        zero_copy_batch=True, batch_size=batch_size, concurrency=concurrency)
    final = tree_reduce(
        parts, lambda b: profile_table(_merge_rows(b.to_pylist())))
    return _merge_rows(final.iter_rows())


def _payload(p: Profile, kind: str):
    """The drift sketch of a profile: its digest or its value counts."""
    if kind == "numeric":
        return p.td if p.td is not None else TDigest()
    return p.counts or {}


def _view(store: dict, categorical) -> dict:
    """Baseline ``{column: (kind, payload)}`` of a ``{column: Profile}``
    store."""
    kinds = {col: "categorical" if col in categorical else "numeric"
             for col in store}
    return {col: (kinds[col], _payload(p, kinds[col]))
            for col, p in store.items()}


def _verdict(col: str, p: Profile, base: dict, ks_threshold: float,
             psi_threshold: float):
    """KS (numeric) / PSI (categorical) verdict of one profile against the
    baseline; ``None`` when the baseline has no sketch of ``col``."""
    entry = base.get(col)
    if entry is None:
        return None
    kind, ref = entry
    num = kind == "numeric"
    d = (ks_distance if num else psi)(_payload(p, kind), ref)
    return {"column": col, "metric": "ks" if num else "psi", "value": d,
            "drifted": d > (ks_threshold if num else psi_threshold)}


def baseline_from(store: dict, exclude_partitions: Sequence[str] = (), *,
                  numeric: Sequence[str] = NUMERIC_DEFAULT,
                  categorical: Sequence[str] = CATEGORICAL_DEFAULT) -> dict:
    """Baseline ``{column: (kind, payload)}``: the merge of a profile
    store's partitions outside ``exclude_partitions``."""
    excl, cols = set(exclude_partitions), {*numeric, *categorical}
    return _view(by_column({k: p for k, p in store.items()
                            if k[0] not in excl and k[1] in cols}),
                 set(categorical))


def score(store: dict, baseline: dict, *, ks_threshold: float = 0.15,
          psi_threshold: float = 0.2) -> pa.Table:
    """Per (partition, column) drift verdicts of a profile store vs the
    baseline."""
    out = []
    for (pid, col), p in sorted(store.items()):
        v = _verdict(col, p, baseline, ks_threshold, psi_threshold)
        if v is not None:
            out.append({"partition_id": pid, **v})
    return pa.Table.from_pylist(out, schema=_VERDICT_SCHEMA)


def _drift_profile(ds, numeric, categorical, batch_size) -> dict:
    return profile(ds, (*numeric, *categorical), categorical,
                   batch_size=batch_size)


def build_baseline(ds, *, numeric: Sequence[str] = NUMERIC_DEFAULT,
                   categorical: Sequence[str] = CATEGORICAL_DEFAULT,
                   exclude_partitions: Sequence[str] = (),
                   batch_size: int = 8192) -> dict:
    """Baseline sketch store {column: (kind, payload)} from a clean corpus
    (excluded partitions are left out of the merge)."""
    return baseline_from(
        _drift_profile(ds, numeric, categorical, batch_size),
        exclude_partitions, numeric=numeric, categorical=categorical)


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
    """Per (partition, column) drift verdicts vs the baseline (Dataset)."""
    import ray.data
    return ray.data.from_arrow(score(
        _drift_profile(ds, numeric, categorical, batch_size), baseline,
        ks_threshold=ks_threshold, psi_threshold=psi_threshold))


# ---------------------------------------------------------------------------
# incremental drift over streaming micro-batches


def _load_store(path: str) -> dict:
    import pyarrow.parquet as pq
    return _merge_rows(pq.read_table(path).to_pylist())


def load_baseline(path: str) -> dict:
    """Baseline ``{column: (kind, payload)}`` of a saved store: columns
    that count values are categorical, the rest numeric."""
    store = by_column(_load_store(path))
    return _view(store, {c for c, p in store.items() if p.counts is not None})


def drift_micro_batch(ds, state_dir: str, *,
                      numeric: Sequence[str] = NUMERIC_DEFAULT,
                      categorical: Sequence[str] = CATEGORICAL_DEFAULT,
                      ks_threshold: float = 0.15,
                      psi_threshold: float = 0.2,
                      update_baseline: str = "if_clean",
                      batch_size: int = 8192):
    """Incremental drift: check one micro-batch against the persistent
    baseline store under ``state_dir``; returns (verdicts, summary).

    * first micro-batch seeds the baseline (no verdicts);
    * ``update_baseline``: "if_clean" merges the batch's profiles into the
      baseline only when NO column drifted (a drifting batch must not
      poison the reference distribution), "always" merges regardless,
      "never" keeps the original baseline frozen;
    * profiles are mergeable (t-digest / counts), so the baseline grows
      without ever re-reading history — the streaming analog of
      ``build_baseline``. State commits are atomic renames.
    """
    bpath = os.path.join(state_dir, "drift_baseline.parquet")
    mpath = os.path.join(state_dir, "drift_meta.json")
    os.makedirs(state_dir, exist_ok=True)

    # one-partition profile of this micro-batch (distributed partial pass)
    batch = {("", col): p for col, p in by_column(
        _drift_profile(ds, numeric, categorical, batch_size)).items()}
    meta = {"version": 0, "drifted_batches": 0}
    if os.path.exists(mpath):
        with open(mpath) as f:
            meta = json.load(f)

    seeded = not os.path.exists(bpath)  # an empty baseline scores nothing
    store = {} if seeded else _load_store(bpath)
    verdicts = score(batch, baseline_from(
        store, numeric=numeric, categorical=categorical),
        ks_threshold=ks_threshold, psi_threshold=psi_threshold) \
        .drop_columns(["partition_id"])
    n_drifted = sum(verdicts.column("drifted").to_pylist())

    if seeded or update_baseline == "always" or (
            update_baseline == "if_clean" and n_drifted == 0):
        import pyarrow.parquet as pq
        for key, p in batch.items():
            _merge_into(store, key, p)
        with atomic_replace(bpath, "wb") as f:  # atomic state commit
            pq.write_table(profile_table(store), f)

    meta["version"] += 1
    meta["drifted_batches"] += int(n_drifted > 0)
    with atomic_replace(mpath) as f:
        json.dump(meta, f)
    return verdicts, {"seeded": seeded, "version": meta["version"],
                      "drifted_columns": n_drifted}
