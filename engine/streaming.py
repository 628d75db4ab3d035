"""Micro-batch streaming: tumbling event-time windows with watermarks,
plus streaming exact dedup — both with DISTRIBUTED state merges.

The reference engine is batch-only; a large-scale training-data pipeline
additionally needs incremental/windowed processing of an APPEND-ONLY event
stream. The Ray-Data-native shape for that is micro-batch execution
(Structured-Streaming style): each call processes one new slice of events as
a normal distributed Dataset pipeline, while the only state that must
survive between calls lives in a parquet state store that WORKERS write
(``Dataset.write_parquet``) and workers read back (``read_parquet``) — the
driver holds scalars only (watermark, counts, version):

* aggregation of the new slice is the standard partial+final pattern
  (combiner inside ``map_batches``, small groupby after) — fully
  distributed;
* the persisted open-window state joins the NEXT batch's partials by
  entering the same groupby as extra partial rows (state-as-a-Dataset
  union), so the state merge is part of the one distributed shuffle and
  never a driver pandas groupby — state scales with key cardinality,
  the driver does not;
* the event-time watermark is ``max(event ts seen) - allowed_lateness``.
  A new event older than the CURRENT watermark is late: counted and
  excluded (the window it belongs to may already have been emitted).
  Windows whose end <= watermark close and are emitted, never to change.

Commit discipline: state artifacts are versioned (``open_v{N}`` /
``hashes_v{N}``) and the META rename is the single commit point — a killed
run leaves an orphan artifact for the next attempt to overwrite, so each
micro-batch is at-least-once processed, exactly-once committed.

Partitioning assumption: none beyond the groupby — events of one key do NOT
need to be co-located or ordered within a micro-batch; the state merge is
associative. Wall-clock ordering ACROSS micro-batches is the caller's
stream order, as in any micro-batch system.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from engine.storage import atomic_replace


def _parse_duration_s(v) -> int:
    if isinstance(v, (int, float)):
        return int(v)
    units = {"s": 1, "m": 60, "h": 3600, "d": 86400}
    return int(float(v[:-1]) * units[v[-1]])


def _expand_parquet_paths(paths) -> list:
    """Ray's read_parquet expands a single directory path but not
    directories inside a LIST of paths — flatten them to files."""
    out = []
    for p in paths:
        if os.path.isdir(p):
            out.extend(os.path.join(p, f) for f in sorted(os.listdir(p))
                       if f.endswith(".parquet"))
        else:
            out.append(p)
    return out


def _replace_artifact(tmp_path: str, final_path: str) -> None:
    """Move a freshly written file OR directory over a possibly existing
    orphan from a crashed attempt (commit = the later meta rename)."""
    if os.path.isdir(final_path):
        shutil.rmtree(final_path)
    elif os.path.exists(final_path):
        os.remove(final_path)
    os.replace(tmp_path, final_path)


class WindowState:
    """Open-window state + watermark, persisted under ``state_dir``.

    The open-window artifact is a versioned parquet file or directory
    (directories are written distributedly by ``Dataset.write_parquet``);
    ``meta.json`` names the live artifact and carries watermark_us,
    version, totals. Meta writes commit through
    ``engine.storage.atomic_replace`` (temp file, fsync, rename) — the
    rename is the commit point, as for engine/checkpoint.py manifests."""

    def __init__(self, state_dir: str):
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        self.meta_path = os.path.join(state_dir, "meta.json")
        # legacy (pre-round-4) single-file artifact name
        self.open_path = os.path.join(state_dir, "open_windows.parquet")

    def load_meta(self) -> dict:
        if os.path.exists(self.meta_path):
            with open(self.meta_path) as f:
                return json.load(f)
        return {"watermark_us": None, "version": 0, "late_events": 0,
                "closed_windows": 0}

    def open_artifact(self, meta: dict) -> Optional[str]:
        name = meta.get("open_file")
        if name:
            p = os.path.join(self.state_dir, name)
            return p if os.path.exists(p) else None
        return self.open_path if os.path.exists(self.open_path) else None

    def load_open(self) -> Optional[pa.Table]:
        p = self.open_artifact(self.load_meta())
        return pq.read_table(p) if p else None

    def commit_meta(self, meta: dict) -> None:
        with atomic_replace(self.meta_path) as f:
            json.dump(meta, f)

    def commit(self, meta: dict, open_tbl: pa.Table) -> None:
        """Driver-side commit of a SMALL (or empty) open table — used by
        flush and tests; the micro-batch path writes from workers."""
        name = f"open_v{meta['version']}.parquet"
        tmp = os.path.join(self.state_dir, name + ".tmp")
        pq.write_table(open_tbl, tmp)
        _replace_artifact(tmp, os.path.join(self.state_dir, name))
        old = self.open_artifact(self.load_meta())
        meta = dict(meta, open_file=name)
        self.commit_meta(meta)
        self._cleanup(old, name)

    def _cleanup(self, old: Optional[str], keep_name: str) -> None:
        if old and os.path.basename(old) != keep_name:
            try:
                if os.path.isdir(old):
                    shutil.rmtree(old)
                else:
                    os.remove(old)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


def _empty_window_tbl(key_type: pa.DataType) -> pa.Table:
    return pa.table({
        "key": pa.array([], key_type),
        "wstart": pa.array([], pa.int64()),
        "n_events": pa.array([], pa.int64()),
        "value_sum": pa.array([], pa.float64())})


def _closed_out_tbl(t: pa.Table) -> pa.Table:
    return pa.table({
        "key": t.column("key"),
        "window_start": pc.cast(t.column("wstart"), pa.timestamp("us")),
        "n_events": t.column("n_events"),
        "value_sum": t.column("value_sum")})


def process_micro_batch(events_ds, state_dir: str, *,
                        key_col: str = "user_id", ts_col: str = "ts",
                        value_col: str = "value", window: str = "1h",
                        allowed_lateness: str = "30m",
                        batch_size: int = 65536, concurrency=None):
    """Process one micro-batch of events; returns
    ``(closed_windows: ray.data.Dataset, summary: dict)``.

    closed_windows columns: (key, window_start, n_events, value_sum) —
    windows finalized by this batch, emitted exactly once across the
    stream's lifetime. Open windows + watermark persist in ``state_dir``.

    Scale shape: the persisted open state enters the new slice's one
    (key, wstart) :func:`engine.shuffle.combine` as extra partial rows,
    so the state merge is distributed — the driver touches only the
    per-batch meta rows (late-count / max-ts scalars) and the watermark;
    open state is written back by workers.
    """
    import ray.data
    from engine.shuffle import combine, not_null

    win_us = _parse_duration_s(window) * 1_000_000
    late_us = _parse_duration_s(allowed_lateness) * 1_000_000
    state = WindowState(state_dir)
    meta = state.load_meta()
    wm = meta["watermark_us"]  # None before any event

    def _rows(batch: pa.Table) -> pa.Table:
        """One partial row per on-time event plus ONE meta row per batch
        (``wstart = -1``: the batch's late count and max ts)."""
        ts = pc.cast(batch.column(ts_col), pa.timestamp("us"))
        ts_us = ts.to_numpy(zero_copy_only=False).astype("datetime64[us]") \
            .astype(np.int64)
        on_time = np.ones(len(batch), dtype=bool) if wm is None \
            else ts_us >= wm
        on = pa.array(on_time)
        n_on = int(on_time.sum())
        keys = batch.column(key_col)
        v = pc.cast(batch.column(value_col), pa.float64())
        zeros = pa.array(np.zeros(n_on, np.int64))
        data = pa.table({
            "key": keys.filter(on),
            "wstart": pa.array(((ts_us // win_us) * win_us)[on_time]),
            "n_events": pa.array(np.ones(n_on, np.int64)),
            # SQL sum skips NULLs; an all-NULL window sums to 0.0
            "value_sum": pc.if_else(not_null(v), v, 0.0).filter(on),
            "late": zeros, "max_ts": zeros})
        # the meta row needs a non-NULL key so the merge keeps it
        present = keys.drop_null()
        mkey = present.slice(0, 1) if len(present) \
            else pa.array([0]).cast(keys.type)
        row = pa.table({
            "key": mkey, "wstart": pa.array([-1], pa.int64()),
            "n_events": pa.array([0], pa.int64()),
            "value_sum": pa.array([0.0], pa.float64()),
            "late": pa.array([len(batch) - n_on], pa.int64()),
            "max_ts": pa.array([ts_us.max() if len(ts_us) else 0],
                               pa.int64())})
        return pa.concat_tables([data, row.cast(data.schema)])

    rows = events_ds.map_batches(
        _rows, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, concurrency=concurrency)

    # previous open state joins the SAME merge as extra partial rows —
    # the state merge is part of the one distributed shuffle
    prev_path = state.open_artifact(meta)
    if prev_path is not None:
        prev_ds = ray.data.read_parquet(prev_path)
        if prev_ds.count() > 0:  # parquet metadata, no execution

            def _as_partial(b: pa.Table) -> pa.Table:
                n = len(b)
                return pa.table({
                    "key": b.column("key"),
                    "wstart": b.column("wstart"),
                    "n_events": b.column("n_events"),
                    "value_sum": b.column("value_sum"),
                    "late": pa.array(np.zeros(n, np.int64)),
                    "max_ts": pa.array(np.zeros(n, np.int64))})

            rows = rows.union(prev_ds.map_batches(
                _as_partial, batch_format="pyarrow"))

    # one distributed merge of new rows + carried state; the result is
    # bounded by (keys x windows touched) and materialized (spillable,
    # never the driver), so it is consumed thrice below
    agg = combine(rows, ["key", "wstart"], {
        "n_events": ("n_events", "sum"), "value_sum": ("value_sum", "sum"),
        "late": ("late", "sum"), "max_ts": ("max_ts", "max")})

    def _meta_rows(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b.column("wstart"), -1))

    # per-block meta rows only (O(blocks) after the groupby) on the driver
    mparts = [t for t in agg.map_batches(_meta_rows, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow", batch_size=None)
              if t.num_columns and len(t)]
    if mparts:
        mt = pa.concat_tables(mparts)
        n_late = int(pc.sum(mt.column("late")).as_py() or 0)
        max_ts = int(pc.max(mt.column("max_ts")).as_py() or 0)
    else:
        n_late, max_ts = 0, 0

    new_wm = max_ts - late_us if max_ts else (wm if wm is not None else None)
    if wm is not None and (new_wm is None or new_wm < wm):
        new_wm = wm  # watermark never regresses

    def _data_rows(b: pa.Table) -> pa.Table:
        return b.filter(pc.not_equal(b.column("wstart"), -1)) \
            .select(["key", "wstart", "n_events", "value_sum"])

    data = agg.map_batches(_data_rows, batch_format="pyarrow")
    wm_cut = new_wm if new_wm is not None else np.iinfo(np.int64).min

    def _closed(b: pa.Table) -> pa.Table:
        ws = b.column("wstart")
        return b.filter(pc.less_equal(pc.add(ws, win_us), wm_cut))

    def _open(b: pa.Table) -> pa.Table:
        ws = b.column("wstart")
        return b.filter(pc.greater(pc.add(ws, win_us), wm_cut))

    closed_ds = data.map_batches(_closed, batch_format="pyarrow")
    open_ds = data.map_batches(_open, batch_format="pyarrow")
    n_closed = closed_ds.count()
    n_open = open_ds.count()

    try:
        key_type = events_ds.schema().base_schema.field(key_col).type
    except Exception:
        key_type = pa.int64()

    # workers write the new open state; meta rename below is the commit
    version = meta["version"] + 1
    open_name = f"open_v{version}.parquet"
    final_open = os.path.join(state.state_dir, open_name)
    if n_open:
        tmpdir = final_open + ".tmpdir"
        if os.path.isdir(tmpdir):
            shutil.rmtree(tmpdir)
        open_ds.write_parquet(tmpdir)
        _replace_artifact(tmpdir, final_open)
    else:  # typed empty file so later reads keep the schema
        tmp = final_open + ".tmp"
        pq.write_table(_empty_window_tbl(key_type), tmp)
        _replace_artifact(tmp, final_open)

    new_meta = {
        "watermark_us": new_wm,
        "version": version,
        "late_events": meta["late_events"] + n_late,
        "closed_windows": meta["closed_windows"] + n_closed,
        "open_file": open_name,
    }
    old_artifact = prev_path
    state.commit_meta(new_meta)
    state._cleanup(old_artifact, open_name)

    if n_closed:
        closed_out = closed_ds.map_batches(_closed_out_tbl,
                                           batch_format="pyarrow")
    else:
        import ray.data as _rd
        closed_out = _rd.from_arrow(
            _closed_out_tbl(_empty_window_tbl(key_type)))
    return closed_out, {"late_events": n_late,
                        "watermark_us": new_wm,
                        "open_windows": n_open,
                        "closed_windows": n_closed}


def flush(state_dir: str):
    """End-of-stream: close every remaining open window and clear state.
    Returns the flushed windows as a Dataset reading the retained
    ``flushed_v{N}`` artifact (never a driver materialization)."""
    import ray.data
    state = WindowState(state_dir)
    meta = state.load_meta()
    path = state.open_artifact(meta)
    if path is None:
        empty = _closed_out_tbl(_empty_window_tbl(pa.int64()))
        return ray.data.from_arrow(empty)
    version = meta["version"] + 1
    flushed_name = f"flushed_v{version}.parquet"
    flushed = os.path.join(state.state_dir, flushed_name)
    n = ray.data.read_parquet(path).count()  # parquet metadata
    # retain the artifact under the flushed name, then commit empty state
    if os.path.isdir(path):
        shutil.copytree(path, flushed + ".tmp")
    else:
        shutil.copy(path, flushed + ".tmp")
    _replace_artifact(flushed + ".tmp", flushed)
    key_type = pq.read_schema(
        path if not os.path.isdir(path)
        else os.path.join(path, os.listdir(path)[0])).field("key").type
    state.commit(dict(meta, version=version,
                      closed_windows=meta["closed_windows"] + n),
                 _empty_window_tbl(key_type))
    if n == 0:
        return ray.data.from_arrow(_closed_out_tbl(
            _empty_window_tbl(key_type)))
    return ray.data.read_parquet(flushed).map_batches(
        _closed_out_tbl, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# micro-batch streaming exact dedup


class DedupState:
    """Seen-content state for streaming dedup: versioned parquet hash
    artifacts (files or worker-written directories) plus a serialized
    Bloom, committed by meta rename (same idempotent contract as
    WindowState — a killed run re-processes only its current micro-batch,
    and re-committing version N is an overwrite, not a duplicate)."""

    def __init__(self, state_dir: str):
        self.dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        self.meta_path = os.path.join(state_dir, "dedup_meta.json")

    def load_meta(self) -> dict:
        if os.path.exists(self.meta_path):
            with open(self.meta_path) as f:
                return json.load(f)
        return {"version": 0, "n_hashes": 0, "bloom": None,
                "last_batch_id": None, "last_batch_kept": 0}

    def version_path(self, v: int) -> str:
        return os.path.join(self.dir, f"hashes_v{v}.parquet")

    def hash_files(self, meta: dict) -> list:
        return [self.version_path(i)
                for i in range(1, meta["version"] + 1)
                if os.path.exists(self.version_path(i))]

    def load_bloom(self, meta: dict):
        from engine.sketches import Bloom
        if not meta["bloom"]:
            return None
        b = np.load(os.path.join(self.dir, meta["bloom"]))
        return Bloom(int(b["n_bits"]), int(b["k"]), bits=b["words"])

    def commit_meta(self, meta: dict, bloom, *, n_new: int,
                    batch_id=None) -> None:
        """Write the bloom artifact then rename meta — the commit point.
        The caller has already placed ``hashes_v{version+1}`` (worker-
        written dir or typed-empty file)."""
        v = meta["version"] + 1
        bname = f"bloom_v{v}.npz"
        with atomic_replace(os.path.join(self.dir, bname), "wb") as f:
            np.savez(f, n_bits=bloom.n_bits, k=bloom.k, words=bloom.words)
        meta = dict(meta, version=v, bloom=bname,
                    n_hashes=meta["n_hashes"] + n_new,
                    last_batch_id=batch_id, last_batch_kept=n_new)
        with atomic_replace(self.meta_path) as f:
            json.dump(meta, f)


def stream_dedup_micro_batch(docs_ds, state_dir: str, *,
                             text_col: str = "text",
                             key_col: str = "doc_id",
                             batch_id=None,
                             expected_total: int = 1_000_000,
                             batch_size: int = 65536):
    """Process one micro-batch of an append-only document stream; returns
    ``(kept: ray.data.Dataset (key_col, text_hash), summary: dict)`` — the
    documents whose content was never seen in ANY earlier committed
    micro-batch (within a batch, the minimum key per content survives).

    Scale shape: in-batch md5+min-key combiner -> coarse-partition per-hash
    min (only distinct (hash, key) rows shuffle) — the candidate set stays
    a DATASET end to end (object store, spillable), never driver pandas.
    The seen-state check is two-phase like the referential checks: a
    broadcast Bloom rejects definitely-new hashes map-only, and only Bloom
    HITS (sparse) ever reach the driver, to drive the exact distributed
    anti-join against the state's hash files (a false positive costs one
    joined row, never a wrongly dropped document). New state hashes are
    written by WORKERS (``write_parquet``); the Bloom update is per-batch
    partial filters OR-merged by a distributed tree reduction. State grows
    O(distinct content); the exact pass reads hashes, not documents.
    """
    import pandas as pd
    import ray
    import ray.data
    from engine.dedup import _md5_hex
    from engine.sketches import Bloom
    from engine.shuffle import by_key, tree_reduce

    state = DedupState(state_dir)
    meta = state.load_meta()

    try:
        key_type = docs_ds.schema().base_schema.field(key_col).type
    except Exception:
        key_type = pa.int64()

    def _kept_view(path):
        n = ray.data.read_parquet(path).count()  # parquet metadata
        if n == 0:
            return ray.data.from_arrow(pa.table({
                key_col: pa.array([], key_type),
                "text_hash": pa.array([], pa.string())})), 0

        def _rename(b: pa.Table) -> pa.Table:
            return pa.table({key_col: b.column("key"),
                             "text_hash": b.column("h")})
        return ray.data.read_parquet(path).map_batches(
            _rename, batch_format="pyarrow"), n

    if batch_id is not None and meta.get("last_batch_id") == batch_id:
        # replayed delivery of an already-committed batch: re-emit its
        # recorded keeps, change nothing (exactly-once per batch id)
        out, n = _kept_view(state.version_path(meta["version"]))
        return out, {"batch_docs_kept": n, "bloom_hits": 0,
                     "false_positives_recovered": 0,
                     "version": meta["version"], "replayed": True}

    bloom = state.load_bloom(meta)
    key_np = np.dtype(object) if pa.types.is_string(key_type) \
        else key_type.to_pandas_dtype()

    def _min_per_hash(df):
        return df.groupby("h", as_index=False)["key"].min()

    def _partial(df):
        h = np.array(_md5_hex(df[text_col].fillna("").tolist()),
                     dtype=object)
        return _min_per_hash(
            pd.DataFrame({"h": h, "key": df[key_col].to_numpy()}))

    # distinct (hash, key) candidates: a DATASET (consumed twice below,
    # so materialize into the object store — bounded by the micro-batch's
    # distinct content, distributed and spillable, never driver pandas)
    cand = by_key(docs_ds, "h", _min_per_hash, prep=_partial,
                  batch_size=batch_size,
                  empty=pd.DataFrame({"h": pd.Series([], dtype=object),
                                      "key": pd.Series([], dtype=key_np)})
                  ).materialize()
    n_cand = cand.count()

    suspect = pd.DataFrame({"h": pd.Series([], dtype=object),
                            "key": pd.Series([], dtype=key_np)})
    if bloom is not None and n_cand:
        bref = ray.put(bloom.to_bytes())

        class _BloomFlag:
            def __init__(self, r):
                self.r = r
                self._b = None

            def __call__(self, df):
                if self._b is None:
                    self._b = Bloom.from_bytes(ray.get(self.r))
                if "h" not in df.columns or not len(df):
                    out = df.copy()
                    out["hit"] = pd.Series([], dtype=bool)
                    return out
                out = df.copy()
                out["hit"] = self._b.contains(df["h"].to_numpy())
                return out

        flagged = cand.map_batches(_BloomFlag(bref),
                                   batch_format="pandas").materialize()
        kept_ds = flagged.map_batches(
            lambda df: df[~df["hit"]][["h", "key"]]
            if "hit" in df.columns else df,
            batch_format="pandas")
        # only the SPARSE Bloom-hit set ever becomes driver pandas
        suspect = flagged.map_batches(
            lambda df: df[df["hit"]][["h", "key"]]
            if "hit" in df.columns else df,
            batch_format="pandas").to_pandas()
        if "h" not in suspect.columns:  # empty ds drops schema (Ray edge)
            suspect = pd.DataFrame({"h": pd.Series([], dtype=object),
                                    "key": pd.Series([], dtype=key_np)})
        n_hits = len(suspect)
    else:

        def _drop_part(df):
            return df[["h", "key"]] if "h" in df.columns else df

        kept_ds = cand.map_batches(_drop_part, batch_format="pandas")
        n_hits = 0

    files = state.hash_files(meta)
    fp = suspect.iloc[0:0]
    if len(suspect) and files:
        # exact pass: the state scans DISTRIBUTEDLY, filtered against the
        # broadcast sparse suspect set — the driver only ever holds
        # suspect-sized data, never the full seen-hash set
        suspect_sorted = np.sort(suspect["h"].to_numpy())
        ref = ray.put(suspect_sorted)

        class _AmongSuspects:
            def __init__(self, r):
                self.r = r
                self._s = None

            def __call__(self, b: pa.Table) -> pa.Table:
                if self._s is None:
                    self._s = ray.get(self.r) if isinstance(
                        self.r, ray.ObjectRef) else self.r
                v = b.column("h").to_numpy(zero_copy_only=False)
                pos = np.searchsorted(self._s, v)
                pos = np.clip(pos, 0, len(self._s) - 1)
                return pa.table(
                    {"h": b.column("h").filter(
                        pa.array(self._s[pos] == v))})

        seen_sparse = ray.data.read_parquet(
            _expand_parquet_paths(files)).map_batches(
            _AmongSuspects(ref), batch_format="pyarrow").to_pandas()
        seen_set = set(seen_sparse["h"]) if len(seen_sparse) and \
            "h" in seen_sparse.columns else set()
        fp = suspect[~suspect["h"].isin(seen_set)]
        if len(fp):
            kept_ds = kept_ds.union(
                ray.data.from_arrow(pa.table({
                    "h": pa.array(fp["h"].tolist(), pa.string()),
                    "key": pa.array(fp["key"].tolist(), key_type)})))

    kept_ds = kept_ds.materialize()  # consumed thrice: count/write/bloom
    n_kept = kept_ds.count()

    # workers write the new hash-file version; meta rename below commits
    v = meta["version"] + 1
    final_path = state.version_path(v)
    if n_kept:
        tmpdir = final_path + ".tmpdir"
        if os.path.isdir(tmpdir):
            shutil.rmtree(tmpdir)

        def _typed(df):  # uniform (h string, key key_type) parquet blocks
            return pa.table({"h": pa.array(df["h"].tolist(), pa.string()),
                             "key": pa.array(df["key"].tolist(), key_type)})

        kept_ds.map_batches(_typed, batch_format="pandas") \
            .write_parquet(tmpdir)
        _replace_artifact(tmpdir, final_path)
    else:  # typed empty file so read_parquet schema unification survives
        tmp = final_path + ".tmp"
        pq.write_table(pa.table({"h": pa.array([], pa.string()),
                                 "key": pa.array([], key_type)}), tmp)
        _replace_artifact(tmp, final_path)

    if bloom is None:
        bloom = Bloom.for_capacity(max(expected_total, 1), 0.01)
    if n_kept:
        # distributed Bloom update: per-batch partial filters OR-merged by
        # tree reduction — O(actors) driver traffic (engine/referential.py
        # pattern), never one bitmap per batch
        nb, k = bloom.n_bits, bloom.k

        def _bpart(b: pa.Table) -> pa.Table:
            bb = Bloom(nb, k)
            bb.add(b.column("h").to_numpy(zero_copy_only=False))
            return pa.table({"bloom": pa.array([bb.to_bytes()],
                                               pa.binary())})

        def _bmerge(b: pa.Table) -> pa.Table:
            m = Bloom(nb, k)
            for blob in b.column("bloom").to_pylist():
                m.merge(Bloom.from_bytes(blob))
            return pa.table({"bloom": pa.array([m.to_bytes()],
                                               pa.binary())})

        parts = kept_ds.map_batches(_bpart, batch_format="pyarrow",
                                    batch_size=batch_size)
        for row in tree_reduce(parts, _bmerge).iter_rows():
            bloom.merge(Bloom.from_bytes(row["bloom"]))

    state.commit_meta(meta, bloom, n_new=n_kept, batch_id=batch_id)
    out, _ = _kept_view(final_path)
    summary = {"batch_docs_kept": n_kept,
               "bloom_hits": n_hits,
               "false_positives_recovered": int(len(fp)),
               "version": v}
    return out, summary
