"""Similarity search over an embedding column (``list<float>``).

* **Brute-force cosine top-k** (the exactness baseline): the query matrix is
  broadcast once (``ray.put``); each ``map_batches`` task does one numpy
  matmul against its batch and keeps a per-batch top-k partial; the global
  merge sees only (batches x queries x k) rows.
* **IVF top-k** (the scale path): a k-means-lite codebook trained on a driver
  sample partitions vectors into cells; queries probe the ``nprobe`` nearest
  cells, so each batch scores only vectors whose cell is probed — at 10^12
  vectors this turns a full scan into a cells-probed fraction. Recall is
  approximate by construction; the brute-force path is the oracle.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa


def _batch_matrix(batch: pa.Table, vec_col: str) -> np.ndarray:
    """(n, dim) float64 matrix from a list<float> / fixed_size_list /
    Ray-tensor-extension column."""
    from engine.kernels import _decode
    arr = batch.column(vec_col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if isinstance(arr.type, pa.ExtensionType):
        np_arr = arr.to_numpy(zero_copy_only=False)
        if getattr(np_arr, "dtype", None) == object:
            return np.stack([np.asarray(v, dtype=np.float64)
                             for v in np_arr])
        return np.asarray(np_arr, dtype=np.float64).reshape(len(arr), -1)
    arr = _decode(arr)
    if len(arr) == 0:
        return np.zeros((0, 0), dtype=np.float64)
    flat = arr.values.to_numpy(zero_copy_only=False)
    return np.asarray(flat, dtype=np.float64).reshape(len(arr), -1)


def _normalize(mat: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(mat, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    return mat / norm


class _TopKBatch:
    def __init__(self, queries_ref, vec_col: str, key_col: str, k: int):
        self.queries_ref = queries_ref
        self.vec_col = vec_col
        self.key_col = key_col
        self.k = k
        self._q = None

    def _queries(self):
        if self._q is None:
            import ray
            q = self.queries_ref
            self._q = ray.get(q) if isinstance(q, ray.ObjectRef) else q
        return self._q

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"query_id": pa.array([], pa.int32()),
                             "key": batch.column(self.key_col),
                             "cosine": pa.array([], pa.float64())})
        q = self._queries()  # (nq, dim), unit rows
        mat = _normalize(_batch_matrix(batch, self.vec_col))
        sims = mat @ q.T  # (n, nq)
        keys = batch.column(self.key_col).to_numpy(zero_copy_only=False)
        n, nq = sims.shape
        k = min(self.k, n)
        out = {"query_id": [], "key": [], "cosine": []}
        for qi in range(nq):
            col = sims[:, qi]
            # candidate pool wider than k, then an exact (cosine desc,
            # key asc) tiebreak so duplicate-score boundaries are stable
            pool = min(4 * k, n)
            cand = (np.argpartition(-col, pool - 1)[:pool]
                    if pool < n else np.arange(n))
            order = np.lexsort((keys[cand], -col[cand]))[:k]
            idx = cand[order]
            out["query_id"].extend([qi] * len(idx))
            out["key"].extend(keys[idx].tolist())
            out["cosine"].extend(col[idx].tolist())
        return pa.table({
            "query_id": pa.array(out["query_id"], pa.int32()),
            "key": pa.array(out["key"]),
            "cosine": pa.array(out["cosine"], pa.float64()),
        })


def _merge_topk(df, k: int):
    # deterministic tiebreak: cosine desc, key asc
    df = df.sort_values(["cosine", "key"], ascending=[False, True]).head(k)
    df = df.reset_index(drop=True)
    df["rank"] = np.arange(1, len(df) + 1, dtype=np.int32)
    return df


def cosine_topk(ds, queries: np.ndarray, *, vec_col: str = "embedding",
                key_col: str = "vec_id", k: int = 10,
                batch_size: int = 8192, concurrency=None):
    """Exact top-k by cosine for each query row: Dataset of
    (query_id, key, cosine, rank)."""
    import ray

    q = _normalize(np.asarray(queries, dtype=np.float64))
    qref = ray.put(q)
    partials = ds.map_batches(
        _TopKBatch(qref, vec_col, key_col, k),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, concurrency=concurrency)
    return partials.groupby("query_id").map_groups(
        lambda df: _merge_topk(df, k), batch_format="pandas")


# ---------------------------------------------------------------------------
# IVF


def train_codebook(ds, *, vec_col: str = "embedding", n_cells: int = 16,
                   sample_rows: int = 4096, iters: int = 8,
                   seed: int = 5) -> np.ndarray:
    """k-means-lite on a driver-side sample -> (n_cells, dim) unit centroids.

    The sample is a uniform reservoir over the whole dataset (not first-N
    rows, which would bias the codebook toward the first blocks' cluster
    structure)."""
    from engine.sampling import reservoir_sample
    sample = reservoir_sample(ds.select_columns([vec_col]),
                              sample_rows).to_pandas()
    mat = _normalize(np.stack(
        [np.asarray(v, dtype=np.float64) for v in sample[vec_col]]))
    rng = np.random.default_rng(seed)
    cents = mat[rng.choice(len(mat), size=min(n_cells, len(mat)),
                           replace=False)]
    for _ in range(iters):
        assign = np.argmax(mat @ cents.T, axis=1)
        for c in range(len(cents)):
            m = assign == c
            if m.any():
                v = mat[m].mean(axis=0)
                nv = np.linalg.norm(v)
                if nv > 0:
                    cents[c] = v / nv
    return cents


def ivf_topk(ds, queries: np.ndarray, codebook: np.ndarray, *,
             vec_col: str = "embedding", key_col: str = "vec_id",
             k: int = 10, nprobe: int = 4, batch_size: int = 8192,
             concurrency=None):
    """Approximate top-k: score only vectors in the nprobe cells nearest to
    each query."""
    import ray
    import pandas as pd

    q = _normalize(np.asarray(queries, dtype=np.float64))
    probes = np.argsort(-(q @ codebook.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    side = ray.put((q, codebook, probes))

    class _IvfBatch:
        def __init__(self, side_ref, vec_col, key_col, k):
            self.side_ref = side_ref
            self.vec_col, self.key_col, self.k = vec_col, key_col, k
            self._side = None

        def __call__(self, batch: pa.Table) -> pa.Table:
            if self._side is None:
                self._side = ray.get(self.side_ref)
            qm, cb, prb = self._side
            mat = _normalize(_batch_matrix(batch, self.vec_col))
            cells = np.argmax(mat @ cb.T, axis=1)
            keys = batch.column(self.key_col).to_numpy(zero_copy_only=False)
            out = {"query_id": [], "key": [], "cosine": []}
            for qi in range(len(qm)):
                mask = np.isin(cells, prb[qi])
                if not mask.any():
                    continue
                sub = mat[mask]
                col = sub @ qm[qi]
                kk = min(self.k, len(sub))
                idx = (np.argpartition(-col, kk - 1)[:kk]
                       if kk < len(sub) else np.arange(len(sub)))
                sel = np.nonzero(mask)[0][idx]
                out["query_id"].extend([qi] * len(sel))
                out["key"].extend(keys[sel].tolist())
                out["cosine"].extend(col[idx].tolist())
            return pa.table({
                "query_id": pa.array(out["query_id"], pa.int32()),
                "key": pa.array(out["key"]),
                "cosine": pa.array(out["cosine"], pa.float64()),
            })

    partials = ds.map_batches(
        _IvfBatch(side, vec_col, key_col, k),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, concurrency=concurrency)
    return partials.groupby("query_id").map_groups(
        lambda df: _merge_topk(df, k), batch_format="pandas")


# ---------------------------------------------------------------------------
# IVF index persistence: build once, reuse for repeated query batches


def build_ivf_index(ds, index_dir: str, *, vec_col: str = "embedding",
                    key_col: str = "vec_id", n_cells: int = 16,
                    sample_rows: int = 4096, batch_size: int = 8192,
                    concurrency=None) -> np.ndarray:
    """Train a codebook and persist the index under ``index_dir``:

    * ``codebook.parquet`` — (cell, centroid float64 list);
    * ``cells/cell=<n>/*.parquet`` — (key, unit-vector float64 list) rows
      hash-partitioned by nearest cell via ``write_parquet`` partitioning.

    Repeated queries then read ONLY the probed cells' partitions
    (partition pruning at the read — the IVF payoff at scale is skipping
    ``(1 - nprobe/cells)`` of the corpus bytes in storage, not just in
    compute). Returns the codebook.
    """
    import os

    import pyarrow.parquet as pq
    import ray

    cb = train_codebook(ds, vec_col=vec_col, n_cells=n_cells,
                        sample_rows=sample_rows)
    os.makedirs(index_dir, exist_ok=True)
    pq.write_table(
        pa.table({"cell": pa.array(range(len(cb)), pa.int32()),
                  "centroid": pa.array([c.tolist() for c in cb],
                                       pa.list_(pa.float64()))}),
        os.path.join(index_dir, "codebook.parquet"))

    cb_ref = ray.put(cb)

    class _Assign:
        def __init__(self, ref):
            self.ref = ref
            self._cb = None

        def __call__(self, batch: pa.Table) -> pa.Table:
            if self._cb is None:
                self._cb = ray.get(self.ref) if isinstance(
                    self.ref, ray.ObjectRef) else self.ref
            unit = _normalize(_batch_matrix(batch, vec_col))
            cells = np.argmax(unit @ self._cb.T, axis=1).astype(np.int32)
            return pa.table({
                "key": batch.column(key_col),
                "vec": pa.array([unit[i].tolist() for i in range(len(unit))],
                                pa.list_(pa.float64())),
                "cell": pa.array(cells),
            })

    assigned = ds.map_batches(_Assign(cb_ref), batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=batch_size,
                              concurrency=concurrency)
    assigned.write_parquet(os.path.join(index_dir, "cells"),
                           partition_cols=["cell"])
    return cb


def load_ivf_codebook(index_dir: str) -> np.ndarray:
    import os

    import pyarrow.parquet as pq
    t = pq.read_table(os.path.join(index_dir, "codebook.parquet"))
    cells = t.column("cell").to_numpy(zero_copy_only=False)
    cents = np.stack([np.asarray(v, dtype=np.float64)
                      for v in t.column("centroid").to_pylist()])
    return cents[np.argsort(cells)]


def ivf_topk_indexed(index_dir: str, queries: np.ndarray, *, k: int = 10,
                     nprobe: int = 4, batch_size: int = 8192,
                     concurrency=None):
    """Top-k over a persisted IVF index: reads ONLY the probed cells'
    parquet partitions (Hive layout under ``cells/``), scores them against
    the broadcast query matrix, merges per-query top-k."""
    import os

    import ray
    import ray.data

    cb = load_ivf_codebook(index_dir)
    q = _normalize(np.asarray(queries, dtype=np.float64))
    probes = np.argsort(-(q @ cb.T), axis=1)[:, :nprobe]
    wanted = sorted({int(c) for row in probes for c in row})
    paths = [os.path.join(index_dir, "cells", f"cell={c}") for c in wanted
             if os.path.isdir(os.path.join(index_dir, "cells", f"cell={c}"))]
    if not paths:
        return ray.data.from_arrow(pa.table({
            "query_id": pa.array([], pa.int32()),
            "key": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64())}))
    # NOTE: Ray's write_parquet(partition_cols) drops the partition column
    # from the files; the cell id is recovered from the directory path.
    # read_parquet with a list wants FILES, not hive dirs — glob them.
    import glob as _glob
    files: list[str] = []
    for p in paths:
        files.extend(sorted(_glob.glob(os.path.join(p, "*.parquet"))))
    ds = ray.data.read_parquet(files)
    side = ray.put((q, probes, cb))

    class _Score:
        """Each row's cell is recovered via argmax against the broadcast
        codebook (identical to its build-time assignment — same codebook,
        same unit vectors) and every query scores ONLY rows in its own
        probed cells, so results match ``ivf_topk``'s per-query nprobe
        semantics and cannot depend on which other queries share the
        batch."""

        def __init__(self, ref):
            self.ref = ref
            self._side = None

        def __call__(self, batch: pa.Table) -> pa.Table:
            if self._side is None:
                self._side = ray.get(self.ref) if isinstance(
                    self.ref, ray.ObjectRef) else self.ref
            qm, prb, cb_ = self._side
            mat = _batch_matrix(batch, "vec")
            keys = batch.column("key").to_numpy(zero_copy_only=False)
            out = {"query_id": [], "key": [], "cosine": []}
            if len(mat):
                cells = np.argmax(mat @ cb_.T, axis=1)
                allowed_tbl = np.zeros((len(qm), len(cb_)), dtype=bool)
                for qi in range(len(qm)):
                    allowed_tbl[qi, prb[qi]] = True
                for qi in range(len(qm)):
                    cand = np.flatnonzero(allowed_tbl[qi, cells])
                    kk = min(k, len(cand))
                    if kk == 0:
                        continue
                    col = mat[cand] @ qm[qi]
                    loc = (np.argpartition(-col, kk - 1)[:kk]
                           if kk < len(cand) else np.arange(len(cand)))
                    out["query_id"].extend([qi] * len(loc))
                    out["key"].extend(keys[cand[loc]].tolist())
                    out["cosine"].extend(col[loc].tolist())
            return pa.table({
                "query_id": pa.array(out["query_id"], pa.int32()),
                "key": pa.array(out["key"],
                                batch.schema.field("key").type),
                "cosine": pa.array(out["cosine"], pa.float64()),
            })

    partials = ds.map_batches(_Score(side), batch_format="pyarrow",
                              batch_size=batch_size,
                              concurrency=concurrency)
    return partials.groupby("query_id").map_groups(
        lambda df: _merge_topk(df, k), batch_format="pandas")


def grouped_centroids(ds, *, group_col: str = "label",
                      vec_col: str = "embedding", dim: int,
                      batch_size: int = 8192):
    """Per-group mean embedding (centroid) — the reduction behind
    cluster profiling, class prototypes, and IVF codebook refinement.

    One corpus pass: each batch collapses to per-group ``(sum-vector,
    count)`` combiner rows via one ``np.add.at`` scatter over the
    (n, dim) batch matrix, emitted LONG as (group, dim, s, cnt) rows —
    bounded by groups x dim per batch, never the corpus — then whole
    groups co-locate (:func:`engine.shuffle.by_key`) for one vectorized
    pandas sum + divide. NULL / wrong-length vectors and NULL groups are
    dropped (the SQL mirror filters ``len(vec) = dim AND group IS NOT
    NULL``); ``dim`` is explicit so the output schema is static at scale.
    Group labels must be integral (emitted as int64). Returns
    long-format (group, dim, value) — value = elementwise mean.
    """
    import pandas as pd

    from engine.shuffle import by_key

    def _partial(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        keep = pc.and_(pc.is_valid(b.column(group_col)),
                       pc.equal(pc.list_value_length(
                           b.column(vec_col)), dim))
        b = b.filter(keep)
        if not len(b):
            return pa.table({group_col: pa.array([], pa.int64()),
                             "dim": pa.array([], pa.int64()),
                             "s": pa.array([], pa.float64()),
                             "cnt": pa.array([], pa.int64())})
        mat = _batch_matrix(b, vec_col)
        lab = b.column(group_col).to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(lab, return_inverse=True)
        acc = np.zeros((len(uniq), dim), dtype=np.float64)
        np.add.at(acc, inv, mat)
        cnt = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        g = np.repeat(uniq.astype(np.int64), dim)
        d = np.tile(np.arange(dim, dtype=np.int64), len(uniq))
        return pa.table({group_col: pa.array(g, pa.int64()),
                         "dim": pa.array(d, pa.int64()),
                         "s": pa.array(acc.ravel(), pa.float64()),
                         "cnt": pa.array(np.repeat(cnt, dim), pa.int64())})

    def _final(df):
        g = df.groupby([group_col, "dim"], as_index=False) \
            .agg(s=("s", "sum"), cnt=("cnt", "sum"))
        return pd.DataFrame({group_col: g[group_col].to_numpy(),
                             "dim": g["dim"].to_numpy(),
                             "value": g["s"].to_numpy()
                             / g["cnt"].to_numpy()})

    partials = ds.map_batches(_partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=batch_size)
    return by_key(partials, group_col, _final, empty=pd.DataFrame(
        {group_col: pd.array([], dtype="int64"),
         "dim": pd.array([], dtype="int64"), "value": []}))


def embedding_covariance(ds, *, vec_col: str = "embedding", dim: int,
                         use_dims: int = None,
                         batch_size: int = 4096):
    """Sample covariance matrix of the embedding dimensions —
    ``covar_samp(x_i, x_j)`` per dimension pair (upper triangle incl.
    the diagonal), the distributed Gram-matrix building block for PCA /
    whitening. Vectors whose length differs from ``dim`` drop (the
    :func:`grouped_centroids` contract). Returns (i, j, cov, n) with
    i <= j; NULL cov when n < 2.

    Scale shape: each batch collapses to ONE d(d+1)/2 + d + 1 long-row
    partial (X^T X upper triangle via one ``np.matmul``, the column
    sums, and the row count), merged by :func:`engine.shuffle.combine`
    — the corpus streams once and only O(d^2)-bounded rows shuffle; the
    final covariance assembles worker-side over the single coalesced
    bounded block.
    ``use_dims`` restricts to the first k dimensions (an oracle-sized
    slice; the full-width gram is the same one matmul).
    """
    d = int(use_dims or dim)
    iu, ju = np.triu_indices(d)

    def _partial(batch: pa.Table) -> pa.Table:
        empty = pa.table({"i": pa.array([], pa.int64()),
                          "j": pa.array([], pa.int64()),
                          "v": pa.array([], pa.float64())})
        mat = _batch_matrix(batch, vec_col)
        if not len(mat) or mat.shape[1] < dim:
            # ragged object fallback: _batch_matrix stacks equal-length
            # rows; unequal lengths raise before this — filter upstream
            return empty
        x = mat[:, :d]
        g = x.T @ x
        s = x.sum(axis=0)
        n = len(x)
        return pa.table({
            "i": pa.array(np.r_[iu, np.arange(d), [-1]], pa.int64()),
            "j": pa.array(np.r_[ju, np.full(d, -1), [-1]], pa.int64()),
            "v": pa.array(np.r_[g[iu, ju], s, [float(n)]],
                          pa.float64())})

    def _cov(t: pa.Table) -> pa.Table:
        v = dict(zip(zip(t.column("i").to_pylist(),
                         t.column("j").to_pylist()),
                     t.column("v").to_pylist()))
        n = v.get((-1, -1), 0.0)
        sxy = np.array([v.get(p, 0.0)
                        for p in zip(iu.tolist(), ju.tolist())])
        sx = np.array([v.get((a, -1), 0.0) for a in iu.tolist()])
        sy = np.array([v.get((b, -1), 0.0) for b in ju.tolist()])
        cov = (sxy - sx * sy / n) / (n - 1.0) if n >= 2 \
            else np.full(len(iu), np.nan)
        rows = len(iu) if t.num_rows else 0  # no vectors: no pairs
        return pa.table({
            "i": pa.array(iu[:rows], pa.int64()),
            "j": pa.array(ju[:rows], pa.int64()),
            "cov": pa.array(cov[:rows], pa.float64(),
                            mask=np.isnan(cov[:rows])),
            "n": pa.array(np.full(rows, int(n)), pa.int64())})

    from engine.shuffle import combine, finish
    return finish(combine(ds, ["i", "j"], {"v": ("v", "sum")},
                          derive=_partial, batch_size=batch_size),
                  _cov, one_block=True)
