"""Per-column statistics: null rate, count, min/max, HLL distinct, t-digest.

Stats are a merge of column profiles (engine/drift.py): one pass emits one
tiny profile row per (batch, partition, column) — counts, typed min/max,
serialized sketches — tree-reduced per (partition, column); a column's stats
row is the merge of its rows over all partitions. The corpus itself is never
shuffled. The checkpoint job commits each partition's profile rows once, so
its stats step merges committed rows and never reads the corpus.

Nested span fields are flattened with the same list-offset machinery as the
validator, so stats cover ``spans.kind`` etc. as first-class columns.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from engine.drift import by_column, profile

FINAL_SCHEMA = pa.schema([
    ("column", pa.string()),
    ("count", pa.int64()),
    ("nulls", pa.int64()),
    ("null_rate", pa.float64()),
    ("distinct_est", pa.float64()),
    ("min", pa.string()),
    ("max", pa.string()),
    ("p50", pa.float64()),
    ("p95", pa.float64()),
    ("p99", pa.float64()),
])


def stats_table(store: dict) -> pa.Table:
    """One stats row per column of a profile store
    ``{(partition_id, column): Profile}`` (engine/drift.py): the merge of
    the column's profiles over every partition."""
    rows = []
    for col, p in sorted(by_column(store).items()):
        td = p.td
        rows.append({
            "column": col, "count": p.count, "nulls": p.nulls,
            "null_rate": p.nulls / p.count if p.count else 0.0,
            "distinct_est": 0.0 if p.hll is None else p.hll.estimate(),
            "min": None if p.lo is None else str(p.lo),
            "max": None if p.hi is None else str(p.hi),
            "p50": float("nan") if td is None else td.quantile(0.5),
            "p95": float("nan") if td is None else td.quantile(0.95),
            "p99": float("nan") if td is None else td.quantile(0.99)})
    return pa.Table.from_pylist(rows, schema=FINAL_SCHEMA)


def column_stats(ds, columns: Optional[Sequence[str]] = None, *,
                 batch_size: int = 8192, concurrency=None):
    """Dataset -> small stats Dataset (one row per column)."""
    import ray.data
    return ray.data.from_arrow(stats_table(profile(
        ds, columns or None, batch_size=batch_size,
        concurrency=concurrency)))


# ---------------------------------------------------------------------------
# exact distributed quantiles (selection, not sketch)


def exact_quantiles(ds, col: str, qs: Sequence[float], *,
                    sample_per_block: int = 128, n_candidates: int = 1024,
                    bracket_limit: int = 2_000_000, max_refine: int = 4,
                    batch_size=None):
    """EXACT ``quantile_cont``-style quantiles of a numeric column — a
    distributed selection algorithm, not a sketch (`column_stats` already
    provides t-digest approximations; this is the bit-exact path an oracle
    or an SLA check needs).

    Three map-only passes, none of which shuffles the corpus:

    1. per-BLOCK (count, evenly-spaced sorted sample) partials
       (``batch_size=None`` -> one zero-copy batch per block), tree-merged
       (engine/shuffle.tree_reduce) into <= ``n_candidates`` candidate
       pivots — driver traffic is O(actors), never O(batches);
    2. one vectorized rank-count pass: each BLOCK emits the
       ``count(x < c)`` / ``count(x <= c)`` vectors against the broadcast
       candidates (two np.searchsorted calls per block), tree-summed;
       partial volume is blocks x |C| x 16 B — ~13 GB total for a 100 TB
       corpus at 128 MB blocks and the default 1024 candidates, streamed
       through the tree, never resident at once (per fixed-row batches it
       would be ~20x that);
       a target rank whose value IS a candidate (tie mass straddles it)
       resolves immediately;
    3. a sparse bracket fetch for unresolved ranks — only values strictly
       inside the bracketing candidate gap (expected n/n_candidates rows)
       ever reach one worker task; if an adversarial gap exceeds
       ``bracket_limit`` the pass recurses inside the gap instead of
       fetching it.

    Returns {q: float value} with ``quantile_cont`` linear interpolation
    (position q*(n-1)), matching DuckDB bit-for-bit.
    """
    import ray
    from engine.shuffle import tree_reduce

    def _partial(b: pa.Table) -> pa.Table:
        v = pc.drop_null(b.column(col)).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        v = v[~np.isnan(v)]
        v.sort()
        if len(v) > sample_per_block:
            idx = np.linspace(0, len(v) - 1, sample_per_block)
            samp = v[idx.astype(np.int64)]
        else:
            samp = v
        return pa.table({"cnt": pa.array([len(v)], pa.int64()),
                         "samp": pa.array([samp.tolist()],
                                          pa.list_(pa.float64()))})

    def _merge(tbl: pa.Table) -> pa.Table:
        cnt = int(pc.sum(tbl.column("cnt")).as_py() or 0)
        flat = np.concatenate([np.asarray(x, dtype=np.float64)
                               for x in tbl.column("samp").to_pylist()]
                              or [np.array([], dtype=np.float64)])
        flat.sort()
        if len(flat) > n_candidates:
            idx = np.linspace(0, len(flat) - 1, n_candidates)
            flat = flat[idx.astype(np.int64)]
        return pa.table({"cnt": pa.array([cnt], pa.int64()),
                         "samp": pa.array([flat.tolist()],
                                          pa.list_(pa.float64()))})

    parts = ds.map_batches(_partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=batch_size)
    merged = tree_reduce(parts, _merge).to_pandas()
    n = int(merged["cnt"].sum())
    if n == 0:
        return {float(q): float("nan") for q in qs}
    cand = np.sort(np.concatenate(
        [np.asarray(x, dtype=np.float64) for x in merged["samp"]]))
    if len(cand) > n_candidates:
        idx = np.linspace(0, len(cand) - 1, n_candidates)
        cand = cand[idx.astype(np.int64)]
    cand = np.unique(cand)

    def _rank_counts(candidates):
        """Tree-summed (count(x < c), count(x <= c)) over the corpus."""
        ref = ray.put(candidates)

        class _Ranks:
            def __init__(self, r):
                self.r = r
                self._c = None

            def __call__(self, b: pa.Table) -> pa.Table:
                if self._c is None:
                    self._c = ray.get(self.r) if isinstance(
                        self.r, ray.ObjectRef) else self.r
                v = pc.drop_null(b.column(col)) \
                    .to_numpy(zero_copy_only=False).astype(np.float64)
                v = v[~np.isnan(v)]
                v.sort()
                lt = np.searchsorted(v, self._c, side="left")
                le = np.searchsorted(v, self._c, side="right")
                return pa.table({
                    "lt": pa.array([lt.tolist()], pa.list_(pa.int64())),
                    "le": pa.array([le.tolist()], pa.list_(pa.int64()))})

        def _sum(tbl: pa.Table) -> pa.Table:
            lt = np.sum([np.asarray(x, dtype=np.int64)
                         for x in tbl.column("lt").to_pylist()], axis=0)
            le = np.sum([np.asarray(x, dtype=np.int64)
                         for x in tbl.column("le").to_pylist()], axis=0)
            return pa.table({
                "lt": pa.array([lt.tolist()], pa.list_(pa.int64())),
                "le": pa.array([le.tolist()], pa.list_(pa.int64()))})

        rp = ds.map_batches(_Ranks(ref), batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=batch_size)
        out = tree_reduce(rp, _sum).to_pandas()
        lt = np.sum([np.asarray(x, dtype=np.int64) for x in out["lt"]],
                    axis=0)
        le = np.sum([np.asarray(x, dtype=np.int64) for x in out["le"]],
                    axis=0)
        return lt, le

    def _value_at_rank(k: int, cand, lt, le, depth: int = 0) -> float:
        """Exact value of sorted[k] (0-based)."""
        # resolved by tie mass: some candidate c has count(<c) <= k < (<=c)
        hit = np.flatnonzero((lt <= k) & (k < le))
        if len(hit):
            return float(cand[hit[0]])
        # bracket: largest c with count(<=c) <= k, smallest c with
        # count(<c) > k
        lo_i = np.flatnonzero(le <= k)
        hi_i = np.flatnonzero(lt > k)
        lo = float(cand[lo_i[-1]]) if len(lo_i) else -np.inf
        hi = float(cand[hi_i[0]]) if len(hi_i) else np.inf
        base = int(le[lo_i[-1]]) if len(lo_i) else 0
        gap = (int(lt[hi_i[0]]) if len(hi_i) else n) - base
        if gap > bracket_limit and depth < max_refine:
            sub, slt, sle = _refine(lo, hi, base)
            return _value_at_rank(k, sub, slt, sle, depth + 1)

        def _fetch(b: pa.Table) -> pa.Table:
            v = pc.drop_null(b.column(col)) \
                .to_numpy(zero_copy_only=False).astype(np.float64)
            v = v[(v > lo) & (v < hi) & ~np.isnan(v)]
            return pa.table({"v": pa.array(v, pa.float64())})

        vals = np.sort(ds.map_batches(
            _fetch, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=batch_size).to_pandas()["v"].to_numpy())
        return float(vals[k - base])

    def _refine(lo: float, hi: float, base: int):
        """Re-run the candidate pass restricted to the open gap (lo, hi)."""
        def _gap_partial(b: pa.Table) -> pa.Table:
            v = pc.drop_null(b.column(col)) \
                .to_numpy(zero_copy_only=False).astype(np.float64)
            v = v[(v > lo) & (v < hi) & ~np.isnan(v)]
            v.sort()
            if len(v) > sample_per_block:
                idx = np.linspace(0, len(v) - 1, sample_per_block)
                v = v[idx.astype(np.int64)]
            return pa.table({"cnt": pa.array([0], pa.int64()),
                             "samp": pa.array([v.tolist()],
                                              pa.list_(pa.float64()))})

        gp = ds.map_batches(_gap_partial, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=batch_size)
        gm = tree_reduce(gp, _merge).to_pandas()
        sub = np.unique(np.sort(np.concatenate(
            [np.asarray(x, dtype=np.float64) for x in gm["samp"]])))
        slt, sle = _rank_counts(sub)
        return sub, slt, sle

    lt, le = _rank_counts(cand)
    out = {}
    cache: dict = {}
    for q in qs:
        p = float(q) * (n - 1)
        k0, k1 = int(np.floor(p)), int(np.ceil(p))
        for k in (k0, k1):
            if k not in cache:
                cache[k] = _value_at_rank(k, cand, lt, le)
        frac = p - k0
        out[float(q)] = cache[k0] + (cache[k1] - cache[k0]) * frac
    return out


def iqr_outliers(ds, col: str, *, k: float = 1.5,
                 batch_size=None):
    """Rows outside the Tukey fences ``[q1 - k*IQR, q3 + k*IQR]`` of
    ``col`` — the classic data-quality outlier screen, with the EXACT
    quantile operator supplying the fences (a sketch-derived fence would
    flag different rows on different runs; this one is deterministic and
    SQL-reproducible). The fence scan is map-only; NULL/NaN rows never
    match."""
    q = exact_quantiles(ds, col, [0.25, 0.75], batch_size=batch_size)
    iqr = q[0.75] - q[0.25]
    lo, hi = q[0.25] - k * iqr, q[0.75] + k * iqr

    def _f(b: pa.Table) -> pa.Table:
        v = pc.cast(b.column(col), pa.float64()) \
            .to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore"):
            mask = ((v < lo) | (v > hi)) & ~np.isnan(v)
        return b.filter(pa.array(mask))

    return ds.map_batches(_f, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


def winsorize(ds, col: str, *, lower_q: float = 0.05,
              upper_q: float = 0.95, batch_size=None):
    """Clip ``col`` to its exact ``[lower_q, upper_q]`` quantile fences —
    the standard heavy-tail guard before feature scaling. The fences come
    from :func:`exact_quantiles` (bit-compatible with ``quantile_cont``),
    so the clip is SQL-reproducible: ``least(greatest(v, lo), hi)``.

    The clip pass is map-only (one ``np.clip`` per block); rows with a
    NULL value are dropped (SQL parity: ``WHERE col IS NOT NULL``) so the
    output column is never NaN-vs-NULL ambiguous. Returns the input rows
    with ``col`` replaced by the clipped value.
    """
    q = exact_quantiles(ds, col, [lower_q, upper_q], batch_size=batch_size)
    lo, hi = q[float(lower_q)], q[float(upper_q)]

    def _clip(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column(col)))
        v = pc.cast(b.column(col), pa.float64()) \
            .to_numpy(zero_copy_only=False)
        return b.set_column(b.schema.get_field_index(col), col,
                            pa.array(np.clip(v, lo, hi), pa.float64()))

    return ds.map_batches(_clip, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=batch_size)


def quantile_buckets(ds, col: str, *, qs: Sequence[float] = (0.25, 0.5,
                                                             0.75),
                     batch_size=None):
    """Equal-frequency discretization: assign each row the 1-based bucket
    ``1 + count(fences < value)`` where the fences are the EXACT
    ``quantile_cont`` values of ``qs`` (:func:`exact_quantiles`) — the
    standard quantile-binning step before bucketed features or stratified
    downstream joins, SQL-reproducible as ``1 + (v > q1)::int + ...``.

    The fence pass is the shuffle-free distributed selection; the assign
    pass is map-only (one ``np.searchsorted`` per block against the tiny
    broadcast fence array). NULL values are dropped (``WHERE col IS NOT
    NULL``). Returns the input rows plus an int64 ``bucket`` column.
    """
    fences = exact_quantiles(ds, col, list(qs), batch_size=batch_size)
    cuts = np.array([fences[float(q)] for q in sorted(qs)],
                    dtype=np.float64)

    def _assign(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column(col)))
        v = pc.cast(b.column(col), pa.float64()) \
            .to_numpy(zero_copy_only=False)
        bucket = 1 + np.searchsorted(cuts, v, side="left")
        return b.append_column("bucket",
                               pa.array(bucket.astype(np.int64)))

    return ds.map_batches(_assign, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=batch_size)


def robust_zscore(ds, col: str, *, id_col: str, batch_size=None):
    """Median/MAD robust z-score: ``(v - median) / mad`` with ``mad =
    median(|v - median|)`` — the outlier score that, unlike the mean/std
    z-score, is not itself dragged by the outliers it is meant to flag.

    Two exact distributed selection passes (:func:`exact_quantiles` — the
    second over a map-only ``|v - med|`` projection), then a map-only
    scoring pass; nothing shuffles. NULL values are dropped (``WHERE col
    IS NOT NULL``); a zero MAD (>= half the mass at the median) yields
    NULL scores, matching SQL NULL-on-division-by-zero. Returns
    (id, rz). No consistency constant is applied — multiply by 1/1.4826
    outside if a normal-equivalent sigma is wanted.
    """
    med = exact_quantiles(ds, col, [0.5], batch_size=batch_size)[0.5]

    def _absdev(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column(col)))
        v = pc.cast(b.column(col), pa.float64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({"absdev": pa.array(np.abs(v - med),
                                            pa.float64())})

    dev = ds.map_batches(_absdev, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=batch_size)
    mad = exact_quantiles(dev, "absdev", [0.5], batch_size=batch_size)[0.5]

    def _score(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column(col)))
        v = pc.cast(b.column(col), pa.float64()) \
            .to_numpy(zero_copy_only=False)
        if mad == 0.0:
            rz = pa.array([None] * len(v), pa.float64())
        else:
            rz = pa.array((v - med) / mad, pa.float64())
        return pa.table({id_col: b.column(id_col), "rz": rz})

    return ds.map_batches(_score, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=batch_size)


def grouped_moments(ds, *, group_col: str, value_col: str,
                    batch_size=None):
    """Per-group count / mean / sample-stddev / min / max in ONE corpus
    pass — the classic sufficient-statistics shape: each block collapses
    to per-group ``(n, sum, sumsq, min, max)`` partials
    (:func:`engine.shuffle.combine`), so only group-count rows ever
    shuffle, and the final moments come from the merged sums
    (``var = (s2 - s1^2/n)/(n-1)``).

    The sum-of-squares estimator's cancellation error is ~sqrt(n)*eps
    relative to ``s2`` — far below any reporting precision for values
    within a few orders of magnitude of their mean (the adversarial case,
    mean >> stddev by 1e8, is the one textbook caveat). NULL values are
    ignored (SQL aggregate semantics). Returns
    (group, n, mean, std_samp, vmin, vmax); groups with n == 1 report
    NULL std_samp like ``stddev_samp``.
    """
    from engine.shuffle import combine, finish, not_null

    def _values(b: pa.Table) -> pa.Table:
        v = pc.cast(b.column(value_col), pa.float64())
        keep = not_null(v)
        v = v.filter(keep)
        return pa.table({group_col: b.column(group_col).filter(keep),
                         "v": v, "v2": pc.multiply(v, v)})

    def _final(b: pa.Table) -> pa.Table:
        n = b.column("n").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        s1 = b.column("s1").to_numpy(zero_copy_only=False)
        s2 = b.column("s2").to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = s1 / n
            var = np.maximum(s2 - s1 * s1 / n, 0.0) / (n - 1.0)
            std = np.where(n > 1, np.sqrt(var), np.nan)
        return pa.table({
            group_col: b.column(group_col),
            "n": b.column("n"),
            "mean": pa.array(mean, pa.float64()),
            "std_samp": pa.array(std, pa.float64(), mask=np.isnan(std)),
            "vmin": b.column("vmin"),
            "vmax": b.column("vmax")})

    return finish(combine(ds, group_col, {
        "n": ("v", "count"), "s1": ("v", "sum"), "s2": ("v2", "sum"),
        "vmin": ("v", "min"), "vmax": ("v", "max")},
        derive=_values, batch_size=batch_size), _final)


def grouped_corr(ds, *, group_col: str, x_col: str, y_col: str,
                 batch_size=None):
    """Per-group Pearson correlation of two numeric columns in ONE corpus
    pass via sufficient statistics ``(n, sx, sy, sxx, syy, sxy)``
    combined per batch (:func:`engine.shuffle.combine`) — only
    group-count rows shuffle.

    ``r = (sxy - sx*sy/n) / sqrt((sxx - sx^2/n) * (syy - sy^2/n))`` —
    algebraically ``corr(x, y)``; rows where EITHER value is NULL are
    dropped (SQL pairwise semantics). Groups with n < 2 or zero variance
    report NULL. Returns (group, n, corr).
    """
    from engine.shuffle import combine, finish, not_null

    def _pairs(b: pa.Table) -> pa.Table:
        x = pc.cast(b.column(x_col), pa.float64())
        y = pc.cast(b.column(y_col), pa.float64())
        keep = pc.and_(not_null(x), not_null(y))
        x, y = x.filter(keep), y.filter(keep)
        return pa.table({group_col: b.column(group_col).filter(keep),
                         "x": x, "y": y, "xx": pc.multiply(x, x),
                         "yy": pc.multiply(y, y), "xy": pc.multiply(x, y)})

    def _final(b: pa.Table) -> pa.Table:
        n = b.column("n").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        sx, sy, sxx, syy, sxy = (
            b.column(c).to_numpy(zero_copy_only=False)
            for c in ("sx", "sy", "sxx", "syy", "sxy"))
        with np.errstate(invalid="ignore", divide="ignore"):
            cov = sxy - sx * sy / n
            vx = sxx - sx * sx / n
            vy = syy - sy * sy / n
            r = cov / np.sqrt(vx * vy)
            r = np.where((n > 1) & (vx > 0) & (vy > 0), r, np.nan)
        return pa.table({
            group_col: b.column(group_col),
            "n": b.column("n"),
            "corr": pa.array(r, pa.float64(), mask=np.isnan(r))})

    return finish(combine(ds, group_col, {
        "n": ("x", "count"), "sx": ("x", "sum"), "sy": ("y", "sum"),
        "sxx": ("xx", "sum"), "syy": ("yy", "sum"), "sxy": ("xy", "sum")},
        derive=_pairs, batch_size=batch_size), _final)


def grouped_quantiles(ds, *, group_col: str, value_col: str,
                      qs: Sequence[float], batch_size: int = 65536):
    """Per-group exact ``quantile_cont`` quantiles: one output row per
    (group, q).

    Whole groups co-locate (:func:`engine.shuffle.by_key`) and one
    vectorized pandas group-quantile call runs per partition — linear
    interpolation matches DuckDB ``quantile_cont`` bit-for-bit. Assumes
    each group's values fit a worker (the same contract as every
    map_groups stage here); for a single group at corpus scale use
    ``exact_quantiles``, which never co-locates the data.
    """
    import pandas as pd
    from engine.shuffle import by_key
    qlist = [float(q) for q in qs]

    def _quant(df):
        g = df.dropna(subset=[value_col]).groupby(group_col)[value_col]
        frames = []
        for q in qlist:
            s = g.quantile(q, interpolation="linear")
            frames.append(pd.DataFrame({
                group_col: s.index.to_numpy(),
                "q": np.full(len(s), q),
                "value": s.to_numpy()}))
        return pd.concat(frames, ignore_index=True)

    return by_key(ds, group_col, _quant,
                  prep=lambda df: df[[group_col, value_col]],
                  batch_size=batch_size,
                  empty=pd.DataFrame({group_col: [], "q": [], "value": []}))


def value_histogram(ds, col: str, *, lo: float, hi: float, bins: int,
                    batch_size: int = 65536):
    """Fixed-bin histogram of a numeric column over ``[lo, hi]`` — one
    (bin, n) row per non-empty bin; values outside the range and NULL/NaN
    are dropped, and ``hi`` lands in the last bin.

    Binning uses the single expression ``min(floor((x - lo) * bins /
    (hi - lo)), bins - 1)`` so a SQL oracle reproduces bin edges
    bit-for-bit (numpy and DuckDB evaluate the identical float64 ops).
    Per-batch bin counts merge in a bins-bounded
    :func:`engine.shuffle.combine`; the corpus never shuffles.
    """
    from engine.shuffle import combine
    return combine(ds, "bin", {"n": ("bin", "count")},
                   derive=_binner(col, lo, hi, bins),
                   batch_size=batch_size)


def _binner(col: str, lo: float, hi: float, bins: int, group_col=None):
    """Per-batch projection to the SQL-reproducible ``bin`` of ``col``
    (out-of-range / NULL / NaN rows drop), with ``group_col`` carried
    alongside when given."""
    w = float(hi) - float(lo)

    def _bin(b: pa.Table) -> pa.Table:
        v = pc.cast(b.column(col), pa.float64()) \
            .to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore"):
            keep = (v >= lo) & (v <= hi) & ~np.isnan(v)
        idx = np.minimum(np.floor((v[keep] - lo) * bins / w),
                         bins - 1).astype(np.int64)
        out = {"bin": pa.array(idx, pa.int64())}
        if group_col is not None:
            out = {group_col: b.column(group_col).filter(pa.array(keep)),
                   **out}
        return pa.table(out)
    return _bin


def percentile_rank(ds, col: str, *, id_col: str,
                    distinct_limit: int = 4_000_000,
                    batch_size: int = 65536):
    """Exact per-row percentile rank: ``count(x < v) / (n - 1)`` — SQL
    ``percent_rank() OVER (ORDER BY col)`` parity (ties share a rank;
    NULL/NaN rows are dropped).

    Two passes: distinct-value counts aggregate first
    (:func:`engine.shuffle.combine`, value-bounded), then the sorted
    (value, cumulative-count) CDF broadcasts once via ``ray.put`` and
    every row resolves map-only with one searchsorted. The gate: the CDF
    is O(distinct values) — above ``distinct_limit`` this op refuses
    (ValueError) rather than silently materializing an unbounded array;
    bucket/round the column upstream or use ``exact_quantiles`` +
    interpolation for an approximate rank.
    """
    import ray
    from engine.shuffle import combine

    counts = combine(ds, "v", {"c": ("v", "count")},
                     derive=lambda b: pa.table(
                         {"v": pc.cast(b.column(col), pa.float64())}),
                     batch_size=batch_size)
    n_distinct = counts.count()
    if n_distinct > distinct_limit:
        raise ValueError(
            f"{n_distinct} distinct values exceed distinct_limit="
            f"{distinct_limit}; bucket the column or use exact_quantiles")
    cdf = counts.to_pandas()  # a zero-row frame comes back without columns
    vals = cdf["v"].to_numpy() if len(cdf) else np.zeros(0)
    cnts = cdf["c"].to_numpy() if len(cdf) else np.zeros(0, np.int64)
    order = np.argsort(vals, kind="stable")
    vals, cnts = vals[order], cnts[order]
    n = int(cnts.sum())
    below = np.concatenate([[0], np.cumsum(cnts)[:-1]]).astype(np.int64)
    ref = ray.put((vals, below, n))

    class _Rank:
        def __init__(self, r):
            self.r = r
            self._s = None

        def __call__(self, b: pa.Table) -> pa.Table:
            if self._s is None:
                self._s = ray.get(self.r) if isinstance(
                    self.r, ray.ObjectRef) else self.r
            vals_, below_, n_ = self._s
            v = pc.cast(b.column(col), pa.float64()) \
                .to_numpy(zero_copy_only=False)
            keep = ~np.isnan(v)
            sub = b.filter(pa.array(keep))
            idx = np.searchsorted(vals_, v[keep])
            denom = max(n_ - 1, 1)
            return pa.table({
                id_col: sub.column(id_col),
                "pct_rank": pa.array(below_[idx] / denom, pa.float64())})

    return ds.map_batches(_Rank(ref), batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=batch_size)


def grouped_weighted_mean(ds, *, group_col: str, value_col: str,
                          weight_col: str, batch_size=None):
    """Per-group weighted mean — ``sum(value * weight) / sum(weight)``
    over rows where BOTH value and weight are non-NULL (the SQL mirror
    filters the same pair, since a NULL on either side would null the
    product but not the bare ``sum(weight)``). A group whose weights sum
    to exactly zero reports NULL (SQL ``CASE WHEN sum(w) = 0``).

    Same sufficient-statistics shape as :func:`grouped_moments`: each
    block collapses to per-group ``(n, swx, sw)`` partials
    (:func:`engine.shuffle.combine`), only group-count rows shuffle, and
    the final divide is vectorized. Returns (group, n, weighted_mean).
    """
    from engine.shuffle import combine, finish, not_null

    def _products(b: pa.Table) -> pa.Table:
        v = pc.cast(b.column(value_col), pa.float64())
        w = pc.cast(b.column(weight_col), pa.float64())
        keep = pc.and_(not_null(v), not_null(w))
        v, w = v.filter(keep), w.filter(keep)
        return pa.table({group_col: b.column(group_col).filter(keep),
                         "wx": pc.multiply(v, w), "w": w})

    def _final(b: pa.Table) -> pa.Table:
        swx = b.column("swx").to_numpy(zero_copy_only=False)
        sw = b.column("sw").to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore", divide="ignore"):
            wm = np.where(sw != 0.0, swx / sw, np.nan)
        return pa.table({
            group_col: b.column(group_col),
            "n": b.column("n"),
            "weighted_mean": pa.array(wm, pa.float64(),
                                      mask=np.isnan(wm))})

    return finish(combine(ds, group_col, {
        "n": ("w", "count"), "swx": ("wx", "sum"), "sw": ("w", "sum")},
        derive=_products, batch_size=batch_size), _final)


def grouped_histogram(ds, *, group_col: str, col: str, lo: float,
                      hi: float, bins: int, batch_size: int = 65536):
    """Per-group fixed-bin histogram over ``[lo, hi]`` — one
    (group, bin, n) row per non-empty cell; out-of-range / NULL values
    and NULL groups are dropped. The bin expression is the same
    bit-for-bit SQL-reproducible ``min(floor((x - lo) * bins / (hi -
    lo)), bins - 1)`` as :func:`value_histogram`.

    Scale shape: per-batch (group, bin) counts
    (:func:`engine.shuffle.combine`) bound the shuffle at
    (groups x bins) rows per block — the corpus never shuffles.
    """
    from engine.shuffle import combine
    return combine(ds, [group_col, "bin"], {"n": ("bin", "count")},
                   derive=_binner(col, lo, hi, bins, group_col),
                   batch_size=batch_size)


def mutual_information(ds, *, a_col: str, b_col: str, lo: float,
                       hi: float, bins: int, batch_size: int = 65536):
    """Mutual information (nats) between a categorical column and a
    fixed-bin bucketing of a numeric column — the feature-relevance
    screen of a training pipeline. Rows with NULL category or
    out-of-range/NULL values drop; the bin expression is the
    SQL-reproducible one of :func:`value_histogram`. Returns ONE row
    (mi, n); an empty contingency reports (NULL, 0).

    Scale shape: per-batch (category, bin) counts
    (:func:`engine.shuffle.combine`) bound the shuffle at vocabulary x
    bins rows per block; the MI reduce runs worker-side over the single
    coalesced contingency block (a vocabulary-x-bins-bounded table —
    never a driver loop).
    """
    import pandas as pd
    from engine.shuffle import combine, finish

    def _mi(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        tot = n.sum()
        mi = None
        if len(n):
            df = pd.DataFrame({
                "a": t.column(a_col).to_numpy(zero_copy_only=False),
                "b": t.column("bin").to_numpy(), "n": n})
            na = df.groupby("a", sort=False)["n"].transform("sum") \
                .to_numpy(np.float64)
            nb = df.groupby("b", sort=False)["n"].transform("sum") \
                .to_numpy(np.float64)
            mi = float(((n / tot) * np.log((n * tot) / (na * nb))).sum())
        return pa.table({"mi": pa.array([mi], pa.float64()),
                         "n": pa.array([int(tot)], pa.int64())})

    cells = combine(ds, [a_col, "bin"], {"n": ("bin", "count")},
                    derive=_binner(b_col, lo, hi, bins, a_col),
                    batch_size=batch_size)
    return finish(cells, _mi, one_block=True)


def grouped_gini(ds, *, group_col: str, value_col: str,
                 batch_size: int = 65536):
    """Per-group Gini concentration of a numeric column — the sorted-rank
    identity ``sum((2*rank - n - 1) * x) / (n * sum(x))`` (``rank`` =
    1-based position in the group's value-ascending order; the sum is
    tie-order invariant, so any stable sort matches SQL's
    ``row_number``-based spelling). NULL values / NULL groups drop; a
    group whose values sum to zero reports NULL (the SQL mirror's ``CASE
    WHEN s != 0``). Returns (group, gini, n).

    Scale shape: :func:`engine.shuffle.by_key` ordered by value (only
    (group, value) rows shuffle, once); per partition grouped
    cumcount/transform Cython kernels — no per-group loop. The
    per-group-fits-worker contract matches grouped_quantiles.
    """
    import pandas as pd
    from engine.shuffle import by_key

    def _gini(sub):
        g = sub.groupby(group_col, sort=False)
        rn = g.cumcount().to_numpy(np.float64) + 1.0
        n = g[value_col].transform("size").to_numpy(np.float64)
        v = sub[value_col].to_numpy(np.float64)
        w = pd.Series((2.0 * rn - n - 1.0) * v)
        agg = pd.DataFrame({
            "wsum": w.groupby(sub[group_col], sort=False).sum(),
            "s": g[value_col].sum(),
            "n": g[value_col].size().astype(np.int64)})
        with np.errstate(invalid="ignore", divide="ignore"):
            gini = np.where(agg["s"] != 0.0,
                            agg["wsum"] / (agg["n"] * agg["s"]), np.nan)
        out = pd.DataFrame({"gini": gini, "n": agg["n"].to_numpy()})
        out.insert(0, group_col, agg.index.to_numpy())
        return out

    return by_key(ds, group_col, _gini, null_keys="drop",
                  prep=lambda df: df[[group_col, value_col]]
                  .dropna(subset=[value_col]),
                  order=[value_col], batch_size=batch_size,
                  empty=pd.DataFrame({group_col: [], "gini": [],
                                      "n": pd.array([], dtype="int64")}))


def grouped_iqr_outliers(ds, *, group_col: str, value_col: str,
                         id_col: str, k: float = 1.5,
                         batch_size: int = 65536):
    """Rows outside their GROUP's Tukey fences — ``value < q1 - k*iqr OR
    value > q3 + k*iqr`` with per-group exact linear-interpolated
    quartiles (``quantile_cont`` parity). NULL values / NULL groups
    drop. Returns the outlier rows (id, group, value).

    Scale shape: one :func:`engine.shuffle.by_key` shuffle co-locates
    whole groups; the fences are computed IN the partition (grouped
    ``transform('quantile')`` — one call per group, not per row) and the
    filter happens in the same pass — no fence join, no broadcast, no
    second corpus pass. The global sibling is :func:`iqr_outliers`.
    """
    import pandas as pd
    from engine.shuffle import by_key
    cols = [id_col, group_col, value_col]

    def _flag(df):
        g = df.groupby(group_col, sort=False)[value_col]
        q1 = g.transform("quantile", 0.25).to_numpy(np.float64)
        q3 = g.transform("quantile", 0.75).to_numpy(np.float64)
        iqr = q3 - q1
        v = df[value_col].to_numpy(np.float64)
        m = (v < q1 - k * iqr) | (v > q3 + k * iqr)
        return df.loc[m, cols].reset_index(drop=True)

    return by_key(ds, group_col, _flag, null_keys="drop",
                  prep=lambda df: df[cols].dropna(subset=[value_col]),
                  batch_size=batch_size,
                  empty=pd.DataFrame({c: [] for c in cols}))


def spearman_corr(ds, *, x_col: str, y_col: str,
                  distinct_limit: int = 4_000_000,
                  batch_size: int = 65536):
    """Spearman rank correlation between two numeric columns — Pearson
    over average (tie-sharing) ranks, the SQL spelling ``corr(rank() +
    (peers - 1)/2, ...)``. Rows are excluded PAIRWISE (either side
    NULL); returns ONE row (spearman_r, n), NULL r when n < 2 or a side
    is constant. Ranks are exact, not sampled.

    Scale shape (the :func:`percentile_rank` pattern, doubled): one
    corpus pass merges tagged per-batch value counts
    (:func:`engine.shuffle.combine`, value-bounded), the two sorted
    (value, avg-rank) CDFs broadcast once via ``ray.put`` — gated at
    ``distinct_limit`` distinct values per side — then a map-only pass
    resolves both ranks via searchsorted and folds the six sufficient
    statistics one row per block; no row-level data ever reaches the
    driver.
    """
    import ray
    from engine.shuffle import combine

    def _tagged(b: pa.Table) -> pa.Table:
        x = pc.cast(b.column(x_col), pa.float64()) \
            .to_numpy(zero_copy_only=False)
        y = pc.cast(b.column(y_col), pa.float64()) \
            .to_numpy(zero_copy_only=False)
        keep = ~(np.isnan(x) | np.isnan(y))
        k = int(keep.sum())
        return pa.table({
            "tag": pa.array(np.r_[np.zeros(k, np.int8),
                                  np.ones(k, np.int8)]),
            "v": pa.array(np.r_[x[keep], y[keep]], pa.float64())})

    cdf = combine(ds, ["tag", "v"], {"c": ("v", "count")}, derive=_tagged,
                  batch_size=batch_size).to_pandas()
    if not len(cdf):
        return pa.table({"spearman_r": pa.array([None], pa.float64()),
                         "n": pa.array([0], pa.int64())})

    def _ranks(sub):
        sub = sub.sort_values("v")
        cnt = sub["c"].to_numpy(np.float64)
        below = np.concatenate([[0.0], np.cumsum(cnt)[:-1]])
        return sub["v"].to_numpy(), below + (cnt + 1.0) / 2.0

    per_side = {t: g for t, g in cdf.groupby("tag")}
    if max(len(g) for g in per_side.values()) > distinct_limit:
        raise ValueError(
            f"distinct values exceed distinct_limit={distinct_limit}; "
            "bucket the columns or sample")
    vx, arx = _ranks(per_side[0])
    vy, ary = _ranks(per_side[1])
    ref = ray.put((vx, arx, vy, ary))

    class _Stats:
        def __init__(self, r):
            self.r = r
            self._s = None

        def __call__(self, b: pa.Table) -> pa.Table:
            if self._s is None:
                self._s = ray.get(self.r) if isinstance(
                    self.r, ray.ObjectRef) else self.r
            vx_, arx_, vy_, ary_ = self._s
            x = pc.cast(b.column(x_col), pa.float64()) \
                .to_numpy(zero_copy_only=False)
            y = pc.cast(b.column(y_col), pa.float64()) \
                .to_numpy(zero_copy_only=False)
            keep = ~(np.isnan(x) | np.isnan(y))
            rx = arx_[np.searchsorted(vx_, x[keep])]
            ry = ary_[np.searchsorted(vy_, y[keep])]
            return pa.table({
                "n": pa.array([int(keep.sum())], pa.int64()),
                "sx": pa.array([float(rx.sum())], pa.float64()),
                "sy": pa.array([float(ry.sum())], pa.float64()),
                "sxx": pa.array([float((rx * rx).sum())], pa.float64()),
                "syy": pa.array([float((ry * ry).sum())], pa.float64()),
                "sxy": pa.array([float((rx * ry).sum())], pa.float64())})

    t = combine(ds, [], {c: (c, "sum") for c in
                         ("n", "sx", "sy", "sxx", "syy", "sxy")},
                derive=_Stats(ref), batch_size=batch_size).take_all()[0]
    n = int(t["n"] or 0)
    r = None
    if n >= 2:
        sx, sy = t["sx"], t["sy"]
        den2 = (n * t["sxx"] - sx * sx) * (n * t["syy"] - sy * sy)
        if den2 > 0:
            r = float((n * t["sxy"] - sx * sy) / np.sqrt(den2))
    return pa.table({"spearman_r": pa.array([r], pa.float64()),
                     "n": pa.array([n], pa.int64())})


def corr_matrix(ds, *, cols: Sequence[str], batch_size=None):
    """All pairwise Pearson correlations between numeric columns in ONE
    corpus pass — ``corr(x, y)`` per unordered pair with SQL's PAIRWISE
    NULL exclusion (each pair keeps rows where BOTH sides are non-NULL).
    Returns (col_x, col_y, r, n) with col_x < col_y; r is NULL when
    n < 2 or either side is constant.

    Scale shape: each block collapses to C(k, 2) sufficient-statistic
    rows (n, sx, sy, sxx, syy, sxy), merged by pair
    (:func:`engine.shuffle.combine`), so the shuffle is pairs x blocks
    rows regardless of corpus size; the final divide is vectorized.
    """
    from engine.shuffle import combine, finish
    pairs = [(a, b) for i, a in enumerate(cols) for b in cols[i + 1:]]
    stats = ("n", "sx", "sy", "sxx", "syy", "sxy")

    def _pair_stats(t: pa.Table) -> pa.Table:
        arr = {c: pc.cast(t.column(c), pa.float64())
               .to_numpy(zero_copy_only=False) for c in cols}
        rows = {s: [] for s in stats}
        for a, b in pairs:
            x, y = arr[a], arr[b]
            keep = ~(np.isnan(x) | np.isnan(y))
            xs, ys = x[keep], y[keep]
            for s, v in zip(stats, (keep.sum(), xs.sum(), ys.sum(),
                                    (xs * xs).sum(), (ys * ys).sum(),
                                    (xs * ys).sum())):
                rows[s].append(v)
        return pa.table({
            "col_x": pa.array([a for a, _ in pairs], pa.string()),
            "col_y": pa.array([b for _, b in pairs], pa.string()),
            "n": pa.array(rows["n"], pa.int64()),
            **{s: pa.array(rows[s], pa.float64()) for s in stats[1:]}})

    def _final(b: pa.Table) -> pa.Table:
        n = b.column("n").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        sx, sy, sxx, syy, sxy = (
            b.column(c).to_numpy(zero_copy_only=False) for c in stats[1:])
        with np.errstate(invalid="ignore", divide="ignore"):
            den2 = (n * sxx - sx * sx) * (n * syy - sy * sy)
            r = np.where((n >= 2) & (den2 > 0),
                         (n * sxy - sx * sy) / np.sqrt(den2), np.nan)
        return pa.table({
            "col_x": b.column("col_x"), "col_y": b.column("col_y"),
            "r": pa.array(r, pa.float64(), mask=np.isnan(r)),
            "n": b.column("n")})

    return finish(combine(ds, ["col_x", "col_y"],
                          {s: (s, "sum") for s in stats},
                          derive=_pair_stats, batch_size=batch_size),
                  _final)


def grouped_quantile_buckets(ds, *, group_col: str, value_col: str,
                             id_col: str, batch_size: int = 65536):
    """Equal-frequency quartile bucket (1..4) of each row WITHIN its
    group — per-group exact linear-interpolated fences
    (``quantile_cont`` parity), bucket = 1 + (v > q1) + (v > q2) +
    (v > q3). NULL values / NULL groups drop. Returns
    (id, group, bucket). The global sibling is :func:`quantile_buckets`.

    Scale shape: one :func:`engine.shuffle.by_key` shuffle co-locates
    whole groups; fences are computed IN the partition (grouped
    ``transform('quantile')``, one call per group) and the bucket assign
    happens in the same vectorized pass — no fence join or broadcast.
    """
    import pandas as pd
    from engine.shuffle import by_key
    cols = [id_col, group_col, value_col]

    def _assign(df):
        g = df.groupby(group_col, sort=False)[value_col]
        v = df[value_col].to_numpy(np.float64)
        bucket = np.ones(len(df), dtype=np.int64)
        for q in (0.25, 0.5, 0.75):
            bucket += (v > g.transform("quantile", q)
                       .to_numpy(np.float64)).astype(np.int64)
        return pd.DataFrame({id_col: df[id_col].to_numpy(),
                             group_col: df[group_col].to_numpy(),
                             "bucket": bucket})

    return by_key(ds, group_col, _assign, null_keys="drop",
                  prep=lambda df: df[cols].dropna(subset=[value_col]),
                  batch_size=batch_size,
                  empty=pd.DataFrame({id_col: [], group_col: [],
                                      "bucket": pd.array([],
                                                         dtype="int64")}))


def grouped_mad(ds, *, group_col: str, value_col: str,
                batch_size: int = 65536):
    """Per-group median absolute deviation (plus the count) — ``median(
    abs(v - median(v)))`` with continuous-interpolation medians
    (``median``/``quantile_cont`` parity). NULL values / NULL groups
    drop. Returns (group, mad, n). The global robust-z sibling is
    :func:`robust_zscore`.

    Scale shape: :func:`engine.shuffle.by_key` (only (group, value) rows
    shuffle once); both selection passes are grouped pandas kernels
    inside the partition — no second corpus pass, no fence join.
    """
    import pandas as pd
    from engine.shuffle import by_key

    def _mad(df):
        g = df.groupby(group_col, sort=False)[value_col]
        med = g.transform("median").to_numpy(np.float64)
        dev = pd.Series(np.abs(df[value_col].to_numpy(np.float64)
                               - med))
        gg = dev.groupby(df[group_col], sort=False)
        out = pd.DataFrame({"mad": gg.median().to_numpy(np.float64),
                            "n": gg.size().to_numpy(np.int64)})
        out.insert(0, group_col, gg.median().index.to_numpy())
        return out

    return by_key(ds, group_col, _mad, null_keys="drop",
                  prep=lambda df: df[[group_col, value_col]]
                  .dropna(subset=[value_col]),
                  batch_size=batch_size,
                  empty=pd.DataFrame({group_col: [], "mad": [],
                                      "n": pd.array([], dtype="int64")}))


def pareto_share(ds, *, key_col: str, value_col: str,
                 top_frac: float = 0.2, batch_size: int = 65536):
    """Pareto concentration: the share of the total value held by the
    top ``ceil(top_frac * n)`` keys ranked by their value sum — the
    "do 20% of customers drive 80% of revenue" metric. NULL keys /
    values drop. Returns ONE row (top_share, n_keys); NULL share when
    the total is zero or there are no keys.

    Scale shape: the per-key sums come from
    :func:`engine.shuffle.combine` (bounded at the key count); the rank
    cutoff reduce runs worker-side over ONE coalesced block of that
    bounded aggregate (same pattern as mutual_information). For key
    counts that outgrow a single worker block, use a quantile fence from
    ``exact_quantiles`` instead — documented trade-off, not a silent
    cap.
    """
    from engine.shuffle import combine, finish, not_null

    def _values(b: pa.Table) -> pa.Table:
        v = pc.cast(b.column(value_col), pa.float64())
        keep = not_null(v)
        return pa.table({key_col: b.column(key_col).filter(keep),
                         "v": v.filter(keep)})

    def _share(t: pa.Table) -> pa.Table:
        v = np.sort(t.column("v").to_numpy(zero_copy_only=False))[::-1]
        n = len(v)
        k = int(np.ceil(top_frac * n))
        tot = v.sum()
        share = float(v[:k].sum() / tot) if tot != 0.0 else None
        return pa.table({"top_share": pa.array([share], pa.float64()),
                         "n_keys": pa.array([n], pa.int64())})

    sums = combine(ds, key_col, {"v": ("v", "sum")}, derive=_values,
                   batch_size=batch_size)
    return finish(sums, _share, one_block=True)


def grouped_count_mean(ds, *, group_cols: Sequence[str], value_col: str,
                       batch_size=None):
    """Count + mean of a value per MULTI-column group — the generic
    profile aggregate ((source, lang) -> doc count + mean length). Rows
    with any NULL group member or NULL value drop. Returns
    (*group_cols, n, mean).

    Same sufficient-statistics shape as :func:`grouped_weighted_mean`:
    per-block (n, s) partials (:func:`engine.shuffle.combine`), a
    (group-tuple)-bounded merge and a vectorized final divide.
    """
    from engine.shuffle import combine, finish, not_null
    gcols = list(group_cols)

    def _values(b: pa.Table) -> pa.Table:
        v = pc.cast(b.column(value_col), pa.float64())
        keep = not_null(v)
        return pa.table({**{c: b.column(c).filter(keep) for c in gcols},
                         "v": v.filter(keep)})

    def _final(b: pa.Table) -> pa.Table:
        n = b.column("n").to_numpy(zero_copy_only=False)
        s = b.column("s").to_numpy(zero_copy_only=False)
        return b.select(gcols + ["n"]).append_column(
            "mean", pa.array(s / n, pa.float64()))

    return finish(combine(ds, gcols, {"n": ("v", "count"),
                                      "s": ("v", "sum")},
                          derive=_values, batch_size=batch_size), _final)
