"""Relational pipelines: partial-aggregate groupbys, broadcast joins, windowed
event aggregates — the generic query surface (every one DuckDB-checkable).

Patterns (the point, at 100 TB):
* groupbys pre-aggregate per batch (few groups -> each batch collapses to
  group-count rows) before the small shuffle (``shuffle.combine``);
* every join goes through ``shuffle.join``: a small dimension table
  broadcasts once and joins map-only, never a data-data shuffle join;
* event windows bucket by ``date_trunc`` inside the batch then groupby the
  (already tiny) bucket rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _us(col):
    """``col`` as ``timestamp[us]``: pandas inputs carry ns, and an
    all-NaT pandas column arrives in Arrow as the NULL type."""
    return pc.cast(col, pa.timestamp("us"), safe=False)


def _seconds(arr):
    """A time array as float64 seconds: ``datetime64`` of any unit as
    seconds since the epoch, anything numeric as itself."""
    if np.issubdtype(arr.dtype, np.datetime64):
        return arr.astype("datetime64[ns]").astype(np.int64) / 1e9
    return arr.astype(np.float64)


def _valid_keys(ds, key: str):
    """``ds`` without its rows whose ``key`` is NULL (they never match)."""
    def _valid(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_valid(b.column(key)))

    return ds.map_batches(_valid, batch_format="pyarrow")


def _key_rows(*sides):
    """Each ``(ds, key)`` dimension side of a lookup, materialized
    without its NULL-key rows (:func:`_valid_keys`), or None when a side
    has no row left: the caller returns its typed empty result, since an
    empty table's ``to_pandas()`` has no columns."""
    out = []
    for ds, key in sides:
        side = _valid_keys(ds, key).materialize()
        if not side.count():
            return None
        out.append(side)
    return out


def q1_pricing_summary(lineitem_ds, *, batch_size: int = 65536,
                       concurrency=None):
    """TPC-H Q1-style multi-aggregate groupby over lineitem."""
    from engine.shuffle import combine, finish
    keys = ["l_returnflag", "l_linestatus"]

    def _lines(b: pa.Table) -> pa.Table:
        price = b.column("l_extendedprice")
        return pa.table({
            **{k: b.column(k) for k in keys},
            "qty": b.column("l_quantity"), "price": price,
            "disc_price": pc.multiply(
                price, pc.subtract(1.0, b.column("l_discount")))})

    def _final(b: pa.Table) -> pa.Table:
        cnt = pc.cast(b.column("count_order"), pa.float64())
        return b.select(keys + ["sum_qty", "sum_base_price",
                                "sum_disc_price"]) \
            .append_column("avg_qty", pc.divide(b.column("sum_qty"), cnt)) \
            .append_column("count_order", b.column("count_order"))

    return finish(combine(lineitem_ds, keys, {
        "sum_qty": ("qty", "sum"), "sum_base_price": ("price", "sum"),
        "sum_disc_price": ("disc_price", "sum"),
        "count_order": ("l_returnflag", "count")},
        derive=_lines, batch_size=batch_size, concurrency=concurrency),
        _final)


def revenue_by_segment(orders_ds, customer_ds, *, batch_size: int = 65536,
                       concurrency=None):
    """orders x customer join -> revenue per market segment.

    The order rows join the dimension on custkey
    (:func:`engine.shuffle.join`: a small customer table broadcasts, a
    large one — it scales with the corpus, TPC-H customer = 0.15N —
    hash-joins) and the (tiny) per-segment
    :func:`engine.shuffle.combine` finishes; the dimension never touches
    the driver as a dict. A projection (not a map) keeps the order side
    typed when it is empty, so the result is typed too.
    """
    from engine.shuffle import combine, join

    joined = join(orders_ds.select_columns(["o_custkey", "o_totalprice"]),
                  customer_ds.select_columns(["c_custkey", "c_mktsegment"]),
                  "o_custkey", right_on="c_custkey")
    return combine(joined, "c_mktsegment", {
        "revenue": ("o_totalprice", "sum"),
        "n_orders": ("c_mktsegment", "count")},
        batch_size=batch_size, concurrency=concurrency)


def events_per_user_hour(events_ds, *, batch_size: int = 65536,
                         concurrency=None):
    """Windowed aggregate: events bucketed to (user, hour) with count +
    value sum (streaming-friendly: buckets partial-aggregated per batch).
    The (user, hour) partials then co-locate by user
    (:func:`engine.shuffle.by_key`) and ONE vectorized pandas aggregation
    finishes each partition — Ray's per-group reduce over ~10^5 groups
    was the dominant cost of this window at sf0.1."""

    import pandas as pd

    from engine.shuffle import by_key

    def _partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts")
        hour = pc.floor_temporal(ts, unit="hour")
        df = pd.DataFrame({
            "user_id": batch.column("user_id").to_numpy(
                zero_copy_only=False),
            "hour": hour.to_numpy(zero_copy_only=False),
            "value": batch.column("value").to_numpy(zero_copy_only=False),
        })
        g = df.groupby(["user_id", "hour"], sort=False).agg(
            n_events=("value", "size"),
            value_sum=("value", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    def _sum_part(df):
        g = df.groupby(["user_id", "hour"], as_index=False).agg(
            n_events=("n_events", "sum"), value_sum=("value_sum", "sum"))
        g["n_events"] = g["n_events"].astype("int64")
        # pandas produced ns; emit us to match SQL date_trunc exactly
        g["hour"] = g["hour"].astype("datetime64[us]")
        return g[["user_id", "hour", "n_events", "value_sum"]]

    partials = events_ds.map_batches(
        _partial, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, concurrency=concurrency)
    return by_key(partials, "user_id", _sum_part, empty=pd.DataFrame(
        {"user_id": [], "hour": [], "n_events": [], "value_sum": []}))


def sessionize(events_ds, *, gap_minutes: int = 30, batch_size: int = 65536):
    """Gap-based sessionization: events of one user sorted by time; a gap
    > ``gap_minutes`` starts a new session. Shuffle key = user_id (each
    user's events must be co-located and ordered — the documented
    partitioning assumption). NULL users are one user, as in SQL
    ``PARTITION BY``.

    :func:`session_aggregate`'s kernel without the value columns.
    Output: (user_id, session_id, n_events, session_start, session_end).
    """
    return _sessions(events_ds, gap_minutes, None, batch_size)


def session_aggregate(events_ds, *, gap_minutes: int = 30,
                      val_col: str = "value", batch_size: int = 65536):
    """Gap-based sessions WITH per-session value aggregates: each
    session also reports its value SUM and non-NULL value count, from
    boundary-difference prefix sums in the same vectorized pass (no
    second shuffle, no per-session loop).

    Whole users co-locate sorted by (user, ts) (:func:`engine.shuffle.by_key`
    with ``order``) and ONE vectorized UDF sessionizes a whole
    partition: sessions break where the user changes
    (:func:`engine.shuffle.key_starts`, so NULL users are one user) or
    the gap exceeds the threshold.

    SQL aggregate NULL semantics: NULL values contribute nothing; an
    all-NULL session reports ``value_sum`` NULL and ``n_values`` 0.
    Output: (user_id, session_id, n_events, session_start, session_end,
    value_sum, n_values).
    """
    return _sessions(events_ds, gap_minutes, val_col, batch_size)


def _sessions(events_ds, gap_minutes, val_col, batch_size):
    """The one gap-session kernel of :func:`sessionize` (``val_col``
    None: no value columns) and :func:`session_aggregate`."""
    import pandas as pd

    from engine.shuffle import by_key, key_starts

    gap = np.timedelta64(gap_minutes * 60, "s")
    cols = ["user_id", "ts"] + ([val_col] if val_col else [])
    out_cols = ["user_id", "session_id", "n_events", "session_start",
                "session_end"] + (["value_sum", "n_values"] if val_col
                                  else [])

    def _sessions_part(df: "pd.DataFrame") -> "pd.DataFrame":
        ts = df["ts"].to_numpy()
        uid = df["user_id"].to_numpy()
        user_start = key_starts(uid)
        # SQL: a row whose previous ts is NULL starts a session; a NULL
        # ts after a non-NULL one joins its session (NULL > gap is not
        # true). NULL ts sort last in a user, so a session holds at most
        # one NULL ts, as its last row, or is one NULL-ts row.
        new_session = (user_start == np.arange(len(ts))) \
            | np.r_[False, np.isnat(ts[:-1]) | ((ts[1:] - ts[:-1]) > gap)]
        sid_global = np.cumsum(new_session)
        sid = sid_global - sid_global[user_start] + 1
        s_start = np.flatnonzero(new_session)
        s_end = np.r_[s_start[1:], len(ts)]
        last = s_end - 1
        last -= np.isnat(ts[last]) & (last > s_start)  # max of non-NULL ts
        out = pd.DataFrame({
            "user_id": uid[s_start],
            "session_id": sid[s_start].astype("int64"),
            "n_events": (s_end - s_start).astype("int64"),
            # us precision to match SQL timestamps exactly
            "session_start": ts[s_start].astype("datetime64[us]"),
            "session_end": ts[last].astype("datetime64[us]"),
        })
        if val_col:
            v = df[val_col].to_numpy().astype(np.float64)
            ok = ~np.isnan(v)
            cs = np.concatenate([[0.0], np.cumsum(np.where(ok, v, 0.0))])
            cn = np.concatenate([[0], np.cumsum(ok.astype(np.int64))])
            cnts = cn[s_end] - cn[s_start]
            out["value_sum"] = np.where(cnts > 0, cs[s_end] - cs[s_start],
                                        np.nan)
            out["n_values"] = cnts
        return out

    return by_key(events_ds.select_columns(cols), "user_id", _sessions_part,
                  order=["ts"], batch_size=batch_size,
                  empty=pd.DataFrame({c: [] for c in out_cols}))


def top_event_types(events_ds, *, k: int = 5, batch_size: int = 65536):
    """Global top-k event types by count (partial counts -> tiny sort)."""
    from engine.shuffle import combine
    counts = combine(events_ds, "event_type",
                     {"n_events": ("event_type", "count")},
                     derive=lambda b: b.select(["event_type"]),
                     batch_size=batch_size)
    return counts.sort(["n_events", "event_type"],
                       descending=[True, False]).limit(k)


def grouped_topk(ds, *, group_col: str, score_col: str, id_col: str,
                 k: int = 5, ascending: bool = False,
                 batch_size: int = 65536):
    """Top-``k`` rows per group by ``score_col`` (ties broken by
    ``id_col`` ascending — fully deterministic, SQL ``row_number()``
    parity).

    Scale shape: an in-batch per-group top-k combiner bounds the shuffle at
    (groups x k) rows per block — the corpus itself never shuffles; the
    final pass co-locates whole groups (:func:`engine.shuffle.by_key`)
    and runs ONE vectorized sort-and-head per partition, not one pandas
    call per group. A single hot group costs O(blocks x k) final rows, so
    skew is bounded by design.
    """
    import pandas as pd
    from engine.shuffle import by_key
    by = [group_col, score_col, id_col]
    order = [True, ascending, True]

    def _topk(df):
        return df[by].sort_values(by, ascending=order, kind="mergesort") \
            .groupby(group_col, sort=False).head(k)

    return by_key(ds, group_col, _topk, prep=_topk, batch_size=batch_size,
                  empty=pd.DataFrame({c: [] for c in by}))


def _range_window(ds, out, empty, *, key_col, ts_col, val_col, id_col,
                  window_seconds, batch_size):
    """Shared RANGE-frame shape of the rolling-window operators: whole
    keys co-locate sorted by (key, ts, id) (:func:`engine.shuffle.by_key`
    with ``order``), then ONE vectorized pass per partition finds every
    row's trailing-window frame with one ``np.searchsorted`` pair over a
    monotone composite timestamp (each key's times shifted into a
    disjoint range separated by more than the window) — no per-key
    Python loop. Tie peers at the current row's timestamp are included
    (``side="right"``), matching SQL RANGE frames. ``out(v, j, e)``
    reduces the float64 values ``v`` over each row i's frame
    ``v[j[i]:e[i]]`` to the output columns next to ``id_col``.

    NULL-ts contract: rows with a NULL timestamp are DROPPED before the
    shuffle — they have no place on a RANGE axis, and the NaT->int64
    sentinel (-2**63) would otherwise break the composite's
    monotonicity and corrupt every frame in the partition. NULL KEYS
    group as ONE partition, exactly like SQL ``PARTITION BY``
    (:func:`engine.shuffle.key_starts`).
    """
    import pandas as pd
    from engine.shuffle import by_key, key_starts
    cols = [id_col, key_col, ts_col, val_col]

    def _roll(sub):
        t = _seconds(sub[ts_col].to_numpy())
        new_key = key_starts(sub[key_col].to_numpy()) == np.arange(len(sub))
        span = (t.max() - t.min()) + window_seconds + 1.0
        m = (np.cumsum(new_key) - 1) * span + (t - t.min())
        j = np.searchsorted(m, m - window_seconds, side="left")
        e = np.searchsorted(m, m, side="right")
        return pd.DataFrame({id_col: sub[id_col].to_numpy(),
                             **out(sub[val_col].to_numpy()
                                   .astype(np.float64), j, e)})

    return by_key(ds, key_col, _roll,
                  prep=lambda df: df.loc[df[ts_col].notna(), cols],
                  order=[ts_col, id_col], batch_size=batch_size, empty=empty)


def _range_sums(v, j, e):
    """Non-NULL value sum and count of each frame ``v[j[i]:e[i]]``, from
    prefix sums."""
    ok = ~np.isnan(v)
    cs = np.concatenate([[0.0], np.cumsum(np.where(ok, v, 0.0))])
    cw = np.concatenate([[0], np.cumsum(ok.astype(np.int64))])
    return cs[e] - cs[j], cw[e] - cw[j]


def rolling_window_mean(ds, *, key_col: str = "user_id",
                        ts_col: str = "ts", val_col: str = "value",
                        id_col: str = "event_id",
                        window_seconds: float = 3 * 3600,
                        batch_size: int = 65536):
    """Per-key rolling mean over a trailing time window — SQL ``avg(...)
    OVER (PARTITION BY key ORDER BY ts RANGE BETWEEN <w> PRECEDING AND
    CURRENT ROW)`` semantics, including tie peers at the current row's
    timestamp and NULL-skipping averages. NULL-ts rows are dropped.

    Scale shape: :func:`_range_window` (one :func:`engine.shuffle.by_key`
    on the key, one vectorized pass per partition).
    """
    import pandas as pd

    def _mean(v, j, e):
        sums, cnts = _range_sums(v, j, e)
        with np.errstate(invalid="ignore", divide="ignore"):
            return {"rolling_mean": np.where(
                cnts > 0, sums / np.maximum(cnts, 1), np.nan)}

    return _range_window(
        ds, _mean, pd.DataFrame({id_col: [], "rolling_mean": []}),
        key_col=key_col, ts_col=ts_col, val_col=val_col, id_col=id_col,
        window_seconds=window_seconds, batch_size=batch_size)


def asof_join(left, right, *, key_col: str = "user_id",
              ts_col: str = "ts", value_col: str = "value",
              left_id_col: str = "event_id", right_id_col: str = "event_id",
              batch_size: int = 65536):
    """Point-in-time (as-of) inner join: each left row matches the latest
    right row of the same key with ``right.ts <= left.ts`` — DuckDB
    ``ASOF JOIN`` semantics. Right-side (key, ts) ties dedup to the row
    with the greatest ``right_id_col`` so the match is deterministic.

    Ray Data has no asof join; this composes one from the primitives the
    repo already relies on: both sides co-partition ONCE by key
    (:func:`engine.shuffle.by_key` over their union), and one vectorized
    pass per partition matches every left row via a single
    ``searchsorted`` over the right side's monotone composite timestamp
    (each key's times shifted into disjoint ranges) — no per-key Python
    loop, no driver state. Returns (left_id, key, value) for matched
    rows.
    """
    import pandas as pd
    from engine.shuffle import by_key
    empty = pd.DataFrame({left_id_col: [], key_col: [], value_col: []})

    def _tag(side: int, id_col: str, with_val: bool):
        def _fn(df):
            return pd.DataFrame({
                "id": df[id_col].to_numpy(),
                "key": df[key_col].to_numpy(),
                "t": _seconds(df[ts_col].to_numpy()),
                "val": df[value_col].to_numpy().astype(np.float64)
                if with_val else np.full(len(df), np.nan),
                "side": np.full(len(df), side, dtype=np.int8)})
        return _fn

    def _match(df):
        l = df[df["side"] == 0]
        r = df[df["side"] == 1]
        if not len(l) or not len(r):
            return empty.copy()
        # dedup right (key, t) ties to the greatest right id, then sort
        r = r.sort_values(["key", "t", "id"], kind="mergesort") \
            .drop_duplicates(["key", "t"], keep="last")
        uk = pd.Index(pd.unique(np.concatenate(
            [r["key"].to_numpy(), l["key"].to_numpy()])))
        t_all = np.concatenate([r["t"].to_numpy(), l["t"].to_numpy()])
        tmin = t_all.min()
        span = (t_all.max() - tmin) + 1.0
        ko_r = uk.get_indexer(r["key"].to_numpy())
        ko_l = uk.get_indexer(l["key"].to_numpy())
        m_r = ko_r * span + (r["t"].to_numpy() - tmin)
        m_l = ko_l * span + (l["t"].to_numpy() - tmin)
        order = np.argsort(m_r, kind="mergesort")
        m_r = m_r[order]
        r_keys = r["key"].to_numpy()[order]
        r_vals = r["val"].to_numpy()[order]
        idx = np.searchsorted(m_r, m_l, side="right") - 1
        safe = np.clip(idx, 0, len(m_r) - 1)
        valid = (idx >= 0) & (r_keys[safe] == l["key"].to_numpy())
        return pd.DataFrame({
            left_id_col: l["id"].to_numpy()[valid],
            key_col: l["key"].to_numpy()[valid],
            value_col: r_vals[safe][valid]})

    u = left.map_batches(_tag(0, left_id_col, False),
                         batch_format="pandas", batch_size=batch_size) \
        .union(right.map_batches(_tag(1, right_id_col, True),
                                 batch_format="pandas",
                                 batch_size=batch_size))
    return by_key(u, "key", _match, empty=empty)


def interval_join(points, intervals, *, key_col: str = "user_id",
                  ts_col: str = "ts", start_col: str = "start",
                  end_col: str = "end", max_duration_s: float,
                  point_id_col: str = "event_id",
                  interval_id_col: str = "interval_id",
                  batch_size: int = 65536):
    """Range join: every (point, interval) pair of the same key with
    ``start <= ts < end`` — overlapping intervals per key emit one row per
    match.

    ``max_duration_s`` must bound every interval's length (the classic
    bounded-range-join contract; split longer intervals upstream). With
    that bound, a point's candidate intervals are exactly those whose
    start falls in ``(ts - max_duration, ts]`` — one vectorized
    searchsorted window over the start-sorted intervals per coarse key
    partition, expanded with repeat/cumsum arithmetic (no per-point
    Python loop), then filtered by ``end > ts``. Both sides shuffle once,
    by key (:func:`engine.shuffle.by_key` over their union). Returns
    (point_id, interval_id, key).
    """
    import pandas as pd
    from engine.shuffle import by_key
    empty = pd.DataFrame({point_id_col: [], interval_id_col: [],
                          key_col: []})

    def _tag_points(df):
        t = _seconds(df[ts_col].to_numpy())
        return pd.DataFrame({
            "id": df[point_id_col].to_numpy(),
            "key": df[key_col].to_numpy(), "t0": t, "t1": t,
            "side": np.zeros(len(df), dtype=np.int8)})

    def _tag_intervals(df):
        s = _seconds(df[start_col].to_numpy())
        e = _seconds(df[end_col].to_numpy())
        if len(s) and float(np.max(e - s)) > max_duration_s:
            raise ValueError("interval longer than max_duration_s; "
                             "split long intervals upstream")
        return pd.DataFrame({
            "id": df[interval_id_col].to_numpy(),
            "key": df[key_col].to_numpy(), "t0": s, "t1": e,
            "side": np.ones(len(df), dtype=np.int8)})

    def _match(df):
        p = df[df["side"] == 0]
        iv = df[df["side"] == 1]
        if not len(p) or not len(iv):
            return empty.copy()
        uk = pd.Index(pd.unique(np.concatenate(
            [iv["key"].to_numpy(), p["key"].to_numpy()])))
        t_all = np.concatenate([iv["t0"].to_numpy(), p["t0"].to_numpy()])
        tmin = t_all.min()
        span = (t_all.max() - tmin) + max_duration_s + 2.0
        m_iv = uk.get_indexer(iv["key"].to_numpy()) * span \
            + (iv["t0"].to_numpy() - tmin)
        order = np.argsort(m_iv, kind="mergesort")
        m_iv = m_iv[order]
        iv_end = iv["t1"].to_numpy()[order]
        iv_id = iv["id"].to_numpy()[order]
        iv_key = iv["key"].to_numpy()[order]
        m_p = uk.get_indexer(p["key"].to_numpy()) * span \
            + (p["t0"].to_numpy() - tmin)
        lo = np.searchsorted(m_iv, m_p - max_duration_s, side="left")
        hi = np.searchsorted(m_iv, m_p, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return empty.copy()
        rep = np.repeat(np.arange(len(p)), counts)
        offs = np.concatenate([[0], np.cumsum(counts)[:-1]])
        cand = np.arange(total) - offs[rep] + lo[rep]
        pt = p["t0"].to_numpy()[rep]
        ok = (iv_end[cand] > pt) & (iv_key[cand] == p["key"].to_numpy()[rep])
        return pd.DataFrame({
            point_id_col: p["id"].to_numpy()[rep][ok],
            interval_id_col: iv_id[cand][ok],
            key_col: p["key"].to_numpy()[rep][ok]})

    u = points.map_batches(_tag_points, batch_format="pandas",
                           batch_size=batch_size) \
        .union(intervals.map_batches(_tag_intervals, batch_format="pandas",
                                     batch_size=batch_size))
    return by_key(u, "key", _match, empty=empty)


def _revenue_by_order(lines: pa.Table) -> pa.Table:
    """One batch's lineitem revenue ``price * (1 - discount)`` summed per
    order (one Arrow ``group_by``): the in-batch partial that keeps raw
    lineitem rows out of the order join."""
    rev = pc.multiply(lines.column("l_extendedprice"),
                      pc.subtract(1.0, lines.column("l_discount")))
    g = pa.table({"o_orderkey": lines.column("l_orderkey"), "rev": rev}) \
        .group_by("o_orderkey", use_threads=False).aggregate([("rev", "sum")])
    return pa.table({"o_orderkey": g.column("o_orderkey"),
                     "rev": g.column("rev_sum")})


def q3_shipping_priority(lineitem_ds, orders_ds, customer_ds, *,
                         segment: str = "BUILDING",
                         cutoff: str = "1998-06-01", k: int = 10,
                         batch_size: int = 65536, concurrency=None):
    """TPC-H Q3 shape: top-k orders by revenue for one market segment.

    Scale shape — two :func:`engine.shuffle.join` calls (each broadcasts
    a small right side and hash-joins a large one):

    1. the date-filtered orders join the segment customers on custkey
       (the segment is ~N/5 customers, unbounded in the corpus); only
       (o_orderkey, o_orderdate) survive;
    2. lineitem is filtered + pre-aggregated per l_orderkey INSIDE
       ``map_batches`` (one Arrow ``group_by`` per batch), so the join
       moves one partial revenue row per (orderkey x batch), never raw
       lineitem rows;
    3. :func:`engine.shuffle.join` on orderkey;
    4. :func:`engine.shuffle.combine` merges the joined partials per
       (orderkey, orderdate);
       top-k via DISTRIBUTED sort + limit — the driver only ever sees the
       k result rows, not the full aggregate.
    """
    from engine.shuffle import combine, finish, join

    cutoff64 = np.datetime64(cutoff, "us")

    def _final(b: pa.Table) -> pa.Table:
        rev = b.column("rev").to_numpy(zero_copy_only=False)
        rev = np.sign(rev) * np.floor(np.abs(rev) * 1e4 + 0.5) / 1e4
        return pa.table({
            "l_orderkey": b.column("o_orderkey"),
            "o_orderdate": pc.cast(b.column("o_orderdate"),
                                   pa.timestamp("us")),
            "revenue": pa.array(rev, pa.float64())})

    empty = _final(pa.table({
        "o_orderkey": pa.array([], pa.int64()),
        "o_orderdate": pa.array([], pa.timestamp("us")),
        "rev": pa.array([], pa.float64())})).to_pandas()
    sides = _key_rows((customer_ds.map_batches(
        lambda b: b.filter(pc.equal(b.column("c_mktsegment"), segment))
        .select(["c_custkey"]), batch_format="pyarrow"), "c_custkey"))
    if sides is None:
        return empty
    (cust,) = sides

    def _date_filter(b: pa.Table) -> pa.Table:
        od = pc.cast(b.column("o_orderdate"), pa.timestamp("us")) \
            .to_numpy(zero_copy_only=False)
        sub = b.filter(pa.array(od < cutoff64))
        return pa.table({"o_custkey": sub.column("o_custkey"),
                         "o_orderkey": sub.column("o_orderkey"),
                         "o_orderdate": pc.cast(sub.column("o_orderdate"),
                                                pa.timestamp("us"))})

    dated = orders_ds.map_batches(_date_filter, batch_format="pyarrow",
                                  zero_copy_batch=True,
                                  batch_size=batch_size,
                                  concurrency=concurrency)

    orders = join(dated, cust, "o_custkey", right_on="c_custkey") \
        .select_columns(["o_orderkey", "o_orderdate"])

    def _li_partial(b: pa.Table) -> pa.Table:
        sd = pc.cast(b.column("l_shipdate"), pa.timestamp("us")) \
            .to_numpy(zero_copy_only=False)
        sub = b.filter(pa.array(sd > cutoff64))
        return _revenue_by_order(sub)

    li = lineitem_ds.map_batches(_li_partial, batch_format="pyarrow",
                                 zero_copy_batch=True,
                                 batch_size=batch_size,
                                 concurrency=concurrency)

    out = finish(combine(join(li, orders, "o_orderkey"),
                         ["o_orderkey", "o_orderdate"],
                         {"rev": ("rev", "sum")}), _final)
    # distributed top-k: the qualifying (orderkey, orderdate) aggregate is
    # ~10^7-10^8 rows at 100x — sort().limit(k) keeps it off the driver
    top = out.sort(["revenue", "o_orderdate", "l_orderkey"],
                   descending=[True, False, False]).limit(k).to_pandas()
    # an empty sort result has no columns
    return top.reset_index(drop=True) if len(top) else empty


def count_distinct(ds, *, group_col: str, value_col: str,
                   batch_size: int = 65536):
    """Exact distinct ``value_col`` count per ``group_col`` — the two-level
    shape that survives 10^12 rows: an in-batch (group, value) dedup
    combiner, a distinct pass over (group, value) pairs co-located by pair
    hash (:func:`engine.shuffle.by_key` on the ``_pair`` column), then a
    per-group :func:`engine.shuffle.combine` of the partition counts. The
    raw corpus collapses to distinct pairs before anything shuffles, and
    no stage ever holds a per-group value set in one task.
    """
    import pandas as pd
    import ray.data
    from engine.sketches import hash64
    from engine.shuffle import by_key, column_dtype, combine

    def _pairs(df):
        sub = df[[group_col, value_col]].dropna().drop_duplicates()
        with np.errstate(over="ignore"):
            h = hash64(sub[group_col].to_numpy()) \
                ^ hash64(sub[value_col].to_numpy(), 13)
        return sub.assign(_pair=h.view(np.int64))

    def _dedup_count(df):
        d = df.drop_duplicates([group_col, value_col])
        g = d.groupby(group_col, as_index=False).size()
        return pd.DataFrame({group_col: g[group_col].to_numpy(),
                             "n": g["size"].to_numpy().astype(np.int64)})

    partials = by_key(ds, "_pair", _dedup_count, prep=_pairs,
                      batch_size=batch_size, empty=pd.DataFrame(
                          {group_col: [], "n": pd.array([], dtype="int64")}))
    # an empty by_key output has no schema, or a pandas-guessed one: the
    # typed zero-row seed, first in the union, types an empty result
    seed = ray.data.from_arrow(pa.table(
        {group_col: pa.array([], column_dtype(ds, group_col)),
         "n": pa.array([], pa.int64())}))
    return combine(seed.union(partials), group_col,
                   {"n_distinct": ("n", "sum")})


def ewma(ds, *, key_col: str = "user_id", ts_col: str = "ts",
         val_col: str = "value", id_col: str = "event_id",
         alpha: float = 0.3, batch_size: int = 65536):
    """Per-key exponentially weighted moving average in event order
    (``y_1 = v_1``, ``y_n = alpha*v_n + (1-alpha)*y_{n-1}``; order =
    (ts, id) within key) — the online feature a streaming scorer keeps.

    Whole keys co-locate (:func:`engine.shuffle.by_key`) and pandas'
    grouped EWM Cython kernel runs ONCE per partition across all its keys
    (a single C pass, not one Python call per key). Returns (id, ewma).

    NULL contract: rows with a NULL value are DROPPED before the
    recurrence (they emit no output row and do not advance the state) —
    SQL parity is ``WHERE val IS NOT NULL`` before the recursive CTE.
    Without the drop, pandas' ewm would carry-and-reweight past a NaN
    while the SQL recurrence would poison every later row of the key.
    NULL-KEY rows are dropped too (``AND key IS NOT NULL``): the
    recursive-CTE oracle's ``s.key = e.key`` join can never extend a
    NULL-key chain, and pandas' NaN-dropping groupby would otherwise
    emit a SHORTER ewm series than the sorted frame and crash the
    output constructor in the worker.
    """
    import pandas as pd
    from engine.shuffle import by_key
    cols = [id_col, key_col, ts_col, val_col]

    def _ewm(sub):
        y = sub.groupby(key_col, sort=False)[val_col] \
            .ewm(alpha=alpha, adjust=False).mean() \
            .reset_index(level=0, drop=True).sort_index()
        return pd.DataFrame({id_col: sub[id_col].to_numpy(),
                             "ewma": y.to_numpy()})

    return by_key(ds, key_col, _ewm, null_keys="drop",
                  prep=lambda df: df[cols].dropna(subset=[val_col]),
                  order=[ts_col, id_col], batch_size=batch_size,
                  empty=pd.DataFrame({id_col: [], "ewma": []}))


def ewma_halflife(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                  val_col: str = "value", id_col: str = "event_id",
                  halflife_seconds: float = 3600.0,
                  batch_size: int = 65536):
    """Per-key TIME-DECAYED exponentially weighted mean: the weight of an
    observation halves every ``halflife_seconds`` of elapsed time, so
    irregular event gaps decay correctly (a 3-day-old click matters less
    than one from 3 seconds ago regardless of how many rows sit between).

    ``y_n = sum_i 0.5^((t_n-t_i)/h) * v_i / sum_i 0.5^((t_n-t_i)/h)``
    (pandas ``ewm(halflife=Timedelta, times=...)`` semantics), computed by
    the incremental recurrence ``w' = w * 0.5^(dt/h); y_n = (w'*y_{n-1} +
    v_n)/(w'+1); w = w'+1`` — the same op order a recursive-CTE oracle can
    replay, so parity holds to float ulps.

    Shape: :func:`engine.shuffle.by_key`, then pandas' grouped time-EWM
    Cython kernel once per partition. NULL contract: rows with NULL
    value, NULL timestamp OR NULL key are dropped before the recurrence
    (``WHERE val IS NOT NULL AND ts IS NOT NULL AND key IS NOT NULL`` —
    see :func:`ewma` for the NULL-key rationale). Returns (id, ewma_hl).
    """
    import pandas as pd
    from engine.shuffle import by_key
    cols = [id_col, key_col, ts_col, val_col]
    hl = pd.Timedelta(seconds=halflife_seconds)

    def _ewm(sub):
        y = sub.groupby(key_col, sort=False)[val_col] \
            .ewm(halflife=hl, times=sub[ts_col]).mean() \
            .reset_index(level=0, drop=True).sort_index()
        return pd.DataFrame({id_col: sub[id_col].to_numpy(),
                             "ewma_hl": y.to_numpy()})

    return by_key(ds, key_col, _ewm, null_keys="drop",
                  prep=lambda df: df[cols].dropna(subset=[val_col, ts_col]),
                  order=[ts_col, id_col], batch_size=batch_size,
                  empty=pd.DataFrame({id_col: [], "ewma_hl": []}))


def lag_diff(ds, *, key_col: str = "user_id", ts_col: str = "ts",
             val_col: str = "value", id_col: str = "event_id",
             batch_size: int = 65536):
    """Per-key first difference in event order: ``v_n - v_{n-1}`` over
    rows ordered by (ts, id) within key — ``value - LAG(value) OVER
    (PARTITION BY key ORDER BY ts, id)`` parity. The first row of each
    key (and any row whose neighbor value is NULL) reports NULL.

    NULL keys group as ONE partition (``dropna=False``), exactly like SQL
    ``PARTITION BY`` — without it pandas' groupby silently excludes
    NaN-key rows and every NULL-key row would report NULL instead of its
    in-partition diff.

    Shape: :func:`engine.shuffle.by_key`, then one vectorized
    ``groupby(...).diff()`` Cython pass per partition. Returns
    (id, lag_diff).
    """
    import pandas as pd
    from engine.shuffle import by_key
    cols = [id_col, key_col, ts_col, val_col]

    def _diff(sub):
        d = sub.groupby(key_col, sort=False, dropna=False)[val_col].diff()
        return pd.DataFrame({id_col: sub[id_col].to_numpy(),
                             "lag_diff": d.to_numpy()})

    return by_key(ds, key_col, _diff, prep=lambda df: df[cols],
                  order=[ts_col, id_col], batch_size=batch_size,
                  empty=pd.DataFrame({id_col: [], "lag_diff": []}))


def q5_local_supplier_volume(lineitem_ds, orders_ds, customer_ds,
                             supplier_ds, nation_ds, region_ds, *,
                             region_name: str = "ASIA",
                             date_lo: str = "1996-01-01",
                             date_hi: str = "1997-01-01",
                             batch_size: int = 65536):
    """TPC-H Q5: revenue per nation from lineitems where the customer and
    the supplier share a nation in ``region_name``, for one order year.

    Join orchestration at scale: region/nation are O(10^2) rows always
    (driver-safe); the year's orders attach the customer nation, the
    lineitems those orders, then the supplier nation, each through
    :func:`engine.shuffle.join` (a small right side broadcasts, a large
    one hash-joins on aggregators sized to cluster CPUs). Revenue merges
    per nation in one :func:`engine.shuffle.combine` over the post-join
    batches, so the shuffle sees nation-count rows.
    """
    import ray.data
    from engine.shuffle import combine, finish, join

    def _final(b: pa.Table) -> pa.Table:
        nk = b.column("nkey").to_numpy(zero_copy_only=False)
        names = [name_of.get(int(k), "") for k in nk]
        return pa.table({"n_name": pa.array(names, pa.string()),
                         "revenue": b.column("rev")})

    def _revenue(partials, derive=None):
        # the typed empty comes first: a join of an empty side that a map
        # produced is empty and carries no schema
        return finish(empty.union(combine(partials, "nkey", {
            "rev": ("rev", "sum")}, derive=derive)), _final)

    name_of = {}  # the region's nations, set below
    empty = ray.data.from_arrow(pa.table({
        "nkey": pa.array([], pa.int64()), "rev": pa.array([], pa.float64())}))
    dims = _key_rows((nation_ds, "n_nationkey"), (region_ds, "r_regionkey"))
    if dims is None:
        return _revenue(empty)
    nat, reg = (d.to_pandas() for d in dims)
    rkeys = set(reg[reg["r_name"] == region_name]["r_regionkey"])
    nat_in = nat[nat["n_regionkey"].isin(rkeys)]
    nation_keys = set(int(k) for k in nat_in["n_nationkey"])
    name_of = dict(zip(nat_in["n_nationkey"].astype(int),
                       nat_in["n_name"]))
    lo = np.datetime64(date_lo)
    hi = np.datetime64(date_hi)

    def _ofilter(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate").to_numpy(zero_copy_only=False)
        keep = (d >= lo) & (d < hi)
        sub = b.filter(pa.array(keep))
        return pa.table({
            "o_orderkey": pc.cast(sub.column("o_orderkey"), pa.int64()),
            "o_custkey": pc.cast(sub.column("o_custkey"), pa.int64())})

    of = orders_ds.map_batches(_ofilter, batch_format="pyarrow",
                               batch_size=batch_size)

    def _oc(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "cnat": pc.cast(b.column("c_nationkey"), pa.int64())})

    oc = join(of, customer_ds.select_columns(
        ["c_custkey", "c_nationkey"]), "o_custkey",
        right_on="c_custkey").map_batches(_oc, batch_format="pyarrow")

    def _lpartial(b: pa.Table) -> pa.Table:
        price = b.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = b.column("l_discount").to_numpy(zero_copy_only=False)
        return pa.table({
            "l_orderkey": pc.cast(b.column("l_orderkey"), pa.int64()),
            "l_suppkey": pc.cast(b.column("l_suppkey"), pa.int64()),
            "rev": pa.array(price * (1.0 - disc), pa.float64())})

    li = lineitem_ds.map_batches(_lpartial, batch_format="pyarrow",
                                 batch_size=batch_size)
    # a join output that joins again as the LEFT side is materialized
    # first, so that join's schema does not run this one twice
    ls = join(li, oc, "l_orderkey", right_on="o_orderkey").map_batches(
        lambda b: b.select(["l_suppkey", "cnat", "rev"]),
        batch_format="pyarrow").materialize()
    fin = join(ls, supplier_ds.select_columns(
        ["s_suppkey", "s_nationkey"]), "l_suppkey", right_on="s_suppkey")

    def _nation_revenue(b: pa.Table) -> pa.Table:
        snat = pc.cast(b.column("s_nationkey"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        cnat = b.column("cnat").to_numpy(zero_copy_only=False)
        keep = (snat == cnat) & np.isin(snat, list(nation_keys))
        return pa.table({"nkey": pa.array(snat[keep], pa.int64()),
                         "rev": b.column("rev").filter(pa.array(keep))})

    return _revenue(fin, _nation_revenue)


def keep_latest(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                id_col: str = "event_id", batch_size: int = 65536):
    """Log compaction: keep, per key, the single most recent row by
    ``(ts, id)`` — ``row_number() OVER (PARTITION BY key ORDER BY ts
    DESC, id DESC) = 1`` parity. The CDC / snapshot primitive: a 100-TB
    event log compacts to one row per live key.

    Two-level shape: an in-batch keep-latest combiner first shrinks every
    batch to at most its distinct-key count BEFORE anything shuffles (on
    an append-heavy log that is the bulk of the reduction), then whole
    keys co-locate (:func:`engine.shuffle.by_key`) and the same
    vectorized sort+drop_duplicates pass picks each key's winner. No
    per-key Python loop, no full-table sort.

    NULL contract: a NULL ``ts`` sorts as the LEAST recent (SQL ``ORDER
    BY ts DESC`` with DuckDB's default NULLS-LAST), so a NULL-ts row wins
    only when every row of its key has a NULL ts. All input columns pass
    through unchanged — including their DTYPES: the pandas kernel
    degrades an int64-with-NULL column to float64 in NULL-containing
    blocks only, so without the final cast-back stage the output schema
    would drift BETWEEN blocks of one run (hashing was already
    drift-proof via hash64's per-element canonicalization; this pins the
    declared schema too). Blocks whose plan metadata is unavailable skip
    the cast, same as before.
    """
    import pandas as pd
    from engine.shuffle import by_key
    try:
        _s = ds.schema(fetch_if_missing=False)
        in_schema = _s.base_schema if _s is not None else None
    except Exception:
        in_schema = None

    def _latest(df):
        sub = df.sort_values([key_col, ts_col, id_col], kind="mergesort",
                             na_position="first")
        return sub.drop_duplicates(subset=[key_col], keep="last")

    res = by_key(ds, key_col, _latest, prep=_latest, batch_size=batch_size,
                 empty=pd.DataFrame())
    if in_schema is None:
        return res

    def _cast_back(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc2
        cols = {}
        for name in b.column_names:
            col = b.column(name)
            if name in in_schema.names:
                typ = in_schema.field(name).type
                if col.type != typ:
                    if pa.types.is_floating(col.type) \
                            and not pa.types.is_floating(typ):
                        # pandas spells the degraded column's NULLs NaN
                        col = pc2.if_else(
                            pc2.is_nan(col),
                            pa.scalar(None, col.type), col)
                    col = pc2.cast(col, typ)
            cols[name] = col
        return pa.table(cols)

    return res.map_batches(_cast_back, batch_format="pyarrow")


def pivot_agg(ds, *, group_col: str, pivot_col: str, value_col: str,
              values: list, batch_size: int = 65536):
    """Pivot by conditional aggregation: one ``sum_<v>`` float64 column
    per DECLARED pivot value — ``coalesce(sum(value) FILTER (WHERE
    pivot = v), 0)`` parity per output column.

    ``values`` must be declared up front: discovering them would cost an
    extra full pass at 100 TB and make the output schema
    data-dependent, which breaks streaming schema stability (Spark's
    pivot demands an explicit value list at scale for the same reason).
    Undeclared pivot values are ignored; a group with no rows for a
    declared value reports 0.0 (the SQL mirror wraps its filtered SUM in
    ``coalesce(.., 0)``); NULL measures add 0 to their cell; NULL group
    keys are dropped (SQL mirror: ``WHERE group IS NOT NULL``).

    Shape: the in-batch combiner collapses each batch to one partial row
    per group (wide but bounded: len(values) float64 cells), so only
    group-cardinality rows enter :func:`engine.shuffle.by_key`; the
    per-partition final is one vectorized multi-column groupby-sum. No
    stage holds more than groups x values cells.
    """
    import pandas as pd
    from engine.shuffle import by_key
    names = [f"sum_{v}" for v in values]

    def _partial(df):
        pv = df[pivot_col].to_numpy()
        val = np.nan_to_num(
            df[value_col].to_numpy(dtype=np.float64, na_value=np.nan))
        tmp = pd.DataFrame({group_col: df[group_col].to_numpy(),
                            **{n: np.where(pv == v, val, 0.0)
                               for n, v in zip(names, values)}})
        return tmp.groupby(group_col, as_index=False).sum()

    def _final(df):
        return df.groupby(group_col, as_index=False).sum()

    return by_key(ds, group_col, _final, prep=_partial,
                  batch_size=batch_size,
                  empty=pd.DataFrame({group_col: [],
                                      **{n: pd.array([], dtype="float64")
                                         for n in names}}))


def _distinct_set_op(left, right, op: str, *, key_col: str,
                     right_key_col: str = None,
                     batch_size: int = 65536):
    """Shared kernel for :func:`except_distinct` /
    :func:`intersect_distinct` — SQL ``EXCEPT`` / ``INTERSECT`` (both
    DISTINCT by definition) over one key column.

    Shape: each side deduplicates IN-BATCH first (the combiner), so only
    per-batch-distinct (key, side) rows enter
    :func:`engine.shuffle.by_key`; the per-partition final is one
    vectorized groupby computing each key's side span. Nothing holds a
    global set; NULL keys are dropped (the SQL mirror filters ``key IS
    NOT NULL`` — SQL set ops would otherwise treat NULL as a value).
    """
    import pandas as pd
    from engine.shuffle import by_key
    rkey = right_key_col or key_col

    def _distinct(col, side):
        # pure Arrow: Arrow->pandas would degrade an int64-with-NULL key
        # column to float64, flipping the OUTPUT key dtype between
        # blocks (schema-unification drift) — same rationale as
        # _distinct_keys. The NULL-free distinct keys convert losslessly.
        def _fn(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            k = pc.unique(b.column(col).combine_chunks().drop_null())
            return pa.table({
                key_col: k,
                "side": pa.array(np.full(len(k), side, dtype=np.int64))})
        return _fn

    both = left.map_batches(_distinct(key_col, 0), batch_format="pyarrow",
                            zero_copy_batch=True,
                            batch_size=batch_size) \
        .union(right.map_batches(_distinct(rkey, 1),
                                 batch_format="pyarrow",
                                 zero_copy_batch=True,
                                 batch_size=batch_size))

    def _resolve(df):
        if op == "union":  # every key — no side-span aggregation needed
            return pd.DataFrame(
                {key_col: df[key_col].drop_duplicates().to_numpy()})
        g = df.drop_duplicates([key_col, "side"]) \
            .groupby(key_col)["side"].agg(["min", "max"])
        if op == "except":
            keep = g.index[(g["min"] == 0) & (g["max"] == 0)]
        elif op == "symdiff":  # exactly one side: all side tags equal
            keep = g.index[g["min"] == g["max"]]
        else:  # intersect
            keep = g.index[(g["min"] == 0) & (g["max"] == 1)]
        return pd.DataFrame({key_col: keep.to_numpy()})

    return by_key(both, key_col, _resolve,
                  empty=pd.DataFrame({key_col: []}))


def except_distinct(left, right, *, key_col: str,
                    right_key_col: str = None,
                    batch_size: int = 65536):
    """Distinct keys present in ``left`` but absent from ``right`` — SQL
    ``SELECT key FROM left EXCEPT SELECT key FROM right`` parity (NULL
    keys dropped; see :func:`_distinct_set_op` for the shape)."""
    return _distinct_set_op(left, right, "except", key_col=key_col,
                            right_key_col=right_key_col,
                            batch_size=batch_size)


def intersect_distinct(left, right, *, key_col: str,
                       right_key_col: str = None,
                       batch_size: int = 65536):
    """Distinct keys present in BOTH inputs — SQL ``INTERSECT`` parity
    (NULL keys dropped; see :func:`_distinct_set_op` for the shape)."""
    return _distinct_set_op(left, right, "intersect", key_col=key_col,
                            right_key_col=right_key_col,
                            batch_size=batch_size)


def union_distinct(left, right, *, key_col: str,
                   right_key_col: str = None,
                   batch_size: int = 65536):
    """Distinct keys present in EITHER input — SQL ``UNION`` parity
    (NULL keys dropped; see :func:`_distinct_set_op` for the shape)."""
    return _distinct_set_op(left, right, "union", key_col=key_col,
                            right_key_col=right_key_col,
                            batch_size=batch_size)


def symmetric_difference_distinct(left, right, *, key_col: str,
                                  right_key_col: str = None,
                                  batch_size: int = 65536):
    """Distinct keys present in EXACTLY ONE input — SQL ``(a EXCEPT b)
    UNION (b EXCEPT a)`` parity in a single pass (NULL keys dropped; see
    :func:`_distinct_set_op` for the shape — the resolve keeps keys whose
    side tags are all equal, so no second scan or union of two EXCEPT
    pipelines is needed)."""
    return _distinct_set_op(left, right, "symdiff", key_col=key_col,
                            right_key_col=right_key_col,
                            batch_size=batch_size)


def grouped_mode(ds, *, group_col: str, value_col: str,
                 batch_size: int = 65536):
    """Most frequent ``value_col`` per ``group_col``; ties break to the
    SMALLEST value (deterministic — SQL ``mode()`` leaves ties
    unspecified, so the oracle mirror is the max-count / min-value join).
    Returns (group, mode_value, n) with n = the winning count.

    Two-level shape: the in-batch combiner collapses each batch to
    (group, value, count) partial rows — distinct-pair-bounded, never raw
    rows — then whole groups co-locate (:func:`engine.shuffle.by_key`)
    where one vectorized sum + sort + drop_duplicates picks each group's
    winner. NULL values AND NULL group keys are dropped (SQL mirror:
    ``WHERE value IS NOT NULL AND group IS NOT NULL`` — pandas grouping
    would otherwise silently omit the NULL group the SQL keeps).
    """
    import pandas as pd
    from engine.shuffle import by_key

    def _partial(df):
        sub = df[[group_col, value_col]].dropna(subset=[value_col])
        g = sub.groupby([group_col, value_col], as_index=False).size() \
            .rename(columns={"size": "c"})
        g["c"] = g["c"].astype(np.int64)
        return g

    def _winner(df):
        tot = df.groupby([group_col, value_col], as_index=False)["c"].sum()
        w = tot.sort_values([group_col, "c", value_col],
                            ascending=[True, False, True],
                            kind="mergesort") \
            .drop_duplicates(subset=[group_col], keep="first")
        return pd.DataFrame({group_col: w[group_col].to_numpy(),
                             "mode_value": w[value_col].to_numpy(),
                             "n": w["c"].to_numpy().astype(np.int64)})

    return by_key(ds, group_col, _winner, prep=_partial, null_keys="drop",
                  batch_size=batch_size,
                  empty=pd.DataFrame({group_col: [], "mode_value": [],
                                      "n": pd.array([], dtype="int64")}))


def running_sum(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                val_col: str = "value", id_col: str = "event_id",
                batch_size: int = 65536):
    """Per-key cumulative sum in event order — ``coalesce(sum(value)
    OVER (PARTITION BY key ORDER BY ts, id ROWS UNBOUNDED PRECEDING),
    0)`` parity. NULL contract: a NULL value contributes 0 and the row
    reports the running sum of the non-NULL values seen so far (0.0
    before any — the SQL mirror's ``coalesce(.., 0)``).

    Shape: :func:`engine.shuffle.by_key`, then pandas' grouped cumsum
    Cython kernel once per partition. Returns (id, running_sum).
    """
    import pandas as pd
    from engine.shuffle import by_key
    cols = [id_col, key_col, ts_col, val_col]

    def _cum(sub):
        filled = sub[val_col].fillna(0.0)
        # dropna=False: SQL PARTITION BY groups NULL keys into ONE
        # partition with real running sums — pandas' default would
        # exclude those rows and emit NaN for them.
        y = filled.groupby(sub[key_col], sort=False,
                           dropna=False).cumsum()
        return pd.DataFrame({id_col: sub[id_col].to_numpy(),
                             "running_sum": y.to_numpy(dtype=np.float64)})

    return by_key(ds, key_col, _cum, prep=lambda df: df[cols],
                  order=[ts_col, id_col], batch_size=batch_size,
                  empty=pd.DataFrame({id_col: [], "running_sum": []}))


def _distinct_keys(ds, col: str, out_col: str, batch_size: int):
    """Globally distinct non-NULL values of ``col`` as a one-column
    Dataset named ``out_col`` — in-batch distinct first, then one
    co-locating shuffle with a per-partition unique. Pure Arrow so the
    key dtype survives (a pandas round-trip would degrade
    int64-with-NULLs to float64 and break the downstream hash join on a
    type mismatch)."""
    import pyarrow.compute as pc
    from engine.sketches import hash64
    from engine.shuffle import reduce_blocks
    P = reduce_blocks()

    def _p(b: pa.Table) -> pa.Table:
        k = pc.unique(b.column(col).combine_chunks().drop_null())
        h = (hash64(k.to_numpy(zero_copy_only=False))
             % np.uint64(P)).astype(np.int64)
        return pa.table({out_col: k, "part": pa.array(h, pa.int64())})

    def _d(b: pa.Table) -> pa.Table:
        if out_col not in b.column_names:  # whole-input-empty group frame
            return pa.table({out_col: pa.array([], pa.null())})
        k = pc.unique(b.column(out_col).combine_chunks())
        return pa.table({out_col: k})

    return ds.map_batches(_p, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=batch_size) \
        .groupby("part").map_groups(_d, batch_format="pyarrow")


def semi_join(left, right, *, key_col: str, right_key_col: str = None,
              batch_size: int = 65536):
    """Row-preserving semi join: every left row whose key appears in
    ``right`` — ``WHERE EXISTS (SELECT 1 FROM right r WHERE r.k =
    l.k)`` parity (each left row at most once, all columns pass
    through; NULL left keys never match and are dropped).

    Right reduces to its DISTINCT key set before anything ships, and
    :func:`engine.shuffle.join` picks the route: a small key set
    broadcasts (the filter is map-only), a larger one hash-joins. Unique
    keys, so the inner join cannot multiply left rows.
    """
    from engine.shuffle import join
    return join(left, _distinct_keys(right, right_key_col or key_col,
                                     key_col, batch_size), key_col)


def anti_join(left, right, *, key_col: str, right_key_col: str = None,
              batch_size: int = 65536):
    """Row-preserving anti join: every left row whose key does NOT
    appear in ``right`` — ``WHERE NOT EXISTS`` parity. NULL left keys
    are KEPT (SQL: ``NULL = x`` is never true, so NOT EXISTS holds
    vacuously). Shape as :func:`semi_join`, with a ``left_anti`` join.
    """
    from engine.shuffle import join
    return join(left, _distinct_keys(right, right_key_col or key_col,
                                     key_col, batch_size), key_col,
                "left_anti")


def collect_sequence(ds, *, key_col: str = "user_id",
                     ts_col: str = "ts", val_col: str = "event_type",
                     id_col: str = "event_id", sep: str = ",",
                     batch_size: int = 65536):
    """Per-key ordered value concatenation — ``string_agg(val, sep ORDER
    BY ts, id)`` parity. The training-data "user history sequence"
    builder: a behavioral corpus keyed by user becomes one ordered token
    string per user. NULL values are skipped (SQL string_agg semantics);
    a key with only NULLs emits no row; NULL group keys are dropped (SQL
    mirror: ``WHERE key IS NOT NULL``). Returns (key, seq, n_items).

    Shape: :func:`engine.shuffle.by_key`, then one stable sort + grouped
    join per partition. Contract: one KEY's sequence must fit a worker
    (same per-group bound as grouped_quantiles — at 100 TB cap histories
    upstream, e.g. keep_latest-style truncation or a time filter, before
    collecting).
    """
    import pandas as pd
    from engine.shuffle import by_key
    cols = [key_col, ts_col, id_col, val_col]

    def _collect(sub):
        g = sub.groupby(key_col, sort=False)[val_col]
        return pd.DataFrame({
            key_col: g.agg("first").index.to_numpy(),
            "seq": g.agg(sep.join).to_numpy(),
            "n_items": g.size().to_numpy().astype(np.int64)})

    return by_key(ds, key_col, _collect,
                  prep=lambda df: df[cols].dropna(subset=[val_col]),
                  order=[ts_col, id_col], batch_size=batch_size,
                  empty=pd.DataFrame({key_col: [], "seq": [],
                                      "n_items": pd.array([],
                                                          dtype="int64")}))


def rolling_window_sum_count(ds, *, key_col: str = "user_id",
                             ts_col: str = "ts", val_col: str = "value",
                             id_col: str = "event_id",
                             window_seconds: float = 3 * 3600,
                             batch_size: int = 65536):
    """Per-key rolling SUM and non-NULL COUNT over a trailing time
    window — ``sum(value) OVER (... RANGE <w> PRECEDING)`` /
    ``count(value) OVER (...)`` parity, including tie peers and SQL NULL
    semantics (an all-NULL frame sums to NULL, counts 0). NULL-ts rows
    are dropped.

    Shares :func:`_range_window` with :func:`rolling_window_mean`.
    Returns (id, rolling_sum, rolling_n).
    """
    import pandas as pd

    def _sum_count(v, j, e):
        sums, cnts = _range_sums(v, j, e)
        return {"rolling_sum": np.where(cnts > 0, sums, np.nan),
                "rolling_n": cnts.astype(np.int64)}

    return _range_window(
        ds, _sum_count, pd.DataFrame({
            id_col: [], "rolling_sum": [],
            "rolling_n": pd.array([], dtype="int64")}),
        key_col=key_col, ts_col=ts_col, val_col=val_col, id_col=id_col,
        window_seconds=window_seconds, batch_size=batch_size)


def _range_reduce(v, j, e, op, fill):
    """``op``-reduction of ``v`` over each half-open range ``[j[i],
    e[i])`` via an O(n log n) sparse table — the classic RMQ trick: any
    range is the overlap of two power-of-two blocks, so one table build
    plus two gathers answers every frame, with no per-row Python loop.
    NaNs must be pre-replaced with ``fill`` (the op's identity); empty
    ranges report ``fill``.
    """
    n = len(v)
    lens = e - j
    out = np.full(len(j), fill, dtype=np.float64)
    pos = lens > 0
    if n == 0 or not pos.any():
        return out
    K = int(lens[pos].max()).bit_length() - 1  # floor(log2(maxlen))
    st = [np.asarray(v, dtype=np.float64)]
    for k in range(1, K + 1):
        half = 1 << (k - 1)
        prev = st[-1]
        L = n - (1 << k) + 1
        if L <= 0:
            break
        st.append(op(prev[:L], prev[half:half + L]))
    ks = np.zeros(len(j), dtype=np.int64)
    ks[pos] = np.int64(np.floor(np.log2(lens[pos])))
    for k in np.unique(ks[pos]):
        sel = pos & (ks == k)
        size = 1 << int(k)
        out[sel] = op(st[int(k)][j[sel]], st[int(k)][e[sel] - size])
    return out


def rolling_window_min_max(ds, *, key_col: str = "user_id",
                           ts_col: str = "ts", val_col: str = "value",
                           id_col: str = "event_id",
                           window_seconds: float = 3 * 3600,
                           batch_size: int = 65536):
    """Per-key rolling MIN and MAX over a trailing time window —
    ``min(value) OVER (PARTITION BY key ORDER BY ts RANGE BETWEEN <w>
    PRECEDING AND CURRENT ROW)`` / ``max(...)`` parity, including tie
    peers and SQL NULL semantics (NULL values are ignored; an all-NULL
    frame reports NULL for both). NULL-ts rows are dropped and NULL keys
    group as ONE partition (see :func:`_range_window`).

    Shares the frames of :func:`_range_window`; the reduction itself is
    a sparse-table range min/max (:func:`_range_reduce`) because prefix
    sums cannot express min over overlapping frames — still one
    vectorized pass per partition, O(n log n) in the partition size.
    Returns (id, rolling_min, rolling_max).
    """
    import pandas as pd

    def _min_max(v, j, e):
        lo = _range_reduce(np.where(np.isnan(v), np.inf, v), j, e,
                           np.minimum, np.inf)
        hi = _range_reduce(np.where(np.isnan(v), -np.inf, v), j, e,
                           np.maximum, -np.inf)
        return {"rolling_min": np.where(np.isfinite(lo), lo, np.nan),
                "rolling_max": np.where(np.isfinite(hi), hi, np.nan)}

    return _range_window(
        ds, _min_max, pd.DataFrame({id_col: [], "rolling_min": [],
                                    "rolling_max": []}),
        key_col=key_col, ts_col=ts_col, val_col=val_col, id_col=id_col,
        window_seconds=window_seconds, batch_size=batch_size)


def window_ranks(ds, *, key_col: str = "user_id",
                 val_col: str = "value", id_col: str = "event_id",
                 batch_size: int = 65536):
    """Per-key ROW_NUMBER / RANK / DENSE_RANK of ``val_col`` ascending —
    exactly ``row_number() OVER (PARTITION BY key ORDER BY val ASC NULLS
    LAST, id)``, ``rank() / dense_rank() OVER (PARTITION BY key ORDER BY
    val ASC NULLS LAST)``. NULL values sort last and are PEERS of each
    other (they share a rank); NULL keys group as ONE partition, per SQL
    PARTITION BY. ``id_col`` makes row_number deterministic under value
    ties.

    Scale shape: :func:`engine.shuffle.by_key`, then one vectorized pass
    ranks each partition — key breaks, value-run breaks and the three
    ranks all come from cumsum/maximum.accumulate over break flags; no
    per-key loop. Returns (id, row_number, rank, dense_rank).
    """
    import pandas as pd
    from engine.shuffle import by_key
    cols = [id_col, key_col, val_col]

    def _rank(sub):
        idx, new_key, chg, key_start, run_start = _order_breaks(
            sub, key_col=key_col, val_col=val_col)
        d = np.cumsum(chg)
        return pd.DataFrame({
            id_col: sub[id_col].to_numpy(),
            "row_number": idx - key_start + 1,
            "rank": run_start - key_start + 1,
            "dense_rank": d - d[key_start] + 1})

    return by_key(ds, key_col, _rank, prep=lambda df: df[cols],
                  order=[val_col, id_col], batch_size=batch_size,
                  empty=pd.DataFrame({
                      id_col: [],
                      "row_number": pd.array([], dtype="int64"),
                      "rank": pd.array([], dtype="int64"),
                      "dense_rank": pd.array([], dtype="int64")}))


def _order_breaks(sub, *, key_col, val_col):
    """Shared break-flag kernel for the window-rank family: on a
    partition sorted by (key, val NULLS LAST, id), return ``(idx,
    new_key, chg, key_start, run_start)`` — per-row key-break and
    value-run-break flags plus each row's key/run start index (no
    per-key loop). NULL keys group as ONE partition and NULL values are
    PEERS of each other, both by :func:`engine.shuffle.key_starts`; a
    value run also ends where its key does."""
    from engine.shuffle import key_starts
    idx = np.arange(len(sub), dtype=np.int64)
    key_start = key_starts(sub[key_col].to_numpy())
    run_start = np.maximum(key_start, key_starts(sub[val_col].to_numpy()))
    return idx, key_start == idx, run_start == idx, key_start, run_start


def window_rank_fractions(ds, *, key_col: str = "user_id",
                          val_col: str = "value",
                          id_col: str = "event_id", ntile_k: int = 4,
                          batch_size: int = 65536):
    """Per-key PERCENT_RANK / CUME_DIST / NTILE of ``val_col`` ascending
    — exactly ``percent_rank() / cume_dist() OVER (PARTITION BY key
    ORDER BY val ASC NULLS LAST)`` and ``ntile(k) OVER (... , id)``
    (NTILE is row-positional, so ``id_col`` makes it deterministic under
    value ties; the two fractions are peer-based). SQL semantics
    throughout: percent_rank = (rank-1)/(n-1) (0.0 for single-row
    partitions), cume_dist = peers-through-current / n, NTILE gives the
    first ``n % k`` buckets the extra row. NULL values sort last as
    peers; NULL keys group as ONE partition.

    Same scale shape as :func:`window_ranks` (shared
    :func:`_order_breaks` pass per :func:`engine.shuffle.by_key`
    partition). Returns (id, pct_rank, cume_dist, bucket).
    """
    import pandas as pd
    from engine.shuffle import by_key
    cols = [id_col, key_col, val_col]

    def _fracs(sub):
        idx, new_key, chg, key_start, run_start = _order_breaks(
            sub, key_col=key_col, val_col=val_col)
        n = len(sub)
        key_ord = np.cumsum(new_key) - 1
        sizes = np.diff(np.r_[idx[new_key], n])
        key_n = sizes[key_ord]
        run_ord = np.cumsum(chg) - 1
        run_pos = idx[chg]
        run_end = (run_pos + np.diff(np.r_[run_pos, n]))[run_ord]
        rank = run_start - key_start + 1
        with np.errstate(invalid="ignore", divide="ignore"):
            pct = np.where(key_n > 1, (rank - 1) / (key_n - 1), 0.0)
        cume = (run_end - key_start) / key_n
        rn0 = idx - key_start  # 0-based row number within key
        size, rem = key_n // ntile_k, key_n % ntile_k
        fat = rem * (size + 1)  # rows covered by the size+1 buckets
        bucket = np.where(
            rn0 < fat,
            rn0 // np.maximum(size + 1, 1),
            rem + np.where(size > 0, (rn0 - fat) // np.maximum(size, 1),
                           0)) + 1
        return pd.DataFrame({
            id_col: sub[id_col].to_numpy(),
            "pct_rank": pct,
            "cume_dist": cume,
            "bucket": bucket.astype(np.int64)})

    return by_key(ds, key_col, _fracs, prep=lambda df: df[cols],
                  order=[val_col, id_col], batch_size=batch_size,
                  empty=pd.DataFrame({
                      id_col: [], "pct_rank": [], "cume_dist": [],
                      "bucket": pd.array([], dtype="int64")}))


def running_min_max(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                    val_col: str = "value", id_col: str = "event_id",
                    batch_size: int = 65536):
    """Per-key cumulative MIN and MAX in event order — ``min(value) OVER
    (PARTITION BY key ORDER BY ts, id ROWS UNBOUNDED PRECEDING)`` /
    ``max(...)`` parity. SQL NULL semantics: a NULL value leaves the
    running extremes unchanged (the row still reports the extremes of the
    non-NULL values seen so far; NULL before the key's first non-NULL
    value). NULL keys group as ONE partition (``dropna=False``), the
    PARTITION BY family contract.

    Shape: :func:`engine.shuffle.by_key`. pandas' grouped
    cummin/cummax leave NaN at NULL input positions instead of carrying
    the running extreme, so a grouped forward-fill restores the SQL
    carry semantics — rows before the first non-NULL stay NaN, which is
    exactly SQL's NULL there. Returns (id, running_min, running_max).
    """
    import pandas as pd
    from engine.shuffle import by_key
    cols = [id_col, key_col, ts_col, val_col]

    def _cum(sub):
        keys = sub[key_col]
        g = sub.groupby(keys, sort=False, dropna=False)[val_col]
        lo = g.cummin().groupby(keys, sort=False, dropna=False).ffill()
        hi = g.cummax().groupby(keys, sort=False, dropna=False).ffill()
        return pd.DataFrame({
            id_col: sub[id_col].to_numpy(),
            "running_min": lo.to_numpy(dtype=np.float64),
            "running_max": hi.to_numpy(dtype=np.float64)})

    return by_key(ds, key_col, _cum, prep=lambda df: df[cols],
                  order=[ts_col, id_col], batch_size=batch_size,
                  empty=pd.DataFrame({id_col: [], "running_min": [],
                                      "running_max": []}))


def interevent_gap_stats(ds, *, key_col: str = "user_id",
                         ts_col: str = "ts", id_col: str = "event_id",
                         batch_size: int = 65536):
    """Per-key inter-event gap statistics — the gaps are ``ts - lag(ts)
    OVER (PARTITION BY key ORDER BY ts, id)`` in seconds, aggregated per
    key as (non-NULL gap count, mean, max). Each key's first event
    contributes no gap, so a single-event key reports (0, NULL, NULL).
    NULL-ts rows are dropped before the lag (oracle mirrors
    ``ts IS NOT NULL``); NULL keys group as ONE partition.

    Shape: :func:`engine.shuffle.by_key`; both the grouped lag (shift)
    and the gap aggregate run as pandas Cython kernels per partition —
    the output is one row per key. Returns
    (key, n_gaps, avg_gap_s, max_gap_s).
    """
    import pandas as pd
    from engine.shuffle import by_key
    cols = [id_col, key_col, ts_col]

    def _gaps(sub):
        keys = sub[key_col]
        prev = sub.groupby(keys, sort=False,
                           dropna=False)[ts_col].shift(1)
        gap = (sub[ts_col] - prev).dt.total_seconds()
        g = gap.groupby(keys, sort=False, dropna=False)
        out = pd.DataFrame({"n_gaps": g.count().to_numpy(np.int64),
                            "avg_gap_s": g.mean().to_numpy(np.float64),
                            "max_gap_s": g.max().to_numpy(np.float64)})
        out.insert(0, key_col, g.count().index.to_numpy())
        return out

    return by_key(ds, key_col, _gaps,
                  prep=lambda df: df.loc[df[ts_col].notna(), cols],
                  order=[ts_col, id_col], batch_size=batch_size,
                  empty=pd.DataFrame({
                      key_col: [], "n_gaps": pd.array([], dtype="int64"),
                      "avg_gap_s": [], "max_gap_s": []}))


def delta_from_first(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                     val_col: str = "value", id_col: str = "event_id",
                     batch_size: int = 65536):
    """Per-row delta from the key's first-event value — ``value -
    FIRST_VALUE(value) OVER (PARTITION BY key ORDER BY ts, id ROWS
    UNBOUNDED PRECEDING)`` parity. FIRST_VALUE is positional (SQL default
    RESPECT NULLS): if the key's first row has a NULL value every delta
    in the key is NULL, and a NULL value row is NULL regardless — both
    fall out of NaN arithmetic. NULL keys group as ONE partition; NULL
    timestamps sort last (both engines' NULLS LAST default).

    One sort + one ``maximum.accumulate`` start-index gather per
    :func:`engine.shuffle.by_key` partition — no per-key loop. Returns
    (id, delta_from_first).
    """
    import pandas as pd
    from engine.shuffle import by_key, key_starts
    cols = [id_col, key_col, ts_col, val_col]

    def _delta(sub):
        start = key_starts(sub[key_col].to_numpy())
        v = sub[val_col].to_numpy(dtype=np.float64)
        return pd.DataFrame({id_col: sub[id_col].to_numpy(),
                             "delta_from_first": v - v[start]})

    return by_key(ds, key_col, _delta, prep=lambda df: df[cols],
                  order=[ts_col, id_col], batch_size=batch_size,
                  empty=pd.DataFrame({id_col: [], "delta_from_first": []}))


def grouped_zscore(ds, *, key_col: str = "user_id",
                   val_col: str = "value", id_col: str = "event_id",
                   batch_size: int = 65536):
    """Per-row z-score within its key's value distribution — ``(value -
    avg(value) OVER (PARTITION BY key)) / stddev_samp(value) OVER
    (PARTITION BY key)`` parity, with NULL when the stddev is NULL
    (single-row key) or zero (constant key — the SQL mirror's ``CASE
    WHEN std > 0``). NULL-value rows are dropped (oracle mirrors
    ``value IS NOT NULL``); NULL keys group as ONE partition.

    Shape: :func:`engine.shuffle.by_key`; the per-key mean/std come from
    pandas grouped ``transform`` Cython kernels — one pass per
    partition, no per-key loop. Returns (id, z).
    """
    import pandas as pd
    from engine.shuffle import by_key
    cols = [id_col, key_col, val_col]

    def _z(df):
        g = df.groupby(key_col, sort=False, dropna=False)[val_col]
        mu = g.transform("mean").to_numpy(np.float64)
        sd = g.transform("std").to_numpy(np.float64)  # ddof=1, n=1 -> NaN
        v = df[val_col].to_numpy(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = np.where(sd > 0, (v - mu) / sd, np.nan)
        return pd.DataFrame({id_col: df[id_col].to_numpy(), "z": z})

    return by_key(ds, key_col, _z,
                  prep=lambda df: df.loc[df[val_col].notna(), cols],
                  batch_size=batch_size,
                  empty=pd.DataFrame({id_col: [], "z": []}))


def grouped_minmax_scale(ds, *, key_col: str = "user_id",
                         val_col: str = "value",
                         id_col: str = "event_id",
                         batch_size: int = 65536):
    """Per-row min-max scaling within its key — ``(value - min(value)
    OVER (PARTITION BY key)) / (max(value) OVER (PARTITION BY key) -
    min(...))`` parity, NULL when the key's range is zero (constant
    key — the SQL mirror's ``CASE WHEN max > min``). NULL-value rows
    are dropped (oracle mirrors ``value IS NOT NULL``); NULL keys group
    as ONE partition.

    Same shape as :func:`grouped_zscore` — pandas grouped
    ``transform('min'/'max')`` Cython kernels, one pass per partition.
    Returns (id, scaled).
    """
    import pandas as pd
    from engine.shuffle import by_key
    cols = [id_col, key_col, val_col]

    def _scale(df):
        g = df.groupby(key_col, sort=False, dropna=False)[val_col]
        lo = g.transform("min").to_numpy(np.float64)
        hi = g.transform("max").to_numpy(np.float64)
        v = df[val_col].to_numpy(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            s = np.where(hi > lo, (v - lo) / (hi - lo), np.nan)
        return pd.DataFrame({id_col: df[id_col].to_numpy(), "scaled": s})

    return by_key(ds, key_col, _scale,
                  prep=lambda df: df.loc[df[val_col].notna(), cols],
                  batch_size=batch_size,
                  empty=pd.DataFrame({id_col: [], "scaled": []}))


def user_activity_span(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                       batch_size: int = 65536):
    """Per-key activity profile: event count, DISTINCT active days
    (``count(distinct date_trunc('day', ts))``), first and last event
    timestamps. NULL-ts rows are dropped (oracle mirrors ``ts IS NOT
    NULL``); NULL keys form one output row (SQL GROUP BY).

    Scale shape: the in-batch combiner collapses each block to one row
    per (key, day) — count + min/max ride those rows, so the shuffle is
    (keys x active-days)-bounded and the DISTINCT needs no second pass:
    after the (key, day) groupby-aggregate, each key's day count is just
    its row count in the final :func:`engine.shuffle.by_key` pass.
    Returns (key, n_events, n_active_days, first_ts, last_ts).
    """
    import pandas as pd
    from engine.shuffle import by_key

    def _partial(df):
        sub = df.loc[df[ts_col].notna(), [key_col, ts_col]]
        g = pd.DataFrame({key_col: sub[key_col],
                          "day": sub[ts_col].dt.floor("D"),
                          "ts": sub[ts_col]}) \
            .groupby([key_col, "day"], sort=False, dropna=False).agg(
                n=("ts", "size"), first_ts=("ts", "min"),
                last_ts=("ts", "max")).reset_index()
        g["n"] = g["n"].astype(np.int64)
        return g

    # second-level combine of (key, day) partials BEFORE the per-key
    # reduce keeps hot keys bounded: blocks x days -> days rows per key
    def _merge(df):
        byday = df.groupby([key_col, "day"], sort=False, dropna=False).agg(
            n=("n", "sum"), first_ts=("first_ts", "min"),
            last_ts=("last_ts", "max")).reset_index()
        out = byday.groupby(key_col, sort=False, dropna=False).agg(
            n_events=("n", "sum"), n_active_days=("day", "size"),
            first_ts=("first_ts", "min"),
            last_ts=("last_ts", "max")).reset_index()
        out["n_events"] = out["n_events"].astype(np.int64)
        out["n_active_days"] = out["n_active_days"].astype(np.int64)
        return out

    return by_key(ds, key_col, _merge, prep=_partial,
                  batch_size=batch_size, empty=pd.DataFrame({
                      key_col: [],
                      "n_events": pd.array([], dtype="int64"),
                      "n_active_days": pd.array([], dtype="int64"),
                      "first_ts": pd.array([], "datetime64[us]"),
                      "last_ts": pd.array([], "datetime64[us]")}))


def q6_forecast_revenue(lineitem_ds, *, date_lo: str = "1996-01-01",
                        date_hi: str = "1997-01-01",
                        disc_lo: float = 0.05, disc_hi: float = 0.07,
                        qty_lt: float = 24.0, batch_size: int = 65536):
    """TPC-H Q6-style forecast-revenue: ``sum(l_extendedprice *
    l_discount)`` over a shipdate year, a discount band (inclusive) and
    a quantity cap — the canonical filtered scalar aggregate. Returns a
    ONE-ROW table (revenue, n_items); an empty selection reports SQL's
    (NULL, 0).

    Scale shape: pure map + tiny aggregate — each block collapses to one
    (rev, n) partial row (:func:`engine.shuffle.combine` with no keys;
    Arrow compare kernels, no pandas), so the only data movement is one
    row per block.
    """
    from engine.shuffle import combine
    lo = np.datetime64(date_lo, "us")
    hi = np.datetime64(date_hi, "us")

    def _items(b: pa.Table) -> pa.Table:
        d = b.column("l_shipdate").to_numpy(zero_copy_only=False)
        disc = b.column("l_discount").to_numpy(zero_copy_only=False)
        qty = b.column("l_quantity").to_numpy(zero_copy_only=False)
        price = b.column("l_extendedprice").to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore"):
            keep = ((d >= lo) & (d < hi) & (disc >= disc_lo)
                    & (disc <= disc_hi) & (qty < qty_lt))
        keep &= ~(np.isnan(disc) | np.isnan(qty) | np.isnan(price))
        return pa.table({"rev": pa.array(price[keep] * disc[keep],
                                         pa.float64())})

    t = combine(lineitem_ds, [], {"revenue": ("rev", "sum"),
                                  "n_items": ("rev", "count")},
                derive=_items, batch_size=batch_size).take_all()[0]
    n = int(t["n_items"] or 0)
    return pa.table({"revenue": pa.array([t["revenue"] if n else None],
                                         pa.float64()),
                     "n_items": pa.array([n], pa.int64())})


def event_type_cooccurrence(ds, *, key_col: str = "user_id",
                            type_col: str = "event_type",
                            batch_size: int = 65536):
    """Market-basket co-occurrence: for every unordered pair of event
    types, the number of keys that exhibit BOTH — ``select a.t, b.t,
    count(*) from distinct(key, t) a join distinct(key, t) b on key
    and a.t < b.t group by 1, 2`` parity. NULL keys / types drop.

    Scale shape: per-batch distinct (key, type) pairs (the dictionary-
    code combiner) shuffle ONCE (:func:`engine.shuffle.by_key`); within
    each partition a cross-batch dedup + one vectorized self-merge
    expands pairs (bounded: a key with t distinct types yields t(t-1)/2
    rows, and t is capped by the type vocabulary, not the corpus); the
    final (type_a, type_b) :func:`engine.shuffle.combine` is
    vocabulary²-bounded. Returns
    (type_a, type_b, n_keys).
    """
    import pandas as pd
    import ray.data
    from engine.shuffle import by_key, column_dtype, combine
    out_empty = pd.DataFrame({"type_a": [], "type_b": [],
                              "n": pd.array([], dtype="int64")})

    def _pairs(df):
        sub = df[[key_col, type_col]].drop_duplicates()
        m = sub.merge(sub, on=key_col, suffixes=("_a", "_b"))
        m = m[m[type_col + "_a"] < m[type_col + "_b"]]
        if not len(m):
            return out_empty.copy()
        g = m.groupby([type_col + "_a", type_col + "_b"], sort=False) \
            .size().rename("n").reset_index()
        g.columns = ["type_a", "type_b", "n"]
        g["n"] = g["n"].astype(np.int64)
        return g

    parts = by_key(ds, key_col, _pairs, null_keys="drop",
                   prep=lambda df: df[[key_col, type_col]]
                   .dropna(subset=[type_col]).drop_duplicates(),
                   batch_size=batch_size, empty=out_empty)
    t = column_dtype(ds, type_col)
    seed = ray.data.from_arrow(pa.table({  # types an empty result
        "type_a": pa.array([], t), "type_b": pa.array([], t),
        "n": pa.array([], pa.int64())}))
    return combine(seed.union(parts), ["type_a", "type_b"],
                   {"n_keys": ("n", "sum")})


def collect_distinct_sorted(ds, *, key_col: str = "user_id",
                            val_col: str = "event_type", sep: str = ",",
                            batch_size: int = 65536):
    """Per-key DISTINCT value set as one value-sorted joined string —
    ``string_agg(DISTINCT val, sep ORDER BY val)`` parity. NULL values
    are skipped; a key with only NULLs emits no row; NULL keys are
    dropped (SQL mirror ``key IS NOT NULL``, the collect_sequence
    convention). Returns (key, vals, n_distinct).

    Scale shape: per-batch distinct (key, val) pairs are the combiner
    (duplicates die in the batch, so the shuffle is set-bounded, not
    corpus-bounded); :func:`engine.shuffle.by_key` co-locates whole keys
    where a cross-batch dedup + ONE sort + grouped join finishes — the
    per-key bound is the value vocabulary, far smaller than a history.
    """
    import pandas as pd
    from engine.shuffle import by_key

    def _collect(df):
        sub = df[[key_col, val_col]].drop_duplicates()
        g = sub.groupby(key_col, sort=False)[val_col]
        return pd.DataFrame({
            key_col: g.agg("first").index.to_numpy(),
            "vals": g.agg(sep.join).to_numpy(),
            "n_distinct": g.size().to_numpy().astype(np.int64)})

    return by_key(ds, key_col, _collect, null_keys="drop",
                  prep=lambda df: df[[key_col, val_col]]
                  .dropna(subset=[val_col]).drop_duplicates(),
                  order=[val_col], batch_size=batch_size,
                  empty=pd.DataFrame({key_col: [], "vals": [],
                                      "n_distinct": pd.array(
                                          [], dtype="int64")}))


def dense_daily_counts(ds, *, ts_col: str = "ts",
                       batch_size: int = 65536):
    """Gap-filled daily event counts — every calendar day between the
    corpus min and max day appears, zero-days included (``generate_series
    LEFT JOIN`` parity). NULL-ts rows drop. Returns (day, n).

    Scale shape: per-batch day counts (:func:`engine.shuffle.combine`)
    bound the shuffle at days x blocks tiny rows; the dense reindex runs
    worker-side over ONE coalesced block (the aggregate is days-bounded —
    a century is ~37k rows), never on the driver.
    """
    from engine.shuffle import combine, finish

    def _days(b: pa.Table) -> pa.Table:
        return pa.table({"day": pc.floor_temporal(_us(b.column(ts_col)),
                                                  unit="day")})

    def _dense(t: pa.Table) -> pa.Table:
        day = t.column("day").to_numpy(zero_copy_only=False) \
            .astype("datetime64[D]")
        cal = np.arange(day.min(), day.max() + 1) if len(day) else day
        n = np.zeros(len(cal), np.int64)
        n[(day - cal[:1]).astype(np.int64)] = \
            t.column("n").to_numpy(zero_copy_only=False)
        return pa.table({"day": pa.array(cal.astype("datetime64[us]"),
                                         pa.timestamp("us")),
                         "n": pa.array(n, pa.int64())})

    return finish(combine(ds, "day", {"n": ("day", "count")},
                          derive=_days, batch_size=batch_size),
                  _dense, one_block=True)


def session_duration_stats(ds, *, key_col: str = "user_id",
                           ts_col: str = "ts",
                           gap_seconds: float = 30 * 60,
                           batch_size: int = 65536):
    """Per-key session-duration profile under a gap-based sessionizer:
    session count, mean and max session duration in seconds (a
    single-event session lasts 0). Sessions break when consecutive
    events are more than ``gap_seconds`` apart — tie timestamps always
    share a session, so the stats are tie-order invariant. NULL keys /
    NULL timestamps drop (oracle mirrors IS NOT NULL). Returns
    (key, n_sessions, avg_session_s, max_session_s).

    Scale shape: :func:`engine.shuffle.by_key` (only (key, ts) rows
    shuffle once); session ids come from one sort + boundary cumsum,
    durations from a grouped min/max — no per-key loop.
    """
    import pandas as pd
    from engine.shuffle import by_key, key_starts

    def _stats(sub):
        keys = sub[key_col].to_numpy()
        ts = sub[ts_col].to_numpy()
        new_key = key_starts(keys) == np.arange(len(keys))
        gap = np.r_[np.timedelta64(0, "s"), np.diff(ts)] \
            > np.timedelta64(int(gap_seconds * 1e6), "us")
        sid = np.cumsum(new_key | gap)  # global session ordinal
        f = pd.DataFrame({key_col: keys, "sid": sid, "ts": sub[ts_col]})
        per = f.groupby("sid", sort=False).agg(
            k=(key_col, "first"), lo=("ts", "min"), hi=("ts", "max"))
        dur = (per["hi"] - per["lo"]).dt.total_seconds()
        g = dur.groupby(per["k"], sort=False)
        out = pd.DataFrame({
            "n_sessions": g.size().to_numpy(np.int64),
            "avg_session_s": g.mean().to_numpy(np.float64),
            "max_session_s": g.max().to_numpy(np.float64)})
        out.insert(0, key_col, g.size().index.to_numpy())
        return out

    return by_key(ds, key_col, _stats, null_keys="drop",
                  prep=lambda df: df.loc[df[ts_col].notna(),
                                         [key_col, ts_col]],
                  order=[ts_col], batch_size=batch_size,
                  empty=pd.DataFrame({
                      key_col: [],
                      "n_sessions": pd.array([], dtype="int64"),
                      "avg_session_s": [], "max_session_s": []}))


def rollup_counts(ds, *, group_col: str = "event_type",
                  ts_col: str = "ts", batch_size: int = 65536):
    """GROUPING SETS rollup of event counts over (group, day):
    ``GROUP BY GROUPING SETS ((g, day), (g), (day), ())`` parity with
    ``lvl = grouping_id(g, day)`` (0=fine, 1=per-group, 2=per-day,
    3=grand total). NULL groups / NULL ts drop; the day is reported as
    a 'YYYY-MM-DD' string (NULL at the coarser grains). Returns
    (lvl, group, day, n).

    Scale shape: ONE corpus pass builds the fine (group, day) contingency
    (:func:`engine.shuffle.combine`, bounded by groups x days); every
    coarser grain is one more ``combine`` over that bounded aggregate,
    and a union — the corpus is never re-read or re-shuffled per grain.
    """
    from engine.shuffle import combine, finish

    def _cells(b: pa.Table) -> pa.Table:
        return pa.table({
            group_col: b.column(group_col),
            "day": pc.strftime(_us(b.column(ts_col)), format="%Y-%m-%d")})

    def _level(lvl):
        def _typed(b: pa.Table) -> pa.Table:
            b = b.filter(pc.is_valid(b.column("n")))
            n = b.num_rows

            def col(c):
                return pc.cast(b.column(c), pa.string()) \
                    if c in b.column_names else pa.nulls(n, pa.string())
            return pa.table({
                "lvl": pa.array(np.full(n, lvl), pa.int64()),
                group_col: col(group_col), "day": col("day"),
                "n": pc.cast(b.column("n"), pa.int64())})
        return _typed

    fine = combine(ds, [group_col, "day"], {"n": ("day", "count")},
                   derive=_cells, batch_size=batch_size)
    grains = [fine] + [combine(fine, keys, {"n": ("n", "sum")})
                       for keys in ([group_col], ["day"], [])]
    out = [finish(g, _level(lvl)) for lvl, g in enumerate(grains)]
    return out[0].union(*out[1:])


def activity_heatmap(ds, *, ts_col: str = "ts",
                     batch_size: int = 65536):
    """Day-of-week x hour-of-day event counts — the calendar heatmap
    (dow 0=Sunday..6, DuckDB ``dayofweek`` parity). NULL-ts rows drop.
    Returns (dow, hod, n), only non-empty cells (at most 168 rows).

    Scale shape: per-batch 2-key partial counts -> a 168-cell
    :func:`engine.shuffle.combine`; the corpus never shuffles.
    """
    from engine.shuffle import combine

    def _cells(b: pa.Table) -> pa.Table:
        ts = _us(b.column(ts_col))
        return pa.table({
            "dow": pc.day_of_week(ts, count_from_zero=True, week_start=7),
            "hod": pc.hour(ts)})

    return combine(ds, ["dow", "hod"], {"n": ("dow", "count")},
                   derive=_cells, batch_size=batch_size)


def user_hour_entropy(ds, *, key_col: str = "user_id",
                      ts_col: str = "ts", batch_size: int = 65536):
    """Per-key Shannon entropy (nats) of the hour-of-day activity
    distribution — the behavioral-regularity feature (a bot posting
    every hour scores ln(24); a 9-to-5 human scores much lower). NULL
    keys / NULL ts drop. Returns (key, hour_entropy, n_events).

    Scale shape: the per-batch (key, hour) count combiner bounds the
    shuffle at 24 rows per key per block; the per-key entropy reduce
    (cross-batch cell merge + p·ln p bincount) runs once per
    :func:`engine.shuffle.by_key` partition.
    """
    import pandas as pd
    from engine.shuffle import by_key

    def _partial(df):
        sub = df.loc[df[ts_col].notna(), [key_col, ts_col]]
        g = pd.DataFrame({key_col: sub[key_col],
                          "hod": sub[ts_col].dt.hour.astype(np.int64)}) \
            .groupby([key_col, "hod"], sort=False) \
            .size().rename("n").reset_index()
        g["n"] = g["n"].astype(np.int64)
        return g

    def _entropy(df):
        cells = df.groupby([key_col, "hod"], sort=False)["n"].sum() \
            .reset_index()
        tot = cells.groupby(key_col, sort=False)["n"].transform("sum") \
            .to_numpy(np.float64)
        p = cells["n"].to_numpy(np.float64) / tot
        ent = pd.Series(-p * np.log(p)) \
            .groupby(cells[key_col], sort=False)
        out = pd.DataFrame({
            "hour_entropy": ent.sum().to_numpy(np.float64),
            "n_events": cells.groupby(key_col, sort=False)["n"].sum()
            .to_numpy(np.int64)})
        out.insert(0, key_col, ent.sum().index.to_numpy())
        return out

    return by_key(ds, key_col, _entropy, prep=_partial, null_keys="drop",
                  batch_size=batch_size,
                  empty=pd.DataFrame({key_col: [], "hour_entropy": [],
                                      "n_events": pd.array(
                                          [], dtype="int64")}))


def cohort_retention(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                     batch_size: int = 65536):
    """Cohort retention counts: users grouped by FIRST-active day
    (cohort), distinct active users per (cohort, day offset) — the
    classic retention triangle. NULL keys / ts drop. Returns
    (cohort 'YYYY-MM-DD', day_offset, n_users).

    Scale shape: per-batch distinct (key, day) pairs shuffle ONCE
    (:func:`engine.shuffle.by_key`); inside each partition the cohort
    (min day) and the per-(cohort, offset) counts resolve vectorized — a
    user's rows all co-locate, so "distinct users" is exact without a
    second distinct pass; only (cohort, offset, n) partials feed the
    final bounded :func:`engine.shuffle.combine`.
    """
    import pandas as pd
    import ray.data
    from engine.shuffle import by_key, combine

    def _days(df):
        sub = df.loc[df[ts_col].notna(), [key_col, ts_col]]
        return pd.DataFrame({key_col: sub[key_col],
                             "day": sub[ts_col].dt.floor("D")}) \
            .drop_duplicates()

    def _partial(df):
        sub = df[[key_col, "day"]].drop_duplicates()
        cohort = sub.groupby(key_col, sort=False)["day"] \
            .transform("min")
        off = (sub["day"] - cohort).dt.days.astype(np.int64)
        g = pd.DataFrame({
            "cohort": cohort.dt.strftime("%Y-%m-%d"),
            "day_offset": off}) \
            .groupby(["cohort", "day_offset"], sort=False) \
            .size().rename("n").reset_index()
        g["n"] = g["n"].astype(np.int64)
        return g

    parts = by_key(ds, key_col, _partial, prep=_days, null_keys="drop",
                   batch_size=batch_size, empty=pd.DataFrame({
                       "cohort": [],
                       "day_offset": pd.array([], dtype="int64"),
                       "n": pd.array([], dtype="int64")}))
    seed = ray.data.from_arrow(pa.table({  # types an empty result
        "cohort": pa.array([], pa.string()),
        "day_offset": pa.array([], pa.int64()),
        "n": pa.array([], pa.int64())}))
    return combine(seed.union(parts), ["cohort", "day_offset"],
                   {"n_users": ("n", "sum")})


def rolling_rows_mean(ds, *, key_col: str = "user_id",
                      ts_col: str = "ts", val_col: str = "value",
                      id_col: str = "event_id", window_rows: int = 3,
                      batch_size: int = 65536):
    """Per-key trailing ROWS-frame mean — ``avg(value) OVER (PARTITION
    BY key ORDER BY ts, id ROWS BETWEEN <w-1> PRECEDING AND CURRENT
    ROW)`` parity: the frame counts ROWS (NULL-value rows occupy a slot
    but don't contribute; an all-NULL frame is NULL). NULL keys group
    as ONE partition; NULL timestamps sort last. The RANGE-frame (time
    window) sibling is :func:`rolling_window_mean`. Returns
    (id, rolling_mean).

    Shape: :func:`engine.shuffle.by_key`; the kernel is pandas' grouped
    ``rolling(w, min_periods=1).mean()`` Cython path.
    """
    import pandas as pd
    from engine.shuffle import by_key
    cols = [id_col, key_col, ts_col, val_col]

    def _roll(sub):
        y = sub.groupby(key_col, sort=False, dropna=False)[val_col] \
            .rolling(window_rows, min_periods=1).mean() \
            .reset_index(drop=True)
        # groupby.rolling returns rows in group order; groups preserve
        # the sorted order here because the frame is already sorted by
        # key, so positional alignment holds
        return pd.DataFrame({id_col: sub[id_col].to_numpy(),
                             "rolling_mean":
                                 y.to_numpy(dtype=np.float64)})

    return by_key(ds, key_col, _roll, prep=lambda df: df[cols],
                  order=[ts_col, id_col], batch_size=batch_size,
                  empty=pd.DataFrame({id_col: [], "rolling_mean": []}))


def q10_returned_item_reporting(lineitem_ds, orders_ds, customer_ds,
                                nation_ds, *,
                                date_lo: str = "1996-01-01",
                                date_hi: str = "1996-04-01", k: int = 20,
                                batch_size: int = 65536,
                                concurrency=None):
    """TPC-H Q10 shape: top-k customers by revenue lost to RETURNED
    items in one quarter, enriched with account balance and nation.

    Scale shape — two :func:`engine.shuffle.join` calls (each broadcasts
    a small right side and hash-joins a large one):

    1. lineitem filters ``l_returnflag = 'R'`` and pre-aggregates
       revenue per orderkey INSIDE ``map_batches`` (one Arrow
       ``group_by`` per batch, never raw lineitem);
    2. orders filter to the quarter and carry only (orderkey, custkey);
    3. :func:`engine.shuffle.join` on orderkey, then a custkey
       :func:`engine.shuffle.combine` bounds the result at the customer
       count;
    4. the customer dimension attaches by a second join on custkey;
       nation (25 rows) maps on the driver's dict;
    5. distributed sort + limit keeps all but k rows off the driver.

    Returns a pandas DataFrame
    (c_custkey, c_name, revenue, c_acctbal, n_name).
    """
    from engine.shuffle import combine, join
    lo = np.datetime64(date_lo, "us")
    hi = np.datetime64(date_hi, "us")

    def _li_partial(b: pa.Table) -> pa.Table:
        return _revenue_by_order(
            b.filter(pc.equal(b.column("l_returnflag"), "R")))

    li = lineitem_ds.map_batches(_li_partial, batch_format="pyarrow",
                                 zero_copy_batch=True,
                                 batch_size=batch_size,
                                 concurrency=concurrency)

    def _o_filter(b: pa.Table) -> pa.Table:
        od = pc.cast(b.column("o_orderdate"), pa.timestamp("us")) \
            .to_numpy(zero_copy_only=False)
        sub = b.filter(pa.array((od >= lo) & (od < hi)))
        return pa.table({"o_orderkey": sub.column("o_orderkey"),
                         "o_custkey": sub.column("o_custkey")})

    orders = orders_ds.map_batches(_o_filter, batch_format="pyarrow",
                                   zero_copy_batch=True,
                                   batch_size=batch_size,
                                   concurrency=concurrency)

    def _typed_empty():
        return pa.table({
            "c_custkey": pa.array([], pa.int64()),
            "c_name": pa.array([], pa.string()),
            "revenue": pa.array([], pa.float64()),
            "c_acctbal": pa.array([], pa.float64()),
            "n_name": pa.array([], pa.string())})

    dims = _key_rows((nation_ds, "n_nationkey"), (customer_ds.map_batches(
        lambda b: b.select(["c_custkey", "c_name", "c_acctbal",
                            "c_nationkey"]),
        batch_format="pyarrow"), "c_custkey"))
    if dims is None:
        return _typed_empty().to_pandas()
    nation, cust = dims

    per_cust = combine(join(li, orders, "o_orderkey"), "o_custkey",
                       {"rev": ("rev", "sum")})

    nat = nation.to_pandas()  # 25 rows by spec — always broadcast
    nat_map = dict(zip(nat["n_nationkey"].tolist(),
                       nat["n_name"].tolist()))

    # per_cust is materialized (a combine output), so the left schema
    # does not run the shuffles behind it twice
    cj = join(per_cust, cust, "o_custkey", right_on="c_custkey")

    def _attach(b: pa.Table) -> pa.Table:
        nk = b.column("c_nationkey").to_numpy(zero_copy_only=False)
        return pa.table({
            "c_custkey": b.column("o_custkey"),
            "c_name": b.column("c_name"),
            "revenue": pc.cast(b.column("rev"), pa.float64()),
            "c_acctbal": pc.cast(b.column("c_acctbal"), pa.float64()),
            "n_name": pa.array([nat_map.get(x) for x in nk.tolist()],
                               pa.string())})

    enriched = cj.map_batches(_attach, batch_format="pyarrow")
    top = enriched.sort(["revenue", "c_custkey"],
                        descending=[True, False]).limit(k)
    out = top.to_pandas().reset_index(drop=True)
    if not len(out):
        return _typed_empty().to_pandas()
    return out


def event_transition_matrix(ds, *, key_col: str = "user_id",
                            ts_col: str = "ts",
                            type_col: str = "event_type",
                            id_col: str = "event_id",
                            batch_size: int = 65536):
    """First-order Markov transition counts: how often event type A is
    immediately followed by type B within the same key's (ts, id)
    order — ``lead(type) OVER (PARTITION BY key ORDER BY ts, id)``
    pair counts. NULL keys / ts / types drop. Returns
    (from_type, to_type, n), vocabulary²-bounded.

    Scale shape: (id, key, ts, type) rows shuffle once
    (:func:`engine.shuffle.by_key`); adjacency is a grouped
    ``shift(-1)`` and the pair counts collapse per partition before the
    tiny final :func:`engine.shuffle.combine`.
    """
    import pandas as pd
    import ray.data
    from engine.shuffle import by_key, column_dtype, combine
    cols = [id_col, key_col, ts_col, type_col]

    def _pairs(sub):
        nxt = sub.groupby(key_col, sort=False)[type_col].shift(-1)
        keep = nxt.notna()
        g = pd.DataFrame({"from_type": sub.loc[keep, type_col],
                          "to_type": nxt[keep]}) \
            .groupby(["from_type", "to_type"], sort=False) \
            .size().rename("n").reset_index()
        g["n"] = g["n"].astype(np.int64)
        return g

    parts = by_key(ds, key_col, _pairs, null_keys="drop",
                   prep=lambda df: df.loc[df[ts_col].notna()
                                          & df[type_col].notna(), cols],
                   order=[ts_col, id_col], batch_size=batch_size,
                   empty=pd.DataFrame({
                       "from_type": [], "to_type": [],
                       "n": pd.array([], dtype="int64")}))
    t = column_dtype(ds, type_col)
    seed = ray.data.from_arrow(pa.table({  # types an empty result
        "from_type": pa.array([], t), "to_type": pa.array([], t),
        "n": pa.array([], pa.int64())}))
    return combine(seed.union(parts), ["from_type", "to_type"],
                   {"n": ("n", "sum")})


# far-future sentinel for "target never seen"; it stays representable
# in ns resolution (pandas ns max is 2262)
_FAR_FUTURE = np.datetime64("2260-01-01", "us")


def time_to_first_target(ds, *, key_col: str = "user_id",
                         ts_col: str = "ts",
                         type_col: str = "event_type",
                         target: str = "purchase",
                         batch_size: int = 65536):
    """Per-key seconds from the FIRST event to the FIRST ``target``
    event — the time-to-conversion funnel metric; keys that never reach
    the target report NULL (SQL LEFT JOIN). NULL keys / ts drop.
    Returns (key, seconds_to_target).

    Scale shape: pure two-level MIN (:func:`engine.shuffle.combine`) —
    each block collapses to one (key, min ts, min target-ts) row, the
    merge is key-bounded, and no co-location or sort is needed (min is
    associative).
    """
    from engine.shuffle import combine, finish

    def _times(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column(ts_col)))
        ts = _us(b.column(ts_col))
        hit = pc.fill_null(pc.equal(b.column(type_col), target), False)
        # never-seen targets ride as a far-future SENTINEL, not NULL, so
        # the target min is never NULL in any partial
        far = pa.scalar(_FAR_FUTURE, pa.timestamp("us"))
        return pa.table({key_col: b.column(key_col), "ts": ts,
                         "tgt": pc.if_else(hit, ts, far)})

    def _final(b: pa.Table) -> pa.Table:
        ft = b.column("first_target").to_numpy(zero_copy_only=False)
        delta = (ft - b.column("first_ts").to_numpy(zero_copy_only=False)) \
            / np.timedelta64(1, "s")
        never = ft >= _FAR_FUTURE
        return pa.table({key_col: b.column(key_col),
                         "seconds_to_target": pa.array(
                             delta, pa.float64(), mask=never)})

    return finish(combine(ds, key_col, {"first_ts": ("ts", "min"),
                                        "first_target": ("tgt", "min")},
                          derive=_times, batch_size=batch_size), _final)


def daily_active_users(ds, *, key_col: str = "user_id",
                       ts_col: str = "ts", batch_size: int = 65536):
    """Daily active users — distinct keys per calendar day (the DAU
    time series). NULL keys / ts drop. Returns (day 'YYYY-MM-DD', dau).

    Scale shape: per-batch DISTINCT (day, key) pairs are the combiner;
    pairs shuffle ONCE on the day (:func:`engine.shuffle.by_key`) and
    each day's cross-batch dedup + count happens in its partition — the
    distinct-set itself never re-shuffles.
    """
    import pandas as pd
    from engine.shuffle import by_key

    def _pairs(df):
        sub = df.loc[df[ts_col].notna() & df[key_col].notna(),
                     [key_col, ts_col]]
        return pd.DataFrame({
            "day": np.datetime_as_string(
                sub[ts_col].to_numpy().astype("datetime64[D]")),
            key_col: sub[key_col]}).drop_duplicates()

    def _count(df):
        g = df[["day", key_col]].drop_duplicates() \
            .groupby("day", sort=False).size().rename("dau") \
            .reset_index()
        g["dau"] = g["dau"].astype(np.int64)
        return g

    return by_key(ds, "day", _count, prep=_pairs, batch_size=batch_size,
                  empty=pd.DataFrame({"day": [],
                                      "dau": pd.array([], dtype="int64")}))


def peak_hourly_rate(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                     batch_size: int = 65536):
    """Per-key burst detector: the maximum events in any single clock
    hour — ``max`` over per-(key, hour-bucket) counts. NULL keys / ts
    drop. Returns (key, peak_events_per_hour).

    Scale shape: the (key, hour) count combiner bounds the shuffle; the
    cross-batch cell merge + per-key max run once per
    :func:`engine.shuffle.by_key` partition.
    """
    import pandas as pd
    from engine.shuffle import by_key

    def _cells(df):
        sub = df.loc[df[ts_col].notna(), [key_col, ts_col]]
        g = pd.DataFrame({key_col: sub[key_col],
                          "hour": sub[ts_col].dt.floor("h")}) \
            .groupby([key_col, "hour"], sort=False) \
            .size().rename("n").reset_index()
        g["n"] = g["n"].astype(np.int64)
        return g

    def _peak(df):
        cells = df.groupby([key_col, "hour"], sort=False)["n"].sum() \
            .reset_index()
        g = cells.groupby(key_col, sort=False)["n"].max()
        return pd.DataFrame({
            key_col: g.index.to_numpy(),
            "peak_events_per_hour": g.to_numpy(np.int64)})

    return by_key(ds, key_col, _peak, prep=_cells, null_keys="drop",
                  batch_size=batch_size,
                  empty=pd.DataFrame({key_col: [],
                                      "peak_events_per_hour":
                                          pd.array([], dtype="int64")}))


def orders_per_customer_histogram(orders_ds, customer_ds, *,
                                  fk_col: str = "o_custkey",
                                  pk_col: str = "c_custkey",
                                  batch_size: int = 65536):
    """Distribution of per-customer order counts INCLUDING the zero
    bin — ``LEFT JOIN + COALESCE(n, 0)`` parity, the classic
    zero-inflated engagement histogram. Returns
    (n_orders, n_customers).

    Scale shape: per-key counts come from one
    :func:`engine.shuffle.combine`; a semi-join against the dimension
    keys drops DANGLING foreign keys (they must not masquerade as
    customers — the corpus has them, see referential_orders); the
    histogram over the surviving counts is a second ``combine``
    (count-of-counts), and the zero bin is arithmetic — total customers
    minus customers with >= 1 order — so no anti-join ships rows.
    """
    import ray.data
    from engine.shuffle import combine

    per_key = combine(orders_ds, fk_col, {"n": (fk_col, "count")},
                      derive=lambda b: b.select([fk_col]),
                      batch_size=batch_size)
    per_key = semi_join(per_key, customer_ds, key_col=fk_col,
                        right_key_col=pk_col).materialize()
    hist = combine(per_key, "n_orders", {"n_customers": ("n_orders",
                                                         "count")},
                   derive=lambda b: pa.table({"n_orders": b.column("n")}))
    zero = int(customer_ds.count() - per_key.count())
    if zero > 0:
        hist = hist.union(ray.data.from_arrow(pa.table({
            "n_orders": pa.array([0], pa.int64()),
            "n_customers": pa.array([zero], pa.int64())})))
    return hist


def share_within_group(ds, *, outer_col: str, inner_col: str,
                       batch_size: int = 65536):
    """Normalized composition: counts per (outer, inner) plus each
    cell's SHARE of its outer group — ``n / sum(n) OVER (PARTITION BY
    outer)`` parity. NULL members drop. Returns
    (outer, inner, n, share).

    Scale shape: the two-key count :func:`engine.shuffle.combine` bounds
    the shuffle; the share transform runs per OUTER partition
    (:func:`engine.shuffle.by_key`) over the (outer x inner)-bounded
    aggregate — cheap by construction.
    """
    import pandas as pd
    from engine.shuffle import by_key, combine

    agg = combine(ds, [outer_col, inner_col], {"n": (inner_col, "count")},
                  derive=lambda b: b.select([outer_col, inner_col]),
                  batch_size=batch_size)

    def _share(df):
        n = df["n"].to_numpy(np.float64)
        tot = df.groupby(outer_col, sort=False)["n"] \
            .transform("sum").to_numpy(np.float64)
        return pd.DataFrame({outer_col: df[outer_col].to_numpy(),
                             inner_col: df[inner_col].to_numpy(),
                             "n": n.astype(np.int64),
                             "share": n / tot})

    return by_key(agg, outer_col, _share, empty=pd.DataFrame({
        outer_col: [], inner_col: [], "n": pd.array([], dtype="int64"),
        "share": []}))


def user_repeat_rate(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                     type_col: str = "event_type",
                     id_col: str = "event_id",
                     batch_size: int = 65536):
    """Per-key behavioral stickiness: the fraction of consecutive event
    pairs with the SAME type — ``count(next = type) /
    count(transitions)`` under the (ts, id) order; single-event keys
    report (0, NULL). NULL keys / ts / types drop. Returns
    (key, n_transitions, repeat_rate).

    Same key-partition adjacency as :func:`event_transition_matrix`,
    reduced per key instead of per pair.
    """
    import pandas as pd
    from engine.shuffle import by_key
    cols = [id_col, key_col, ts_col, type_col]

    def _rate(sub):
        nxt = sub.groupby(key_col, sort=False)[type_col].shift(-1)
        has = nxt.notna()
        rep = has & (nxt == sub[type_col])
        f = pd.DataFrame({"t": has.astype(np.int64),
                          "r": rep.astype(np.int64)})
        g = f.groupby(sub[key_col], sort=False).sum()
        t = g["t"].to_numpy(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            rate = np.where(t > 0, g["r"].to_numpy(np.float64) / t,
                            np.nan)
        out = pd.DataFrame({"n_transitions":
                            g["t"].to_numpy(np.int64),
                            "repeat_rate": rate})
        out.insert(0, key_col, g.index.to_numpy())
        return out

    return by_key(ds, key_col, _rate, null_keys="drop",
                  prep=lambda df: df.loc[df[ts_col].notna()
                                         & df[type_col].notna(), cols],
                  order=[ts_col, id_col], batch_size=batch_size,
                  empty=pd.DataFrame({
                      key_col: [],
                      "n_transitions": pd.array([], dtype="int64"),
                      "repeat_rate": []}))


def user_value_concentration(ds, *, key_col: str = "user_id",
                             val_col: str = "value",
                             batch_size: int = 65536):
    """Per-key value concentration: the single largest value's share of
    the key's total — ``max(v) / NULLIF(sum(v), 0)``. NULL keys /
    values drop. Returns (key, max_share).

    Pure two-level associative aggregate (max and sum both combine):
    one (key, max, sum) row per block (:func:`engine.shuffle.combine`),
    key-bounded merge, no co-location or sort.
    """
    from engine.shuffle import combine, finish, not_null

    def _values(b: pa.Table) -> pa.Table:
        v = pc.cast(b.column(val_col), pa.float64())
        keep = not_null(v)
        return pa.table({key_col: b.column(key_col).filter(keep),
                         "v": v.filter(keep)})

    def _final(b: pa.Table) -> pa.Table:
        mx = b.column("mx").to_numpy(zero_copy_only=False)
        s = b.column("s").to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore", divide="ignore"):
            share = np.where(s != 0.0, mx / s, np.nan)
        return pa.table({
            key_col: b.column(key_col),
            "max_share": pa.array(share, pa.float64(),
                                  mask=np.isnan(share))})

    return finish(combine(ds, key_col, {"mx": ("v", "max"),
                                        "s": ("v", "sum")},
                          derive=_values, batch_size=batch_size), _final)


def daily_ratio(ds, *, ts_col: str = "ts", type_col: str = "event_type",
                num_type: str = "purchase", den_type: str = "click",
                batch_size: int = 65536):
    """Daily ratio of two event types — ``count(num) / NULLIF(
    count(den), 0)`` per calendar day (the conversion-rate time
    series). Days where neither type occurs emit no row; a day with
    numerators but no denominators reports NULL. NULL ts/type drop.
    Returns (day 'YYYY-MM-DD', n_num, n_den, ratio).

    Scale shape: one (day, type) count combiner; the two series align
    inside the day's :func:`engine.shuffle.by_key` partition — no join,
    no pivot shuffle.
    """
    import pandas as pd
    from engine.shuffle import by_key

    def _partial(df):
        sub = df.loc[df[ts_col].notna()
                     & df[type_col].isin([num_type, den_type]),
                     [ts_col, type_col]]
        g = pd.DataFrame({
            "day": np.datetime_as_string(
                sub[ts_col].to_numpy().astype("datetime64[D]")),
            "tag": (sub[type_col] == num_type).to_numpy()
            .astype(np.int64)}) \
            .groupby(["day", "tag"], sort=False) \
            .size().rename("n").reset_index()
        g["n"] = g["n"].astype(np.int64)
        return g

    def _ratio(df):
        cells = df.groupby(["day", "tag"], sort=False)["n"].sum() \
            .reset_index()
        piv = cells.pivot_table(index="day", columns="tag", values="n",
                                aggfunc="sum", fill_value=0)
        num = piv[1].to_numpy(np.float64) if 1 in piv.columns \
            else np.zeros(len(piv))
        den = piv[0].to_numpy(np.float64) if 0 in piv.columns \
            else np.zeros(len(piv))
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(den > 0, num / den, np.nan)
        return pd.DataFrame({"day": piv.index.to_numpy(),
                             "n_num": num.astype(np.int64),
                             "n_den": den.astype(np.int64),
                             "ratio": ratio})

    return by_key(ds, "day", _ratio, prep=_partial, batch_size=batch_size,
                  empty=pd.DataFrame({"day": [],
                                      "n_num": pd.array([], dtype="int64"),
                                      "n_den": pd.array([], dtype="int64"),
                                      "ratio": []}))


def longest_daily_streak(ds, *, key_col: str = "user_id",
                         ts_col: str = "ts", batch_size: int = 65536):
    """Gaps-and-islands: each key's LONGEST run of consecutive active
    calendar days, plus the island count — SQL's classic
    ``day - row_number() * interval`` grouping trick. NULL keys / ts
    drop. Returns (key, longest_streak, n_streaks).

    Scale shape: per-batch DISTINCT (key, day) pairs shuffle once
    (:func:`engine.shuffle.by_key`); inside each partition one sort +
    two cumsum passes resolve the islands (break = new key OR day gap
    != 1), with no per-key loop — run lengths come from break-index
    differences.
    """
    import pandas as pd
    from engine.shuffle import by_key, key_starts

    def _days(df):
        sub = df.loc[df[ts_col].notna(), [key_col, ts_col]]
        return pd.DataFrame({key_col: sub[key_col],
                             "day": sub[ts_col].dt.floor("D")}) \
            .drop_duplicates()

    def _streaks(df):
        sub = df[[key_col, "day"]].drop_duplicates()
        n = len(sub)
        keys = sub[key_col].to_numpy()
        days = sub["day"].to_numpy().astype("datetime64[D]")
        new_key = key_starts(keys) == np.arange(n)
        gap = np.r_[True, (days[1:] - days[:-1])
                    != np.timedelta64(1, "D")]
        brk = new_key | gap
        idx = np.arange(n, dtype=np.int64)
        starts = idx[brk]
        lens = np.diff(np.r_[starts, n])  # island lengths
        island_key = keys[starts]
        f = pd.DataFrame({key_col: island_key, "len": lens})
        g = f.groupby(key_col, sort=False)["len"]
        out = pd.DataFrame({
            "longest_streak": g.max().to_numpy(np.int64),
            "n_streaks": g.size().to_numpy(np.int64)})
        out.insert(0, key_col, g.max().index.to_numpy())
        return out

    return by_key(ds, key_col, _streaks, prep=_days, null_keys="drop",
                  order=["day"], batch_size=batch_size,
                  empty=pd.DataFrame({
                      key_col: [],
                      "longest_streak": pd.array([], dtype="int64"),
                      "n_streaks": pd.array([], dtype="int64")}))
