"""Round-5 operators: rolling MIN/MAX over RANGE frames and the
window-rank family (ROW_NUMBER / RANK / DENSE_RANK), each pinned by a
randomized differential test against DuckDB window functions — the same
template as the round-4 lag/moments/corr tests."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _corpus(seed, n=3000, keys=50):
    rng = np.random.default_rng(seed)
    df = pd.DataFrame({
        "event_id": np.arange(1, n + 1, dtype=np.int64),
        "user_id": rng.integers(0, keys, n),
        "ts": pd.to_datetime("2020-01-01") + pd.to_timedelta(
            rng.integers(0, 3600 * 24, n), unit="s"),
        "value": rng.normal(size=n).round(3)})
    # NULL values, NULL timestamps, and tie timestamps — every contract
    df.loc[rng.choice(n, n // 12, replace=False), "value"] = np.nan
    df.loc[rng.choice(n, n // 60, replace=False), "ts"] = pd.NaT
    dup = rng.choice(n - 1, n // 15, replace=False)
    df.loc[dup + 1, "ts"] = df.loc[dup, "ts"].values
    return df


class TestRangeReduce:
    def test_matches_bruteforce(self):
        from engine.relational import _range_reduce
        rng = np.random.default_rng(5)
        v = rng.normal(size=257)
        j = rng.integers(0, 257, 400)
        e = np.minimum(j + rng.integers(0, 80, 400), 257)
        got = _range_reduce(v, j, e, np.minimum, np.inf)
        exp = np.array([v[a:b].min() if b > a else np.inf
                        for a, b in zip(j, e)])
        assert np.allclose(got, exp)
        got = _range_reduce(v, j, e, np.maximum, -np.inf)
        exp = np.array([v[a:b].max() if b > a else -np.inf
                        for a, b in zip(j, e)])
        assert np.allclose(got, exp)

    def test_empty_input(self):
        from engine.relational import _range_reduce
        z = np.array([], dtype=np.int64)
        assert len(_range_reduce(np.array([]), z, z, np.minimum,
                                 np.inf)) == 0


class TestRollingMinMax:
    @pytest.mark.parametrize("seed", [2, 19])
    def test_differential_vs_duckdb(self, seed, ray_session):
        import ray.data
        from engine.relational import rolling_window_min_max
        df = _corpus(seed)
        got = rolling_window_min_max(
            ray.data.from_pandas(df), window_seconds=3 * 3600) \
            .to_pandas().sort_values("event_id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute("""
            select event_id,
                   min(value) over (partition by user_id order by ts
                       range between interval 3 hours preceding
                             and current row) as rolling_min,
                   max(value) over (partition by user_id order by ts
                       range between interval 3 hours preceding
                             and current row) as rolling_max
            from events where ts is not null order by event_id""").df()
        m = got.merge(exp, on="event_id", suffixes=("_g", "_e"))
        assert len(m) == len(exp) == len(got)
        for c in ("rolling_min", "rolling_max"):
            a = m[c + "_g"].to_numpy()
            b = m[c + "_e"].to_numpy()
            assert np.isclose(a, b, equal_nan=True).all()

    def test_all_null_frame_reports_null(self, ray_session):
        import ray.data
        from engine.relational import rolling_window_min_max
        ds = ray.data.from_arrow(pa.table({
            "event_id": pa.array([1, 2], pa.int64()),
            "ts": pa.array(pd.to_datetime(["2020-01-01 00:00",
                                           "2020-01-01 00:30"])),
            "user_id": pa.array([3, 3], pa.int64()),
            "value": pa.array([None, 5.0], pa.float64())}))
        out = rolling_window_min_max(ds).to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        assert np.isnan(out["rolling_min"].iloc[0])
        assert np.isnan(out["rolling_max"].iloc[0])
        assert out["rolling_min"].iloc[1] == 5.0
        assert out["rolling_max"].iloc[1] == 5.0


class TestWindowRanks:
    @pytest.mark.parametrize("seed", [7, 31])
    def test_differential_vs_duckdb(self, seed, ray_session):
        import ray.data
        from engine.relational import window_ranks
        df = _corpus(seed).drop(columns=["ts"])
        # value ties so rank != dense_rank != row_number is exercised
        rng = np.random.default_rng(seed + 1)
        df["value"] = rng.integers(0, 25, len(df)).astype(np.float64)
        df.loc[rng.choice(len(df), len(df) // 10, replace=False),
               "value"] = np.nan
        got = window_ranks(ray.data.from_pandas(df)).to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute("""
            select event_id,
                   row_number() over (partition by user_id
                       order by value asc nulls last, event_id)
                       as row_number,
                   rank() over (partition by user_id
                       order by value asc nulls last) as rank,
                   dense_rank() over (partition by user_id
                       order by value asc nulls last) as dense_rank
            from events order by event_id""").df()
        m = got.merge(exp, on="event_id", suffixes=("_g", "_e"))
        assert len(m) == len(exp) == len(got)
        for c in ("row_number", "rank", "dense_rank"):
            assert (m[c + "_g"].to_numpy()
                    == m[c + "_e"].to_numpy()).all()

    def test_null_keys_form_one_partition(self, ray_session):
        """SQL PARTITION BY groups NULL keys together."""
        import ray.data
        from engine.relational import window_ranks
        ds = ray.data.from_arrow(pa.table({
            "event_id": pa.array([1, 2, 3], pa.int64()),
            "user_id": pa.array([None, None, 4], pa.int64()),
            "value": pa.array([2.0, 1.0, 9.0], pa.float64())}))
        out = window_ranks(ds).to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        assert out["row_number"].tolist() == [2, 1, 1]
        assert out["rank"].tolist() == [2, 1, 1]
        assert out["dense_rank"].tolist() == [2, 1, 1]


def null_user_events():
    """Four events, three of them for a NULL user 10 min, then 2 h
    apart: with a 30 min gap the NULL user has TWO sessions (2 events
    and 1), as in SQL ``PARTITION BY user_id``, not one per event."""
    t0 = pd.Timestamp("2020-01-01 09:00")
    return pd.DataFrame({
        "user_id": [np.nan, np.nan, np.nan, 5.0],
        "ts": [t0, t0 + pd.Timedelta(minutes=10),
               t0 + pd.Timedelta(minutes=130), t0],
        "value": [1.5, np.nan, 4.0, 2.0]})


def null_ts_events():
    """User 1 at 09:00, 09:10, NULL, NULL and user 2 at NULL: as in SQL
    (NULL ts sort last; a row whose previous ts is NULL starts a
    session), user 1 has (3 events, 09:00-09:10) and (1 event,
    NULL-NULL), user 2 one NULL-NULL session."""
    t0 = pd.Timestamp("2020-01-01 09:00")
    return pd.DataFrame({
        "user_id": [1, 1, 1, 1, 2],
        "ts": [t0, t0 + pd.Timedelta(minutes=10), pd.NaT, pd.NaT, pd.NaT],
        "value": [1.5, np.nan, 4.0, 2.0, 3.0]})


class TestSessionAggregate:
    @pytest.mark.parametrize("seed", [13, "null_user", "null_ts"])
    def test_differential_vs_duckdb(self, seed, ray_session):
        import ray.data
        from engine.relational import session_aggregate
        if seed == "null_user":
            df = null_user_events()
        elif seed == "null_ts":
            df = null_ts_events()
        else:
            rng = np.random.default_rng(seed)
            n = 2500
            df = pd.DataFrame({
                "user_id": rng.integers(0, 40, n),
                "ts": pd.to_datetime("2020-01-01") + pd.to_timedelta(
                    rng.integers(0, 3600 * 24, n), unit="s"),
                "value": rng.normal(size=n).round(3)})
            df.loc[rng.choice(n, n // 10, replace=False), "value"] = np.nan
        got = session_aggregate(ray.data.from_pandas(df)).to_pandas() \
            .sort_values(["user_id", "session_id"]).reset_index(drop=True)
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute("""
            with marked as (
              select user_id, ts, value,
                     case when ts - lag(ts) over w > interval 30 minutes
                          or lag(ts) over w is null then 1 else 0
                     end as new_s
              from events window w as (partition by user_id order by ts)
            ), sess as (
              select user_id, ts, value,
                     sum(new_s) over (partition by user_id order by ts
                         rows unbounded preceding)::bigint as session_id
              from marked)
            select user_id, session_id, count(*) as n_events,
                   min(ts) as session_start, max(ts) as session_end,
                   sum(value) as value_sum, count(value) as n_values
            from sess group by 1, 2
            order by user_id, session_id""").df()
        assert len(got) == len(exp)
        assert np.array_equal(got["user_id"].to_numpy(np.float64),
                              exp["user_id"].to_numpy(np.float64),
                              equal_nan=True)
        for c in ("session_id", "n_events", "n_values"):
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
        for c in ("session_start", "session_end"):
            assert np.array_equal(got[c].to_numpy(), exp[c].to_numpy(),
                                  equal_nan=True), c
        assert np.isclose(got["value_sum"].to_numpy(),
                          exp["value_sum"].to_numpy(),
                          equal_nan=True).all()

    def test_all_null_session_sum_is_null(self, ray_session):
        import ray.data
        from engine.relational import session_aggregate
        ds = ray.data.from_arrow(pa.table({
            "user_id": pa.array([1, 1, 1], pa.int64()),
            "ts": pa.array(pd.to_datetime(
                ["2020-01-01 00:00", "2020-01-01 00:10",
                 "2020-01-01 05:00"])),
            "value": pa.array([None, None, 7.0], pa.float64())}))
        out = session_aggregate(ds).to_pandas() \
            .sort_values("session_id").reset_index(drop=True)
        assert out["n_events"].tolist() == [2, 1]
        assert np.isnan(out["value_sum"].iloc[0])
        assert out["n_values"].tolist() == [0, 1]
        assert out["value_sum"].iloc[1] == 7.0


class TestSymmetricDifference:
    def test_matches_sql_semantics(self, ray_session):
        import ray.data
        from engine.relational import symmetric_difference_distinct
        left = ray.data.from_arrow(pa.table({
            "k": pa.array([1, 2, 2, 3, None], pa.int64())}))
        right = ray.data.from_arrow(pa.table({
            "k": pa.array([3, 4, 4, None], pa.int64())}))
        out = symmetric_difference_distinct(left, right, key_col="k") \
            .to_pandas()
        assert sorted(out["k"]) == [1, 2, 4]   # 3 in both; NULLs dropped
        assert str(out["k"].dtype) == "int64"  # no float drift

    def test_empty_result(self, ray_session):
        import ray.data
        from engine.relational import symmetric_difference_distinct
        same = pa.table({"k": pa.array([5, 6], pa.int64())})
        out = symmetric_difference_distinct(
            ray.data.from_arrow(same), ray.data.from_arrow(same),
            key_col="k")
        assert out.count() == 0


class TestWindowRankFractions:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_differential_vs_duckdb(self, seed, ray_session):
        import ray.data
        from engine.relational import window_rank_fractions
        rng = np.random.default_rng(seed)
        n = 2500
        df = pd.DataFrame({
            "event_id": np.arange(1, n + 1, dtype=np.int64),
            "user_id": rng.integers(0, 47, n),
            "value": rng.integers(0, 20, n).astype(np.float64)})
        df.loc[rng.choice(n, n // 10, replace=False), "value"] = np.nan
        got = window_rank_fractions(
            ray.data.from_pandas(df), ntile_k=4).to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute("""
            select event_id,
                   percent_rank() over (partition by user_id
                       order by value asc nulls last) as pct_rank,
                   cume_dist() over (partition by user_id
                       order by value asc nulls last) as cume_dist,
                   ntile(4) over (partition by user_id
                       order by value asc nulls last, event_id) as bucket
            from events order by event_id""").df()
        m = got.merge(exp, on="event_id", suffixes=("_g", "_e"))
        assert len(m) == n
        assert np.isclose(m["pct_rank_g"], m["pct_rank_e"]).all()
        assert np.isclose(m["cume_dist_g"], m["cume_dist_e"]).all()
        assert (m["bucket_g"].to_numpy() == m["bucket_e"].to_numpy()).all()

    def test_tiny_partitions(self, ray_session):
        """single-row partition: percent_rank 0; k > n: one row per
        bucket (SQL NTILE)."""
        import ray.data
        from engine.relational import window_rank_fractions
        ds = ray.data.from_arrow(pa.table({
            "event_id": pa.array([1, 2, 3], pa.int64()),
            "user_id": pa.array([7, 8, 8], pa.int64()),
            "value": pa.array([5.0, 2.0, 1.0], pa.float64())}))
        out = window_rank_fractions(ds, ntile_k=4).to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        assert out["pct_rank"].tolist() == [0.0, 1.0, 0.0]
        assert out["cume_dist"].tolist() == [1.0, 1.0, 0.5]
        assert out["bucket"].tolist() == [1, 2, 1]


class TestQuantileBuckets:
    def test_differential_vs_duckdb(self, ray_session):
        import ray.data
        from engine.stats import quantile_buckets
        rng = np.random.default_rng(21)
        n = 2000
        df = pd.DataFrame({
            "event_id": np.arange(1, n + 1, dtype=np.int64),
            "value": rng.normal(size=n).round(3)})
        df.loc[rng.choice(n, n // 10, replace=False), "value"] = np.nan
        got = quantile_buckets(ray.data.from_pandas(df), "value") \
            .to_pandas().sort_values("event_id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute("""
            with f as (select quantile_cont(value, 0.25) q1,
                              quantile_cont(value, 0.5) q2,
                              quantile_cont(value, 0.75) q3
                       from events where value is not null)
            select event_id,
                   1 + cast(value > q1 as int) + cast(value > q2 as int)
                     + cast(value > q3 as int) as bucket
            from events, f where value is not null
            order by event_id""").df()
        assert len(got) == len(exp)
        assert (got["bucket"].to_numpy()
                == exp["bucket"].to_numpy().astype(np.int64)).all()
        # equal-frequency: each quartile holds ~25% of the rows
        counts = got["bucket"].value_counts()
        assert set(counts.index) == {1, 2, 3, 4}
        assert counts.max() - counts.min() <= len(got) * 0.02 + 2


class TestRobustZscore:
    def test_differential_vs_duckdb(self, ray_session):
        import ray.data
        from engine.stats import robust_zscore
        rng = np.random.default_rng(29)
        n = 1500
        df = pd.DataFrame({
            "event_id": np.arange(1, n + 1, dtype=np.int64),
            "value": rng.normal(size=n).round(3)})
        df.loc[rng.choice(n, n // 12, replace=False), "value"] = np.nan
        got = robust_zscore(ray.data.from_pandas(df), "value",
                            id_col="event_id").to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute("""
            with m as (select quantile_cont(value, 0.5) med
                       from events where value is not null),
            d as (select quantile_cont(abs(value - med), 0.5) mad
                  from events, m where value is not null)
            select event_id, (value - med) / mad as rz
            from events, m, d where value is not null
            order by event_id""").df()
        assert len(got) == len(exp)
        assert np.isclose(got["rz"].to_numpy(),
                          exp["rz"].to_numpy()).all()

    def test_zero_mad_reports_null(self, ray_session):
        import ray.data
        from engine.stats import robust_zscore
        ds = ray.data.from_arrow(pa.table({
            "event_id": pa.array([1, 2, 3, 4], pa.int64()),
            "value": pa.array([5.0, 5.0, 5.0, 9.0], pa.float64())}))
        out = robust_zscore(ds, "value", id_col="event_id").to_pandas()
        assert out["rz"].isna().all()


class TestGroupedCentroids:
    def test_matches_numpy_and_drops_bad_rows(self, ray_session):
        import ray.data
        from engine.similarity import grouped_centroids
        rng = np.random.default_rng(17)
        vecs = rng.standard_normal((120, 8)).astype(np.float32)
        labels = rng.integers(0, 3, 120)
        tbl = pa.table({
            "label": pa.array(labels, pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs],
                                  pa.list_(pa.float32()))})
        # a NULL-label row and a wrong-length row must be dropped
        extra = pa.table({
            "label": pa.array([None, 9], pa.int64()),
            "embedding": pa.array([[1.0] * 8, [1.0] * 3],
                                  pa.list_(pa.float32()))})
        ds = ray.data.from_arrow(pa.concat_tables([tbl, extra]))
        got = grouped_centroids(ds, group_col="label",
                                vec_col="embedding", dim=8).to_pandas() \
            .sort_values(["label", "dim"]).reset_index(drop=True)
        assert sorted(got["label"].unique()) == [0, 1, 2]
        for lab in (0, 1, 2):
            exp = vecs[labels == lab].astype(np.float64).mean(axis=0)
            sub = got[got["label"] == lab].sort_values("dim")
            assert np.allclose(sub["value"].to_numpy(), exp)

    def test_cross_batch_merge(self, ray_session):
        """Partial sums from different batches must merge — a per-batch
        mean-of-means would be wrong for unbalanced groups."""
        import ray.data
        from engine.similarity import grouped_centroids
        t1 = pa.table({"label": pa.array([1], pa.int64()),
                       "embedding": pa.array([[0.0, 0.0]],
                                             pa.list_(pa.float32()))})
        t2 = pa.table({"label": pa.array([1, 1, 1], pa.int64()),
                       "embedding": pa.array([[4.0, 8.0]] * 3,
                                             pa.list_(pa.float32()))})
        ds = ray.data.from_arrow(t1).union(ray.data.from_arrow(t2))
        got = grouped_centroids(ds, group_col="label",
                                vec_col="embedding", dim=2).to_pandas() \
            .sort_values("dim")
        assert got["value"].tolist() == [3.0, 6.0]  # (0+4*3)/4, (0+8*3)/4


class TestTfidfTopk:
    _SQL = r"""
        with tok as (
          select doc_id, token, count(*)::bigint as tf
          from (select doc_id,
                       unnest(string_split_regex(coalesce(text, ''),
                                                 '\s+')) as token
                from documents)
          where token <> '' group by doc_id, token),
        d as (select token, count(*)::bigint as df from tok
              group by token),
        n as (select count(*)::double as n from documents),
        scored as (
          select t.doc_id, t.token, t.tf,
                 t.tf * ln(n.n / d.df) as score,
                 row_number() over (partition by t.doc_id
                     order by t.tf * ln(n.n / d.df) desc, t.token) as rn
          from tok t join d using(token), n)
        select doc_id, token, tf, score from scored where rn <= 3
        order by doc_id, token"""

    def _docs(self):
        rng = np.random.default_rng(41)
        vocab = [f"w{i}" for i in range(60)]
        texts = [" ".join(rng.choice(vocab,
                                     rng.integers(3, 30)).tolist())
                 for _ in range(80)]
        texts.append("")          # empty doc: contributes to N only
        texts.append(None)        # NULL doc
        return pd.DataFrame({
            "doc_id": np.arange(1, 83, dtype=np.int64),
            "text": pd.array(texts, dtype="object")})

    @pytest.mark.parametrize("limit", [5_000_000, 1])
    def test_differential_both_routes(self, limit, ray_session):
        """broadcast df (limit high) and the distributed token-join
        fall-through (limit 1) must both match the SQL row set."""
        import ray.data
        from engine.textstats import tfidf_topk
        df = self._docs()
        got = tfidf_topk(ray.data.from_pandas(df), k=3,
                         broadcast_limit=limit).to_pandas() \
            .sort_values(["doc_id", "token"]).reset_index(drop=True)
        con = duckdb.connect()
        con.register("documents", df)
        exp = con.execute(self._SQL).df()
        assert len(got) == len(exp)
        m = got.merge(exp, on=["doc_id", "token"], suffixes=("_g", "_e"))
        assert len(m) == len(exp)          # identical row sets
        assert (m["tf_g"].to_numpy() == m["tf_e"].to_numpy()).all()
        assert np.isclose(m["score_g"], m["score_e"]).all()
