"""Round-5 seventh batch: mean-IDF rarity, within-group shares, repeat
rate, and value concentration — randomized differentials vs DuckDB."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

VOCAB = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta",
         "theta", "iota", "kappa"]


def _docs(seed, n=300):
    rng = np.random.default_rng(seed)
    texts = []
    for i in range(n):
        words = list(rng.choice(VOCAB, rng.integers(0, 12)))
        if rng.random() < 0.2:
            words.append(f"rare{i}")
        texts.append(" ".join(words) if words else
                     (None if rng.random() < 0.5 else ""))
    return pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                         "text": texts})


def _events(seed, n=3000, keys=60):
    rng = np.random.default_rng(seed)
    df = pd.DataFrame({
        "event_id": np.arange(1, n + 1, dtype=np.int64),
        "user_id": rng.integers(0, keys, n),
        "event_type": rng.choice(["click", "view", "purchase", None], n,
                                 p=[0.4, 0.3, 0.2, 0.1]),
        "ts": pd.to_datetime("2020-01-01") + pd.to_timedelta(
            rng.integers(0, 3600 * 24 * 14, n), unit="s"),
        "value": rng.uniform(-10, 110, n).round(3)})
    df.loc[rng.choice(n, n // 10, replace=False), "value"] = np.nan
    df.loc[rng.choice(n, n // 30, replace=False), "ts"] = pd.NaT
    return df


_IDF_SQL = r"""
    with tok as (
      select doc_id,
             unnest(regexp_extract_all(coalesce(text, ''), '\S+')) as t
      from documents),
    dt as (select distinct doc_id, t from tok where t <> ''),
    df as (select t, count(*)::double as df from dt group by t),
    n as (select count(*)::double as n from documents)
    select dt.doc_id, avg(ln(n.n / df.df)) as mean_idf,
           count(*)::bigint as n_distinct
    from dt join df using (t), n
    group by dt.doc_id order by dt.doc_id"""


class TestDocMeanIdf:
    def test_differential_both_routes(self, route, ray_session):
        import ray.data
        from engine.textstats import doc_mean_idf
        df = _docs(77)
        got = doc_mean_idf(
            ray.data.from_pandas(df), batch_size=64).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("documents", df)
        exp = con.execute(_IDF_SQL).df()
        m = got.merge(exp, on="doc_id", suffixes=("_g", "_e"))
        assert len(m) == len(exp) == len(got) > 0
        assert (m["n_distinct_g"] == m["n_distinct_e"]).all()
        assert np.isclose(m["mean_idf_g"].to_numpy(),
                          m["mean_idf_e"].to_numpy()).all()


class TestShareWithinGroup:
    @pytest.mark.parametrize("seed", [79, 167])
    def test_differential_vs_duckdb(self, seed, ray_session):
        import ray.data
        from engine.relational import share_within_group
        df = _events(seed)[["event_type", "user_id"]].rename(
            columns={"event_type": "kind"})
        df["bucket"] = (df["user_id"] % 5).astype(str)
        got = share_within_group(
            ray.data.from_pandas(df[["bucket", "kind"]]),
            outer_col="bucket", inner_col="kind").to_pandas() \
            .sort_values(["bucket", "kind"]).reset_index(drop=True)
        con = duckdb.connect()
        con.register("t", df)
        exp = con.execute("""
            with c as (select bucket, kind, count(*)::bigint as n
                       from t where bucket is not null
                         and kind is not null
                       group by bucket, kind)
            select bucket, kind, n,
                   n / sum(n) over (partition by bucket) as share
            from c order by bucket, kind""").df()
        assert got["bucket"].tolist() == exp["bucket"].tolist()
        assert got["kind"].tolist() == exp["kind"].tolist()
        assert got["n"].tolist() == exp["n"].tolist()
        assert np.isclose(got["share"].to_numpy(),
                          exp["share"].to_numpy()).all()
        # shares within each outer group sum to 1
        s = got.groupby("bucket")["share"].sum()
        assert np.allclose(s.to_numpy(), 1.0)


class TestUserRepeatRate:
    @pytest.mark.parametrize("seed", [83, 173])
    def test_differential_vs_duckdb(self, seed, ray_session):
        import ray.data
        from engine.relational import user_repeat_rate
        df = _events(seed)
        got = user_repeat_rate(ray.data.from_pandas(df)) \
            .to_pandas().sort_values("user_id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute("""
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
                   count(*) filter (nxt = event_type)::double
                   / nullif(count(*) filter (nxt is not null), 0)
                       as repeat_rate
            from s group by user_id order by user_id""").df()
        m = got.merge(exp, on="user_id", suffixes=("_g", "_e"))
        assert len(m) == len(exp) == len(got)
        assert (m["n_transitions_g"] == m["n_transitions_e"]).all()
        assert np.isclose(m["repeat_rate_g"].to_numpy(),
                          m["repeat_rate_e"].to_numpy(),
                          equal_nan=True).all()

    def test_pure_repetition_is_one(self, ray_session):
        import ray.data
        from engine.relational import user_repeat_rate
        df = pd.DataFrame({
            "event_id": np.arange(4, dtype=np.int64),
            "user_id": np.array([1, 1, 1, 2], dtype=np.int64),
            "ts": pd.to_datetime(["2021-01-01"] * 4)
            + pd.to_timedelta(np.arange(4), unit="m"),
            "event_type": ["a", "a", "a", "b"]})
        got = user_repeat_rate(ray.data.from_pandas(df)).to_pandas() \
            .sort_values("user_id").reset_index(drop=True)
        assert got["repeat_rate"].iloc[0] == 1.0
        assert np.isnan(got["repeat_rate"].iloc[1])  # single event


class TestUserValueConcentration:
    @pytest.mark.parametrize("seed", [89, 179])
    def test_differential_vs_duckdb(self, seed, ray_session):
        import ray.data
        from engine.relational import user_value_concentration
        df = _events(seed)
        got = user_value_concentration(
            ray.data.from_pandas(df), batch_size=64).to_pandas() \
            .sort_values("user_id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute("""
            select user_id,
                   max(value) / nullif(sum(value), 0) as max_share
            from events
            where user_id is not null and value is not null
            group by user_id order by user_id""").df()
        m = got.merge(exp, on="user_id", suffixes=("_g", "_e"))
        assert len(m) == len(exp) == len(got)
        assert np.isclose(m["max_share_g"].to_numpy(),
                          m["max_share_e"].to_numpy(),
                          equal_nan=True).all()

    def test_zero_sum_reports_null(self, ray_session):
        import ray.data
        from engine.relational import user_value_concentration
        df = pd.DataFrame({"user_id": np.array([1, 1], dtype=np.int64),
                           "value": [-2.0, 2.0]})
        got = user_value_concentration(
            ray.data.from_pandas(df)).to_pandas()
        assert np.isnan(got["max_share"].iloc[0])


class TestDailyRatio:
    @pytest.mark.parametrize("seed", [93, 181])
    def test_differential_vs_duckdb(self, seed, ray_session):
        import ray.data
        from engine.relational import daily_ratio
        df = _events(seed)
        got = daily_ratio(ray.data.from_pandas(df), batch_size=64) \
            .to_pandas().sort_values("day").reset_index(drop=True)
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute("""
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
                   n_num::double / nullif(n_den, 0) as ratio
            from c order by day""").df()
        assert got["day"].tolist() == exp["day"].tolist()
        assert got["n_num"].tolist() == exp["n_num"].tolist()
        assert got["n_den"].tolist() == exp["n_den"].tolist()
        assert np.isclose(got["ratio"].to_numpy(),
                          exp["ratio"].to_numpy(),
                          equal_nan=True).all()

    def test_zero_denominator_reports_null(self, ray_session):
        import ray.data
        from engine.relational import daily_ratio
        df = pd.DataFrame({
            "ts": pd.to_datetime(["2021-01-01", "2021-01-02",
                                  "2021-01-02"]),
            "event_type": ["purchase", "click", "purchase"]})
        got = daily_ratio(ray.data.from_pandas(df)).to_pandas() \
            .sort_values("day").reset_index(drop=True)
        assert np.isnan(got["ratio"].iloc[0])  # purchase, no click
        assert got["ratio"].iloc[1] == 1.0


class TestLongestDailyStreak:
    @pytest.mark.parametrize("seed", [97, 191])
    def test_differential_vs_duckdb(self, seed, ray_session):
        import ray.data
        from engine.relational import longest_daily_streak
        df = _events(seed)
        got = longest_daily_streak(
            ray.data.from_pandas(df), batch_size=64).to_pandas() \
            .sort_values("user_id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute("""
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
            from s group by user_id order by user_id""").df()
        m = got.merge(exp, on="user_id", suffixes=("_g", "_e"))
        assert len(m) == len(exp) == len(got)
        assert (m["longest_streak_g"] == m["longest_streak_e"]).all()
        assert (m["n_streaks_g"] == m["n_streaks_e"]).all()

    def test_known_islands(self, ray_session):
        import ray.data
        from engine.relational import longest_daily_streak
        # days 1,2,3 then 7,8 -> streaks 3 and 2
        df = pd.DataFrame({
            "user_id": np.array([1] * 6, dtype=np.int64),
            "ts": pd.to_datetime(["2021-01-01", "2021-01-02",
                                  "2021-01-03", "2021-01-03",
                                  "2021-01-07", "2021-01-08"])})
        got = longest_daily_streak(ray.data.from_pandas(df)).to_pandas()
        assert got["longest_streak"].iloc[0] == 3
        assert got["n_streaks"].iloc[0] == 2
