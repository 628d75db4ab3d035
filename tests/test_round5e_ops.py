"""Round-5 fifth batch: GROUPING SETS rollup, calendar heatmap, and
per-group quantile bucketing — randomized differentials vs DuckDB."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


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


class TestRollupCounts:
    @pytest.mark.parametrize("seed", [81, 117])
    def test_differential_vs_duckdb(self, seed, ray_session):
        import ray.data
        from engine.relational import rollup_counts
        df = _events(seed)
        got = rollup_counts(ray.data.from_pandas(df)).to_pandas()
        got = got.sort_values(
            ["lvl", "event_type", "day"], na_position="last") \
            .reset_index(drop=True)
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute("""
            select grouping_id(event_type,
                               strftime(ts, '%Y-%m-%d'))::bigint as lvl,
                   event_type, strftime(ts, '%Y-%m-%d') as day,
                   count(*)::bigint as n
            from events
            where ts is not null and event_type is not null
            group by grouping sets
                ((event_type, strftime(ts, '%Y-%m-%d')),
                 (event_type), (strftime(ts, '%Y-%m-%d')), ())
            order by lvl, event_type nulls last, day nulls last""").df()
        assert len(got) == len(exp)
        assert got["lvl"].tolist() == exp["lvl"].tolist()
        assert got["event_type"].fillna("~").tolist() \
            == exp["event_type"].fillna("~").tolist()
        assert got["day"].fillna("~").tolist() \
            == exp["day"].fillna("~").tolist()
        assert got["n"].tolist() == exp["n"].tolist()

    def test_grand_total_equals_rows(self, ray_session):
        import ray.data
        from engine.relational import rollup_counts
        df = _events(3)
        kept = int((df["ts"].notna() & df["event_type"].notna()).sum())
        got = rollup_counts(ray.data.from_pandas(df)).to_pandas()
        assert int(got.loc[got["lvl"] == 3, "n"].iloc[0]) == kept

    def test_empty_typed(self, ray_session):
        import ray.data
        from engine.relational import rollup_counts
        df = pd.DataFrame({"event_type": pd.array([None], dtype=object),
                           "ts": pd.to_datetime([pd.NaT])})
        out = rollup_counts(ray.data.from_pandas(df))
        assert out.count() == 0
        assert out.schema().base_schema.field("lvl").type == pa.int64()


class TestActivityHeatmap:
    @pytest.mark.parametrize("seed", [85])
    def test_differential_vs_duckdb(self, seed, ray_session):
        import ray.data
        from engine.relational import activity_heatmap
        df = _events(seed)
        got = activity_heatmap(ray.data.from_pandas(df)).to_pandas() \
            .sort_values(["dow", "hod"]).reset_index(drop=True)
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute("""
            select dayofweek(ts)::bigint as dow,
                   hour(ts)::bigint as hod, count(*)::bigint as n
            from events where ts is not null
            group by dow, hod order by dow, hod""").df()
        assert got["dow"].tolist() == exp["dow"].tolist()
        assert got["hod"].tolist() == exp["hod"].tolist()
        assert got["n"].tolist() == exp["n"].tolist()

    def test_known_day(self, ray_session):
        import ray.data
        from engine.relational import activity_heatmap
        # 2024-01-01 is a Monday -> DuckDB dayofweek == 1
        df = pd.DataFrame({"ts": pd.to_datetime(
            ["2024-01-01 05:00", "2024-01-07 23:00"])})  # Mon, Sun
        got = activity_heatmap(ray.data.from_pandas(df)).to_pandas() \
            .sort_values(["dow", "hod"]).reset_index(drop=True)
        assert got["dow"].tolist() == [0, 1]   # Sunday=0, Monday=1
        assert got["hod"].tolist() == [23, 5]


class TestGroupedQuantileBuckets:
    @pytest.mark.parametrize("seed", [91, 119])
    def test_differential_vs_duckdb(self, seed, ray_session):
        import ray.data
        from engine.stats import grouped_quantile_buckets
        df = _events(seed)
        got = grouped_quantile_buckets(
            ray.data.from_pandas(df), group_col="event_type",
            value_col="value", id_col="event_id").to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute("""
            with f as (
              select event_type,
                     quantile_cont(value, 0.25) as q1,
                     quantile_cont(value, 0.5) as q2,
                     quantile_cont(value, 0.75) as q3
              from events
              where value is not null and event_type is not null
              group by event_type)
            select e.event_id, e.event_type,
                   cast(1 + cast(e.value > f.q1 as int)
                          + cast(e.value > f.q2 as int)
                          + cast(e.value > f.q3 as int) as bigint)
                       as bucket
            from events e join f using (event_type)
            where e.value is not null
            order by event_id""").df()
        assert len(got) == len(exp)
        assert got["event_id"].tolist() == exp["event_id"].tolist()
        assert got["bucket"].tolist() == exp["bucket"].tolist()

    def test_buckets_balanced(self, ray_session):
        import ray.data
        from engine.stats import grouped_quantile_buckets
        rng = np.random.default_rng(0)
        df = pd.DataFrame({
            "event_id": np.arange(400, dtype=np.int64),
            "event_type": ["a"] * 200 + ["b"] * 200,
            "value": rng.permutation(400).astype(np.float64)})
        got = grouped_quantile_buckets(
            ray.data.from_pandas(df), group_col="event_type",
            value_col="value", id_col="event_id").to_pandas()
        counts = got.groupby(["event_type", "bucket"]).size()
        assert set(counts.to_numpy().tolist()) == {50}


class TestUserHourEntropy:
    @pytest.mark.parametrize("seed", [95, 121])
    def test_differential_vs_duckdb(self, seed, ray_session):
        import ray.data
        from engine.relational import user_hour_entropy
        df = _events(seed)
        # tiny batches force cross-batch (key, hour) cell merging
        got = user_hour_entropy(
            ray.data.from_pandas(df), batch_size=64).to_pandas() \
            .sort_values("user_id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute("""
            with c as (
              select user_id, hour(ts) as hod, count(*)::double as n
              from events
              where ts is not null and user_id is not null
              group by user_id, hod),
            t as (select user_id, sum(n) as tot from c
                  group by user_id)
            select c.user_id,
                   -sum((n / tot) * ln(n / tot)) as hour_entropy,
                   sum(n)::bigint as n_events
            from c join t using (user_id)
            group by c.user_id order by c.user_id""").df()
        m = got.merge(exp, on="user_id", suffixes=("_g", "_e"))
        assert len(m) == len(exp) == len(got)
        assert (m["n_events_g"] == m["n_events_e"]).all()
        assert np.isclose(m["hour_entropy_g"].to_numpy(),
                          m["hour_entropy_e"].to_numpy()).all()

    def test_single_hour_user_zero_entropy(self, ray_session):
        import ray.data
        from engine.relational import user_hour_entropy
        df = pd.DataFrame({
            "user_id": np.array([1, 1, 1], dtype=np.int64),
            "ts": pd.to_datetime(["2021-01-01 09:00", "2021-01-02 09:30",
                                  "2021-01-03 09:59"])})
        got = user_hour_entropy(ray.data.from_pandas(df)).to_pandas()
        assert got["hour_entropy"].iloc[0] == 0.0
        assert got["n_events"].iloc[0] == 3


class TestGroupedMad:
    @pytest.mark.parametrize("seed", [99, 123])
    def test_differential_vs_duckdb(self, seed, ray_session):
        import ray.data
        from engine.stats import grouped_mad
        df = _events(seed)
        got = grouped_mad(
            ray.data.from_pandas(df), group_col="event_type",
            value_col="value").to_pandas() \
            .sort_values("event_type").reset_index(drop=True)
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute("""
            with m as (
              select event_type, median(value) as med
              from events
              where value is not null and event_type is not null
              group by event_type)
            select e.event_type, median(abs(e.value - m.med)) as mad,
                   count(*)::bigint as n
            from events e join m using (event_type)
            where e.value is not null
            group by e.event_type order by e.event_type""").df()
        m = got.merge(exp, on="event_type", suffixes=("_g", "_e"))
        assert len(m) == len(exp) == len(got)
        assert (m["n_g"] == m["n_e"]).all()
        assert np.isclose(m["mad_g"].to_numpy(),
                          m["mad_e"].to_numpy()).all()

    def test_constant_group_mad_zero(self, ray_session):
        import ray.data
        from engine.stats import grouped_mad
        df = pd.DataFrame({"g": ["a"] * 5, "v": [2.0] * 5})
        got = grouped_mad(ray.data.from_pandas(df), group_col="g",
                          value_col="v").to_pandas()
        assert got["mad"].iloc[0] == 0.0


class TestCohortRetention:
    @pytest.mark.parametrize("seed", [103, 127])
    def test_differential_vs_duckdb(self, seed, ray_session):
        import ray.data
        from engine.relational import cohort_retention
        df = _events(seed)
        got = cohort_retention(
            ray.data.from_pandas(df), batch_size=64).to_pandas() \
            .sort_values(["cohort", "day_offset"]).reset_index(drop=True)
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute("""
            with e as (
              select user_id, date_trunc('day', ts) as day
              from events
              where ts is not null and user_id is not null),
            f as (select user_id, min(day) as cohort from e
                  group by user_id)
            select strftime(f.cohort, '%Y-%m-%d') as cohort,
                   datediff('day', f.cohort, e.day)::bigint
                       as day_offset,
                   count(distinct e.user_id)::bigint as n_users
            from e join f using (user_id)
            group by 1, 2 order by 1, 2""").df()
        assert len(got) == len(exp)
        assert got["cohort"].tolist() == exp["cohort"].tolist()
        assert got["day_offset"].tolist() == exp["day_offset"].tolist()
        assert got["n_users"].tolist() == exp["n_users"].tolist()

    def test_offset_zero_counts_every_user(self, ray_session):
        import ray.data
        from engine.relational import cohort_retention
        df = _events(5)
        users = df.loc[df["ts"].notna(), "user_id"].nunique()
        got = cohort_retention(ray.data.from_pandas(df)).to_pandas()
        assert int(got.loc[got["day_offset"] == 0, "n_users"].sum()) \
            == users


class TestRollingRowsMean:
    @pytest.mark.parametrize("seed", [111, 129])
    def test_differential_vs_duckdb(self, seed, ray_session):
        import ray.data
        from engine.relational import rolling_rows_mean
        df = _events(seed)
        got = rolling_rows_mean(ray.data.from_pandas(df),
                                window_rows=3).to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute("""
            select event_id,
                   avg(value) over (
                       partition by user_id order by ts, event_id
                       rows between 2 preceding and current row)
                       as rolling_mean
            from events order by event_id""").df()
        m = got.merge(exp, on="event_id", suffixes=("_g", "_e"))
        assert len(m) == len(exp) == len(got)
        assert np.isclose(m["rolling_mean_g"].to_numpy(),
                          m["rolling_mean_e"].to_numpy(),
                          equal_nan=True).all()

    def test_null_rows_occupy_slots(self, ray_session):
        import ray.data
        from engine.relational import rolling_rows_mean
        ds = ray.data.from_arrow(pa.table({
            "event_id": pa.array([1, 2, 3], pa.int64()),
            "ts": pa.array(pd.to_datetime(
                ["2021-01-01 00:00", "2021-01-01 00:01",
                 "2021-01-01 00:02"])),
            "user_id": pa.array([1, 1, 1], pa.int64()),
            "value": pa.array([6.0, None, 2.0], pa.float64())}))
        out = rolling_rows_mean(ds, window_rows=2).to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        # frame (6, NULL) -> 6.0; frame (NULL, 2) -> 2.0
        assert out["rolling_mean"].tolist() == [6.0, 6.0, 2.0]


class TestTokenCountsByGroup:
    @pytest.mark.parametrize("seed", [115])
    def test_differential_vs_duckdb(self, seed, ray_session):
        import ray.data
        from engine.textstats import token_counts_by_group
        rng = np.random.default_rng(seed)
        n = 300
        langs = rng.choice(["en", "de", None], n, p=[0.5, 0.4, 0.1])
        vocab = ["aa", "bb", "cc", "dd"]
        texts = [" ".join(rng.choice(vocab, rng.integers(0, 9)))
                 if rng.random() > 0.05 else None for _ in range(n)]
        df = pd.DataFrame({"lang": langs, "text": texts})
        got = token_counts_by_group(
            ray.data.from_pandas(df), batch_size=32).to_pandas() \
            .sort_values(["lang", "token"]).reset_index(drop=True)
        con = duckdb.connect()
        con.register("documents", df)
        exp = con.execute(r"""
            with tok as (
              select lang,
                     unnest(regexp_extract_all(coalesce(text, ''),
                                               '\S+')) as token
              from documents where lang is not null)
            select lang, token, count(*)::bigint as cnt
            from tok group by lang, token
            order by lang, token""").df()
        assert got["lang"].tolist() == exp["lang"].tolist()
        assert got["token"].tolist() == exp["token"].tolist()
        assert got["cnt"].tolist() == exp["cnt"].tolist()


class TestQ10ReturnedItems:
    def test_differential_vs_duckdb(self, ray_session):
        import ray.data
        from engine.relational import q10_returned_item_reporting
        rng = np.random.default_rng(7)
        n_li, n_o, n_c = 4000, 800, 120
        lineitem = pd.DataFrame({
            "l_orderkey": rng.integers(1, n_o + 1, n_li),
            "l_returnflag": rng.choice(["R", "N", "A"], n_li),
            "l_extendedprice": rng.uniform(10, 1000, n_li).round(2),
            "l_discount": rng.choice([0.0, 0.05, 0.1], n_li)})
        orders = pd.DataFrame({
            "o_orderkey": np.arange(1, n_o + 1, dtype=np.int64),
            "o_custkey": rng.integers(1, n_c + 1, n_o),
            "o_orderdate": pd.to_datetime("1995-10-01")
            + pd.to_timedelta(rng.integers(0, 400, n_o), unit="D")})
        customer = pd.DataFrame({
            "c_custkey": np.arange(1, n_c + 1, dtype=np.int64),
            "c_name": [f"Customer#{i:09d}" for i in range(1, n_c + 1)],
            "c_acctbal": rng.uniform(-999, 9999, n_c).round(2),
            "c_nationkey": rng.integers(0, 5, n_c)})
        nation = pd.DataFrame({
            "n_nationkey": np.arange(5, dtype=np.int64),
            "n_name": ["ALGERIA", "ARGENTINA", "BRAZIL", "CANADA",
                       "EGYPT"]})
        got = q10_returned_item_reporting(
            ray.data.from_pandas(lineitem), ray.data.from_pandas(orders),
            ray.data.from_pandas(customer), ray.data.from_pandas(nation))
        con = duckdb.connect()
        for name, df in [("lineitem", lineitem), ("orders", orders),
                         ("customer", customer), ("nation", nation)]:
            con.register(name, df)
        exp = con.execute("""
            select c.c_custkey, c.c_name,
                   sum(l.l_extendedprice * (1 - l.l_discount))
                       as revenue,
                   c.c_acctbal, n.n_name
            from lineitem l
            join orders o on l.l_orderkey = o.o_orderkey
            join customer c on o.o_custkey = c.c_custkey
            join nation n on c.c_nationkey = n.n_nationkey
            where o.o_orderdate >= timestamp '1996-01-01'
              and o.o_orderdate < timestamp '1996-04-01'
              and l.l_returnflag = 'R'
            group by c.c_custkey, c.c_name, c.c_acctbal, n.n_name
            order by revenue desc, c_custkey limit 20""").df()
        assert len(got) == len(exp) > 0
        assert got["c_custkey"].tolist() == exp["c_custkey"].tolist()
        assert got["n_name"].tolist() == exp["n_name"].tolist()
        assert np.isclose(got["revenue"].to_numpy(),
                          exp["revenue"].to_numpy()).all()

    def test_distributed_join_route_matches(self, ray_session, large_route):
        import ray.data
        from engine.relational import q10_returned_item_reporting
        rng = np.random.default_rng(13)
        lineitem = pd.DataFrame({
            "l_orderkey": rng.integers(1, 60, 300),
            "l_returnflag": rng.choice(["R", "N"], 300),
            "l_extendedprice": rng.uniform(10, 500, 300).round(2),
            "l_discount": rng.choice([0.0, 0.1], 300)})
        orders = pd.DataFrame({
            "o_orderkey": np.arange(1, 60, dtype=np.int64),
            "o_custkey": rng.integers(1, 20, 59),
            "o_orderdate": pd.to_datetime("1996-02-01")
            + pd.to_timedelta(rng.integers(0, 30, 59), unit="D")})
        customer = pd.DataFrame({
            "c_custkey": np.arange(1, 20, dtype=np.int64),
            "c_name": [f"C{i}" for i in range(1, 20)],
            "c_acctbal": rng.uniform(0, 100, 19).round(2),
            "c_nationkey": rng.integers(0, 2, 19)})
        nation = pd.DataFrame({"n_nationkey": np.arange(2,
                                                        dtype=np.int64),
                               "n_name": ["A", "B"]})
        args = [ray.data.from_pandas(x)
                for x in (lineitem, orders, customer, nation)]
        bc = q10_returned_item_reporting(*args)
        args = [ray.data.from_pandas(x)
                for x in (lineitem, orders, customer, nation)]
        large_route()
        dj = q10_returned_item_reporting(*args)
        assert bc["c_custkey"].tolist() == dj["c_custkey"].tolist()
        assert np.isclose(bc["revenue"].to_numpy(),
                          dj["revenue"].to_numpy()).all()


class TestParetoShare:
    @pytest.mark.parametrize("seed", [17, 131])
    def test_differential_vs_duckdb(self, seed, ray_session):
        import ray.data
        from engine.stats import pareto_share
        rng = np.random.default_rng(seed)
        n = 3000
        df = pd.DataFrame({
            "o_custkey": rng.integers(1, 400, n),
            "o_totalprice": rng.lognormal(4, 1, n).round(2)})
        got = pareto_share(ray.data.from_pandas(df),
                           key_col="o_custkey",
                           value_col="o_totalprice").to_pandas()
        con = duckdb.connect()
        con.register("orders", df)
        exp = con.execute("""
            with r as (select o_custkey, sum(o_totalprice) as rev
                       from orders group by o_custkey),
            rk as (select rev,
                          row_number() over (order by rev desc,
                                             o_custkey) as rn,
                          count(*) over () as n,
                          sum(rev) over () as tot
                   from r)
            select sum(case when rn <= ceil(0.2 * n) then rev
                            else 0 end) / any_value(tot) as top_share,
                   any_value(n)::bigint as n_keys
            from rk""").df()
        assert got["n_keys"].iloc[0] == exp["n_keys"].iloc[0]
        assert np.isclose(got["top_share"].iloc[0],
                          exp["top_share"].iloc[0])

    def test_uniform_values_share_equals_frac(self, ray_session):
        import ray.data
        from engine.stats import pareto_share
        df = pd.DataFrame({"k": np.arange(10, dtype=np.int64),
                           "v": np.ones(10)})
        got = pareto_share(ray.data.from_pandas(df), key_col="k",
                           value_col="v").to_pandas()
        assert np.isclose(got["top_share"].iloc[0], 0.2)
