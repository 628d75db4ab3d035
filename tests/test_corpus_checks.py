"""Corpus-level checks over the synthesized spans corpus: stats, uniqueness,
referential, drift. Exactness cross-checked with duckdb where applicable."""

import os

import duckdb
import numpy as np
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    from engine.synth import build_corpus
    out = str(tmp_path_factory.mktemp("ccorpus"))
    d = build_corpus(SF_DIR, out, replicate=4, partitions=4, seed=42)
    return out, d


class TestSketchUnits:
    def test_hll_roundtrip_merge(self):
        from engine.sketches import HLL
        a, b = HLL(), HLL()
        a.update(np.arange(1000))
        b.update(np.arange(500, 1500))
        est = a.merge(b).estimate()
        assert abs(est - 1500) / 1500 < 0.05

    def test_profile_hll_hashes_distinct_values(self):
        """The profile HLL of a non-float column hashes its distinct
        values only; registers are a max over the value set, so they
        equal those of hashing every value."""
        import pyarrow as pa
        from engine.drift import ProfileBatch
        from engine.sketches import HLL
        rng = np.random.default_rng(5)
        ints = rng.integers(0, 50, 20_000)
        for arr in (pa.array(ints), pa.array([f"v{i}" for i in ints]),
                    pa.array([None, "x", "x", None, "y"] * 400)):
            got = ProfileBatch._profile(arr, False).hll.registers
            want = HLL().update(arr.drop_null().to_numpy(
                zero_copy_only=False)).registers
            assert got.tobytes() == want.tobytes()

    def test_tdigest_quantiles(self):
        from engine.sketches import TDigest
        rng = np.random.default_rng(3)
        data = rng.exponential(10, 50_000)
        td = TDigest()
        for c in np.array_split(data, 9):
            td.update(c)
        for q in (0.1, 0.5, 0.9, 0.99):
            assert abs(td.quantile(q) - np.quantile(data, q)) < \
                max(0.05 * np.quantile(data, q), 0.3)

    def test_bloom_no_false_negatives(self):
        from engine.sketches import Bloom
        b = Bloom.for_capacity(5000, 0.01)
        vals = np.array([f"v{i}" for i in range(5000)], dtype=object)
        b.add(vals)
        assert b.contains(vals).all()
        others = np.array([f"w{i}" for i in range(20000)], dtype=object)
        assert b.contains(others).mean() < 0.03


class TestStats:
    def test_column_stats_vs_duckdb(self, corpus):
        import ray.data
        from engine.stats import column_stats
        _, corpus_dir = corpus
        ds = ray.data.read_parquet(corpus_dir)
        st = column_stats(ds).to_pandas().set_index("column")

        con = duckdb.connect()
        exact = con.sql(f"""
            select count(*) n, count(distinct doc_id) d,
                   sum(case when doc_id is null then 1 else 0 end) n_nulls
            from read_parquet('{corpus_dir}/*/*.parquet')
        """).fetchone()
        row = st.loc["doc_id"]
        assert row["count"] == exact[0]
        assert row["nulls"] == (exact[2] or 0)
        assert abs(row["distinct_est"] - exact[1]) / exact[1] < 0.05

        off = con.sql(f"""
            select min(s.offset), max(s.offset),
                   quantile_cont(s.offset, 0.5)
            from (select unnest(spans) s
                  from read_parquet('{corpus_dir}/*/*.parquet'))
        """).fetchone()
        srow = st.loc["spans.offset"]
        assert float(srow["min"]) == off[0]
        assert float(srow["max"]) == off[1]
        assert abs(srow["p50"] - off[2]) <= max(12, 0.1 * abs(off[2]))


class TestUniqueness:
    def test_duplicate_keys_exact(self, corpus):
        import ray.data
        from engine.uniqueness import duplicate_keys
        _, corpus_dir = corpus
        ds = ray.data.read_parquet(corpus_dir)
        got = duplicate_keys(ds, "doc_id").to_pandas()
        con = duckdb.connect()
        exp = con.sql(f"""
            select doc_id, count(*) c
            from read_parquet('{corpus_dir}/*/*.parquet')
            group by doc_id having count(*) > 1 order by doc_id
        """).df()
        got = got.sort_values("key").reset_index(drop=True)
        assert list(got["key"]) == list(exp["doc_id"])
        assert list(got["dup_count"]) == list(exp["c"])
        # the injected hot key must be present
        from engine.synth import HOT_DOC_ID
        assert HOT_DOC_ID in set(got["key"])


    def test_null_keys_are_never_duplicates(self, ray_session):
        """A key column that mixes NULLs and values counts the values
        only, as a pyarrow ``group_by`` count over the non-NULL rows."""
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray.data
        from engine.uniqueness import duplicate_keys
        t = pa.table({"doc_id": ["a", None, "a", None, "b", "c", "c", "c"]})
        got = duplicate_keys(ray.data.from_arrow(t), "doc_id").to_pandas()
        g = t.filter(pc.is_valid(t["doc_id"])).group_by("doc_id") \
            .aggregate([([], "count_all")])
        g = g.filter(pc.greater(g["count_all"], 1))
        assert sorted(zip(got["key"], got["dup_count"])) == sorted(zip(
            g["doc_id"].to_pylist(), g["count_all"].to_pylist()))
        assert len(got) == 2


class TestReferential:
    def test_dangling_refs_exact_and_bloom(self, corpus):
        import ray.data
        from engine.referential import check_references
        out_dir, corpus_dir = corpus
        docs = ray.data.read_parquet(corpus_dir)
        catalog = ray.data.read_parquet(
            os.path.join(out_dir, "media_catalog.parquet"))

        exact = check_references(docs, catalog, exact=True).to_pandas()
        con = duckdb.connect()
        exp = con.sql(f"""
            with refs as (
              select doc_id, unnest(spans).media_ref r
              from read_parquet('{corpus_dir}/*/*.parquet'))
            select count(*) from refs
            where r <> '' and r not in (
              select media_ref from read_parquet(
                '{out_dir}/media_catalog.parquet'))
        """).fetchone()
        assert len(exact) == exp[0]
        assert exp[0] > 0  # synth injects dangling refs

        bloom = check_references(docs, catalog, exact=False,
                                 fpr=0.01).to_pandas()
        # Bloom has no false negatives: it may only MISS some dangling refs
        # (false positives pass), never invent new ones.
        assert len(bloom) <= len(exact)
        assert set(map(tuple, bloom[["doc_id", "media_ref"]].values)) <= \
            set(map(tuple, exact[["doc_id", "media_ref"]].values))
        assert len(bloom) >= 0.9 * len(exact)


class TestDrift:
    def test_drifted_partition_flagged(self, corpus):
        import ray.data
        from engine.drift import build_baseline, drift_check
        _, corpus_dir = corpus
        ds = ray.data.read_parquet(corpus_dir)
        # baseline from the clean partitions (last one is drifted by synth)
        baseline = build_baseline(ds, exclude_partitions=["p0003"])
        res = drift_check(ds, baseline).to_pandas()
        drifted = res[res["drifted"]]
        clean = res[(res["partition_id"] != "p0003")]
        # the drifted partition trips the offset KS check
        assert "p0003" in set(drifted["partition_id"])
        off = res[(res["partition_id"] == "p0003") &
                  (res["column"] == "spans.offset")]
        assert bool(off["drifted"].iloc[0])
        # clean partitions do not trip numeric KS
        assert not clean[(clean["column"] == "spans.offset")]["drifted"].any()


class TestTreeReduce:
    """Distributed tree reduction of mergeable partials (shuffle.tree_reduce)
    must be equivalent to the direct single-process construction, even when
    the partial count forces several reduction rounds."""

    def test_bloom_many_partials_equivalence(self, ray_session):
        import ray.data
        from engine.referential import build_bloom
        from engine.sketches import Bloom

        vals = [f"ref-{i}" for i in range(4000)]
        # batch_size=16 -> 250 partial blooms > driver_limit (64): at least
        # one distributed merge round actually runs
        ds = ray.data.from_items([{"media_ref": v} for v in vals])
        merged = build_bloom(ds, "media_ref", capacity=4000, fpr=0.01,
                             batch_size=16)
        direct = Bloom.for_capacity(4000, 0.01)
        direct.add(np.array(vals, dtype=object))
        assert merged.n_bits == direct.n_bits and merged.k == direct.k
        assert np.array_equal(merged.words, direct.words)

    def test_heavy_hitters_many_partials_exact_regime(self, ray_session):
        import ray.data
        from engine.textstats import heavy_hitter_tokens

        # 40 distinct tokens, capacity 256 >> distinct: merge is exact
        # counter addition, so tree order cannot change the result
        rows = [{"text": f"tok{i % 40} tok{i % 7}"} for i in range(3000)]
        out = heavy_hitter_tokens(
            ray.data.from_items(rows), k=40, capacity=256,
            batch_size=16).to_pandas()
        import collections
        truth = collections.Counter()
        for r in rows:
            truth.update(r["text"].split())
        got = dict(zip(out["token"], out["est_count"]))
        assert got == dict(truth)
        assert (out["max_error"] == 0).all()

    def test_drift_baseline_many_partials(self, ray_session):
        import ray.data
        from engine.drift import build_baseline

        rng = np.random.default_rng(5)
        # 100 partitions x 2 columns = 200 partition sketch rows >
        # driver_limit (64): at least one distributed merge round runs
        rows = [{"partition_id": f"p{i % 100}",
                 "n_chars": float(rng.normal(100, 10)),
                 "lang": ["en", "de", "fr"][i % 3]} for i in range(2000)]
        base = build_baseline(ray.data.from_items(rows),
                              numeric=("n_chars",), categorical=("lang",),
                              exclude_partitions=["p3"], batch_size=8)
        kind, td = base["n_chars"]
        assert kind == "numeric"
        # quantile of the merged digest tracks the non-excluded data
        keep = np.array([r["n_chars"] for r in rows
                         if r["partition_id"] != "p3"])
        assert abs(td.quantile(0.5) - np.median(keep)) < 2.0
        kind, counts = base["lang"]
        import collections
        truth = collections.Counter(r["lang"] for r in rows
                                    if r["partition_id"] != "p3")
        assert kind == "categorical" and counts == dict(truth)


class TestTwoPhaseBloomVerify:
    def test_forced_false_positives_caught(self, ray_session, corpus):
        """At fpr~0.5 many dangling refs pass the Bloom silently; the
        verify_hits exact audit must recover EXACTLY the exact-mode rows."""
        import ray.data
        from engine.referential import check_references
        out_dir, corpus_dir = corpus
        docs = ray.data.read_parquet(corpus_dir)
        catalog = ray.data.read_parquet(
            os.path.join(out_dir, "media_catalog.parquet"))

        exact = check_references(docs, catalog, exact=True).to_pandas()
        plain = check_references(docs, catalog, exact=False,
                                 fpr=0.5).to_pandas()
        verified = check_references(docs, catalog, exact=False, fpr=0.5,
                                    verify_hits=True).to_pandas()
        key = ["doc_id", "span_index", "media_ref"]
        e = set(map(tuple, exact[key].values))
        p = set(map(tuple, plain[key].values))
        v = set(map(tuple, verified[key].values))
        assert p < e          # the planted fpr really lost dangling rows
        assert v == e         # ...and the two-phase audit recovered them

    def test_verify_hits_no_fp_case(self, ray_session, corpus):
        """With a tight fpr the audit usually finds nothing; result must
        equal the plain Bloom path and the targeted third pass is skipped
        (same rows, no duplicates)."""
        import ray.data
        from engine.referential import check_references
        out_dir, corpus_dir = corpus
        docs = ray.data.read_parquet(corpus_dir)
        catalog = ray.data.read_parquet(
            os.path.join(out_dir, "media_catalog.parquet"))
        exact = check_references(docs, catalog, exact=True).to_pandas()
        verified = check_references(docs, catalog, exact=False, fpr=1e-6,
                                    verify_hits=True).to_pandas()
        key = ["doc_id", "span_index", "media_ref"]
        assert set(map(tuple, verified[key].values)) == \
            set(map(tuple, exact[key].values))
        assert len(verified) == len(exact)  # no duplicate emissions
