"""Training-data operators: dedup / similarity / textstats / multimodal /
relational — duckdb-checked where SQL can express the semantics."""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def rds(ray_session):
    import ray.data

    def load(name):
        return ray.data.read_parquet(f"{SF}/{name}.parquet")
    return load


class TestExactDedup:
    def test_vs_duckdb(self, rds):
        from engine.dedup import exact_duplicates
        got = exact_duplicates(rds("documents")).to_pandas().sort_values(
            "text_hash").reset_index(drop=True)
        exp = duckdb.sql(f"""
            select md5(text) text_hash, min(doc_id) keep_id,
                   count(*) dup_count
            from read_parquet('{SF}/documents.parquet')
            group by md5(text) order by text_hash
        """).df()
        assert got.equals(exp)


class TestMinHash:
    def test_signatures_similarity_monotone(self):
        from engine.dedup import minhash_signatures_batch, ngram_jaccard
        a = "the quick brown fox jumps over the lazy dog again and again"
        b = "the quick brown fox jumps over the lazy cat again and again"
        c = "completely different words entirely unrelated content here now"
        sig = minhash_signatures_batch([a, b, c], k=128)
        sim_ab = (sig[0] == sig[1]).mean()
        sim_ac = (sig[0] == sig[2]).mean()
        assert sim_ab > 0.5 > sim_ac
        assert ngram_jaccard(a, b) > 0.5 > ngram_jaccard(a, c)

    def test_lsh_finds_injected_near_dupes(self, rds, ray_session):
        import ray.data
        from engine.dedup import minhash_near_duplicates, verify_pairs_jaccard
        docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
        # inject: copy of doc 0 with tiny edit, under new ids
        extra = docs.head(2).copy()
        extra["doc_id"] = [9001, 9002]
        extra.loc[extra.index[0], "text"] = (
            docs["text"].iloc[0] + " tail")
        extra.loc[extra.index[1], "text"] = docs["text"].iloc[1]
        import pandas as pd
        all_docs = pd.concat([docs, extra], ignore_index=True)
        ds = ray.data.from_pandas(all_docs)
        pairs = minhash_near_duplicates(ds, threshold=0.5).to_pandas()
        got_pairs = set(map(tuple, pairs[["key_a", "key_b"]].values))
        assert (0, 9001) in got_pairs
        assert (1, 9002) in got_pairs
        verified = verify_pairs_jaccard(
            minhash_near_duplicates(ds, threshold=0.5), ds,
            threshold=0.5).to_pandas()
        v = verified.set_index(["key_a", "key_b"])["jaccard"]
        assert v.loc[(1, 9002)] == 1.0
        assert 0.5 <= v.loc[(0, 9001)] <= 1.0


class TestSimHash:
    def test_identical_and_near_docs(self, rds, ray_session):
        import ray.data
        import pandas as pd
        from engine.dedup import simhash_near_duplicates
        docs = pq.read_table(f"{SF}/documents.parquet").to_pandas().head(50)
        extra = docs.head(1).copy()
        extra["doc_id"] = [9100]
        all_docs = pd.concat([docs, extra], ignore_index=True)
        pairs = simhash_near_duplicates(
            ray.data.from_pandas(all_docs)).to_pandas()
        got = set(map(tuple, pairs[["key_a", "key_b"]].values))
        assert (0, 9100) in got
        assert pairs.set_index(["key_a", "key_b"])["hamming"].loc[(0, 9100)] == 0


class TestEmbeddingDedup:
    def test_injected_near_identical_vectors(self, rds, ray_session):
        import ray.data
        from engine.dedup import embedding_near_duplicates
        t = pq.read_table(f"{SF}/embeddings.parquet")
        emb = t.to_pandas()
        twin = emb.head(1).copy()
        twin["vec_id"] = [9200]
        twin["embedding"] = [
            (np.array(emb["embedding"].iloc[0]) * 1.001).tolist()]
        import pandas as pd
        all_e = pd.concat([emb, twin], ignore_index=True)
        pairs = embedding_near_duplicates(
            ray.data.from_pandas(all_e), threshold=0.99).to_pandas()
        got = set(map(tuple, pairs[["key_a", "key_b"]].values))
        assert (0, 9200) in got


class TestSimilarity:
    def test_brute_force_topk_vs_duckdb(self, rds, ray_session):
        from engine.similarity import cosine_topk
        emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
        queries = np.stack([np.asarray(emb["embedding"].iloc[i])
                            for i in (0, 7)])
        got = cosine_topk(rds("embeddings"), queries, k=5).to_pandas()
        got = got.sort_values(["query_id", "rank"]).reset_index(drop=True)
        # exact numpy oracle
        mat = np.stack([np.asarray(v) for v in emb["embedding"]]).astype(
            np.float64)
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        q = queries.astype(np.float64)
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        sims = mat @ q.T
        for qi in (0, 1):
            order = sorted(zip(-sims[:, qi], emb["vec_id"]))[:5]
            exp_keys = [k for _, k in order]
            sub = got[got["query_id"] == qi]
            assert list(sub["key"]) == exp_keys
            assert np.allclose(sub["cosine"], [-s for s, _ in order])

    def test_ivf_recall(self, rds, ray_session):
        from engine.similarity import cosine_topk, ivf_topk, train_codebook
        emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
        queries = np.stack([np.asarray(emb["embedding"].iloc[i])
                            for i in (3, 11, 42)])
        exact = cosine_topk(rds("embeddings"), queries, k=10).to_pandas()
        cb = train_codebook(rds("embeddings"), n_cells=8)
        approx = ivf_topk(rds("embeddings"), queries, cb, k=10,
                          nprobe=4).to_pandas()
        recalls = []
        for qi in range(3):
            e = set(exact[exact["query_id"] == qi]["key"])
            a = set(approx[approx["query_id"] == qi]["key"])
            recalls.append(len(e & a) / len(e))
        assert np.mean(recalls) >= 0.6  # nprobe=4 of 8 cells


class TestTextStats:
    def test_token_counts_vs_duckdb(self, rds):
        from engine.textstats import token_counts
        got = token_counts(rds("documents")).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        exp = duckdb.sql(f"""
            select doc_id, length(text) - length(replace(text, ' ', ''))
                   + (case when length(trim(text)) > 0 then 1 else 0 end)
                   as n_tokens
            from read_parquet('{SF}/documents.parquet') order by doc_id
        """).df()
        # testdata text is single-space separated; formulas agree there
        assert (got["n_tokens"] == exp["n_tokens"]).all()

    def test_quality_and_langid(self, rds, ray_session):
        import ray.data
        import pandas as pd
        from engine.textstats import language_id, quality_scores
        df = pd.DataFrame({
            "doc_id": [1, 2, 3, 4],
            "text": ["The quick brown fox is in the yard.",
                     "el perro y el gato en la casa que es",
                     "der hund und die katze ist nicht ein",
                     "这是一个中文句子的测试文本"],
        })
        ds = ray.data.from_pandas(df)
        q = quality_scores(ds).to_pandas().set_index("doc_id")
        assert q.loc[1, "n_tokens"] == 8
        assert q.loc[1, "punct_ratio"] > 0
        lang = language_id(ds).to_pandas().set_index("doc_id")
        assert lang.loc[1, "lang_pred"] == "en"
        assert lang.loc[2, "lang_pred"] == "es"
        assert lang.loc[3, "lang_pred"] == "de"
        assert lang.loc[4, "lang_pred"] == "zh"

    def test_fingerprints_deterministic_and_discriminative(self):
        from engine.textstats import fingerprint_batch
        a = "some reasonably long text for fingerprinting purposes"
        b = "another totally different document body with other words"
        f1 = fingerprint_batch([a, b])
        f2 = fingerprint_batch([a, b])
        assert f1 == f2
        assert f1[0] != f1[1]


class TestMultimodal:
    def test_decode_featurize_plumbing(self, ray_session):
        import ray.data
        from engine.multimodal import (decode_and_featurize,
                                       synth_media_table)
        refs = [f"media://{i:016x}" for i in range(40)]
        t = synth_media_table(refs)
        ds = ray.data.from_arrow(t)
        feats = decode_and_featurize(ds, target=16, batch_size=8).to_pandas()
        assert len(feats) == 40
        assert feats["features"].iloc[0].shape == (10,)
        # determinism of the stub decode
        feats2 = decode_and_featurize(
            ray.data.from_arrow(t), target=16, batch_size=8).to_pandas()
        a = np.stack(feats.sort_values("media_ref")["features"].values)
        b = np.stack(feats2.sort_values("media_ref")["features"].values)
        assert np.allclose(a, b)

    def test_frame_sampler(self, ray_session):
        import ray.data
        from engine.multimodal import FrameSampler, synth_media_table
        t = synth_media_table([f"media://{i:016x}" for i in range(10)])
        out = ray.data.from_arrow(t).map_batches(
            FrameSampler(n_frames=3), batch_format="pyarrow",
            batch_size=4).to_pandas()
        assert (out["n_frames"] >= 1).all()
        assert all(len(ix) <= 3 for ix in out["frame_indices"])


class TestRelational:
    def test_q1_vs_duckdb(self, rds):
        from engine.relational import q1_pricing_summary
        got = q1_pricing_summary(rds("lineitem")).to_pandas().sort_values(
            ["l_returnflag", "l_linestatus"]).reset_index(drop=True)
        exp = duckdb.sql(f"""
            select l_returnflag, l_linestatus,
                   sum(l_quantity) sum_qty,
                   sum(l_extendedprice) sum_base_price,
                   sum(l_extendedprice * (1 - l_discount)) sum_disc_price,
                   avg(l_quantity) avg_qty,
                   count(*) count_order
            from read_parquet('{SF}/lineitem.parquet')
            group by 1, 2 order by 1, 2
        """).df()
        assert list(got["l_returnflag"]) == list(exp["l_returnflag"])
        for c in ("sum_qty", "sum_base_price", "sum_disc_price", "avg_qty"):
            assert np.allclose(got[c], exp[c])
        assert (got["count_order"] == exp["count_order"]).all()

    def test_broadcast_join_vs_duckdb(self, rds):
        from engine.relational import revenue_by_segment
        got = revenue_by_segment(
            rds("orders"), rds("customer")).to_pandas().sort_values(
            "c_mktsegment").reset_index(drop=True)
        exp = duckdb.sql(f"""
            select c_mktsegment, sum(o_totalprice) revenue,
                   count(*) n_orders
            from read_parquet('{SF}/orders.parquet') o
            join read_parquet('{SF}/customer.parquet') c
              on o.o_custkey = c.c_custkey
            group by 1 order by 1
        """).df()
        assert list(got["c_mktsegment"]) == list(exp["c_mktsegment"])
        assert np.allclose(got["revenue"], exp["revenue"])
        assert (got["n_orders"] == exp["n_orders"]).all()

    def test_segment_join_auto_route_both_sizes(self, rds):
        """broadcast_limit=0 forces the distributed-join fall-through; the
        result must match the broadcast path exactly (auto-route pytest
        for the unbounded-dimension gate)."""
        from engine.relational import revenue_by_segment
        small = revenue_by_segment(
            rds("orders"), rds("customer")).to_pandas().sort_values(
            "c_mktsegment").reset_index(drop=True)
        large = revenue_by_segment(
            rds("orders"), rds("customer"),
            broadcast_limit=0).to_pandas().sort_values(
            "c_mktsegment").reset_index(drop=True)
        assert list(small["c_mktsegment"]) == list(large["c_mktsegment"])
        assert np.allclose(small["revenue"], large["revenue"])
        assert (small["n_orders"] == large["n_orders"]).all()

    def test_q3_auto_route_both_sizes(self, rds):
        from engine.relational import q3_shipping_priority
        kw = dict(segment="BUILDING", cutoff="1998-06-01", k=5)
        small = q3_shipping_priority(
            rds("lineitem"), rds("orders"), rds("customer"), **kw)
        large = q3_shipping_priority(
            rds("lineitem"), rds("orders"), rds("customer"),
            broadcast_limit=0, **kw)
        assert list(small["l_orderkey"]) == list(large["l_orderkey"])
        assert np.allclose(small["revenue"], large["revenue"])

    def test_events_window_vs_duckdb(self, rds):
        from engine.relational import events_per_user_hour
        got = events_per_user_hour(rds("events")).to_pandas()
        exp = duckdb.sql(f"""
            select user_id, date_trunc('hour', ts) as "hour",
                   count(*) n_events, sum(value) value_sum
            from read_parquet('{SF}/events.parquet') group by 1, 2
        """).df()
        g = got.sort_values(["user_id", "hour"]).reset_index(drop=True)
        e = exp.sort_values(["user_id", "hour"]).reset_index(drop=True)
        assert (g["n_events"] == e["n_events"]).all()
        assert np.allclose(g["value_sum"], e["value_sum"])


class TestSessionize:
    @pytest.mark.parametrize("source", ["events", "null_user", "null_ts"])
    def test_vs_duckdb_window_functions(self, rds, source):
        import ray.data
        from engine.relational import sessionize
        from tests.test_round5_ops import null_ts_events, null_user_events
        con = duckdb.connect()
        if source in ("null_user", "null_ts"):
            events = null_user_events() if source == "null_user" \
                else null_ts_events()
            ds = ray.data.from_pandas(events)
        else:
            events = pq.read_table(f"{SF}/events.parquet")
            ds = rds("events")
        con.register("events", events)
        got = sessionize(ds, gap_minutes=30).to_pandas()
        exp = con.execute("""
            with marked as (
              select user_id, ts,
                     case when ts - lag(ts) over w > interval 30 minutes
                          or lag(ts) over w is null then 1 else 0 end as new_s
              from events
              window w as (partition by user_id order by ts)
            ), sess as (
              select user_id, ts,
                     sum(new_s) over (partition by user_id order by ts
                                      rows unbounded preceding) as session_id
              from marked)
            select user_id, session_id, count(*) n_events,
                   min(ts) session_start, max(ts) session_end
            from sess group by 1, 2
        """).df()
        g = got.sort_values(["user_id", "session_id"]).reset_index(drop=True)
        e = exp.sort_values(["user_id", "session_id"]).reset_index(drop=True)
        assert len(g) == len(e)
        assert np.array_equal(g["user_id"].to_numpy(np.float64),
                              e["user_id"].to_numpy(np.float64),
                              equal_nan=True)
        assert (g["session_id"].to_numpy() == e["session_id"].to_numpy()).all()
        assert (g["n_events"].to_numpy() == e["n_events"].to_numpy()).all()
        for c in ("session_start", "session_end"):
            assert np.array_equal(g[c].to_numpy(), e[c].to_numpy(),
                                  equal_nan=True), c


class TestLshTuning:
    def test_inflection_tracks_threshold(self):
        from engine.dedup import candidate_probability, tune_bands
        for thr in (0.3, 0.5, 0.7, 0.9):
            b, r = tune_bands(thr, 64)
            assert b * r == 64
            # recall above the threshold must be high, below must drop
            assert candidate_probability(min(thr + 0.25, 0.99), b, r) > 0.85
            assert candidate_probability(max(thr - 0.25, 0.01), b, r) < \
                candidate_probability(min(thr + 0.25, 0.99), b, r)

    def test_known_points(self):
        from engine.dedup import tune_bands
        # classic MMDS example: b=16, r=4 -> inflection ~0.5
        assert tune_bands(0.5, 64) == (16, 4)
        b, r = tune_bands(0.9, 64)
        assert r >= 8  # high threshold -> long rows, few bands

    def test_bad_threshold(self):
        import pytest
        from engine.dedup import tune_bands
        with pytest.raises(ValueError):
            tune_bands(1.5)

    def test_minhash_accepts_tuned_params(self, ray_session):
        import ray.data
        from engine.dedup import minhash_near_duplicates, tune_bands
        b, r = tune_bands(0.5, 64)
        texts = ["the quick brown fox jumps over the lazy dog " + str(i)
                 for i in range(30)]
        texts.append(texts[0] + " extra")
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())}))
        out = minhash_near_duplicates(ds, k=64, bands=b, threshold=0.4)
        df = out.to_pandas()
        assert {(0, len(texts) - 1)} <= set(
            zip(df["key_a"], df["key_b"]))


class TestIvfPersistence:
    def test_build_load_query(self, ray_session, tmp_path):
        import ray.data
        from engine.similarity import (build_ivf_index, cosine_topk,
                                       ivf_topk_indexed, load_ivf_codebook)
        rng = np.random.default_rng(11)
        vecs = rng.standard_normal((400, 16))
        t = pa.table({"vec_id": pa.array(range(400), pa.int64()),
                      "embedding": pa.array([v.tolist() for v in vecs],
                                            pa.list_(pa.float64()))})
        ds = ray.data.from_arrow(t)
        idx = str(tmp_path / "ivf")
        cb = build_ivf_index(ds, idx, n_cells=8)
        assert np.allclose(load_ivf_codebook(idx), cb)

        queries = vecs[:3]
        approx = ivf_topk_indexed(idx, queries, k=5, nprobe=4).to_pandas()
        exact = cosine_topk(ds, queries, k=5).to_pandas()
        # recall@5 of the persisted-index path vs brute force
        hits = 0
        for qi in range(3):
            a = set(approx[approx["query_id"] == qi]["key"])
            e = set(exact[exact["query_id"] == qi]["key"])
            hits += len(a & e)
        assert hits >= 10  # >= 2/3 recall with nprobe=4 of 8 cells
        # self-match must always surface (query == corpus vector)
        for qi in range(3):
            a = approx[approx["query_id"] == qi]
            assert qi in set(a["key"])

    def test_indexed_results_batch_independent(self, ray_session, tmp_path):
        """A query's top-k must not change with its co-batched queries:
        each query scores only ITS probed cells (per-query nprobe
        semantics), so solo and batched submissions agree exactly."""
        import ray.data
        from engine.similarity import build_ivf_index, ivf_topk_indexed
        rng = np.random.default_rng(23)
        vecs = rng.standard_normal((300, 12))
        ds = ray.data.from_arrow(pa.table({
            "vec_id": pa.array(range(300), pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs],
                                  pa.list_(pa.float64()))}))
        idx = str(tmp_path / "ivf_bi")
        build_ivf_index(ds, idx, n_cells=8)

        queries = vecs[:4]
        batched = ivf_topk_indexed(idx, queries, k=5, nprobe=2).to_pandas()
        for qi in range(4):
            solo = ivf_topk_indexed(idx, queries[qi:qi + 1], k=5,
                                    nprobe=2).to_pandas()
            b = batched[batched["query_id"] == qi].sort_values(
                ["cosine", "key"], ascending=[False, True])
            assert list(solo["key"]) == list(b["key"])
            assert np.allclose(solo["cosine"], b["cosine"])

    def test_partition_pruned_read(self, ray_session, tmp_path):
        import os
        import ray.data
        from engine.similarity import build_ivf_index, load_ivf_codebook
        rng = np.random.default_rng(3)
        vecs = rng.standard_normal((120, 8))
        ds = ray.data.from_arrow(pa.table({
            "vec_id": pa.array(range(120), pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs],
                                  pa.list_(pa.float64()))}))
        idx = str(tmp_path / "ivf")
        build_ivf_index(ds, idx, n_cells=4)
        cells = os.listdir(os.path.join(idx, "cells"))
        assert len([c for c in cells if c.startswith("cell=")]) >= 2


class TestAudioPlumbing:
    def test_audio_features_shapes_and_determinism(self, ray_session):
        import ray.data
        from engine.multimodal import audio_features, synth_media_table
        refs = [f"media://{i:016x}" for i in range(20)]
        ds = ray.data.from_arrow(synth_media_table(refs))
        out = audio_features(ds, n_samples=1024, batch_size=8).to_pandas()
        assert len(out) == 20
        feats = np.stack([np.asarray(f) for f in out["audio_features"]])
        assert feats.shape == (20, 4)
        assert feats.dtype == np.float32
        assert (feats[:, 0] > 0).all()  # rms of non-silent fake pcm
        # deterministic across runs
        out2 = audio_features(ray.data.from_arrow(synth_media_table(refs)),
                              n_samples=1024, batch_size=8).to_pandas()
        feats2 = np.stack([np.asarray(f) for f in out2["audio_features"]])
        srt = np.argsort(out["media_ref"].to_numpy())
        srt2 = np.argsort(out2["media_ref"].to_numpy())
        assert np.allclose(feats[srt], feats2[srt2])


class TestMultiProbeLsh:
    def _planted(self, n=150, n_dups=25, noise=0.12, seed=4):
        import ray.data
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((n, 32))
        dups = base[:n_dups] + noise * rng.standard_normal((n_dups, 32))
        vecs = np.concatenate([base, dups])
        ids = list(range(n)) + [1000 + i for i in range(n_dups)]
        return ray.data.from_arrow(pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs],
                                  pa.list_(pa.float64()))})), n_dups

    def _recall(self, out, n_dups):
        df = out.to_pandas()
        found = {(a, b) for a, b in zip(df["key_a"], df["key_b"])}
        planted = {(i, 1000 + i) for i in range(n_dups)}
        return len(found & planted) / n_dups

    def test_probes_raise_recall_at_one_table(self, ray_session):
        from engine.dedup import embedding_near_duplicates
        ds, n_dups = self._planted()
        r0 = self._recall(embedding_near_duplicates(
            ds, dim=32, n_planes=12, n_tables=1, n_probes=0,
            threshold=0.9), n_dups)
        r2 = self._recall(embedding_near_duplicates(
            ds, dim=32, n_planes=12, n_tables=1, n_probes=2,
            threshold=0.9), n_dups)
        assert r2 >= r0
        assert r2 > 0.5  # multiprobe at one table finds most planted pairs

    def test_default_still_finds_identical(self, ray_session):
        import ray.data
        from engine.dedup import embedding_near_duplicates
        rng = np.random.default_rng(9)
        vecs = rng.standard_normal((60, 16))
        vecs[30:] = vecs[:30]  # exact copies
        ids = list(range(30)) + [500 + i for i in range(30)]
        ds = ray.data.from_arrow(pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs],
                                  pa.list_(pa.float64()))}))
        out = embedding_near_duplicates(ds, dim=16, threshold=0.999)
        df = out.to_pandas()
        found = {(a, b) for a, b in zip(df["key_a"], df["key_b"])}
        assert {(i, 500 + i) for i in range(30)} <= found


class TestHeavyHitters:
    def test_sketch_guarantees_vs_exact(self, ray_session):
        import collections
        import ray.data
        from engine.textstats import heavy_hitter_tokens
        rng = np.random.default_rng(6)
        vocab = [f"tok{i}" for i in range(400)]
        weights = np.array([1.0 / (i + 1) for i in range(400)])  # zipf-ish
        weights /= weights.sum()
        texts, exact = [], collections.Counter()
        for _ in range(300):
            words = rng.choice(vocab, size=40, p=weights)
            exact.update(words.tolist())
            texts.append(" ".join(words))
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string())}))
        out = heavy_hitter_tokens(ds, k=10, capacity=256).to_pandas()
        n_total = sum(exact.values())
        got = dict(zip(out["token"], out["est_count"]))
        # guarantee: every token above N/capacity must surface in the sketch
        # (check via a larger top pull)
        big = heavy_hitter_tokens(ds, k=256, capacity=256).to_pandas()
        surfaced = set(big["token"])
        for tok, cnt in exact.items():
            if cnt > n_total / 256:
                assert tok in surfaced, (tok, cnt)
        # est >= true for present tokens; error bound honored
        err = dict(zip(out["token"], out["max_error"]))
        for tok, est in got.items():
            assert est >= exact[tok]
            assert est - exact[tok] <= err[tok]
        # the true #1 token is ranked #1
        true_top = exact.most_common(1)[0][0]
        assert out["token"][0] == true_top

    def test_merge_associativity(self):
        from engine.sketches import SpaceSaving
        a = SpaceSaving(8).update(["x"] * 5 + ["y"] * 3 + ["z"])
        b = SpaceSaving(8).update(["x"] * 2 + ["w"] * 4)
        m = SpaceSaving(8).merge(a).merge(b)
        assert m.counts["x"] == 7
        assert m.counts["w"] == 4
        rt = SpaceSaving.from_bytes(m.to_bytes())
        assert rt.counts == m.counts and rt.errors == m.errors


class TestContamination:
    def _sides(self):
        import ray.data
        base = ("the quick brown fox jumps over the lazy dog near the "
                "river bank today while seven geese watch quietly")
        train = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array([base,
                              "different training text about arrow tables",
                              "a third unrelated training document here"])}))
        test = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([101, 102], pa.int64()),
            "text": pa.array([base.replace("lazy", "sleepy"),
                              "totally novel evaluation material"])}))
        return train, test

    @pytest.mark.parametrize("method", ["shingle", "minhash"])
    def test_cross_pair_found_train_first(self, ray_session, method):
        from engine.contamination import cross_corpus_near_duplicates
        train, test = self._sides()
        out = cross_corpus_near_duplicates(
            train, test, threshold=0.5, method=method).to_pandas()
        assert len(out) == 1
        # oriented train -> test regardless of key order
        assert out["key_a"].iloc[0] == 1 and out["key_b"].iloc[0] == 101
        assert out["jaccard"].iloc[0] >= 0.5

    def test_orientation_with_reversed_ids(self, ray_session):
        """Test-side ids BELOW train-side ids still come out test-second."""
        from engine.contamination import cross_corpus_near_duplicates
        train, test = self._sides()
        # swap roles: the low ids become the test side
        out = cross_corpus_near_duplicates(
            test, train, threshold=0.5, method="shingle").to_pandas()
        assert len(out) == 1
        assert out["key_a"].iloc[0] == 101 and out["key_b"].iloc[0] == 1

    def test_within_side_dups_excluded(self, ray_session):
        import ray.data
        from engine.contamination import cross_corpus_near_duplicates
        twin = ("alpha beta gamma delta epsilon zeta eta theta iota "
                "kappa lambda mu nu xi omicron pi rho sigma tau")
        train = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array([twin, twin + " extra"])}))  # near-dups
        test = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([50], pa.int64()),
            "text": pa.array(["entirely disjoint evaluation words"])}))
        out = cross_corpus_near_duplicates(
            train, test, threshold=0.3, method="shingle").to_pandas()
        assert len(out) == 0


class TestGroupedTopK:
    def test_vs_duckdb_window(self, rds):
        from engine.relational import grouped_topk
        got = grouped_topk(
            rds("orders"), group_col="o_orderpriority",
            score_col="o_totalprice", id_col="o_orderkey",
            k=3).to_pandas().sort_values(
                ["o_orderpriority", "o_totalprice", "o_orderkey"],
                ascending=[True, False, True]).reset_index(drop=True)
        exp = duckdb.sql(f"""
            select o_orderpriority, o_totalprice, o_orderkey
            from (select o_orderpriority, o_totalprice, o_orderkey,
                         row_number() over (
                             partition by o_orderpriority
                             order by o_totalprice desc, o_orderkey) rn
                  from read_parquet('{SF}/orders.parquet')) t
            where rn <= 3
            order by o_orderpriority, o_totalprice desc, o_orderkey
        """).df()
        assert got["o_orderkey"].tolist() == exp["o_orderkey"].tolist()
        assert np.allclose(got["o_totalprice"], exp["o_totalprice"])

    def test_ascending_and_small_groups(self, ray_session):
        import ray.data
        from engine.relational import grouped_topk
        t = pa.table({"g": ["a", "a", "a", "b"],
                      "s": [3.0, 1.0, 2.0, 9.0],
                      "i": [10, 11, 12, 13]})
        out = grouped_topk(ray.data.from_arrow(t), group_col="g",
                           score_col="s", id_col="i", k=2,
                           ascending=True).to_pandas() \
            .sort_values(["g", "s"]).reset_index(drop=True)
        assert out["i"].tolist() == [11, 12, 13]  # two lowest of a, all of b


class TestExactQuantiles:
    def test_vs_duckdb_quantile_cont(self, rds):
        from engine.stats import exact_quantiles
        qs = [0.0, 0.1, 0.5, 0.9, 1.0]
        got = exact_quantiles(rds("lineitem"), "l_extendedprice", qs)
        for q in qs:
            exp = duckdb.sql(
                f"select quantile_cont(l_extendedprice, {q}) "
                f"from read_parquet('{SF}/lineitem.parquet')").fetchone()[0]
            assert abs(got[q] - exp) < 1e-9, q

    def test_heavy_ties_and_refinement(self, ray_session):
        """A column that is 90% one value (tie mass) plus a dense tail,
        with tiny candidate budget to force the refinement recursion."""
        import ray.data
        rng = np.random.default_rng(3)
        vals = np.concatenate([np.full(9000, 42.0), rng.normal(0, 1, 1000)])
        rng.shuffle(vals)
        ds = ray.data.from_arrow(pa.table({"x": pa.array(vals)})) \
            .repartition(8)
        from engine.stats import exact_quantiles
        got = exact_quantiles(ds, "x", [0.5, 0.97, 0.999],
                              sample_per_block=4, n_candidates=8,
                              bracket_limit=50, max_refine=3)
        s = np.sort(vals)
        for q in (0.5, 0.97, 0.999):
            p = q * (len(s) - 1)
            k0, k1 = int(np.floor(p)), int(np.ceil(p))
            exp = s[k0] + (s[k1] - s[k0]) * (p - k0)
            assert abs(got[q] - exp) < 1e-12, q

    def test_many_tiny_blocks(self, ray_session):
        """Block-count stress: per-BLOCK rank partials (batch_size=None)
        must stay exact when the input is fragmented into many tiny
        blocks — the shape where per-fixed-row-batch partial volume would
        explode at scale."""
        import ray.data
        from engine.stats import exact_quantiles
        rng = np.random.default_rng(11)
        vals = rng.normal(0, 100, 20_000)
        ds = ray.data.from_arrow(pa.table({"x": pa.array(vals)})) \
            .repartition(64)
        got = exact_quantiles(ds, "x", [0.01, 0.5, 0.99])
        s = np.sort(vals)
        for q in (0.01, 0.5, 0.99):
            p = q * (len(s) - 1)
            k0, k1 = int(np.floor(p)), int(np.ceil(p))
            exp = s[k0] + (s[k1] - s[k0]) * (p - k0)
            assert abs(got[q] - exp) < 1e-9, q

    def test_empty_and_nulls(self, ray_session):
        import ray.data
        from engine.stats import exact_quantiles
        ds = ray.data.from_arrow(pa.table({
            "x": pa.array([None, None], pa.float64())}))
        got = exact_quantiles(ds, "x", [0.5])
        assert np.isnan(got[0.5])
        ds2 = ray.data.from_arrow(pa.table({
            "x": pa.array([None, 3.0, 1.0, None, 2.0], pa.float64())}))
        got2 = exact_quantiles(ds2, "x", [0.5])
        assert got2[0.5] == 2.0


class TestIqrOutliers:
    def test_vs_duckdb(self, rds):
        from engine.stats import iqr_outliers
        got = iqr_outliers(rds("events"), "value").to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        exp = duckdb.sql(f"""
            with q as (select quantile_cont(value, 0.25) q1,
                              quantile_cont(value, 0.75) q3
                       from read_parquet('{SF}/events.parquet'))
            select event_id, value
            from read_parquet('{SF}/events.parquet'), q
            where value < q1 - 1.5*(q3-q1) or value > q3 + 1.5*(q3-q1)
            order by event_id
        """).df()
        assert got["event_id"].tolist() == exp["event_id"].tolist()


class TestRollingWindowMean:
    def test_vs_duckdb_range_frame(self, rds):
        from engine.relational import rolling_window_mean
        got = rolling_window_mean(rds("events")).to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        exp = duckdb.sql(f"""
            select event_id,
                   avg(value) over (partition by user_id order by ts
                       range between interval 3 hours preceding
                             and current row) as rolling_mean
            from read_parquet('{SF}/events.parquet') order by event_id
        """).df()
        assert got["event_id"].tolist() == exp["event_id"].tolist()
        assert np.allclose(got["rolling_mean"], exp["rolling_mean"])

    def test_tie_peers_and_nulls(self, ray_session):
        """RANGE frames include ALL peers at the current timestamp (even
        rows sorted after it) and skip NULL values in the average."""
        import pandas as pd
        import ray.data
        ts = pd.to_datetime(["2024-01-01 00:00", "2024-01-01 00:30",
                             "2024-01-01 00:30", "2024-01-01 05:00"])
        t = pa.table({"event_id": pa.array([1, 2, 3, 4], pa.int64()),
                      "user_id": pa.array([7, 7, 7, 7], pa.int64()),
                      "ts": pa.array(ts),
                      "value": pa.array([10.0, None, 4.0, 8.0])})
        from engine.relational import rolling_window_mean
        got = rolling_window_mean(ray.data.from_arrow(t),
                                  window_seconds=3600).to_pandas() \
            .set_index("event_id")["rolling_mean"]
        assert got[1] == 10.0          # alone in frame
        assert got[2] == 7.0           # peers: 10 and 4 (NULL skipped)
        assert got[3] == 7.0           # same frame as its tie peer
        assert got[4] == 8.0           # window expired


class TestAsofJoin:
    def test_semantics(self, ray_session):
        import pandas as pd
        import ray.data
        from engine.relational import asof_join
        lt = pd.to_datetime(["2024-01-01 01:00", "2024-01-01 02:00",
                             "2024-01-01 00:30"])
        left = ray.data.from_arrow(pa.table({
            "event_id": pa.array([1, 2, 3], pa.int64()),
            "user_id": pa.array([7, 7, 9], pa.int64()),
            "ts": pa.array(lt),
            "value": pa.array([0.0, 0.0, 0.0])}))
        rt = pd.to_datetime(["2024-01-01 00:45", "2024-01-01 01:30",
                             "2024-01-01 01:30", "2024-01-01 03:00"])
        right = ray.data.from_arrow(pa.table({
            "event_id": pa.array([10, 11, 12, 13], pa.int64()),
            "user_id": pa.array([7, 7, 7, 9], pa.int64()),
            "ts": pa.array(rt),
            "value": pa.array([100.0, 200.0, 300.0, 400.0])}))
        out = asof_join(left, right).to_pandas() \
            .set_index("event_id")["value"]
        assert out[1] == 100.0        # latest right <= 01:00 is 00:45
        assert out[2] == 300.0        # tie at 01:30 deduped to max id (12)
        assert 3 not in out.index     # user 9: right row is AFTER left ts
        # user 9's event at 00:30 precedes its only purchase: no match

    def test_vs_duckdb_asof(self, rds):
        import pyarrow.compute as pc
        from engine.relational import asof_join
        ev = rds("events")
        left = ev.map_batches(lambda b: b.filter(pc.invert(pc.equal(
            b.column("event_type"), "purchase"))), batch_format="pyarrow")
        right = ev.map_batches(lambda b: b.filter(pc.equal(
            b.column("event_type"), "purchase")), batch_format="pyarrow")
        got = asof_join(left, right).to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        exp = duckdb.sql(f"""
            with e as (select * from read_parquet('{SF}/events.parquet')),
            l as (select event_id, user_id, ts from e
                  where event_type <> 'purchase'),
            r as (select user_id, ts, value from e
                  where event_type = 'purchase'
                  qualify row_number() over (partition by user_id, ts
                                             order by event_id desc) = 1)
            select l.event_id, r.value from l asof join r
              on l.user_id = r.user_id and l.ts >= r.ts
            order by l.event_id
        """).df()
        assert got["event_id"].tolist() == exp["event_id"].tolist()
        assert np.allclose(got["value"], exp["value"])


class TestIntervalJoin:
    def test_overlaps_boundaries_and_length_guard(self, ray_session):
        import ray.data
        from engine.relational import interval_join
        points = ray.data.from_arrow(pa.table({
            "event_id": pa.array([1, 2, 3, 4], pa.int64()),
            "user_id": pa.array([7, 7, 7, 9], pa.int64()),
            "ts": pa.array([5.0, 15.0, 20.0, 15.0])}))
        ivs = ray.data.from_arrow(pa.table({
            "interval_id": pa.array([100, 101, 102], pa.int64()),
            "user_id": pa.array([7, 7, 9], pa.int64()),
            "start": pa.array([0.0, 10.0, 0.0]),
            "end": pa.array([20.0, 30.0, 10.0])}))
        out = interval_join(points, ivs, max_duration_s=30.0,
                            ts_col="ts").to_pandas()
        pairs = set(zip(out["event_id"], out["interval_id"]))
        # point 15 (user 7) overlaps BOTH intervals; 20 only the second
        # (end exclusive); user 9's point at 15 is past its interval
        assert pairs == {(1, 100), (2, 100), (2, 101), (3, 101)}
        import pytest as _pt
        with _pt.raises(Exception, match="max_duration"):
            interval_join(points, ivs, max_duration_s=10.0,
                          ts_col="ts").to_pandas()

    def test_vs_duckdb_inequality_join(self, rds):
        import pandas as pd
        import pyarrow.compute as pc
        from engine.relational import interval_join
        ev = rds("events")
        pts = ev.map_batches(lambda b: b.filter(pc.invert(pc.equal(
            b.column("event_type"), "purchase"))), batch_format="pyarrow")

        def _w(df):
            sub = df[df["event_type"] == "purchase"]
            return pd.DataFrame({
                "interval_id": sub["event_id"].to_numpy(),
                "user_id": sub["user_id"].to_numpy(),
                "start": sub["ts"].to_numpy(),
                "end": sub["ts"].to_numpy() + np.timedelta64(1, "h")})
        got = interval_join(pts, ev.map_batches(_w, batch_format="pandas"),
                            max_duration_s=3600.0).to_pandas() \
            .sort_values(["event_id", "interval_id"]).reset_index(drop=True)
        exp = duckdb.sql(f"""
            with e as (select * from read_parquet('{SF}/events.parquet'))
            select l.event_id, r.event_id as interval_id
            from (select * from e where event_type <> 'purchase') l
            join (select * from e where event_type = 'purchase') r
              on l.user_id = r.user_id and l.ts >= r.ts
             and l.ts < r.ts + interval 1 hour
            order by l.event_id, interval_id
        """).df()
        assert got["event_id"].tolist() == exp["event_id"].tolist()
        assert got["interval_id"].tolist() == exp["interval_id"].tolist()


class TestGroupedQuantiles:
    def test_vs_duckdb_group_quantile_cont(self, rds):
        from engine.stats import grouped_quantiles
        got = grouped_quantiles(
            rds("lineitem"), group_col="l_returnflag",
            value_col="l_extendedprice", qs=[0.25, 0.5, 0.95]) \
            .to_pandas().sort_values(["l_returnflag", "q"]) \
            .reset_index(drop=True)
        exp = duckdb.sql(f"""
            select l_returnflag, q, v from (
              select l_returnflag, 0.25 as q,
                     quantile_cont(l_extendedprice, 0.25) as v
              from read_parquet('{SF}/lineitem.parquet')
              group by l_returnflag
              union all
              select l_returnflag, 0.5,
                     quantile_cont(l_extendedprice, 0.5)
              from read_parquet('{SF}/lineitem.parquet')
              group by l_returnflag
              union all
              select l_returnflag, 0.95,
                     quantile_cont(l_extendedprice, 0.95)
              from read_parquet('{SF}/lineitem.parquet')
              group by l_returnflag)
            order by l_returnflag, q
        """).df()
        assert got["l_returnflag"].tolist() == exp["l_returnflag"].tolist()
        assert np.allclose(got["value"], exp["v"], atol=1e-9)


class TestValueHistogram:
    def test_vs_duckdb(self, rds):
        from engine.stats import value_histogram
        got = value_histogram(rds("orders"), "o_totalprice",
                              lo=0.0, hi=600000.0, bins=16).to_pandas() \
            .sort_values("bin").reset_index(drop=True)
        exp = duckdb.sql(f"""
            select least(floor((o_totalprice - 0.0) * 16 / 600000.0),
                         15)::bigint as bin, count(*) as n
            from read_parquet('{SF}/orders.parquet')
            where o_totalprice >= 0.0 and o_totalprice <= 600000.0
            group by bin order by bin
        """).df()
        assert got["bin"].tolist() == exp["bin"].tolist()
        assert got["n"].tolist() == exp["n"].tolist()

    def test_range_boundaries(self, ray_session):
        import ray.data
        from engine.stats import value_histogram
        ds = ray.data.from_arrow(pa.table({
            "x": pa.array([0.0, 5.0, 9.999, 10.0, 10.5, -0.1, None],
                          pa.float64())}))
        got = value_histogram(ds, "x", lo=0.0, hi=10.0, bins=2) \
            .to_pandas().set_index("bin")["n"]
        # hi lands in the LAST bin; the boundary value 5.0 belongs to the
        # upper bin; out-of-range and NULL dropped
        assert got[0] == 1 and got[1] == 3


class TestCountDistinct:
    def test_vs_duckdb(self, rds):
        from engine.relational import count_distinct
        got = count_distinct(rds("events"), group_col="event_type",
                             value_col="user_id").to_pandas() \
            .sort_values("event_type").reset_index(drop=True)
        exp = duckdb.sql(f"""
            select event_type, count(distinct user_id) as n
            from read_parquet('{SF}/events.parquet')
            where event_type is not null and user_id is not null
            group by event_type order by event_type
        """).df()
        assert got["event_type"].tolist() == exp["event_type"].tolist()
        assert got["n_distinct"].tolist() == exp["n"].tolist()

    def test_duplicates_across_batches(self, ray_session):
        import ray.data
        from engine.relational import count_distinct
        t = pa.table({"g": ["a"] * 50 + ["b"] * 50,
                      "v": ([1, 2] * 25) + ([7] * 50)})
        out = count_distinct(ray.data.from_arrow(t).repartition(8),
                             group_col="g", value_col="v").to_pandas() \
            .set_index("g")["n_distinct"]
        assert out["a"] == 2 and out["b"] == 1


class TestEwma:
    def test_vs_pandas_reference(self, ray_session):
        import pandas as pd
        import ray.data
        from engine.relational import ewma
        rng = np.random.default_rng(11)
        n = 200
        df = pd.DataFrame({
            "event_id": list(range(n)),
            "user_id": rng.integers(0, 8, n),
            "ts": rng.integers(0, 1000, n).astype(float),
            "value": rng.normal(0, 5, n)})
        got = ewma(ray.data.from_pandas(df).repartition(6),
                   alpha=0.4).to_pandas().set_index("event_id")["ewma"]
        ref = df.sort_values(["user_id", "ts", "event_id"])
        # explicit sequential recurrence as the reference
        exp = {}
        for _, grp in ref.groupby("user_id"):
            y = None
            for _, row in grp.iterrows():
                y = row["value"] if y is None \
                    else 0.4 * row["value"] + 0.6 * y
                exp[row["event_id"]] = y
        for eid in df["event_id"]:
            assert abs(got[eid] - exp[eid]) < 1e-9, eid


class TestEwmaHalflife:
    def test_vs_direct_definition(self, ray_session):
        import pandas as pd
        import ray.data
        from engine.relational import ewma_halflife
        rng = np.random.default_rng(17)
        n = 200
        df = pd.DataFrame({
            "event_id": list(range(n)),
            "user_id": rng.integers(0, 8, n),
            "ts": pd.to_datetime(
                rng.integers(0, 72 * 3600, n), unit="s"),
            "value": rng.normal(0, 5, n)})
        got = ewma_halflife(ray.data.from_pandas(df).repartition(6),
                            halflife_seconds=3600.0) \
            .to_pandas().set_index("event_id")["ewma_hl"]
        # direct weighted-mean definition as the reference
        for uid, grp in df.groupby("user_id"):
            g = grp.sort_values(["ts", "event_id"]).reset_index(drop=True)
            t = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
            v = g["value"].to_numpy()
            for i in range(len(g)):
                w = 0.5 ** ((t[i] - t[: i + 1]) / 3.6e9)
                exp = (w * v[: i + 1]).sum() / w.sum()
                assert abs(got[g["event_id"][i]] - exp) < 1e-9, \
                    (uid, g["event_id"][i])

    def test_time_gap_decays_regardless_of_row_count(self, ray_session):
        import pandas as pd
        import ray.data
        from engine.relational import ewma_halflife
        # 1-second gaps then a 100-halflife gap: the old state must be
        # ~fully decayed, so the last row's EWMA ~= its own value
        df = pd.DataFrame({
            "event_id": [0, 1, 2],
            "user_id": [1, 1, 1],
            "ts": pd.to_datetime([0, 1, 360_001], unit="s"),
            "value": [100.0, 100.0, 1.0]})
        got = ewma_halflife(ray.data.from_pandas(df),
                            halflife_seconds=3600.0) \
            .to_pandas().set_index("event_id")["ewma_hl"]
        assert abs(got[2] - 1.0) < 1e-6
        # row-count EWMA over the same rows would blend heavily instead
        from engine.relational import ewma
        row = ewma(ray.data.from_pandas(df), alpha=0.3) \
            .to_pandas().set_index("event_id")["ewma"]
        assert row[2] > 30.0

    def test_null_value_and_ts_rows_dropped(self, ray_session):
        import pandas as pd
        import ray.data
        from engine.relational import ewma_halflife
        df = pd.DataFrame({
            "event_id": [0, 1, 2, 3],
            "user_id": [1, 1, 1, 1],
            "ts": pd.to_datetime([0, 10, None, 20], unit="s"),
            "value": [1.0, None, 5.0, 3.0]})
        got = ewma_halflife(ray.data.from_pandas(df)) \
            .to_pandas().set_index("event_id")["ewma_hl"]
        assert set(got.index) == {0, 3}  # NULL value / NULL ts emit nothing
        # and the dropped rows do not advance the state
        w = 0.5 ** (20 / 3600.0)
        assert abs(got[3] - (w * 1.0 + 3.0) / (w + 1.0)) < 1e-9


class TestQ5:
    def _run(self, rds, **kw):
        from engine.relational import q5_local_supplier_volume
        return q5_local_supplier_volume(
            rds("lineitem"), rds("orders"), rds("customer"),
            rds("supplier"), rds("nation"), rds("region"), **kw) \
            .to_pandas().sort_values("n_name").reset_index(drop=True)

    def test_vs_duckdb(self, rds):
        got = self._run(rds)
        exp = duckdb.sql(f"""
            select n_name,
                   sum(l_extendedprice * (1 - l_discount)) as revenue
            from read_parquet('{SF}/customer.parquet') c,
                 read_parquet('{SF}/orders.parquet') o,
                 read_parquet('{SF}/lineitem.parquet') l,
                 read_parquet('{SF}/supplier.parquet') s,
                 read_parquet('{SF}/nation.parquet') n,
                 read_parquet('{SF}/region.parquet') r
            where c_custkey = o_custkey and l_orderkey = o_orderkey
              and l_suppkey = s_suppkey and c_nationkey = s_nationkey
              and s_nationkey = n_nationkey and n_regionkey = r_regionkey
              and r_name = 'ASIA'
              and o_orderdate >= date '1996-01-01'
              and o_orderdate < date '1997-01-01'
            group by n_name order by n_name
        """).df()
        assert got["n_name"].tolist() == exp["n_name"].tolist()
        assert np.allclose(got["revenue"], exp["revenue"])

    def test_distributed_path_matches_broadcast(self, rds):
        a = self._run(rds)
        b = self._run(rds, broadcast_limit=0)  # force hash-join route
        assert a["n_name"].tolist() == b["n_name"].tolist()
        assert np.allclose(a["revenue"], b["revenue"])


class TestPercentileRank:
    def test_vs_duckdb_window(self, rds):
        from engine.stats import percentile_rank
        got = percentile_rank(rds("events"), "value",
                              id_col="event_id").to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        exp = duckdb.sql(f"""
            select event_id, percent_rank() over (order by value) as pr
            from read_parquet('{SF}/events.parquet')
            where value is not null order by event_id
        """).df()
        assert got["event_id"].tolist() == exp["event_id"].tolist()
        assert np.allclose(got["pct_rank"], exp["pr"], atol=0)

    def test_ties_and_gate(self, ray_session):
        import ray.data
        from engine.stats import percentile_rank
        t = pa.table({"id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                      "x": pa.array([10.0, 10.0, 20.0, 30.0, None])})
        got = percentile_rank(ray.data.from_arrow(t), "x",
                              id_col="id").to_pandas() \
            .set_index("id")["pct_rank"]
        # 4 non-null rows: ties share count(x<v)/(n-1)
        assert got[1] == 0.0 and got[2] == 0.0
        assert got[3] == 2 / 3 and got[4] == 1.0
        assert 5 not in got.index
        import pytest as _pt
        with _pt.raises(ValueError, match="distinct_limit"):
            percentile_rank(ray.data.from_arrow(t), "x", id_col="id",
                            distinct_limit=2)


class TestNgramNovelty:
    def _corpora(self):
        import ray.data
        ref = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["alpha beta gamma delta epsilon zeta",
                              "one two three four five six seven"])}))
        score = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([10, 11, 12], pa.int64()),
            "text": pa.array(["alpha beta gamma delta epsilon zeta",
                              "alpha beta gamma NEW words here now",
                              None])}))
        return ref, score

    def test_exact_mode(self, ray_session):
        from engine.textstats import ngram_novelty
        ref, score = self._corpora()
        got = ngram_novelty(score, ref).to_pandas() \
            .set_index("doc_id")
        assert got.loc[10, "novelty"] == 0.0         # fully contained
        assert 0 < got.loc[11, "novelty"] < 1.0       # partially novel
        assert got.loc[12, "total_grams"] == 0        # null text
        assert got.loc[12, "novelty"] == 0.0

    def test_bloom_mode_never_overestimates(self, ray_session):
        from engine.textstats import ngram_novelty
        ref, score = self._corpora()
        exact = ngram_novelty(score, ref).to_pandas() \
            .set_index("doc_id")["novelty"]
        bloom = ngram_novelty(score, ref, exact_limit=0).to_pandas() \
            .set_index("doc_id")["novelty"]
        for d in exact.index:
            assert bloom[d] <= exact[d] + 1e-12  # fp only removes novelty


class TestCompressionRatio:
    def test_vs_zlib_reference_and_ordering(self, ray_session):
        import zlib
        import ray.data
        from engine.textstats import compression_ratio
        rng = np.random.default_rng(0)
        alphabet = np.array(list(
            "abcdefghijklmnopqrstuvwxyz0123456789"))
        rep = "spam " * 200
        prose = ("the quick brown fox jumps over the lazy dog while "
                 "seventeen geese debate epistemology near the river ") * 4
        noise = "".join(rng.choice(alphabet, size=len(prose)))
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array([rep, prose, noise, None])}))
        got = compression_ratio(ds).to_pandas().set_index("doc_id")
        for d, t in [(1, rep), (2, prose), (3, noise)]:
            b = t.encode()
            assert got.loc[d, "raw_bytes"] == len(b)
            assert got.loc[d, "compressed_bytes"] == len(
                zlib.compress(b, 6))
        assert got.loc[1, "ratio"] < got.loc[2, "ratio"] < \
            got.loc[3, "ratio"]
        assert got.loc[4, "ratio"] == 1.0 and got.loc[4, "raw_bytes"] == 0


class TestPiiFlags:
    def test_patterns_and_flag(self, ray_session):
        import ray.data
        from engine.textstats import pii_flags
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array([
                "mail a@b.io and c.d+x@e-f.org twice",
                "call 555-123-4567 or visit 192.168.0.1",
                "ssn 123-45-6789 lurks here",
                None])}))
        got = pii_flags(ds).to_pandas().set_index("doc_id")
        assert got.loc[1, "n_emails"] == 2 and got.loc[1, "has_pii"]
        assert got.loc[2, "n_phones"] == 1 and got.loc[2, "n_ipv4"] == 1
        assert got.loc[3, "n_ssn_like"] == 1
        assert not got.loc[4, "has_pii"]
        assert (got.loc[4, ["n_emails", "n_phones", "n_ipv4",
                            "n_ssn_like"]] == 0).all()


class TestRedactPii:
    def test_tags_order_and_nulls(self, ray_session):
        import ray.data
        from engine.textstats import redact_pii
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array([
                "a@b.io then 123-45-6789 then 555-123-4567 then 10.0.0.1",
                "clean text stays clean",
                None])}))
        got = redact_pii(ds).to_pandas().set_index("doc_id")
        assert got.loc[1, "redacted_text"] == \
            "[EMAIL] then [SSN] then [PHONE] then [IP]"
        assert got.loc[2, "redacted_text"] == "clean text stays clean"
        assert got.loc[3, "redacted_text"] is None


class TestPackSequences:
    def test_next_fit_semantics(self, ray_session):
        import ray.data
        from engine.textstats import pack_sequences
        # token counts: 3, 3, 3, 9(oversized), 2, 2 with budget 7
        texts = ["a b c", "d e f", "g h i", "j k l m n o p q r",
                 "s t", "u v"]
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(list(range(6)), pa.int64()),
            "text": pa.array(texts)}))
        got = pack_sequences(ds, token_budget=7, shard_size=100) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        # bin 0: docs 0,1 (3+3=6 <= 7); doc 2 opens bin 1 (3);
        # oversized doc 3 cannot join -> bin 2 alone; docs 4,5 -> bin 3
        assert got["bin"].tolist() == [0, 0, 1, 2, 3, 3]
        assert got["n_tokens"].tolist() == [3, 3, 3, 9, 2, 2]

    def test_shards_pack_independently(self, ray_session):
        import ray.data
        from engine.textstats import pack_sequences
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(["a b", "c d", "e f", "g h"])}))
        got = pack_sequences(ds, token_budget=100, shard_size=2) \
            .to_pandas().sort_values("doc_id")
        # two shards of two docs; bin numbering restarts per shard
        assert got["shard"].tolist() == [0, 0, 1, 1]
        assert got["bin"].tolist() == [0, 0, 0, 0]

    def test_bpe_counter_changes_bin_shapes(self, ray_session):
        import pytest
        import ray.data
        from engine.textstats import pack_sequences
        # whitespace counts: 2, 2; BPE-ish counts: "a-b." -> a,-,b,. = 4
        # plus "12!" -> 1,2,! = 3 -> 4+3=7 per doc
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["a-b. 12!", "a-b. 12!"])}))
        ws = pack_sequences(ds, token_budget=5, shard_size=100) \
            .to_pandas().sort_values("doc_id")
        assert ws["n_tokens"].tolist() == [2, 2]
        assert ws["bin"].tolist() == [0, 0]  # 2+2 fits budget 5
        bpe = pack_sequences(ds, token_budget=5, shard_size=100,
                             counter="bpe") \
            .to_pandas().sort_values("doc_id")
        assert bpe["n_tokens"].tolist() == [7, 7]
        assert bpe["bin"].tolist() == [0, 1]  # each oversized doc alone
        with pytest.raises(ValueError):
            pack_sequences(ds, counter="sentencepiece")


class TestGroupedMoments:
    def test_vs_duckdb(self, rds):
        from engine.stats import grouped_moments
        got = grouped_moments(rds("lineitem"), group_col="l_returnflag",
                              value_col="l_extendedprice").to_pandas() \
            .sort_values("l_returnflag").reset_index(drop=True)
        exp = duckdb.sql(f"""
            select l_returnflag, count(l_extendedprice) n,
                   avg(l_extendedprice) mean,
                   stddev_samp(l_extendedprice) std_samp,
                   min(l_extendedprice)::double vmin,
                   max(l_extendedprice)::double vmax
            from read_parquet('{SF}/lineitem.parquet')
            group by l_returnflag order by l_returnflag
        """).df()
        assert got["l_returnflag"].tolist() == exp["l_returnflag"].tolist()
        assert got["n"].tolist() == exp["n"].tolist()
        for c in ("mean", "std_samp", "vmin", "vmax"):
            np.testing.assert_allclose(got[c], exp[c], rtol=1e-9)

    def test_singleton_group_null_std_and_nulls_dropped(self, ray_session):
        import ray.data
        from engine.stats import grouped_moments
        ds = ray.data.from_arrow(pa.table({
            "g": pa.array(["a", "a", "b", "b", "c"]),
            "v": pa.array([1.0, 3.0, None, 5.0, None], pa.float64())}))
        out = grouped_moments(ds, group_col="g", value_col="v") \
            .to_pandas().sort_values("g").reset_index(drop=True)
        # group c is all-NULL -> absent; group b has one value -> NULL std
        assert out["g"].tolist() == ["a", "b"]
        assert out["n"].tolist() == [2, 1]
        assert out["mean"].tolist() == [2.0, 5.0]
        assert abs(out["std_samp"][0] - np.sqrt(2.0)) < 1e-12
        assert np.isnan(out["std_samp"][1])


class TestGroupedCorr:
    def test_vs_duckdb(self, rds):
        from engine.stats import grouped_corr
        got = grouped_corr(rds("lineitem"), group_col="l_returnflag",
                           x_col="l_quantity", y_col="l_extendedprice") \
            .to_pandas().sort_values("l_returnflag").reset_index(drop=True)
        exp = duckdb.sql(f"""
            select l_returnflag, count(*) n,
                   corr(l_quantity, l_extendedprice) r
            from read_parquet('{SF}/lineitem.parquet')
            where l_quantity is not null and l_extendedprice is not null
            group by l_returnflag order by l_returnflag
        """).df()
        assert got["n"].tolist() == exp["n"].tolist()
        np.testing.assert_allclose(got["corr"], exp["r"], atol=1e-9)

    def test_zero_variance_group_is_null(self, ray_session):
        import ray.data
        from engine.stats import grouped_corr
        ds = ray.data.from_arrow(pa.table({
            "g": pa.array(["a"] * 4 + ["b"] * 3),
            "x": pa.array([1.0, 2.0, 3.0, 4.0, 7.0, 7.0, 7.0]),
            "y": pa.array([2.0, 4.0, 6.0, 8.0, 1.0, 2.0, 3.0])}))
        out = grouped_corr(ds, group_col="g", x_col="x", y_col="y") \
            .to_pandas().sort_values("g").reset_index(drop=True)
        assert abs(out["corr"][0] - 1.0) < 1e-12  # perfectly linear
        assert np.isnan(out["corr"][1])           # constant x -> NULL


class TestLagDiff:
    def test_vs_duckdb(self, rds):
        from engine.relational import lag_diff
        got = lag_diff(rds("events")).to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        exp = duckdb.sql(f"""
            select event_id,
                   value - lag(value) over (
                       partition by user_id order by ts, event_id) d
            from read_parquet('{SF}/events.parquet') order by event_id
        """).df()
        assert got["event_id"].tolist() == exp["event_id"].tolist()
        np.testing.assert_allclose(got["lag_diff"], exp["d"], atol=1e-12)

    def test_null_value_propagates_not_skips(self, ray_session):
        """LAG takes the previous ROW's value even when it is NULL — a
        NULL does not advance-or-skip like the EWMA contract."""
        import pandas as pd
        import ray.data
        from engine.relational import lag_diff
        ds = ray.data.from_arrow(pa.table({
            "event_id": pa.array([1, 2, 3, 4], pa.int64()),
            "ts": pa.array(pd.to_datetime(
                ["2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04"])),
            "user_id": pa.array([7, 7, 7, 7], pa.int64()),
            "value": pa.array([1.0, None, 4.0, 10.0], pa.float64())}))
        out = lag_diff(ds).to_pandas().sort_values("event_id") \
            .reset_index(drop=True)
        vals = out["lag_diff"].tolist()
        assert np.isnan(vals[0])        # first row of key
        assert np.isnan(vals[1])        # NULL - 1.0 -> NULL
        assert np.isnan(vals[2])        # 4.0 - NULL -> NULL
        assert vals[3] == 6.0           # 10.0 - 4.0


class TestWinsorize:
    def test_vs_duckdb(self, rds):
        from engine.stats import winsorize
        got = winsorize(rds("events"), "value").to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        exp = duckdb.sql(f"""
            with b as (select quantile_cont(value, 0.05) lo,
                              quantile_cont(value, 0.95) hi
                       from read_parquet('{SF}/events.parquet')
                       where value is not null)
            select event_id, least(greatest(value, b.lo), b.hi) v
            from read_parquet('{SF}/events.parquet'), b
            where value is not null order by event_id
        """).df()
        assert got["event_id"].tolist() == exp["event_id"].tolist()
        np.testing.assert_allclose(got["value"], exp["v"], atol=1e-12)
        # fences actually bind at both ends
        assert got["value"].min() > \
            duckdb.sql(f"select min(value) from read_parquet("
                       f"'{SF}/events.parquet')").fetchone()[0]


class TestKeepLatest:
    def test_vs_duckdb(self, rds):
        from engine.relational import keep_latest
        got = keep_latest(rds("events")).to_pandas() \
            .sort_values("user_id").reset_index(drop=True)
        exp = duckdb.sql(f"""
            select user_id, event_id, ts, value from (
              select user_id, event_id, ts, value,
                     row_number() over (partition by user_id
                         order by ts desc, event_id desc) rn
              from read_parquet('{SF}/events.parquet')) where rn = 1
            order by user_id
        """).df()
        assert got["event_id"].tolist() == exp["event_id"].tolist()
        np.testing.assert_allclose(got["value"], exp["value"])

    def test_null_ts_loses_and_id_breaks_ties(self, ray_session):
        import pandas as pd
        import ray.data
        from engine.relational import keep_latest
        ds = ray.data.from_arrow(pa.table({
            "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "ts": pa.array(pd.to_datetime(
                ["2020-01-02", None, "2020-01-02", None, None])),
            "user_id": pa.array([7, 7, 7, 9, 9], pa.int64()),
            "value": pa.array([1.0, 2.0, 3.0, 4.0, 5.0], pa.float64())}))
        out = keep_latest(ds).to_pandas().sort_values("user_id") \
            .reset_index(drop=True)
        # key 7: NULL ts least recent; tie on ts -> higher event_id wins
        assert out["event_id"].tolist() == [3, 5]

    def test_shrinks_before_shuffle(self, ray_session):
        """The in-batch combiner alone already reduces a single batch to
        one row per key (the two-level contract)."""
        import pandas as pd
        import ray.data
        from engine.relational import keep_latest
        n = 5000
        ds = ray.data.from_arrow(pa.table({
            "event_id": pa.array(list(range(n)), pa.int64()),
            "ts": pa.array(pd.to_datetime(["2020-01-01"] * n)
                           + pd.to_timedelta(np.arange(n) % 97, "s")),
            "user_id": pa.array([i % 13 for i in range(n)], pa.int64()),
            "value": pa.array(np.arange(n, dtype=np.float64))}))
        out = keep_latest(ds).to_pandas()
        assert len(out) == 13
        assert set(out["user_id"]) == set(range(13))


class TestPivotAgg:
    def test_vs_duckdb(self, rds):
        from engine.relational import pivot_agg
        kinds = ["click", "error", "purchase", "signup", "view"]
        got = pivot_agg(rds("events"), group_col="user_id",
                        pivot_col="event_type", value_col="value",
                        values=kinds).to_pandas() \
            .sort_values("user_id").reset_index(drop=True)
        exp = duckdb.sql(f"""
            select user_id,
                   {', '.join(
                       f"coalesce(sum(value) filter (where event_type"
                       f" = '{k}'), 0) sum_{k}" for k in kinds)}
            from read_parquet('{SF}/events.parquet')
            group by user_id order by user_id
        """).df()
        assert got["user_id"].tolist() == exp["user_id"].tolist()
        for k in kinds:
            np.testing.assert_allclose(got[f"sum_{k}"], exp[f"sum_{k}"],
                                       atol=1e-9)

    def test_undeclared_values_ignored_and_zero_fill(self, ray_session):
        import ray.data
        from engine.relational import pivot_agg
        ds = ray.data.from_arrow(pa.table({
            "g": pa.array([1, 1, 2], pa.int64()),
            "p": pa.array(["a", "zzz", "b"], pa.string()),
            "v": pa.array([2.0, 99.0, 3.0], pa.float64())}))
        out = pivot_agg(ds, group_col="g", pivot_col="p", value_col="v",
                        values=["a", "b"]).to_pandas() \
            .sort_values("g").reset_index(drop=True)
        assert out["sum_a"].tolist() == [2.0, 0.0]   # zzz ignored
        assert out["sum_b"].tolist() == [0.0, 3.0]   # zero-fill

    def test_null_measure_adds_zero(self, ray_session):
        import ray.data
        from engine.relational import pivot_agg
        ds = ray.data.from_arrow(pa.table({
            "g": pa.array([1, 1], pa.int64()),
            "p": pa.array(["a", "a"], pa.string()),
            "v": pa.array([5.0, None], pa.float64())}))
        out = pivot_agg(ds, group_col="g", pivot_col="p", value_col="v",
                        values=["a"]).to_pandas()
        assert out["sum_a"].tolist() == [5.0]


class TestSetOps:
    def _mk(self, ray_session, keys):
        import ray.data
        return ray.data.from_arrow(pa.table({
            "k": pa.array(keys, pa.int64())}))

    def test_except_and_intersect_vs_duckdb(self, rds):
        from engine.relational import except_distinct, intersect_distinct
        ev = rds("events")
        import pyarrow.compute as pc

        def side(kind):
            def _f(b):
                m = pc.and_(pc.equal(b.column("event_type"), kind),
                            pc.greater(b.column("value"), 95.0))
                return b.filter(m).select(["user_id"])
            return ev.map_batches(_f, batch_format="pyarrow")

        for op, fn in [("except", except_distinct),
                       ("intersect", intersect_distinct)]:
            got = fn(side("click"), side("purchase"),
                     key_col="user_id").to_pandas()
            got = sorted(got["user_id"]) if len(got) else []
            exp = duckdb.sql(f"""
                select user_id from (
                  select distinct user_id from
                    read_parquet('{SF}/events.parquet')
                  where event_type = 'click' and value > 95.0
                  {op}
                  select distinct user_id from
                    read_parquet('{SF}/events.parquet')
                  where event_type = 'purchase' and value > 95.0)
                order by user_id
            """).df()["user_id"].tolist()
            assert got == exp, op

    def test_right_only_and_nulls_excluded(self, ray_session):
        import ray.data
        from engine.relational import except_distinct, intersect_distinct
        left = ray.data.from_arrow(pa.table({
            "k": pa.array([1, 2, 2, None], pa.int64())}))
        right = ray.data.from_arrow(pa.table({
            "k": pa.array([2, 3, None], pa.int64())}))
        ex = except_distinct(left, right, key_col="k").to_pandas()
        assert sorted(ex["k"]) == [1]       # 3 is right-only; NULL dropped
        iv = intersect_distinct(left, right, key_col="k").to_pandas()
        assert sorted(iv["k"]) == [2]

    def test_renamed_right_key(self, ray_session):
        import ray.data
        from engine.relational import intersect_distinct
        left = ray.data.from_arrow(pa.table({
            "a": pa.array([1, 2], pa.int64())}))
        right = ray.data.from_arrow(pa.table({
            "b": pa.array([2, 9], pa.int64())}))
        out = intersect_distinct(left, right, key_col="a",
                                 right_key_col="b").to_pandas()
        assert out["a"].tolist() == [2]


class TestGroupedMode:
    def test_vs_duckdb(self, rds):
        from engine.relational import grouped_mode
        got = grouped_mode(rds("events"), group_col="user_id",
                           value_col="event_type").to_pandas() \
            .sort_values("user_id").reset_index(drop=True)
        exp = duckdb.sql(f"""
            with c as (select user_id, event_type, count(*) n
                       from read_parquet('{SF}/events.parquet')
                       group by user_id, event_type),
            m as (select user_id, max(n) mn from c group by user_id)
            select c.user_id, min(c.event_type) mode_value, m.mn n
            from c join m on c.user_id = m.user_id and c.n = m.mn
            group by c.user_id, m.mn order by c.user_id
        """).df()
        assert got["user_id"].tolist() == exp["user_id"].tolist()
        assert got["mode_value"].tolist() == exp["mode_value"].tolist()
        assert got["n"].tolist() == exp["n"].tolist()

    def test_tie_breaks_to_smallest_and_nulls_drop(self, ray_session):
        import ray.data
        from engine.relational import grouped_mode
        ds = ray.data.from_arrow(pa.table({
            "g": pa.array([1, 1, 1, 1, 2, 2], pa.int64()),
            "v": pa.array(["b", "b", "a", "a", None, "z"], pa.string())}))
        out = grouped_mode(ds, group_col="g", value_col="v").to_pandas() \
            .sort_values("g").reset_index(drop=True)
        assert out["mode_value"].tolist() == ["a", "z"]  # tie -> min
        assert out["n"].tolist() == [2, 1]               # NULL dropped

    def test_partials_merge_across_batches(self, ray_session):
        """Counts split across batches must merge before the winner is
        picked (a per-batch argmax would get this wrong)."""
        import ray.data
        from engine.relational import grouped_mode
        # 'a' is majority overall but minority within each batch tail
        vals = ["a"] * 60 + ["b"] * 50 + ["a"] * 40
        ds = ray.data.from_arrow(pa.table({
            "g": pa.array([1] * len(vals), pa.int64()),
            "v": pa.array(vals, pa.string())})).repartition(10)
        out = grouped_mode(ds, group_col="g", value_col="v").to_pandas()
        assert out["mode_value"].tolist() == ["a"]
        assert out["n"].tolist() == [100]


class TestRunningSum:
    def test_vs_duckdb(self, rds):
        from engine.relational import running_sum
        got = running_sum(rds("events")).to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        exp = duckdb.sql(f"""
            select event_id,
                   coalesce(sum(value) over (
                       partition by user_id order by ts, event_id
                       rows unbounded preceding), 0) s
            from read_parquet('{SF}/events.parquet') order by event_id
        """).df()
        assert got["event_id"].tolist() == exp["event_id"].tolist()
        np.testing.assert_allclose(got["running_sum"], exp["s"],
                                   atol=1e-9)

    def test_null_contributes_zero(self, ray_session):
        import pandas as pd
        import ray.data
        from engine.relational import running_sum
        ds = ray.data.from_arrow(pa.table({
            "event_id": pa.array([1, 2, 3], pa.int64()),
            "ts": pa.array(pd.to_datetime(
                ["2020-01-01", "2020-01-02", "2020-01-03"])),
            "user_id": pa.array([7, 7, 7], pa.int64()),
            "value": pa.array([None, 2.0, 3.0], pa.float64())}))
        out = running_sum(ds).to_pandas().sort_values("event_id")
        assert out["running_sum"].tolist() == [0.0, 2.0, 5.0]


class TestSemiAntiJoin:
    def _sides(self, rds):
        import pyarrow.compute as pc
        ev = rds("events")

        def _hi(b):
            m = pc.and_(pc.equal(b.column("event_type"), "purchase"),
                        pc.greater(b.column("value"), 95.0))
            return b.filter(m).select(["user_id"])
        return ev, ev.map_batches(_hi, batch_format="pyarrow")

    def test_vs_duckdb_both_routes(self, rds):
        from engine.relational import anti_join, semi_join
        ev, hi = self._sides(rds)
        for anti, fn in [(False, semi_join), (True, anti_join)]:
            exp = duckdb.sql(f"""
                select event_id from read_parquet(
                    '{SF}/events.parquet') e
                where {"not" if anti else ""} exists (
                  select 1 from read_parquet('{SF}/events.parquet') p
                  where p.user_id = e.user_id
                    and p.event_type = 'purchase' and p.value > 95.0)
                order by event_id
            """).df()["event_id"].tolist()
            for limit in (2_000_000, 0):   # broadcast vs distributed
                got = fn(ev, hi, key_col="user_id",
                         broadcast_limit=limit).to_pandas()
                ids = sorted(got["event_id"]) if len(got) else []
                assert ids == exp, (anti, limit)

    def test_null_key_contract(self, ray_session):
        """NULL left keys: semi drops (EXISTS never true), anti keeps
        (NOT EXISTS vacuously true) — on both routes."""
        import ray.data
        from engine.relational import anti_join, semi_join
        left = ray.data.from_arrow(pa.table({
            "k": pa.array([1, None, 3], pa.int64()),
            "x": pa.array(["a", "b", "c"], pa.string())}))
        right = ray.data.from_arrow(pa.table({
            "k": pa.array([1, None], pa.int64())}))
        for limit in (10, 0):
            s = semi_join(left, right, key_col="k",
                          broadcast_limit=limit).to_pandas()
            assert sorted(s["x"]) == ["a"], limit
            a = anti_join(left, right, key_col="k",
                          broadcast_limit=limit).to_pandas()
            assert sorted(a["x"]) == ["b", "c"], limit

    def test_duplicate_right_keys_do_not_multiply(self, ray_session):
        import ray.data
        from engine.relational import semi_join
        left = ray.data.from_arrow(pa.table({
            "k": pa.array([1, 2], pa.int64()),
            "x": pa.array(["a", "b"], pa.string())}))
        right = ray.data.from_arrow(pa.table({
            "k": pa.array([1, 1, 1], pa.int64())}))
        for limit in (10, 0):
            out = semi_join(left, right, key_col="k",
                            broadcast_limit=limit).to_pandas()
            assert sorted(out["x"]) == ["a"], limit


class TestUnionDistinct:
    def test_vs_python_sets_and_nulls(self, ray_session):
        import ray.data
        from engine.relational import union_distinct
        left = ray.data.from_arrow(pa.table({
            "k": pa.array([1, 2, 2, None], pa.int64())}))
        right = ray.data.from_arrow(pa.table({
            "b": pa.array([2, 3, None], pa.int64())}))
        out = union_distinct(left, right, key_col="k",
                             right_key_col="b").to_pandas()
        assert sorted(out["k"]) == [1, 2, 3]   # distinct; NULLs dropped


class TestCollectSequence:
    def test_vs_duckdb(self, rds):
        from engine.relational import collect_sequence
        got = collect_sequence(rds("events")).to_pandas() \
            .sort_values("user_id").reset_index(drop=True)
        exp = duckdb.sql(f"""
            select user_id,
                   string_agg(event_type, ',' order by ts, event_id) seq,
                   count(event_type) n
            from read_parquet('{SF}/events.parquet')
            group by user_id order by user_id
        """).df()
        assert got["user_id"].tolist() == exp["user_id"].tolist()
        assert got["seq"].tolist() == exp["seq"].tolist()
        assert got["n_items"].tolist() == exp["n"].tolist()

    def test_null_values_skipped_and_all_null_key_absent(self,
                                                         ray_session):
        import pandas as pd
        import ray.data
        from engine.relational import collect_sequence
        ds = ray.data.from_arrow(pa.table({
            "event_id": pa.array([1, 2, 3, 4], pa.int64()),
            "ts": pa.array(pd.to_datetime(
                ["2020-01-02", "2020-01-01", "2020-01-03", "2020-01-01"])),
            "user_id": pa.array([7, 7, 7, 9], pa.int64()),
            "event_type": pa.array(["b", "a", None, None], pa.string())}))
        out = collect_sequence(ds).to_pandas()
        assert len(out) == 1                      # key 9 all-NULL: absent
        assert out["seq"].tolist() == ["a,b"]     # ts order, NULL skipped
        assert out["n_items"].tolist() == [2]


class TestRollingSumCount:
    def test_vs_duckdb(self, rds):
        from engine.relational import rolling_window_sum_count
        got = rolling_window_sum_count(rds("events")).to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        exp = duckdb.sql(f"""
            select event_id,
                   sum(value) over w s, count(value) over w n
            from read_parquet('{SF}/events.parquet')
            window w as (partition by user_id order by ts
                         range between interval 3 hours preceding
                               and current row)
            order by event_id
        """).df()
        assert got["event_id"].tolist() == exp["event_id"].tolist()
        np.testing.assert_allclose(got["rolling_sum"], exp["s"],
                                   atol=1e-9)
        assert got["rolling_n"].tolist() == exp["n"].tolist()

    def test_all_null_frame_sql_semantics(self, ray_session):
        import pandas as pd
        import ray.data
        from engine.relational import rolling_window_sum_count
        ds = ray.data.from_arrow(pa.table({
            "event_id": pa.array([1, 2], pa.int64()),
            "ts": pa.array(pd.to_datetime(
                ["2020-01-01 00:00", "2020-01-01 01:00"])),
            "user_id": pa.array([7, 7], pa.int64()),
            "value": pa.array([None, 5.0], pa.float64())}))
        out = rolling_window_sum_count(ds).to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        assert np.isnan(out["rolling_sum"][0])   # all-NULL frame -> NULL
        assert out["rolling_n"].tolist() == [0, 1]
        assert out["rolling_sum"][1] == 5.0


class TestNullableKeyDtypeRegressions:
    """Arrow->pandas degrades int64-with-NULL columns to float64; these
    pin the fixes: hash64 canonicalizes integral floats per element, and
    the set-op prep stays pure Arrow so key dtypes never drift."""

    def test_hash64_integral_float_matches_int(self):
        from engine.sketches import hash64
        a = hash64(np.array([2, 7, 0], dtype=np.int64))
        b = hash64(np.array([2.0, 7.0, -0.0], dtype=np.float64))
        assert (a == b).all()
        # per-element: 2.0 hashes the same regardless of batch mix
        c = hash64(np.array([2.0, 3.5]))
        d = hash64(np.array([3.5, np.nan, 2.0]))
        assert c[0] == d[2] and c[1] == d[0]
        # every NULL spelling hashes to ONE value, which by_key's
        # null_keys="one" partition relies on (pd.util.hash_array with
        # categorize=False would hash None and NaN apart)
        import pandas as pd
        n = hash64(np.array([None, np.nan, pd.NA, "x"], dtype=object))
        assert n[0] == n[1] == n[2] != n[3]

    def test_set_op_key_in_null_batch_still_matches(self, ray_session):
        """A key that appears int64 on one side and float64-degraded
        (NULL-containing batch) on the other must still co-locate."""
        import ray.data
        from engine.relational import intersect_distinct
        left = ray.data.from_arrow(pa.table({
            "k": pa.array([2, 5], pa.int64())}))
        right = ray.data.from_arrow(pa.table({
            "k": pa.array([2, None, 9], pa.int64())}))
        out = intersect_distinct(left, right, key_col="k").to_pandas()
        assert sorted(out["k"]) == [2]
        assert str(out["k"].dtype) == "int64"   # no float drift

    def test_rolling_null_ts_does_not_corrupt_partition(self,
                                                        ray_session):
        """A NULL-ts row must be dropped, not sentinel-sorted into the
        composite timestamp where it breaks monotonicity for every
        co-located key."""
        import pandas as pd
        import ray.data
        from engine.relational import (rolling_window_mean,
                                       rolling_window_sum_count)
        ds = ray.data.from_arrow(pa.table({
            "event_id": pa.array([1, 2, 3], pa.int64()),
            "ts": pa.array(pd.to_datetime(
                ["2020-01-01 00:00", None, "2020-01-01 01:00"])),
            "user_id": pa.array([7, 7, 7], pa.int64()),
            "value": pa.array([1.0, 100.0, 3.0], pa.float64())}))
        m = rolling_window_mean(ds).to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        assert m["event_id"].tolist() == [1, 3]          # NULL-ts absent
        assert m["rolling_mean"].tolist() == [1.0, 2.0]  # uncorrupted
        s = rolling_window_sum_count(ds).to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        assert s["rolling_sum"].tolist() == [1.0, 4.0]
        assert s["rolling_n"].tolist() == [1, 2]

    def test_running_sum_null_key_is_one_partition(self, ray_session):
        """SQL PARTITION BY groups NULL keys together — their rows get
        real running sums, not NaN."""
        import pandas as pd
        import ray.data
        from engine.relational import running_sum
        ds = ray.data.from_arrow(pa.table({
            "event_id": pa.array([1, 2, 3], pa.int64()),
            "ts": pa.array(pd.to_datetime(
                ["2020-01-01", "2020-01-02", "2020-01-03"])),
            "user_id": pa.array([None, None, 5], pa.int64()),
            "value": pa.array([1.0, 2.0, 7.0], pa.float64())}))
        out = running_sum(ds).to_pandas().sort_values("event_id") \
            .reset_index(drop=True)
        assert out["running_sum"].tolist() == [1.0, 3.0, 7.0]
