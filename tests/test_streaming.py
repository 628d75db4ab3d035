"""Micro-batch streaming windows with watermarks (engine/streaming.py)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _events(rows):
    """rows: [(user, ts_minutes, value)] -> Dataset."""
    import ray.data
    base = np.datetime64("2024-01-01T00:00:00", "us")
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([base + np.timedelta64(r[1] * 60, "s")
                        for r in rows], pa.timestamp("us")),
        "value": pa.array([float(r[2]) for r in rows], pa.float64()),
    })
    return ray.data.from_arrow(t)


class TestWatermarkWindows:
    def test_stream_matches_batch_groupby(self, ray_session, tmp_path):
        from engine.streaming import flush, process_micro_batch
        sd = str(tmp_path / "state")
        all_rows = []
        rng = np.random.default_rng(7)
        batches = []
        t = 0
        for _ in range(4):  # 4 micro-batches of strictly advancing time
            rows = [(int(rng.integers(0, 5)), t + int(rng.integers(0, 120)),
                     float(rng.random()))
                    for _ in range(200)]
            t += 120
            batches.append(rows)
            all_rows.extend(rows)

        closed_parts = []
        for rows in batches:
            closed, summary = process_micro_batch(
                _events(rows), sd, window="1h", allowed_lateness="0s")
            closed_parts.append(closed.to_pandas())
            assert summary["late_events"] == 0
        closed_parts.append(flush(sd).to_pandas())
        # empty Datasets to_pandas() drop the schema (Ray edge): drop them
        got = pd.concat([f for f in closed_parts if "key" in f.columns],
                        ignore_index=True)

        # batch oracle: plain (user, hour-window) groupby of everything
        df = _events(all_rows).to_pandas()
        us = df["ts"].astype("datetime64[us]").astype("int64")
        df["window_start"] = pd.to_datetime(
            (us // 3_600_000_000) * 3_600_000_000,
            unit="us").astype("datetime64[us]")
        exp = df.groupby(["user_id", "window_start"]).agg(
            n_events=("value", "size"),
            value_sum=("value", "sum")).reset_index()
        got = got.rename(columns={"key": "user_id"})
        cols = ["user_id", "window_start", "n_events"]
        got_s = got.sort_values(cols).reset_index(drop=True)
        exp_s = exp.sort_values(cols).reset_index(drop=True)
        assert got_s[cols].equals(exp_s[cols])
        assert np.allclose(got_s["value_sum"], exp_s["value_sum"])

    def test_windows_close_exactly_once(self, ray_session, tmp_path):
        from engine.streaming import process_micro_batch
        sd = str(tmp_path / "state")
        # batch 1: minutes 0..50 -> watermark 50m-10m = 40m; hour-window 0
        # still open
        c1, s1 = process_micro_batch(
            _events([(1, m, 1.0) for m in range(0, 51, 10)]), sd,
            window="1h", allowed_lateness="10m")
        assert c1.count() == 0 and s1["open_windows"] == 1
        # batch 2: minutes 120..130 -> watermark 110m: window 0 closes
        c2, s2 = process_micro_batch(
            _events([(1, 120, 1.0), (1, 130, 1.0)]), sd,
            window="1h", allowed_lateness="10m")
        df = c2.to_pandas()
        assert len(df) == 1 and df["n_events"][0] == 6
        # batch 3: nothing new for window 0 — it must NOT re-emit
        c3, _ = process_micro_batch(
            _events([(1, 140, 1.0)]), sd, window="1h",
            allowed_lateness="10m")
        assert c3.count() == 0

    def test_late_events_counted_and_dropped(self, ray_session, tmp_path):
        from engine.streaming import process_micro_batch
        sd = str(tmp_path / "state")
        process_micro_batch(_events([(1, 200, 1.0)]), sd, window="1h",
                            allowed_lateness="10m")  # watermark -> 190m
        closed, summary = process_micro_batch(
            _events([(1, 100, 1.0), (1, 210, 1.0)]), sd, window="1h",
            allowed_lateness="10m")
        assert summary["late_events"] == 1  # the 100m event is late
        # on-time event aggregated; late one dropped
        from engine.streaming import flush
        final = flush(sd).to_pandas()
        assert final["n_events"].sum() + closed.count() >= 1

    def test_watermark_never_regresses(self, ray_session, tmp_path):
        from engine.streaming import process_micro_batch, WindowState
        sd = str(tmp_path / "state")
        process_micro_batch(_events([(1, 300, 1.0)]), sd, window="1h",
                            allowed_lateness="0s")
        wm1 = WindowState(sd).load_meta()["watermark_us"]
        # a batch whose max ts is OLDER must not pull the watermark back
        closed, s = process_micro_batch(
            _events([(1, 100, 1.0)]), sd, window="1h",
            allowed_lateness="0s")
        wm2 = WindowState(sd).load_meta()["watermark_us"]
        assert wm2 == wm1
        assert s["late_events"] == 1

    def test_resume_state_persists(self, ray_session, tmp_path):
        from engine.streaming import WindowState, process_micro_batch
        sd = str(tmp_path / "state")
        process_micro_batch(_events([(7, 10, 2.0)]), sd, window="1h",
                            allowed_lateness="0s")
        st = WindowState(sd)
        open_tbl = st.load_open()
        assert len(open_tbl) == 1
        meta = st.load_meta()
        assert meta["version"] == 1
        # second "process" after a simulated restart continues the stream
        process_micro_batch(_events([(7, 70, 3.0)]), sd, window="1h",
                            allowed_lateness="0s")
        assert WindowState(sd).load_meta()["version"] == 2


def test_cli_stream_window(tmp_path):
    import json as _json
    import sys

    from proc_group import REPO, run_group
    state = str(tmp_path / "state")
    out = str(tmp_path / "closed")
    cmd = [sys.executable, "-m", "engine.cli", "stream-window",
           "--input", "/root/testdata/sf0.001/events.parquet",
           "--state", state, "--out", out, "--num-cpus", "2"]
    r = run_group(cmd, cwd=REPO, timeout=300)
    assert r.returncode == 0, r.stderr[-800:]
    summary = _json.loads(r.stdout.strip().splitlines()[-1])
    assert summary["late_events"] == 0
    assert summary["closed_windows"] > 0
    import os
    assert os.path.exists(os.path.join(out, "closed_v000001.parquet"))
    # replaying the SAME slice: everything is now behind the watermark
    r2 = run_group(cmd, cwd=REPO, timeout=300)
    s2 = _json.loads(r2.stdout.strip().splitlines()[-1])
    assert s2["late_events"] > 0 and s2["closed_windows"] == 0


class TestIncrementalDrift:
    def _docs(self, shift=0.0, seed=0, n=2000):
        import ray.data
        rng = np.random.default_rng(seed)
        return ray.data.from_arrow(pa.table({
            "n_chars": pa.array(rng.normal(100 + shift, 10, n)),
            "lang": pa.array(rng.choice(
                ["en", "de", "fr"], n,
                p=[0.6, 0.3, 0.1] if shift == 0 else [0.1, 0.3, 0.6])),
        }))

    def test_seed_then_clean_then_drifted(self, ray_session, tmp_path):
        from engine.drift import drift_micro_batch
        sd = str(tmp_path / "drift")
        kw = dict(numeric=("n_chars",), categorical=("lang",))
        v0, s0 = drift_micro_batch(self._docs(seed=1), sd, **kw)
        assert s0["seeded"] and len(v0) == 0
        v1, s1 = drift_micro_batch(self._docs(seed=2), sd, **kw)
        assert not s1["seeded"]
        assert s1["drifted_columns"] == 0
        df1 = v1.to_pandas()
        assert not df1["drifted"].any()
        # shifted distribution drifts on both columns
        v2, s2 = drift_micro_batch(self._docs(shift=60, seed=3), sd, **kw)
        df2 = v2.to_pandas()
        assert df2["drifted"].all()
        assert s2["drifted_columns"] == 2

    def test_drifted_batch_does_not_poison_baseline(self, ray_session,
                                                    tmp_path):
        from engine.drift import drift_micro_batch, load_baseline
        import os
        sd = str(tmp_path / "drift")
        kw = dict(numeric=("n_chars",), categorical=("lang",))
        drift_micro_batch(self._docs(seed=1), sd, **kw)
        before = load_baseline(os.path.join(sd, "drift_baseline.parquet"))
        base_n = before["n_chars"][1].total
        drift_micro_batch(self._docs(shift=60, seed=3), sd, **kw)
        after = load_baseline(os.path.join(sd, "drift_baseline.parquet"))
        assert after["n_chars"][1].total == base_n  # unchanged (if_clean)
        # a clean batch DOES merge
        drift_micro_batch(self._docs(seed=4), sd, **kw)
        final = load_baseline(os.path.join(sd, "drift_baseline.parquet"))
        assert final["n_chars"][1].total > base_n


    def test_failed_meta_write_keeps_old_meta(self, ray_session, tmp_path,
                                              monkeypatch):
        """A meta write that dies mid-``json.dump`` leaves the committed
        ``drift_meta.json`` readable and no temp file behind."""
        import glob
        import json
        import os
        from engine.drift import drift_micro_batch
        sd = str(tmp_path / "drift")
        kw = dict(numeric=("n_chars",), categorical=("lang",))
        drift_micro_batch(self._docs(seed=1), sd, **kw)
        dump = json.dump

        def _torn(obj, f, *a, **k):
            if isinstance(obj, dict) and "drifted_batches" in obj:
                monkeypatch.setattr(json, "dump", dump)  # raise once
                f.write('{"version": ')
                raise OSError("disk full")
            return dump(obj, f, *a, **k)

        monkeypatch.setattr(json, "dump", _torn)
        with pytest.raises(OSError, match="disk full"):
            drift_micro_batch(self._docs(seed=2), sd, **kw)
        with open(os.path.join(sd, "drift_meta.json")) as f:
            assert json.load(f) == {"version": 1, "drifted_batches": 0}
        assert not glob.glob(os.path.join(sd, "*.tmp")) + \
            glob.glob(os.path.join(sd, ".*.tmp"))
        # the next micro-batch commits on top of the old meta
        _, s = drift_micro_batch(self._docs(seed=3), sd, **kw)
        assert s["version"] == 2


def test_cli_drift_batch(tmp_path):
    import json as _json
    import sys

    from proc_group import REPO, run_group
    state = str(tmp_path / "dstate")
    cmd = [sys.executable, "-m", "engine.cli", "drift-batch",
           "--input", "/root/testdata/sf0.001/documents.parquet",
           "--state", state, "--num-cpus", "2"]
    r = run_group(cmd, cwd=REPO, timeout=300)
    assert r.returncode == 0, r.stderr[-800:]
    assert _json.loads(r.stdout.strip().splitlines()[-1])["seeded"]
    r2 = run_group(cmd, cwd=REPO, timeout=300)
    lines = r2.stdout.strip().splitlines()
    summary = _json.loads(lines[-1])
    assert not summary["seeded"] and summary["version"] == 2
    verdicts = [_json.loads(x) for x in lines[:-1] if x.startswith("{")]
    assert {v["column"] for v in verdicts} >= {"n_chars", "lang"}
    assert not any(v["drifted"] for v in verdicts)  # same data, no drift


class TestStreamDedup:
    def _batches(self, n_parts=4):
        import pyarrow.parquet as pq
        t = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                          columns=["doc_id", "text"])
        df = t.to_pandas().sort_values("doc_id").reset_index(drop=True)
        size = (len(df) + n_parts - 1) // n_parts
        return [df.iloc[i * size:(i + 1) * size] for i in range(n_parts)]

    def test_stream_equals_batch_dedup(self, ray_session, tmp_path):
        import duckdb
        import ray.data
        from engine.streaming import stream_dedup_micro_batch
        kept_all = []
        for i, part in enumerate(self._batches()):
            out, _ = stream_dedup_micro_batch(
                ray.data.from_pandas(part.reset_index(drop=True)),
                str(tmp_path / "state"), batch_id=f"b{i}")
            kept_all.extend(out.to_pandas()["doc_id"].tolist())
        exp = duckdb.sql("""
            select min(doc_id) as doc_id
            from read_parquet('/root/testdata/sf0.001/documents.parquet')
            group by md5(coalesce(text, '')) order by doc_id
        """).df()["doc_id"].tolist()
        assert sorted(kept_all) == exp

    def test_bloom_false_positives_recovered(self, ray_session, tmp_path):
        """A deliberately undersized Bloom floods with false positives;
        the exact pass must recover every genuinely-new document."""
        import duckdb
        import ray.data
        from engine.streaming import stream_dedup_micro_batch
        kept_all = []
        for i, part in enumerate(self._batches()):
            out, s = stream_dedup_micro_batch(
                ray.data.from_pandas(part.reset_index(drop=True)),
                str(tmp_path / "state"), batch_id=f"b{i}",
                expected_total=1)  # fpr -> ~1 for hundreds of hashes
            kept_all.extend(out.to_pandas()["doc_id"].tolist())
            if i > 0:  # the undersized bloom must actually be flooding
                assert s["false_positives_recovered"] > 0
        exp = duckdb.sql("""
            select min(doc_id) as doc_id
            from read_parquet('/root/testdata/sf0.001/documents.parquet')
            group by md5(coalesce(text, '')) order by doc_id
        """).df()["doc_id"].tolist()
        assert sorted(kept_all) == exp

    def test_replay_is_exactly_once(self, ray_session, tmp_path):
        import ray.data
        import pyarrow as pa
        from engine.streaming import stream_dedup_micro_batch
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["x", "y"])}))
        a, _ = stream_dedup_micro_batch(ds, str(tmp_path / "s"),
                                        batch_id="b0")
        b, s = stream_dedup_micro_batch(ds, str(tmp_path / "s"),
                                        batch_id="b0")
        assert sorted(a.to_pandas()["doc_id"].tolist()) == \
            sorted(b.to_pandas()["doc_id"].tolist()) == [1, 2]
        assert s.get("replayed") is True
