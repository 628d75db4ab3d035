"""Checkpoint/lineage/resume tests: kill-between-partitions simulation."""

import glob
import json
import os

import pytest

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    from engine.synth import build_corpus
    out = str(tmp_path_factory.mktemp("ckpt"))
    d = build_corpus(SF_DIR, out, replicate=2, partitions=4, seed=42)
    return out, d


def test_resume_skips_completed_partitions(corpus, ray_session, tmp_path):
    from engine.checkpoint import run_validation_job, completed_partitions

    out_root, corpus_dir = corpus
    out = str(tmp_path / "job")
    catalog = os.path.join(out_root, "media_catalog.parquet")

    # "killed" run: only 2 of 4 partitions complete, no global checks
    s1 = run_validation_job(corpus_dir, out, catalog_path=catalog, max_units=2)
    assert s1["processed"] == 2 and s1["skipped"] == 0
    done = completed_partitions(out)
    assert len(done) == 2
    mtimes = {p: os.path.getmtime(p)
              for p in glob.glob(os.path.join(out, "violations", "*", "*"))}

    # resume: completed partitions skipped byte-identically, rest processed
    s2 = run_validation_job(corpus_dir, out, catalog_path=catalog)
    assert s2["skipped"] == 2 and s2["processed"] == 2
    for p, t in mtimes.items():
        assert os.path.getmtime(p) == t, f"recomputed {p}"
    assert s2["uniqueness"] == "done"
    assert s2["referential"] == "done"
    assert s2["drift"] == "done"

    # fully-resumed run: everything skipped
    s3 = run_validation_job(corpus_dir, out, catalog_path=catalog)
    assert s3["skipped"] == 4 and s3["processed"] == 0
    assert s3["uniqueness"] == "skipped"

    # outputs exist per partition + lineage records carry fingerprints
    for rec in completed_partitions(out).values():
        if rec["partition_id"].startswith("__"):
            continue
        assert rec["input_fingerprint"]
        assert rec["metrics"]["docs"] > 0
        for o in rec["outputs"]:
            assert os.path.isdir(o) and glob.glob(os.path.join(o, "*.parquet"))


def test_torn_manifest_write_reruns_partition(corpus, ray_session, tmp_path,
                                             monkeypatch):
    """A kill partway through a manifest write must leave no partial
    ``<pid>.json``: the resumed run re-processes that partition instead
    of crashing on truncated JSON."""
    import engine.checkpoint as ck

    _, corpus_dir = corpus
    out = str(tmp_path / "torn")
    real_dump = json.dump

    def _torn_dump(obj, f, *args, **kwargs):
        if not (isinstance(obj, dict) and "partition_id" in obj):
            return real_dump(obj, f, *args, **kwargs)
        text = json.dumps(obj)
        f.write(text[:len(text) // 2])
        raise OSError("killed mid-write")

    with monkeypatch.context() as m:
        m.setattr(ck.json, "dump", _torn_dump)
        with pytest.raises(OSError, match="killed mid-write"):
            ck.run_validation_job(corpus_dir, out, max_units=1)
    assert os.listdir(os.path.join(out, "_manifest")) == []

    s = ck.run_validation_job(corpus_dir, out, max_units=1)
    assert s["processed"] == 1 and s["skipped"] == 0
    (rec,) = ck.completed_partitions(out).values()
    assert rec["metrics"]["docs"] > 0


def test_changed_input_invalidates_checkpoint(corpus, ray_session, tmp_path):
    import shutil
    from engine.checkpoint import run_validation_job

    out_root, corpus_dir = corpus
    # copy the corpus so we can mutate an input file
    mut = str(tmp_path / "mut_corpus")
    shutil.copytree(corpus_dir, mut)
    out = str(tmp_path / "job2")
    s1 = run_validation_job(mut, out)
    assert s1["processed"] == 4

    # rewrite one partition's file -> size/fingerprint changes -> reprocessed
    part = sorted(glob.glob(os.path.join(mut, "partition_id=*", "*.parquet")))[0]
    import pyarrow.parquet as pq
    t = pq.read_table(part)
    pq.write_table(t.slice(0, max(1, t.num_rows // 2)), part)

    s2 = run_validation_job(mut, out)
    assert s2["processed"] == 1 and s2["skipped"] == 3


def test_cli_validate_doc(tmp_path):
    import subprocess, sys
    schema = tmp_path / "s.json"
    schema.write_text('{"type":"object","required":["a"],'
                      '"properties":{"a":{"type":"integer"}}}')
    good = tmp_path / "good.json"
    good.write_text('{"a": 3}')
    bad = tmp_path / "bad.json"
    bad.write_text('{"a": "x"}')
    r = subprocess.run([sys.executable, "-m", "engine.cli", "validate-doc",
                        "-s", str(schema), "-p", str(good)],
                       capture_output=True, text=True, cwd="/root/repo")
    assert r.returncode == 0, r.stderr
    r = subprocess.run([sys.executable, "-m", "engine.cli", "validate-doc",
                        "-s", str(schema), "-p", str(bad)],
                       capture_output=True, text=True, cwd="/root/repo")
    assert r.returncode == 1
    assert '/a: expected integer, got string' in r.stderr
    assert 'validation failed with 1 error(s)' in r.stderr


def test_drift_folds_into_verdicts(corpus, ray_session, tmp_path):
    import pyarrow.parquet as pq
    import ray.data
    from engine.checkpoint import run_validation_job
    from engine.drift import build_baseline, drift_check
    _, corpus_dir = corpus
    out = str(tmp_path / "jobd")
    run_validation_job(corpus_dir, out, baseline_exclude=["p0003"])
    v = pq.read_table(os.path.join(out, "verdicts")).to_pandas()
    drifted = v[v["checks_failed"].map(lambda c: "drift" in list(c))]
    assert "p0003" in set(drifted["partition_id"].astype(str))
    assert not drifted["pass"].any()

    # the job's one-pass drift step gives the rows of the public API
    ds = ray.data.read_parquet(corpus_dir)
    api = drift_check(ds, build_baseline(ds, exclude_partitions=["p0003"]))

    def _flags_and_psi(df):
        df = df.astype({"partition_id": str}).sort_values(
            ["partition_id", "column"])
        return (df[["partition_id", "column", "metric",
                    "drifted"]].values.tolist(),
                df.loc[df["metric"] == "psi", "value"].tolist())

    job = pq.read_table(os.path.join(out, "checks", "drift")).to_pandas()
    assert _flags_and_psi(job) == _flags_and_psi(api.to_pandas())


def test_killed_drift_fold_redone_on_resume(corpus, ray_session, tmp_path,
                                            monkeypatch):
    """A kill during the drift fold must not leave a drifted partition
    passing: the resumed run folds drift into its verdict."""
    import pyarrow.parquet as pq
    import engine.checkpoint as ck

    _, corpus_dir = corpus
    out = str(tmp_path / "fold")

    def _killed_fold(out_dir):
        raise OSError("killed mid-fold")

    with monkeypatch.context() as m:
        m.setattr(ck, "_fold_drift_into_verdicts", _killed_fold)
        with pytest.raises(OSError, match="killed mid-fold"):
            ck.run_validation_job(corpus_dir, out,
                                  baseline_exclude=["p0003"])

    s = ck.run_validation_job(corpus_dir, out, baseline_exclude=["p0003"])
    assert s["processed"] == 0 and s["skipped"] == 4
    (row,) = pq.read_table(os.path.join(
        out, "verdicts", "partition_id=p0003", "verdict.parquet")).to_pylist()
    assert "drift" in row["checks_failed"]
    assert row["pass"] is False
    assert not glob.glob(os.path.join(out, "verdicts", "*", ".*.tmp"))
