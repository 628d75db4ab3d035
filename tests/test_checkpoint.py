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
    from proc_group import REPO
    schema = tmp_path / "s.json"
    schema.write_text('{"type":"object","required":["a"],'
                      '"properties":{"a":{"type":"integer"}}}')
    good = tmp_path / "good.json"
    good.write_text('{"a": 3}')
    bad = tmp_path / "bad.json"
    bad.write_text('{"a": "x"}')
    r = subprocess.run([sys.executable, "-m", "engine.cli", "validate-doc",
                        "-s", str(schema), "-p", str(good)],
                       capture_output=True, text=True, cwd=REPO)
    assert r.returncode == 0, r.stderr
    r = subprocess.run([sys.executable, "-m", "engine.cli", "validate-doc",
                        "-s", str(schema), "-p", str(bad)],
                       capture_output=True, text=True, cwd=REPO)
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


# ---------------------------------------------------------------------------
# partition artifacts: one read per partition, atomic publish, fit checks

JOB_OUTPUTS = ("violations", "verdicts", "checks/stats", "checks/uniqueness",
               "checks/referential", "checks/drift")


def _rows(out_dir, sub):
    """Sorted JSON rows of every parquet file under ``out_dir/sub``, with
    the hive ``partition_id`` of the file's directory."""
    import re
    import pyarrow.parquet as pq
    rows = []
    for f in glob.glob(os.path.join(out_dir, sub, "**", "*.parquet"),
                       recursive=True):
        pid = re.search(r"partition_id=([^/]+)/", f)
        for r in pq.read_table(f).to_pylist():
            if pid:
                r["partition_id"] = pid.group(1)
            rows.append(json.dumps(r, sort_keys=True, default=str))
    return sorted(rows)


def _outputs(out_dir):
    return {sub: _rows(out_dir, sub) for sub in JOB_OUTPUTS}


def _job(corpus_dir, out, catalog, **kw):
    from engine.checkpoint import run_validation_job
    return run_validation_job(corpus_dir, str(out), catalog_path=catalog,
                              baseline_exclude=["p0003"], **kw)


@pytest.fixture(scope="module")
def clean_job(corpus, tmp_path_factory):
    """Out dir and outputs of one uninterrupted run with the catalog."""
    out_root, corpus_dir = corpus
    out = str(tmp_path_factory.mktemp("clean") / "job")
    _job(corpus_dir, out, os.path.join(out_root, "media_catalog.parquet"))
    return out, _outputs(out)


@pytest.mark.parametrize("kill_at",
                         ["mid_write", "mid_rename", "before_manifest"])
def test_killed_unit_publishes_nothing_half_done(corpus, clean_job, tmp_path,
                                                 monkeypatch, kill_at):
    """A kill after some of a unit's artifact writes (a pass that raises
    in the worker after the batch's violations file is written), between
    two of the driver's renames into place, or after all of them but
    before the manifest leaves no temp dir and no manifest; the resumed
    run's outputs equal an uninterrupted run's."""
    import ray.exceptions
    import engine.checkpoint as ck
    import engine.drift

    out_root, corpus_dir = corpus
    catalog = os.path.join(out_root, "media_catalog.parquet")
    out = tmp_path / "killed"
    # a worker's OSError reaches the driver wrapped in a RayTaskError
    error = ray.exceptions.RayTaskError if kill_at == "mid_write" \
        else OSError
    with monkeypatch.context() as m:
        if kill_at == "mid_write":
            def _killed_pass(batch):  # pickled by value into the worker
                raise OSError("killed")
            m.setattr(engine.drift, "ProfileBatch",
                      lambda **kw: _killed_pass)
        elif kill_at == "mid_rename":
            real_rename, calls = os.rename, []

            def _rename(src, dst):
                if ".unit-" in src:
                    calls.append(src)
                    if len(calls) == 2:  # the unit's second rename
                        raise OSError("killed")
                real_rename(src, dst)
            m.setattr(os, "rename", _rename)
        else:
            real_commit = ck._commit_manifest

            def _commit(out_dir, name, record):
                if not name.startswith("__"):
                    raise OSError("killed")
                real_commit(out_dir, name, record)
            m.setattr(ck, "_commit_manifest", _commit)
        with pytest.raises(error, match="killed"):
            _job(corpus_dir, out, catalog)
    assert not glob.glob(os.path.join(out, ".*"))
    assert ck.completed_partitions(str(out)) == {}

    s = _job(corpus_dir, out, catalog)
    assert s["processed"] == 4 and s["skipped"] == 0
    assert not glob.glob(os.path.join(out, ".*"))
    assert _outputs(out) == clean_job[1]


def test_retried_task_publishes_only_its_own_files(corpus, clean_job,
                                                   tmp_path, monkeypatch):
    """A worker that dies after writing some of its batch's files is
    retried by Ray; the first attempt's files stay unnamed in the stage's
    rows, so the driver drops them and nothing is counted twice."""
    import engine.checkpoint as ck

    out_root, corpus_dir = corpus
    marker = str(tmp_path / "crashed")

    def _crash_once(batch):  # pickled by value into the worker
        import os
        from engine.checkpoint import _doc_id_counts
        if not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)  # after the violations and profile writes
        return _doc_id_counts(batch)

    monkeypatch.setattr(ck, "_doc_id_counts", _crash_once)
    out = tmp_path / "job"
    s = _job(corpus_dir, out, os.path.join(out_root, "media_catalog.parquet"))
    assert os.path.exists(marker)
    assert s["processed"] == 4
    assert _outputs(out) == clean_job[1]


def test_manifest_counts_only_with_this_runs_catalog(corpus, clean_job,
                                                     tmp_path):
    """Partitions done without a catalog, or with other catalog files,
    re-run: their manifests lack the refs artifact or record another
    catalog fingerprint."""
    import pyarrow.parquet as pq

    out_root, corpus_dir = corpus
    catalog = str(tmp_path / "media_catalog.parquet")
    pq.write_table(pq.read_table(
        os.path.join(out_root, "media_catalog.parquet")), catalog)
    out = tmp_path / "job"

    s = _job(corpus_dir, out, None)
    assert s["processed"] == 4 and "referential" not in s
    s = _job(corpus_dir, out, catalog)
    assert s["processed"] == 4 and s["skipped"] == 0
    assert s["referential"] == "done"
    assert _outputs(out) == clean_job[1]
    s = _job(corpus_dir, out, catalog)
    assert s["skipped"] == 4 and s["referential"] == "skipped"

    # rewrite the catalog in place: half the media refs are gone
    t = pq.read_table(catalog)
    pq.write_table(t.slice(0, t.num_rows // 2), catalog)
    s = _job(corpus_dir, out, catalog)
    assert s["processed"] == 4 and s["skipped"] == 0
    assert s["referential"] == "done"
    fresh = tmp_path / "fresh"
    _job(corpus_dir, fresh, catalog)
    refs = _rows(out, "checks/referential")
    assert refs == _rows(fresh, "checks/referential")
    assert len(refs) > len(clean_job[1]["checks/referential"])


def test_job_reads_each_partition_once(corpus, tmp_path, monkeypatch):
    """Every corpus file is read by exactly one unit read, and after the
    last partition commit the job reads no parquet through Ray at all:
    stats, uniqueness, referential and drift merge committed rows."""
    import ray.data
    import engine.checkpoint as ck

    out_root, corpus_dir = corpus
    events = []
    real_read, real_commit = ray.data.read_parquet, ck._commit_manifest

    def _read(paths, **kw):
        events.append(("read", paths, kw.get("columns")))
        return real_read(paths, **kw)

    def _commit(out_dir, name, record):
        real_commit(out_dir, name, record)
        events.append(("commit", name, None))

    monkeypatch.setattr(ray.data, "read_parquet", _read)
    monkeypatch.setattr(ck, "_commit_manifest", _commit)
    _job(corpus_dir, tmp_path / "job",
         os.path.join(out_root, "media_catalog.parquet"))

    files = sorted(glob.glob(os.path.join(corpus_dir, "*", "*.parquet")))
    unit_reads = [p for kind, p, _ in events
                  if kind == "read" and isinstance(p, list)]
    assert sorted(f for p in unit_reads for f in p) == files
    globals_ = events[max(i for i, e in enumerate(events)
                          if e[0] == "commit" and e[1].startswith("p")) + 1:]
    assert globals_ == [
        ("commit", "__global_stats", None),
        ("commit", "__global_uniqueness", None),
        ("commit", "__global_referential", None),
        ("commit", "__global_drift", None)]


def test_resumed_job_reads_only_uncommitted_partitions(corpus, clean_job,
                                                       tmp_path, monkeypatch):
    """A job resumed after two of four partitions committed reads the
    other two partitions' files and nothing else, and its outputs equal
    an uninterrupted run's."""
    import ray.data
    from engine.checkpoint import list_partitions

    out_root, corpus_dir = corpus
    catalog = os.path.join(out_root, "media_catalog.parquet")
    out = str(tmp_path / "job")
    assert _job(corpus_dir, out, catalog, max_units=2)["processed"] == 2
    reads = []
    real_read = ray.data.read_parquet

    def _read(paths, **kw):
        reads.append(paths)
        return real_read(paths, **kw)

    monkeypatch.setattr(ray.data, "read_parquet", _read)
    s = _job(corpus_dir, out, catalog)
    assert s["processed"] == 2 and s["skipped"] == 2
    parts = list_partitions(corpus_dir)
    assert sorted(f for p in reads for f in p) == sorted(
        parts["p0002"] + parts["p0003"])
    assert _outputs(out) == clean_job[1]


def test_job_checks_match_public_apis(corpus, clean_job, ray_session):
    """The job's merged checks equal the public APIs over the corpus:
    stats counts, min/max and HLL estimates exactly (HLL register max is
    order-free), t-digest percentiles within 1 %, drift flags and PSI
    exactly, KS within 0.01, referential and uniqueness rows exactly."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data
    from engine.drift import build_baseline, drift_check
    from engine.referential import check_references
    from engine.stats import column_stats
    from engine.uniqueness import duplicate_keys

    out_root, corpus_dir = corpus
    out = clean_job[0]
    ds = ray.data.read_parquet(corpus_dir)

    def _checks(name):
        return pq.read_table(os.path.join(out, "checks", name)).to_pandas()

    job = _checks("stats").set_index("column").sort_index()
    api = column_stats(ds).to_pandas().set_index("column").sort_index()
    assert list(job.index) == list(api.index)
    for c in ("count", "nulls", "min", "max", "distinct_est"):
        assert job[c].tolist() == api[c].tolist(), c
    for c in ("p50", "p95", "p99"):
        assert np.allclose(job[c], api[c], rtol=0.01, equal_nan=True), c

    key = ["partition_id", "column"]
    job = _checks("drift").astype({"partition_id": str}) \
        .sort_values(key).reset_index(drop=True)
    api = drift_check(ds, build_baseline(ds, exclude_partitions=["p0003"])) \
        .to_pandas().sort_values(key).reset_index(drop=True)
    assert job[key + ["metric", "drifted"]].values.tolist() == \
        api[key + ["metric", "drifted"]].values.tolist()
    psi = (job["metric"] == "psi").to_numpy()
    assert job["value"][psi].tolist() == api["value"][psi].tolist()
    assert np.abs(job["value"][~psi] - api["value"][~psi]).max() <= 0.01

    def _sorted(df, cols):
        return sorted(map(tuple, df[cols].values.tolist()))

    catalog = ray.data.read_parquet(
        os.path.join(out_root, "media_catalog.parquet"))
    cols = ["doc_id", "span_index", "media_ref"]
    assert _sorted(_checks("referential"), cols) == _sorted(
        check_references(ds, catalog, exact=True).to_pandas(), cols)
    assert _sorted(_checks("uniqueness"), ["key", "dup_count"]) == _sorted(
        duplicate_keys(ds, "doc_id").to_pandas(), ["key", "dup_count"])


def test_empty_partition_gets_typed_empty_artifacts(corpus, tmp_path):
    """A partition without rows still commits one typed-empty file per
    artifact, with the schema of a partition that has rows."""
    import shutil
    import pyarrow.parquet as pq

    out_root, corpus_dir = corpus
    src = os.path.join(corpus_dir, "partition_id=p0000")
    mini = tmp_path / "corpus"
    shutil.copytree(src, mini / "partition_id=p0000")
    first = sorted(glob.glob(os.path.join(src, "*.parquet")))[0]
    (mini / "partition_id=p0001").mkdir()
    pq.write_table(pq.read_table(first).slice(0, 0),
                   str(mini / "partition_id=p0001" / "part.parquet"))
    out = tmp_path / "job"
    s = _job(str(mini), out, os.path.join(out_root, "media_catalog.parquet"))
    assert s["processed"] == 2
    for name in ("violations", "profile", "keys", "refs"):
        full, empty = (pq.read_table(os.path.join(
            out, name, f"partition_id={pid}")) for pid in ("p0000", "p0001"))
        assert empty.num_rows == 0 and empty.schema == full.schema, name


def test_uniqueness_merge_through_by_key(corpus, clean_job, tmp_path,
                                        monkeypatch):
    """Above the driver bound the uniqueness step merges the committed
    ``keys`` files with one ``shuffle.by_key`` pass: its rows equal the
    in-process merge's and ``duplicate_keys`` over the corpus, and it
    reads nothing but ``keys`` files."""
    import pyarrow.parquet as pq
    import ray.data
    import engine.checkpoint as ck
    from engine.uniqueness import duplicate_keys

    out_root, corpus_dir = corpus
    out = str(tmp_path / "job")
    reads = []
    real_read = ray.data.read_parquet

    def _read(paths, **kw):
        reads.append(paths)
        return real_read(paths, **kw)

    monkeypatch.setattr(ck, "_DRIVER_MERGE_ROWS", 0)
    _job(corpus_dir, out, os.path.join(out_root, "media_catalog.parquet"),
         max_units=4)
    monkeypatch.setattr(ray.data, "read_parquet", _read)
    s = _job(corpus_dir, out, os.path.join(out_root, "media_catalog.parquet"))
    assert s["processed"] == 0 and s["uniqueness"] == "done"

    keys_dir = os.path.join(out, "keys") + os.sep
    (files,) = reads
    assert files and all(f.startswith(keys_dir) for f in files)
    assert sorted(files) == sorted(glob.glob(
        os.path.join(keys_dir, "*", "*.parquet")))

    def _pairs(t):
        return sorted(zip(t["key"], t["dup_count"]))

    rows = _pairs(pq.read_table(os.path.join(out, "checks", "uniqueness"))
                  .to_pydict())
    assert rows == _pairs(pq.read_table(os.path.join(
        clean_job[0], "checks", "uniqueness")).to_pydict())
    assert rows == _pairs(duplicate_keys(
        real_read(corpus_dir), "doc_id").to_pandas())
    assert len(rows) > 1


def test_manifest_without_keys_reruns_partition(corpus, clean_job, tmp_path):
    """A manifest that lacks the ``keys`` artifact (written before the
    job kept one) does not count: that partition alone re-runs, and the
    outputs equal an uninterrupted run's."""
    from engine.checkpoint import completed_partitions

    out_root, corpus_dir = corpus
    catalog = os.path.join(out_root, "media_catalog.parquet")
    out = str(tmp_path / "job")
    _job(corpus_dir, out, catalog)
    rec = completed_partitions(out)["p0001"]
    rec["artifacts"].remove("keys")
    with open(os.path.join(out, "_manifest", "p0001.json"), "w") as f:
        json.dump(rec, f)

    s = _job(corpus_dir, out, catalog)
    assert s["processed"] == 1 and s["skipped"] == 3
    assert "keys" in completed_partitions(out)["p0001"]["artifacts"]
    assert _outputs(out) == clean_job[1]


def test_keys_pass_drops_null_doc_ids():
    """The ``keys`` pass counts each non-NULL ``doc_id`` per partition as
    Arrow ``group_by`` does; NULL keys are never duplicates."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from engine.checkpoint import _doc_id_counts

    batch = pa.table({
        "partition_id": ["p0", "p0", "p0", "p1", "p1", "p1", "p0"],
        "doc_id": ["a", None, "a", None, "a", "b", None]})
    got = _doc_id_counts(batch)
    assert got.column_names == ["partition_id", "key", "count"]
    want = batch.filter(pc.is_valid(batch["doc_id"])).group_by(
        ["partition_id", "doc_id"]).aggregate([([], "count_all")])
    assert sorted(zip(*got.to_pydict().values())) == sorted(zip(
        want["partition_id"].to_pylist(), want["doc_id"].to_pylist(),
        want["count_all"].to_pylist()))
