"""Checkpointed validation job: per-partition artifacts, lineage, resume.

North-rule requirement: a killed run must resume without recomputing
validated partitions. Design (SURVEY.md §4): partition identity derives from
the INPUT layout (hive ``partition_id=...`` directories written by synth),
never from runtime block order.

The job reads each partition ONCE. A unit of ``unit_partitions``
partitions runs one read and one fused ``map_batches`` stage
(``_UnitPass``): every batch goes through three passes, each giving one
partition artifact:

* ``violations`` — the keyword-validation rows (``dataset.ValidateBatch``);
* ``profile`` — profile rows per (partition, column)
  (``drift.ProfileBatch``: counts, min/max, HLL, t-digest, value counts),
  merged to one row per (partition, column) on the driver;
* ``refs`` — the dangling ``spans.media_ref`` rows against the exact
  catalog set (``referential._RefCheckBatch``), only with a catalog; the
  set is built and ``ray.put`` once per run.

The unit writes every artifact into a dot-prefixed temp dir under
``out_dir`` (hive discovery skips it), removes the partition's old
manifest, renames each ``<artifact>/partition_id=<pid>`` dir into place
and then writes ``_manifest/<pid>.json`` — the commit point (atomic: temp
file + fsync + rename). A kill anywhere before it just re-runs the
partition. A partition without rows still gets a typed-empty file per
artifact. A manifest counts only if its input fingerprint matches, it
records the fingerprint of this run's catalog files (none without a
catalog) and it lists every artifact this run writes; otherwise the
partition re-runs. Verdict files are replaced the same atomic way.

The global steps then merge committed rows and never read the corpus:
stats (every partition's profile rows), drift (baseline = the
non-excluded partitions' profile rows, per-partition KS/PSI against it)
and referential (the union of the refs rows). Uniqueness is the one
global scan, projected to ``doc_id``. Each step commits a
``__global_<step>`` marker that records the job state (input and catalog
fingerprints, baseline exclusions); a step re-runs when a partition was
processed in this run or its marker records another state.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import pickle
import shutil
import tempfile
import time
from typing import Optional, Sequence

from engine.dataset import DOC_SCHEMA_JSON
from engine.storage import atomic_replace

#: partition artifacts, in write order; ``refs`` only with a catalog
ARTIFACTS = ("violations", "profile", "refs")


def _input_fingerprint(paths: Sequence[str]) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        st = os.stat(p)
        h.update(f"{os.path.basename(p)}:{st.st_size}:"
                 f"{st.st_mtime_ns}".encode())
    return h.hexdigest()[:16]


def _manifest_dir(out_dir: str) -> str:
    d = os.path.join(out_dir, "_manifest")
    os.makedirs(d, exist_ok=True)
    return d


def _commit_manifest(out_dir: str, name: str, record: dict) -> None:
    """Atomically write ``_manifest/<name>.json``, a commit point: a kill
    mid-write leaves no manifest (the unit re-runs), never truncated JSON
    that would crash :func:`completed_partitions` on resume."""
    with atomic_replace(os.path.join(_manifest_dir(out_dir),
                                     f"{name}.json")) as f:
        json.dump(record, f)


def _write_verdict(path: str, row: dict) -> None:
    """Atomically (re)write one partition's ``verdict.parquet``."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    with atomic_replace(path, "wb") as f:
        pq.write_table(pa.Table.from_pylist([row]), f)


def list_partitions(corpus_dir: str) -> dict[str, list[str]]:
    """partition_id -> input parquet files (from the hive layout)."""
    parts: dict[str, list[str]] = {}
    for d in sorted(glob.glob(os.path.join(corpus_dir, "partition_id=*"))):
        pid = os.path.basename(d).split("=", 1)[1]
        parts[pid] = sorted(glob.glob(os.path.join(d, "*.parquet")))
    if not parts:  # unpartitioned input: single unit
        parts["all"] = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    return parts


def completed_partitions(out_dir: str) -> dict[str, dict]:
    done = {}
    for p in glob.glob(os.path.join(out_dir, "_manifest", "*.json")):
        with open(p) as f:
            rec = json.load(f)
        done[rec["partition_id"]] = rec
    return done


def _with_partition_id(b):
    """Drop the reader's ``path`` column and make sure ``partition_id`` is
    there: the hive dir segment of the source file path, ``"all"`` for
    unpartitioned input."""
    import pyarrow as pa
    import pyarrow.compute as pc

    paths = b.column("path")
    b = b.drop_columns(["path"])
    if "partition_id" in b.column_names:
        return b
    hive = pc.replace_substring_regex(
        paths, pattern=r"^.*partition_id=([^/]+)/.*$", replacement=r"\1")
    return b.append_column("partition_id", pc.if_else(
        pc.match_substring(paths, "partition_id="), hive,
        pa.scalar("all")).cast(pa.string()))


class _UnitPass:
    """A unit's passes fused into one ``map_batches`` stage. Each batch
    gives one row per pass whose cell holds the pass's output table
    (pickled), so one read and one stage yield every artifact."""

    def __init__(self, passes: dict):
        self.passes = passes

    def __call__(self, batch):
        import pyarrow as pa

        batch = _with_partition_id(batch)
        return pa.table({"pass": list(self.passes), "table": pa.array(
            [pickle.dumps(fn(batch)) for fn in self.passes.values()],
            pa.binary())})


def _unit_tables(ds, unit_pass: _UnitPass, batch_size: int) -> dict:
    """``{pass: table}`` of one unit: ``unit_pass`` over ``ds``, its cells
    gathered on the driver. Ray skips UDFs on empty blocks, so with no
    batch at all the tables are those of an empty batch (typed-empty)."""
    import pyarrow as pa

    rows = [t for t in ds.map_batches(
        unit_pass, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size).iter_batches(
        batch_size=None, batch_format="pyarrow") if t.num_rows]
    if not rows:  # the reader's schema of an empty input has no path
        empty = ds.schema().base_schema.empty_table()
        if "path" not in empty.column_names:
            empty = empty.append_column("path", pa.array([], pa.string()))
        rows = [unit_pass(empty)]
    cells = pa.concat_tables(rows)
    out: dict = {name: [] for name in unit_pass.passes}
    for name, blob in zip(cells.column("pass").to_pylist(),
                          cells.column("table").to_pylist()):
        out[name].append(pickle.loads(blob))
    return {name: pa.concat_tables(ts) for name, ts in out.items()}


def _rows_of(table, pid: str):
    """A partition's rows of a unit artifact, without ``partition_id``."""
    import pyarrow.compute as pc
    return table.filter(pc.equal(table.column("partition_id"), pid)) \
        .drop_columns(["partition_id"])


def _publish(out_dir: str, pids: Sequence[str], tables: dict) -> None:
    """Write each partition's artifacts into a temp dir, then rename them
    into place. The old manifest goes first: until the new one commits, a
    kill leaves the partition to be re-run, never half-replaced outputs
    under a manifest that still counts."""
    import pyarrow.parquet as pq

    tmp = tempfile.mkdtemp(prefix=".unit-", dir=out_dir)
    try:
        for pid in pids:
            for name, table in tables.items():
                d = os.path.join(tmp, name, f"partition_id={pid}")
                os.makedirs(d)
                pq.write_table(_rows_of(table, pid),
                               os.path.join(d, "part-0.parquet"))
        for pid in pids:
            old = os.path.join(out_dir, "_manifest", f"{pid}.json")
            if os.path.exists(old):
                os.remove(old)
            for name in ARTIFACTS:
                dest = os.path.join(out_dir, name, f"partition_id={pid}")
                shutil.rmtree(dest, ignore_errors=True)
                if name in tables:
                    os.makedirs(os.path.dirname(dest), exist_ok=True)
                    os.rename(os.path.join(tmp, name, f"partition_id={pid}"),
                              dest)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _read_artifact(out_dir: str, name: str, pids: Sequence[str]):
    """Committed rows of one artifact over ``pids``, with ``partition_id``."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    tables = []
    for pid in pids:
        t = pq.read_table(os.path.join(out_dir, name, f"partition_id={pid}"))
        tables.append(t.append_column(
            "partition_id", pa.array([pid] * t.num_rows, pa.string())))
    return pa.concat_tables(tables)


def run_validation_job(corpus_dir: str, out_dir: str, *,
                       schema_json: str = DOC_SCHEMA_JSON,
                       catalog_path: Optional[str] = None,
                       baseline_exclude: Sequence[str] = (),
                       max_units: Optional[int] = None,
                       unit_partitions: int = 1,
                       batch_size: int = 8192) -> dict:
    """Validate a partitioned corpus with checkpoint/resume.

    Partitions are processed in units of ``unit_partitions`` (one read
    and one stage per unit — larger units amortize per-pipeline startup;
    smaller units give finer resume granularity since manifests commit
    per unit). Verdicts are derived from the unit's violations plus
    parquet-footer row counts, not a second pass. Call again after a
    kill: partitions whose manifest fits this run are skipped.
    """
    import pyarrow as pa
    import pyarrow.compute as pc_
    import pyarrow.parquet as pq
    import ray
    import ray.data
    from engine.dataset import ValidateBatch
    from engine.drift import (CATEGORICAL_DEFAULT, ProfileBatch,
                              _merge_rows, profile_table)
    from engine.referential import _RefCheckBatch

    os.makedirs(out_dir, exist_ok=True)
    parts = {pid: files for pid, files in list_partitions(corpus_dir).items()
             if not pid.startswith("__")}
    done = completed_partitions(out_dir)
    cat_fp = _input_fingerprint(glob.glob(os.path.join(
        catalog_path, "**", "*.parquet"), recursive=True) or [catalog_path]) \
        if catalog_path else None
    artifacts = ARTIFACTS if catalog_path else ARTIFACTS[:2]
    summary = {"partitions": len(parts), "skipped": 0, "processed": 0,
               "violations": 0}

    fps = {pid: _input_fingerprint(files) for pid, files in parts.items()}

    def _fits(rec: dict, pid: str) -> bool:
        """Does a partition's manifest count as done for this run?"""
        return (rec.get("input_fingerprint") == fps[pid]
                and rec.get("catalog_fingerprint") == cat_fp
                and set(artifacts) <= set(rec.get("artifacts", ())))

    pending = [pid for pid in parts if not _fits(done.get(pid, {}), pid)]
    summary["skipped"] = len(parts) - len(pending)
    units = [pending[i:i + unit_partitions]
             for i in range(0, len(pending), unit_partitions)]
    if max_units is not None:
        units = units[:max_units]

    passes = {"violations": ValidateBatch(schema_json),
              "profile": ProfileBatch(categorical=CATEGORICAL_DEFAULT)}
    if catalog_path and units:
        catalog = set(pq.read_table(catalog_path, columns=["media_ref"])
                      .column("media_ref").to_pylist())
        passes["refs"] = _RefCheckBatch(
            ray.put(catalog), "spans", "media_ref", "doc_id", exact=True,
            carry=("partition_id",))

    for unit in units:
        started = time.time()
        unit_files = [f for pid in unit for f in parts[pid]]
        tables = _unit_tables(
            ray.data.read_parquet(unit_files, include_paths=True),
            _UnitPass(passes), batch_size)
        tables["profile"] = profile_table(_merge_rows(
            tables["profile"].to_pylist()))
        _publish(out_dir, unit, tables)
        finished = time.time()

        # verdicts from the unit's violations (no second validation pass)
        viol = tables["violations"]
        for pid in unit:
            vt = _rows_of(viol, pid)
            n_viol = vt.num_rows
            # each violating doc row contributes exactly one seq-0 row
            viol_docs = int(pc_.sum(pc_.equal(
                vt.column("error_seq"), 0)).as_py() or 0)
            # docs from parquet footers: metadata only, no data read
            docs = sum(pq.ParquetFile(f).metadata.num_rows
                       for f in parts[pid])
            row = {"docs": docs, "violation_docs": viol_docs,
                   "violations": n_viol, "pass": n_viol == 0,
                   "checks_failed": (["keyword_validation"] if n_viol
                                     else [])}
            verd_dir = os.path.join(out_dir, "verdicts",
                                    f"partition_id={pid}")
            os.makedirs(verd_dir, exist_ok=True)
            _write_verdict(os.path.join(verd_dir, "verdict.parquet"), row)
            summary["processed"] += 1
            summary["violations"] += n_viol
            record = {
                "partition_id": pid,
                "input_fragments": [os.path.basename(f) for f in parts[pid]],
                "input_fingerprint": fps[pid],
                "catalog_fingerprint": cat_fp,
                "artifacts": list(tables),
                "started_at": started,
                "finished_at": finished,
                "outputs": [os.path.join(out_dir, name, f"partition_id={pid}")
                            for name in (*tables, "verdicts")],
                "metrics": {k: row[k] for k in
                            ("docs", "violation_docs", "violations")},
            }
            # manifest write is the commit point for this partition
            _commit_manifest(out_dir, pid, record)

    if max_units is None:
        state = hashlib.sha256(json.dumps(
            [sorted(fps.items()), cat_fp, sorted(baseline_exclude)])
            .encode()).hexdigest()[:16]
        _run_global_checks(corpus_dir, out_dir, list(parts), catalog_path,
                           baseline_exclude, summary, state)
    return summary


def _run_global_checks(corpus_dir: str, out_dir: str, pids: list[str],
                       catalog_path: Optional[str],
                       baseline_exclude: Sequence[str],
                       summary: dict, state: str) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data
    from engine.drift import _merge_rows, baseline_from, score
    from engine.stats import stats_table
    from engine.uniqueness import duplicate_keys

    done = completed_partitions(out_dir)
    checks_dir = os.path.join(out_dir, "checks")
    fresh = summary["processed"] == 0

    def _step(name: str, fn, then=None) -> None:
        """Run ``fn``, write its output, run ``then`` (if any) and only
        then commit the step's marker: a kill anywhere before the commit
        re-runs the whole step on resume."""
        marker = f"__global_{name}"
        if fresh and done.get(marker, {}).get("state") == state:
            summary[name] = "skipped"
            return
        started = time.time()
        result = fn()
        out = os.path.join(checks_dir, name)
        if isinstance(result, pa.Table):
            shutil.rmtree(out, ignore_errors=True)
            os.makedirs(out)
            pq.write_table(result, os.path.join(out, "part-0.parquet"))
        else:
            result.write_parquet(out, mode="overwrite")
        if then is not None:
            then()
        _commit_manifest(out_dir, marker, {
            "partition_id": marker, "outputs": [out], "state": state,
            "started_at": started, "finished_at": time.time()})
        summary[name] = "done"

    def _profiles() -> dict:
        return _merge_rows(_read_artifact(out_dir, "profile", pids)
                           .to_pylist())

    _step("stats", lambda: stats_table(_profiles()))
    _step("uniqueness", lambda: duplicate_keys(
        ray.data.read_parquet(corpus_dir, columns=["doc_id"]), "doc_id"))
    if catalog_path:
        _step("referential", lambda: _read_artifact(
            out_dir, "refs", pids).drop_columns(["partition_id"]))

    def _drift():
        store = _profiles()
        return score(store, baseline_from(store, baseline_exclude))

    # the fold rewrites committed verdicts, so it runs before the drift
    # marker commits: a kill mid-fold leaves no marker and the resumed run
    # redoes drift + fold (the fold is idempotent)
    _step("drift", _drift, then=lambda: _fold_drift_into_verdicts(out_dir))


def _fold_drift_into_verdicts(out_dir: str) -> None:
    """Per-partition drift failures join the verdict's checks_failed list
    (FIXTURES §5: verdicts carry every failed check, not just keyword
    validation). Runs inside the drift step, before its marker commits;
    idempotent, so a resumed run may repeat it."""
    import pyarrow.parquet as pq

    drift_dir = os.path.join(out_dir, "checks", "drift")
    if not os.path.isdir(drift_dir):
        return
    dt = pq.read_table(drift_dir, columns=["partition_id", "drifted"])
    for pid in set(dt.filter(dt.column("drifted"))
                   .column("partition_id").to_pylist()):
        vpath = os.path.join(out_dir, "verdicts", f"partition_id={pid}",
                             "verdict.parquet")
        if not os.path.exists(vpath):
            continue
        row = pq.read_table(vpath).to_pylist()[0]
        checks = list(row.get("checks_failed") or [])
        if "drift" not in checks:
            checks.append("drift")
        row["checks_failed"] = checks
        row["pass"] = False
        _write_verdict(vpath, row)
