"""Checkpointed validation job: per-partition outputs, lineage, resume.

North-rule requirement: a killed run must resume without recomputing
validated partitions. Design (SURVEY.md §4): partition identity derives from
the INPUT layout (hive ``partition_id=...`` directories written by synth),
never from runtime block order. Each unit writes its outputs under a
partition-keyed directory with ``mode="overwrite"`` (idempotent on retry) and
finishes by writing a ``_manifest/<pid>.json`` lineage record — the manifest
write is the commit point (atomic: temp file + fsync + rename), so a kill
between outputs and manifest, or during the manifest write, just re-runs that
partition. Verdict files are replaced the same atomic way. Global
(cross-partition) checks — uniqueness, referential, drift — run as
separately-manifested steps after the per-partition pass.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import time
from typing import Optional, Sequence

from engine.dataset import DOC_SCHEMA_JSON
from engine.storage import atomic_replace


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


def _docs_in_files(files: Sequence[str]) -> int:
    """Row count from parquet footers — metadata only, no data read."""
    import pyarrow.parquet as pq
    return sum(pq.ParquetFile(f).metadata.num_rows for f in files)


def run_validation_job(corpus_dir: str, out_dir: str, *,
                       schema_json: str = DOC_SCHEMA_JSON,
                       catalog_path: Optional[str] = None,
                       baseline_exclude: Sequence[str] = (),
                       max_units: Optional[int] = None,
                       unit_partitions: int = 1,
                       batch_size: int = 8192) -> dict:
    """Validate a partitioned corpus with checkpoint/resume.

    Partitions are processed in units of ``unit_partitions`` (one streaming
    pipeline per unit — larger units amortize per-pipeline startup; smaller
    units give finer resume granularity since manifests commit per unit).
    The validation pass runs ONCE: verdicts are derived from the written
    violations output plus parquet-footer row counts, not a second pass.
    Call again after a kill: partitions whose manifest matches the input
    fingerprint are skipped.
    """
    import pyarrow as pa
    import pyarrow.compute as pc_
    import pyarrow.parquet as pq
    import ray.data
    from engine.dataset import validate_dataset

    os.makedirs(out_dir, exist_ok=True)
    parts = list_partitions(corpus_dir)
    done = completed_partitions(out_dir)
    summary = {"partitions": len(parts), "skipped": 0, "processed": 0,
               "violations": 0}

    pending: list[tuple[str, list[str], str]] = []
    for pid, files in parts.items():
        if pid.startswith("__"):
            continue
        fp = _input_fingerprint(files)
        if pid in done and done[pid].get("input_fingerprint") == fp:
            summary["skipped"] += 1
        else:
            pending.append((pid, files, fp))

    units = [pending[i:i + unit_partitions]
             for i in range(0, len(pending), unit_partitions)]
    if max_units is not None:
        units = units[:max_units]

    def _extract_pid(b: pa.Table) -> pa.Table:
        # derive partition_id from the source file path (hive dir segment)
        if "partition_id" in b.column_names:
            return b.drop_columns(["path"])
        paths = b.column("path")
        pids = pc_.replace_substring_regex(
            paths, pattern=r"^.*partition_id=([^/]+)/.*$", replacement=r"\1")
        return b.drop_columns(["path"]).append_column(
            "partition_id", pc_.cast(pids, pa.string()))

    for unit in units:
        started = time.time()
        unit_files = [f for _, files, _ in unit for f in files]
        unit_pids = {pid for pid, _, _ in unit}
        if unit_pids == {"all"}:  # unpartitioned input: constant id
            def _const_pid(b: pa.Table) -> pa.Table:
                b = b.drop_columns(["path"])
                if "partition_id" in b.column_names:
                    return b
                return b.append_column(
                    "partition_id", pa.array(["all"] * len(b), pa.string()))
            pid_fn = _const_pid
        else:
            pid_fn = _extract_pid
        ds = ray.data.read_parquet(unit_files, include_paths=True)
        ds = ds.map_batches(pid_fn, batch_format="pyarrow")
        viol_root = os.path.join(out_dir, "violations")
        viol = validate_dataset(ds, schema_json, batch_size=batch_size)
        # hive layout by partition; overwrite only this unit's partitions
        for pid, _, _ in unit:
            pdir = os.path.join(viol_root, f"partition_id={pid}")
            if os.path.isdir(pdir):
                import shutil
                shutil.rmtree(pdir)
        viol.write_parquet(viol_root, partition_cols=["partition_id"],
                           mode="append")
        finished = time.time()

        # verdicts from outputs (no second validation pass)
        verd_rows = []
        for pid, files, fp in unit:
            pdir = os.path.join(viol_root, f"partition_id={pid}")
            n_docs = _docs_in_files(files)
            if os.path.isdir(pdir):
                vt = pq.read_table(pdir, columns=["error_seq"])
                n_viol = vt.num_rows
                # each violating doc row contributes exactly one seq-0 row
                viol_docs = int(pc_.sum(pc_.equal(
                    vt.column("error_seq"), 0)).as_py() or 0)
            else:
                n_viol = viol_docs = 0
            verd_rows.append({
                "partition_id": pid, "docs": n_docs,
                "violation_docs": viol_docs, "violations": n_viol,
                "pass": n_viol == 0,
                "checks_failed": (["keyword_validation"] if n_viol else []),
            })
        for row in verd_rows:
            pid = row["partition_id"]
            verd_dir = os.path.join(out_dir, "verdicts",
                                    f"partition_id={pid}")
            os.makedirs(verd_dir, exist_ok=True)
            _write_verdict(os.path.join(verd_dir, "verdict.parquet"),
                           {k: v for k, v in row.items()
                            if k != "partition_id"})

        for (pid, files, fp), row in zip(unit, verd_rows):
            summary["processed"] += 1
            summary["violations"] += row["violations"]
            record = {
                "partition_id": pid,
                "input_fragments": [os.path.basename(f) for f in files],
                "input_fingerprint": fp,
                "started_at": started,
                "finished_at": finished,
                "outputs": [os.path.join(viol_root, f"partition_id={pid}"),
                            os.path.join(out_dir, "verdicts",
                                         f"partition_id={pid}")],
                "metrics": {"docs": row["docs"],
                            "violation_docs": row["violation_docs"],
                            "violations": row["violations"]},
            }
            # manifest write is the commit point for this partition
            _commit_manifest(out_dir, pid, record)

    if max_units is None:
        _run_global_checks(corpus_dir, out_dir, catalog_path,
                           baseline_exclude, summary)
    return summary


def _run_global_checks(corpus_dir: str, out_dir: str,
                       catalog_path: Optional[str],
                       baseline_exclude: Sequence[str],
                       summary: dict) -> None:
    import ray.data
    from engine.drift import baseline_from, partition_sketches, score
    from engine.referential import check_references
    from engine.uniqueness import duplicate_keys

    done = completed_partitions(out_dir)
    checks_dir = os.path.join(out_dir, "checks")
    ds = ray.data.read_parquet(corpus_dir)

    def _step(name: str, fn, then=None) -> None:
        """Run ``fn``, write its output, run ``then`` (if any) and only
        then commit the step's marker: a kill anywhere before the commit
        re-runs the whole step on resume."""
        marker = f"__global_{name}"
        if marker in done:
            summary[name] = "skipped"
            return
        started = time.time()
        result_ds = fn()
        out = os.path.join(checks_dir, name)
        result_ds.write_parquet(out, mode="overwrite")
        if then is not None:
            then()
        _commit_manifest(out_dir, marker, {
            "partition_id": marker, "outputs": [out],
            "started_at": started, "finished_at": time.time()})
        summary[name] = "done"

    from engine.stats import column_stats
    _step("stats", lambda: column_stats(ds))
    _step("uniqueness", lambda: duplicate_keys(ds, "doc_id"))
    if catalog_path:
        # exact membership set (media catalogs here are broadcastable);
        # for catalogs too large to broadcast, swap in the Bloom prefilter
        # + referential.dangling_fk_rows exact anti-join on the misses
        catalog = ray.data.read_parquet(catalog_path)
        _step("referential",
              lambda: check_references(ds, catalog, exact=True))

    def _drift():
        # ONE corpus pass: the materialized partition sketches feed both
        # the baseline (merge of the non-excluded partitions) and the
        # per-partition scores. Built INSIDE the step, so a resumed run
        # with the drift marker present never re-scans the corpus.
        sketches = partition_sketches(ds).materialize()
        return score(sketches, baseline_from(sketches, baseline_exclude))

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
    drifted = set()
    dt = pq.read_table(drift_dir, columns=["partition_id", "drifted"])
    for pid, flag in zip(dt.column("partition_id").to_pylist(),
                         dt.column("drifted").to_pylist()):
        if flag:
            drifted.add(pid)
    for pid in drifted:
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
