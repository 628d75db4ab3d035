"""Checkpointed validation job: per-partition artifacts, lineage, resume.

North-rule requirement: a killed run must resume without recomputing
validated partitions. Design (SURVEY.md §4): partition identity derives from
the INPUT layout (hive ``partition_id=...`` directories written by synth),
never from runtime block order.

The job reads each partition ONCE, in one pipeline over all pending
partitions: ``ray.data.from_items`` holds one work item
``(partition_id, files, start, stop)`` per partition (a partition larger
than its share of the cluster's CPUs is cut into row ranges on slice
boundaries), and one ``map_batches(batch_size=1)`` stage
(``_PartitionPass``) reads each item's rows with pyarrow inside its own
task, so no corpus block passes through the object store. It cuts the
rows into ``batch_size``-row slices across file boundaries, cast to the
unified schema of the partition's files, appends ``partition_id`` from
the item, and every slice goes through four passes, each giving one
partition artifact:

* ``violations`` — the keyword-validation rows (``dataset.ValidateBatch``);
* ``profile`` — profile rows per (slice, column)
  (``drift.ProfileBatch``: counts, min/max, HLL, t-digest, value counts);
* ``keys`` — ``(key, count)`` of each non-NULL ``doc_id`` of the slice,
  combined with Arrow ``group_by`` (NULL keys are never duplicates);
* ``refs`` — the dangling ``spans.media_ref`` rows against the catalog's
  distinct refs (``referential._RefCheckBatch``, Arrow ``is_in``), only
  with a catalog; the value set is built and ``ray.put`` once per run.

The workers write the artifacts: the driver makes a dot-prefixed temp dir
under ``out_dir`` (hive discovery skips it), each task writes one parquet
file per (pass, slice) into it — a typed-empty one per pass for an item
without rows, from its files' schema — and returns one small row per
file. When a partition's last row arrives, the driver removes its old
manifest, renames each ``<artifact>/partition_id=<pid>`` dir into place
with only the files the returned rows name (a retried task's first
attempt may leave others), writes the verdict and then
``_manifest/<pid>.json`` — the commit point (atomic: temp file + fsync +
rename). A kill anywhere before it just re-runs the partition. A
manifest counts only if its input fingerprint matches, it records the
fingerprint of this run's catalog files (none without a catalog) and it
lists every artifact this run writes; otherwise the partition re-runs.
Verdict files are replaced the same atomic way.

The global steps then merge committed rows and never read the corpus:
stats (every partition's profile rows), drift (baseline = the
non-excluded partitions' profile rows, per-partition KS/PSI against it),
uniqueness (the sum of the ``keys`` counts per key: on the driver up to
the engine's small-side size of key rows, above that one
``shuffle.by_key`` pass)
and referential (the union of the refs rows). Each step commits a
``__global_<step>`` marker that records the job state (input and catalog
fingerprints, baseline exclusions); a step re-runs when a partition was
processed in this run or its marker records another state.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import tempfile
import time
import uuid
from typing import Optional, Sequence

from engine.dataset import DOC_SCHEMA_JSON
from engine.storage import atomic_replace

#: partition artifacts, in write order; ``refs`` only with a catalog
ARTIFACTS = ("violations", "profile", "keys", "refs")


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


def _doc_id_counts(batch):
    """``keys`` pass: ``(partition_id, key, count)`` of each non-NULL
    ``doc_id`` of a batch. NULL keys are never duplicates, so they are
    dropped before the combine."""
    import pyarrow as pa
    import pyarrow.compute as pc

    t = batch.select(["partition_id", "doc_id"])
    g = t.filter(pc.is_valid(t.column("doc_id"))).group_by(
        ["partition_id", "doc_id"]).aggregate([("doc_id", "count")])
    return pa.table({"partition_id": g.column("partition_id"),
                     "key": g.column("doc_id"),
                     "count": g.column("doc_id_count")})


def _work_items(parts: dict, rows: dict, batch_size: int,
                cpus: int) -> list[dict]:
    """The stage's work items, ``{"partition_id", "files", "start",
    "stop"}``: rows ``[start, stop)`` of a partition's files read in
    sorted order. Each partition is cut into ranges of ``step`` rows:
    the pending rows per cluster CPU, rounded up to a multiple of
    ``batch_size``. So the items fill the CPUs even when the partitions
    are fewer, and a cut falls on a slice boundary: the slices, and with
    them every output, do not depend on the cut."""
    total = sum(rows[f] for files in parts.values() for f in files)
    step = batch_size * max(1, -(-total // (cpus * batch_size)))
    items = []
    for pid, files in parts.items():
        if not files:
            raise FileNotFoundError(f"partition {pid!r} has no parquet files")
        n = sum(rows[f] for f in files)
        items += [{"partition_id": pid, "files": files, "start": a,
                   "stop": min(a + step, n)}
                  for a in range(0, max(n, 1), step)]
    return items


def _conform(t, schema):
    """``t`` with the columns and types of ``schema`` (the unified schema
    of its partition's files): NULLs for a column its file lacks."""
    import pyarrow as pa

    if t.schema.equals(schema):
        return t
    return pa.table([t.column(f.name).cast(f.type) if f.name in t.column_names
                     else pa.nulls(t.num_rows, f.type) for f in schema],
                    schema=schema)


def _slices(files: Sequence[str], schema, batch_size: int, start: int,
            stop: int):
    """``batch_size``-row slices of rows ``[start, stop)`` of ``files``
    read in order, cut across file boundaries
    (:func:`engine.tuning.batch_slices`), each row group cast to
    ``schema``; at most one slice plus one row group is held."""
    import pyarrow.parquet as pq

    from engine.tuning import batch_slices

    def row_groups():
        at = 0  # rows of the row groups before this one
        for f in files:
            if at >= stop:
                return
            pf = pq.ParquetFile(f)
            for i in range(pf.num_row_groups):
                m = pf.metadata.row_group(i).num_rows
                lo, hi = max(start - at, 0), min(stop - at, m)
                at += m
                if lo < hi:
                    yield _conform(pf.read_row_group(i), schema) \
                        .slice(lo, hi - lo)

    return batch_slices(row_groups(), batch_size)


class _PartitionPass:
    """The job's one stage: each call reads one work item's rows itself
    and writes its artifact files, so no corpus block and no artifact row
    passes through the object store or the driver.

    It cuts the item's rows into ``batch_size``-row slices (across file
    boundaries) with the unified schema of the partition's files (a
    column all NULL in one file may be typed ``null`` there), appends
    ``partition_id`` from the item and runs every pass over each slice,
    writing one file per (pass, slice) to
    ``<tmp>/<pass>/partition_id=<pid>/<uuid>.parquet``. An item without
    rows gets one typed-empty file per pass: the passes over that
    schema's empty table. The dirs exist already (the driver makes them),
    so a straggler whose partition was committed or whose temp dir is
    gone fails instead of writing a new one. It returns one row per file:
    ``(partition_id, pass, file, rows, seq0_rows)``, where ``seq0_rows``
    counts the violating docs of a ``violations`` file (each has exactly
    one ``error_seq`` 0 row)."""

    def __init__(self, passes: dict, tmp: str, batch_size: int):
        self.passes = passes
        self.tmp = tmp
        self.batch_size = batch_size

    def __call__(self, items):
        import itertools

        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        rows = []
        for item in items.to_pylist():
            pid, files = item["partition_id"], item["files"]
            schema = pa.unify_schemas([pq.read_schema(f) for f in files],
                                      promote_options="permissive")
            slices = _slices(files, schema, self.batch_size, item["start"],
                             item["stop"])
            first = next(slices, None)
            if first is None:
                first = schema.empty_table()
            for t in itertools.chain([first], slices):
                if "partition_id" in t.column_names:
                    t = t.drop_columns(["partition_id"])
                t = t.append_column("partition_id", pa.repeat(
                    pa.scalar(pid, pa.string()), t.num_rows))
                name = f"{uuid.uuid4().hex}.parquet"
                for p, fn in self.passes.items():
                    out = fn(t).drop_columns(["partition_id"])
                    pq.write_table(out, os.path.join(
                        self.tmp, p, f"partition_id={pid}", name))
                    seq0 = int(pc.sum(pc.equal(
                        out.column("error_seq"), 0)).as_py() or 0) \
                        if p == "violations" else 0
                    rows.append({"partition_id": pid, "pass": p,
                                 "file": name, "rows": out.num_rows,
                                 "seq0_rows": seq0})
        return pa.Table.from_pylist(rows)


def _publish(out_dir: str, tmp: str, pid: str, written: list[dict],
             passes: dict) -> None:
    """Rename one partition's artifact dirs from the stage's temp dir into
    place, each with only the files the stage's rows name (a retried
    task's first attempt may leave others). The old manifest goes first:
    until the new one commits, a kill leaves the partition to be re-run,
    never half-replaced outputs under a manifest that still counts."""
    old = os.path.join(out_dir, "_manifest", f"{pid}.json")
    if os.path.exists(old):
        os.remove(old)
    for name in ARTIFACTS:
        dest = os.path.join(out_dir, name, f"partition_id={pid}")
        shutil.rmtree(dest, ignore_errors=True)
        if name in passes:
            src = os.path.join(tmp, name, f"partition_id={pid}")
            named = {r["file"] for r in written if r["pass"] == name}
            for f in set(os.listdir(src)) - named:
                os.remove(os.path.join(src, f))
            os.makedirs(os.path.dirname(dest), exist_ok=True)
            os.rename(src, dest)


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
                       batch_size: int = 8192) -> dict:
    """Validate a partitioned corpus with checkpoint/resume.

    All pending partitions (at most ``max_units`` of them per call) run
    through one pipeline whose tasks read their own files; each partition
    commits as soon as its last work item returns. Verdicts are derived
    from the stage's violations file rows plus parquet-footer row counts,
    not a second pass. Call again after a kill: partitions whose manifest
    fits this run are skipped.
    """
    import pyarrow.parquet as pq
    import ray
    from engine.dataset import ValidateBatch
    from engine.drift import CATEGORICAL_DEFAULT, ProfileBatch
    from engine.referential import _RefCheckBatch, exact_set

    os.makedirs(out_dir, exist_ok=True)
    parts = {pid: files for pid, files in list_partitions(corpus_dir).items()
             if not pid.startswith("__")}
    done = completed_partitions(out_dir)
    cat_fp = _input_fingerprint(glob.glob(os.path.join(
        catalog_path, "**", "*.parquet"), recursive=True) or [catalog_path]) \
        if catalog_path else None
    artifacts = ARTIFACTS if catalog_path else ARTIFACTS[:3]
    summary = {"partitions": len(parts), "skipped": 0, "processed": 0,
               "violations": 0}

    fps = {pid: _input_fingerprint(files) for pid, files in parts.items()}

    def _fits(rec: dict, pid: str) -> bool:
        """Does a partition's manifest count as done for this run? The
        slice size must match too: the profile t-digests are per slice,
        so the stats and drift checks depend on where slices are cut."""
        return (rec.get("input_fingerprint") == fps[pid]
                and rec.get("catalog_fingerprint") == cat_fp
                and rec.get("batch_size") == batch_size
                and set(artifacts) <= set(rec.get("artifacts", ())))

    pending = [pid for pid in parts if not _fits(done.get(pid, {}), pid)]
    summary["skipped"] = len(parts) - len(pending)
    pending = pending[:max_units]

    if pending:
        passes = {"violations": ValidateBatch(schema_json),
                  "profile": ProfileBatch(categorical=CATEGORICAL_DEFAULT),
                  "keys": _doc_id_counts}
        if catalog_path:
            passes["refs"] = _RefCheckBatch(
                ray.put(exact_set(pq.read_table(
                    catalog_path, columns=["media_ref"]).column("media_ref"))),
                "spans", "media_ref", "doc_id", exact=True,
                carry=("partition_id",))
        _run_partitions(out_dir, {pid: parts[pid] for pid in pending},
                        passes, batch_size, summary, fps, cat_fp)

    if max_units is None:
        state = hashlib.sha256(json.dumps(
            [sorted(fps.items()), cat_fp, sorted(baseline_exclude)])
            .encode()).hexdigest()[:16]
        _run_global_checks(out_dir, list(parts), catalog_path,
                           baseline_exclude, summary, state)
    return summary


def _run_partitions(out_dir: str, parts: dict, passes: dict,
                    batch_size: int, summary: dict, fps: dict,
                    cat_fp: Optional[str]) -> None:
    """Run ``parts`` (partition id -> files) through one
    ``_PartitionPass`` pipeline and commit each partition when the stage
    has returned all its file rows (one per pass and slice; one slice for
    an item without rows, known from the parquet footers).

    If a commit step raises, tasks may still be running (closing the
    batch iterator does not stop them), so the temp dir is renamed away
    before it is removed: a late task's write then fails instead of
    leaving a file behind."""
    import collections

    import pyarrow.parquet as pq
    import ray
    import ray.data

    rows = {f: pq.ParquetFile(f).metadata.num_rows
            for files in parts.values() for f in files}
    items = _work_items(parts, rows, batch_size,
                        max(1, int(ray.cluster_resources().get("CPU", 1))))
    expect = collections.Counter()
    for it in items:
        expect[it["partition_id"]] += len(passes) * max(
            1, -(-(it["stop"] - it["start"]) // batch_size))
    written = collections.defaultdict(list)
    started = time.time()
    tmp = tempfile.mkdtemp(prefix=".unit-", dir=out_dir)
    try:
        for name in passes:
            for pid in parts:
                os.makedirs(os.path.join(tmp, name, f"partition_id={pid}"))
        stage = ray.data.from_items(
            items, override_num_blocks=len(items)).map_batches(
            _PartitionPass(passes, tmp, batch_size), batch_format="pyarrow",
            batch_size=1)
        for out in stage.iter_batches(batch_size=None,
                                      batch_format="pyarrow"):
            for r in out.to_pylist():
                pid = r["partition_id"]
                written[pid].append(r)
                if len(written[pid]) < expect[pid]:
                    continue
                _publish(out_dir, tmp, pid, written[pid], passes)
                n_viol = _commit_partition(
                    out_dir, pid, written[pid],
                    sum(rows[f] for f in parts[pid]), {
                        "partition_id": pid,
                        "input_fragments": [os.path.basename(f)
                                            for f in parts[pid]],
                        "input_fingerprint": fps[pid],
                        "catalog_fingerprint": cat_fp,
                        "batch_size": batch_size,
                        "artifacts": list(passes),
                        "started_at": started,
                        "finished_at": time.time(),
                        "outputs": [os.path.join(out_dir, name,
                                                 f"partition_id={pid}")
                                    for name in (*passes, "verdicts")]})
                summary["processed"] += 1
                summary["violations"] += n_viol
    finally:
        gone = f"{tmp}.removed"
        os.rename(tmp, gone)
        shutil.rmtree(gone, ignore_errors=True)
    short = {pid: (len(written[pid]), n) for pid, n in expect.items()
             if len(written[pid]) != n}
    if short:
        raise RuntimeError(f"stage rows (returned, expected) of uncommitted "
                           f"partitions: {short}")


def _commit_partition(out_dir: str, pid: str, written: list[dict],
                      docs: int, record: dict) -> int:
    """Write a published partition's verdict from the stage's violations
    file rows (no second pass), then its manifest: the commit point.
    Returns the partition's violation count."""
    viol = [r for r in written if r["pass"] == "violations"]
    n_viol = sum(r["rows"] for r in viol)
    row = {"docs": docs, "violation_docs": sum(r["seq0_rows"] for r in viol),
           "violations": n_viol, "pass": n_viol == 0,
           "checks_failed": ["keyword_validation"] if n_viol else []}
    verd_dir = os.path.join(out_dir, "verdicts", f"partition_id={pid}")
    os.makedirs(verd_dir, exist_ok=True)
    _write_verdict(os.path.join(verd_dir, "verdict.parquet"), row)
    _commit_manifest(out_dir, pid, {
        **record, "metrics": {k: row[k] for k in
                              ("docs", "violation_docs", "violations")}})
    return n_viol


def _run_global_checks(out_dir: str, pids: list[str],
                       catalog_path: Optional[str],
                       baseline_exclude: Sequence[str],
                       summary: dict, state: str) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq
    from engine.drift import _merge_rows, baseline_from, score
    from engine.stats import stats_table

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
        # a partition's profile rows are per batch, in files named at
        # random: merge them in content order, so the t-digests repeat
        rows = _read_artifact(out_dir, "profile", pids)
        return _merge_rows(rows.sort_by(
            [(c, "ascending") for c in rows.column_names]).to_pylist())

    _step("stats", lambda: stats_table(_profiles()))
    _step("uniqueness", lambda: _duplicate_keys(out_dir, pids))
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


def _duplicate_keys(out_dir: str, pids: Sequence[str]):
    """Uniqueness from the committed ``keys`` rows: ``(key, dup_count)``
    of each key whose counts sum to more than 1. Up to
    ``shuffle.SMALL_ROWS`` rows (from the parquet footers) the driver sums
    them with one Arrow ``group_by``; above, one ``shuffle.by_key`` pass
    does. It needs no salt: a hot key has one row per keys file."""
    import functools

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from engine import shuffle

    files = sorted(f for pid in pids for f in glob.glob(os.path.join(
        out_dir, "keys", f"partition_id={pid}", "*.parquet")))
    if sum(pq.ParquetFile(f).metadata.num_rows
           for f in files) > shuffle.SMALL_ROWS:
        import pandas as pd
        import ray.data
        from engine.shuffle import by_key
        from engine.uniqueness import dup_rows
        return by_key(ray.data.read_parquet(files, columns=["key", "count"]),
                      "key", functools.partial(dup_rows, count="count"),
                      empty=pd.DataFrame({"key": [], "dup_count": []}))
    keys = pa.concat_tables([pq.ParquetFile(f).read() for f in files])
    g = keys.group_by("key").aggregate([("count", "sum")])
    g = g.filter(pc.greater(g.column("count_sum"), 1))
    return pa.table({"key": g.column("key"),
                     "dup_count": g.column("count_sum")})


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
