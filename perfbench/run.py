"""Layered validation benchmark for the Ray Data validation engine.

Run from the repository root:

    python3 perfbench/run.py --workload validate_sparse --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for the measured densities):

* ``validate_sparse`` -- ``validate_dataset(..., with_message=False)`` over a
  SynthSpans corpus at violation rate 0.02: most documents are clean, so read,
  mask evaluation and Ray stage overhead dominate and error emission is small.
* ``validate_dense`` -- the same pipeline at violation rate 0.2: error
  emission and output assembly dominate.
* ``checkpoint_job`` -- ``engine.checkpoint.run_validation_job`` with the media
  catalog over the sparse corpus: violations, verdicts and manifests are
  written, then stats, uniqueness, referential and drift run.

One Ray driver process owns one Ray session sized to the CPUs the process may
use. Runs form a closed loop: each starts after the previous one finished.
Every call into the engine runs under a timeout; an exception, a timeout or
a correctness mismatch counts as a failed op. With ``--trace 0`` the last
stdout line reports the end-to-end metrics, with ``--trace 1`` the per-layer
metrics, measured from spans this file records around each call into a layer.
The line before it carries the host, the violation density and the sample
counts. Everything the run writes stays under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
OUT = os.path.join(BENCH_DIR, "out")

WORKLOADS = {
    "validate_sparse": {"rate": 0.02, "op": "validate"},
    "validate_dense": {"rate": 0.2, "op": "validate"},
    "checkpoint_job": {"rate": 0.02, "op": "job"},
}
DOCS = 30_000
PARTITIONS = 4
SETUP_REPS = 3
REPLAY_PASSES = 3
ORACLE_SUBSET = 1000
GLOBAL_STEPS = ("stats", "uniqueness", "referential", "drift")
#: counts of the first run on a corpus that every later run must repeat
REPEAT_COUNTS = ("kinds", "rows", "violating_docs", "dangling_refs")
OP_TIMEOUT_S = 60.0
#: ops stop by this many seconds after start, so that with Ray shutdown
#: (at most SHUTDOWN_TIMEOUT_S) the process ends inside 180 s
DEADLINE_S = 140.0
SHUTDOWN_TIMEOUT_S = 25.0
#: Ray places its sockets under the temp dir; AF_UNIX paths are limited to
#: 107 bytes and the session part of the path takes 61 of them
MAX_RAY_TEMP_DIR = 46


class OpTimeout(Exception):
    pass


class Abort(Exception):
    """An op timed out: the Ray session may be wedged, so stop measuring."""


def run_with_timeout(fn, timeout: float):
    """Run ``fn()`` in a daemon thread; raise ``OpTimeout`` if it is not
    done within ``timeout`` seconds (the thread is then abandoned)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # re-raised in the caller's thread
            box["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(max(timeout, 0.0))
    if t.is_alive():
        raise OpTimeout(f"no result after {timeout:.0f} s")
    if "error" in box:
        raise box["error"]
    return box.get("value")


class Tracer:
    """In-memory spans (id, trace, name, parent, start, end) recorded
    around calls into the engine's layers; written out when the run ends."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.trace_id = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "trace": self.trace_id, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str, trace=None) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None
                and trace in (None, s["trace"])]

    def total(self, name: str, trace=None) -> float:
        return sum(self.durations(name, trace))


# ---------------------------------------------------------------------------
# host and process memory


def host_info() -> dict:
    import numpy
    import pyarrow
    import ray
    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    commit = "unknown"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=REPO,
            capture_output=True, text=True, timeout=10).stdout.split()
        if os.path.realpath(top) == os.path.realpath(REPO):
            commit = head
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass  # not a git checkout
    return {"nproc": usable_cpus(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "mem_total_mb": mem_kb // 1024,
            "python": platform.python_version(), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "numpy": numpy.__version__,
            "git_commit": commit}


def usable_cpus() -> int:
    """CPUs this process may use, counted as coreutils ``nproc`` counts
    them: the affinity mask, capped by ``OMP_NUM_THREADS`` and
    ``OMP_THREAD_LIMIT`` when they are set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "").split(",")[0].strip()
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v))
    return n


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(name))
    return kids


def measured_pids() -> list[int]:
    """This process (the Ray driver) plus every Ray worker it started."""
    kids = _children()
    pids, todo = [os.getpid()], list(kids.get(os.getpid(), []))
    while todo:
        pid = todo.pop()
        todo.extend(kids.get(pid, []))
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            continue
        if cmd.startswith(b"ray::") or b"default_worker.py" in cmd:
            pids.append(pid)
    return pids


def reset_peak_rss() -> None:
    for pid in measured_pids():
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass


def peak_rss_mb() -> float:
    peak = 0
    for pid in measured_pids():
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            pass
    return peak / 1024


# ---------------------------------------------------------------------------
# corpus: seeded source documents -> SynthSpans -> hive-partitioned parquet


def write_source(path: str, seed: int, docs: int) -> None:
    """``documents(doc_id, text)``: the input SynthSpans expands into spans."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    rng = np.random.default_rng(seed)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    vocab = np.array(["".join(rng.choice(letters, rng.integers(2, 10)))
                      for _ in range(4000)], dtype=object)
    lens = rng.integers(18, 91, docs)
    words = vocab[rng.integers(0, len(vocab), int(lens.sum()))]
    ends = np.cumsum(lens)
    texts = [" ".join(words[e - n:e]) for n, e in zip(lens.tolist(),
                                                       ends.tolist())]
    pq.write_table(pa.table({"doc_id": [str(i) for i in range(docs)],
                             "text": texts}), path)


def synthesize(dest: str, seed: int, docs: int, rate: float) -> str:
    """Build the corpus under ``dest``; returns the corpus directory."""
    import ray.data
    from engine.synth import SynthSpans, write_media_catalog
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    src = os.path.join(dest, "documents.parquet")
    write_source(src, seed, docs)
    write_media_catalog(dest)
    corpus = os.path.join(dest, "documents_spans")
    ds = ray.data.read_parquet(src).map_batches(
        SynthSpans(partitions=PARTITIONS, seed=seed, violation_rate=rate),
        batch_format="pyarrow", batch_size=4096)
    ds.write_parquet(corpus, partition_cols=["partition_id"])
    return corpus


def read_hive(path: str, columns=None):
    import pyarrow.dataset as pds
    return pds.dataset(path, format="parquet",
                       partitioning="hive").to_table(columns=columns)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(r, f))
               for r, _, fs in os.walk(path) for f in fs)


def corpus_fingerprint(corpus: str) -> str:
    """Digest of (partition, doc_id, span count) over every document."""
    import hashlib

    import pyarrow.compute as pc
    t = read_hive(corpus, ["partition_id", "doc_id", "spans"])
    rows = sorted(zip(t.column("partition_id").to_pylist(),
                      t.column("doc_id").to_pylist(),
                      pc.list_value_length(t.column("spans")).to_pylist()))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def oracle_reference(corpus: str, seed: int) -> dict:
    """Violation rows of ``engine.oracle_validate`` on a seeded subset of
    documents whose ``doc_id`` is unique in the corpus."""
    import random

    import pyarrow as pa
    import pyarrow.compute as pc
    from engine import oracle_validate, parse_schema, render_message
    from engine.dataset import DOC_SCHEMA_JSON
    from engine.pointer import encode_pointer
    from engine.rows import table_to_json_rows

    table = read_hive(corpus, ["doc_id", "spans"])
    counts = pc.value_counts(table.column("doc_id")).to_pylist()
    unique = sorted(c["values"] for c in counts if c["counts"] == 1)
    ids = sorted(random.Random(seed).sample(unique,
                                            min(ORACLE_SUBSET, len(unique))))
    sub = table.filter(pc.is_in(table.column("doc_id"),
                                value_set=pa.array(ids, pa.string())))
    schema = parse_schema(DOC_SCHEMA_JSON)
    rows = []
    for inst in table_to_json_rows(sub):
        for seq, err in enumerate(oracle_validate(schema, inst)):
            rows.append([inst["doc_id"], seq, err["kind"],
                         encode_pointer(err["path"]), render_message(err)])
    return {"subset_ids": ids, "oracle_rows": sorted(rows),
            "duplicate_keys": sum(1 for c in counts if c["counts"] > 1),
            "partitions": sorted(d.split("=", 1)[1]
                                 for d in os.listdir(corpus)
                                 if d.startswith("partition_id="))}


# ---------------------------------------------------------------------------
# output counts and correctness


def violation_counts(table, subset_ids) -> dict:
    """Per-kind counts plus the subset rows of a violations table."""
    import pyarrow as pa
    import pyarrow.compute as pc
    kinds = {c["values"]: c["counts"] for c in
             pc.value_counts(table.column("error_kind")).to_pylist()}
    cols = ["doc_id", "error_seq", "error_kind", "instance_path"]
    if "message" in table.column_names:
        cols.append("message")
    sub = table.filter(pc.is_in(table.column("doc_id"),
                                value_set=pa.array(subset_ids, pa.string())))
    rows = sorted(list(r.values()) for r in sub.select(cols).to_pylist())
    seq0 = pc.sum(pc.equal(table.column("error_seq"), 0)).as_py() or 0
    return {"kinds": dict(sorted(kinds.items())), "rows": table.num_rows,
            "violating_docs": seq0, "subset_rows": rows}


def job_counts(out_dir: str, subset_ids) -> dict:
    """Violation counts plus the counts of every other job output."""
    counts = violation_counts(
        read_hive(os.path.join(out_dir, "violations"),
                  ["doc_id", "error_seq", "error_kind", "instance_path",
                   "message"]), subset_ids)
    verdicts = read_hive(os.path.join(out_dir, "verdicts"))
    checks = os.path.join(out_dir, "checks")
    drift = read_hive(os.path.join(checks, "drift"),
                      ["partition_id", "drifted"])
    counts.update({
        "verdict_rows": verdicts.num_rows,
        "manifests": len(os.listdir(os.path.join(out_dir, "_manifest"))),
        "duplicate_keys": read_hive(os.path.join(checks, "uniqueness"),
                                    ["key"]).num_rows,
        "dangling_refs": read_hive(os.path.join(checks, "referential"),
                                   ["doc_id"]).num_rows,
        "drifted_partitions": sorted(set(drift.filter(
            drift.column("drifted")).column("partition_id").to_pylist())),
    })
    return counts


def mismatches(counts: dict, expected: dict) -> list[str]:
    return [f"{k}: got {counts.get(k)!r}, expected {v!r}"[:300]
            for k, v in expected.items() if counts.get(k) != v]


# ---------------------------------------------------------------------------
# the benchmark


class Bench:
    def __init__(self, workload: str, seed: int, docs: int, trace: bool):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.docs = docs
        self.tracer = Tracer(trace)
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.info: dict = {"workload": workload, "seed": seed, "docs": docs}
        rate = self.spec["rate"]
        self.cache = os.path.join(OUT, "cache", f"s{seed}-n{docs}-r{rate}")
        self.run_dir = os.path.join(OUT, f"run-{workload}-s{seed}")

    # -- ops ---------------------------------------------------------------

    def attempt(self, name: str, fn, expected: dict | None = None):
        """One op: timed call under the timeout, then its correctness check.
        Returns ``(seconds, result)`` or ``None`` when the op failed."""
        self.attempted += 1
        left = DEADLINE_S - (time.perf_counter() - self.t0)
        try:
            with self.tracer.span(name):
                start = time.perf_counter()
                result = run_with_timeout(fn, min(OP_TIMEOUT_S, left))
                wall = time.perf_counter() - start
            self.last_rss_mb = peak_rss_mb()
        except OpTimeout as e:
            self.failed += 1
            self.problems.append(f"{name}: timeout ({e})")
            raise Abort() from e
        except Exception as e:  # any engine error is a failed op
            self.failed += 1
            self.problems.append(f"{name}: {type(e).__name__}: {e}"[:300])
            return None
        if expected is not None:
            with self.tracer.span("check"):
                if not self.check(name, self.counts(result), expected):
                    return None
        return wall, result

    def check(self, name: str, counts: dict, expected: dict) -> bool:
        """Record a failed op for every count that differs."""
        bad = mismatches(counts, expected)
        if bad:
            self.failed += 1
            self.problems.extend(f"{name}: {b}" for b in bad)
        return not bad

    def validate_op(self, corpus: str):
        import pyarrow as pa
        import ray.data
        from engine.dataset import validate_dataset

        def fn():
            with self.tracer.span("read.read_parquet"):
                ds = ray.data.read_parquet(corpus)
            with self.tracer.span("dataset.validate_dataset"):
                viol = validate_dataset(ds, batch_size="auto",
                                        with_message=False)
                return {"table": pa.concat_tables(list(viol.iter_batches(
                    batch_format="pyarrow", batch_size=None)))}
        return fn

    def job_op(self, corpus: str, out_dir: str, **kw):
        from engine.checkpoint import run_validation_job
        catalog = os.path.join(os.path.dirname(corpus),
                               "media_catalog.parquet")
        last = self.ref["partitions"][-1]

        def fn():
            with self.tracer.span("checkpoint.run_validation_job"):
                return {"out_dir": out_dir, "summary": run_validation_job(
                    corpus, out_dir, catalog_path=catalog,
                    baseline_exclude=(last,), **kw)}
        return fn

    def counts(self, result) -> dict:
        ids = self.ref["subset_ids"]
        if "table" in result:
            return violation_counts(result["table"], ids)
        return {**job_counts(result["out_dir"], ids),
                **{f"summary.{k}": v for k, v in result["summary"].items()}}

    def run_once(self, name: str, corpus: str, expected: dict | None):
        """One workload run on ``corpus``: (wall seconds, result) or None."""
        if self.spec["op"] == "validate":
            return self.attempt(name, self.validate_op(corpus), expected)
        out_dir = os.path.join(self.run_dir, "job")
        shutil.rmtree(out_dir, ignore_errors=True)
        return self.attempt(name, self.job_op(corpus, out_dir), expected)

    # -- set-up ------------------------------------------------------------

    def expected(self) -> dict:
        """Counts every run must reproduce: oracle rows on the subset, plus
        the counts of the first run on this corpus (cached with it)."""
        if self.spec["op"] == "validate":
            return self.table_expected()
        parts = self.ref["partitions"]
        return {
            "subset_rows": self.ref["oracle_rows"], **self.ref["repeat"],
            "summary.processed": len(parts), "summary.skipped": 0,
            "summary.violations": self.ref["repeat"]["rows"],
            "verdict_rows": len(parts),
            "manifests": len(parts) + len(GLOBAL_STEPS),
            "duplicate_keys": self.ref["duplicate_keys"],
            "drifted_partitions": [parts[-1]],
            **{f"summary.{s}": "done" for s in GLOBAL_STEPS}}

    def table_expected(self) -> dict:
        """What a ``validate_dataset(..., with_message=False)`` run on the
        corpus must return, whichever workload made the reference."""
        rep = self.ref["repeat"]
        return {"subset_rows": [r[:4] for r in self.ref["oracle_rows"]],
                "kinds": rep["kinds"], "rows": rep["rows"],
                "violating_docs": rep["violating_docs"]}

    def setup(self) -> None:
        import ray
        ray_tmp = os.path.join(OUT, "ray")
        kw = {}
        if len(ray_tmp) <= MAX_RAY_TEMP_DIR:
            kw["_temp_dir"] = ray_tmp
        self.info["ray_temp_dir"] = kw.get("_temp_dir", "ray default")
        start = time.perf_counter()
        with self.tracer.span("setup.ray_init"):
            # workers import ``engine`` from the repository, whatever cwd is
            ray.init(address="local", num_cpus=usable_cpus(),
                     include_dashboard=False, log_to_driver=False,
                     object_store_memory=512 << 20,
                     runtime_env={"env_vars": {"PYTHONPATH": REPO}}, **kw)
        ray_init_s = time.perf_counter() - start
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

        synth = []
        for i in range(SETUP_REPS):
            rep_dir = os.path.join(OUT, "tmp", f"{self.workload}-rep{i}")
            run = self.attempt("setup.synthesize", lambda: synthesize(
                rep_dir, self.seed, self.docs, self.spec["rate"]))
            if run is None:
                raise Abort()
            synth.append(run[0])
            if i == 0:
                self.ref = self.load_reference(rep_dir)
            if corpus_fingerprint(run[1]) != self.ref["fingerprint"]:
                self.failed += 1
                self.problems.append(f"setup.synthesize: rep {i} differs "
                                     "from the cached corpus of this seed")
        shutil.rmtree(os.path.join(OUT, "tmp"), ignore_errors=True)
        self.corpus = os.path.join(self.cache, "documents_spans")

        expected = self.expected() if "repeat" in self.ref else None
        run = self.run_once("setup.warm_up", self.corpus, expected)
        if run is None:
            raise Abort()
        if expected is None:  # first run on this corpus sets the counts
            counts = self.counts(run[1])
            self.ref["repeat"] = {k: counts[k] for k in REPEAT_COUNTS
                                  if k in counts}
            self.save_reference()
            self.check("setup.warm_up", counts, self.expected())
        self.setup_s = ray_init_s + statistics.median(synth) + run[0]
        rep = self.ref["repeat"]
        self.info.update({
            "ray_init_s": ray_init_s, "synthesize_s": synth,
            "warm_up_s": run[0], "violation_rows": rep["rows"],
            "rows_per_doc": rep["rows"] / self.docs,
            "violating_doc_share": rep["violating_docs"] / self.docs,
            "partitions": len(self.ref["partitions"])})

    def load_reference(self, rep_dir: str) -> dict:
        """Cached corpus and oracle reference for (seed, docs, rate); the
        first set-up repetition fills the cache when it is empty."""
        path = os.path.join(self.cache, "reference.json")
        if not os.path.exists(path):
            shutil.rmtree(self.cache, ignore_errors=True)
            os.makedirs(os.path.dirname(self.cache), exist_ok=True)
            shutil.copytree(rep_dir, self.cache)
            corpus = os.path.join(self.cache, "documents_spans")
            self.ref = {"workloads": {},
                        "fingerprint": corpus_fingerprint(corpus),
                        **oracle_reference(corpus, self.seed)}
            self.save_reference()
        with open(path) as f:
            ref = json.load(f)
        if self.workload in ref["workloads"]:
            ref["repeat"] = ref["workloads"][self.workload]
        return ref

    def save_reference(self) -> None:
        ref = dict(self.ref)
        if "repeat" in ref:
            ref["workloads"] = {**ref["workloads"],
                                self.workload: ref.pop("repeat")}
        path = os.path.join(self.cache, "reference.json")
        with open(path + ".tmp", "w") as f:
            json.dump(ref, f)
        os.replace(path + ".tmp", path)

    # -- measurement ---------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """Closed loop over the workload for ``seconds``. With tracing on,
        traced and untraced runs alternate so their rates can be compared."""
        expected = self.expected()
        rates = {True: [], False: []}
        rss = []
        start = time.perf_counter()
        i = 0
        least = 2 if self.tracer.enabled else 1
        while time.perf_counter() - start < seconds or i < least:
            traced = self.tracer.enabled and i % 2 == 1
            self.tracer.trace_id = i + 1
            reset_peak_rss()
            saved, self.tracer.enabled = self.tracer.enabled, traced
            try:
                run = self.run_once("run", self.corpus, expected)
            finally:
                self.tracer.enabled = saved
            i += 1
            if run is None:
                continue
            rss.append(self.last_rss_mb)
            rates[traced].append(self.docs / run[0])
        self.info["samples"] = len(rates[False])
        self.info["run_s"] = [self.docs / r for r in rates[False]]
        out = {"docs_per_s": (statistics.median(rates[False])
                              if rates[False] else 0.0, "docs/s"),
               "setup_s": (self.setup_s, "s"),
               "peak_rss_mb": (statistics.median(rss) if rss else 0.0, "MB")}
        if rates[True]:
            traced = statistics.median(rates[True])
            untraced = out["docs_per_s"][0]
            self.info["traced_samples"] = len(rates[True])
            out["trace.docs_per_s"] = (traced, "docs/s")
            out["trace.overhead_pct"] = (100 * (1 - traced / untraced), "%")
        return out

    def layers(self) -> dict:
        """Per-layer metrics, each from spans around one layer's calls."""
        import numpy as np
        import pyarrow as pa
        import ray.data
        from engine import parse_schema
        from engine.compile import compile_plan
        from engine.dataset import DOC_SCHEMA_JSON, ValidateBatch
        from engine.kernels import eval_valid, validate_batch
        from engine.tuning import autotune_batch_size

        tr = self.tracer
        corpus = self.corpus
        m: dict = {}

        for _ in range(20):
            with tr.span("compile.compile_plan"):
                plan = compile_plan(parse_schema(DOC_SCHEMA_JSON))
        m["compile.plan_ms"] = (
            1e3 * statistics.median(tr.durations("compile.compile_plan")),
            "ms")
        with tr.span("tuning.autotune_batch_size"):
            bs = autotune_batch_size(ray.data.read_parquet(corpus))
        m["tuning.batch_size"] = (bs, "count")

        def identity():
            ds = ray.data.read_parquet(corpus).map_batches(
                lambda b: b, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=bs)
            return sum(b.num_rows for b in ds.iter_batches(
                batch_format="pyarrow", batch_size=None))
        stage = []
        for _ in range(3):
            self.attempt("read.identity", identity, None)
            run = self.attempt("stage.validate_dataset",
                               self.validate_op(corpus),
                               self.table_expected())
            if run is not None:
                stage.append(run[0])
        m["read.identity_s"] = (statistics.median(
            tr.durations("read.identity")), "s")

        # in-process replay of the stage: the same batches, one at a time,
        # REPLAY_PASSES times; each layer reports its median pass
        table = read_hive(corpus)
        batches = [table.slice(o, bs) for o in range(0, table.num_rows, bs)]
        nomsg = ValidateBatch(with_message=False)
        msg = ValidateBatch(with_message=True)
        passes = [f"replay-{k}" for k in range(REPLAY_PASSES)]
        # a Ray worker's heap is small: keep the collector from walking this
        # process's long-lived objects inside the timed calls
        gc.collect()
        gc.freeze()
        try:
            for tr.trace_id in passes:  # spans of one pass share its id
                records = 0
                for batch in batches:
                    inst = batch.select(
                        [c for c in batch.column_names
                         if c != "partition_id"]).combine_chunks()
                    root = pa.StructArray.from_arrays(
                        [col.chunk(0) for col in inst.columns],
                        names=inst.column_names)
                    with tr.span("kernels.eval_valid"):
                        eval_valid(plan, root, np.ones(len(root), dtype=bool))
                    with tr.span("kernels.validate_batch"):
                        records += len(validate_batch(plan, inst))
                    with tr.span("dataset.ValidateBatch"):
                        nomsg(batch)
                    with tr.span("dataset.ValidateBatch.message"):
                        msg(batch)
                self.check("kernels.validate_batch", {"rows": records},
                           {"rows": self.ref["repeat"]["rows"]})
        finally:
            gc.unfreeze()

        def per_pass(name: str, minus: str | None = None) -> float:
            return statistics.median(
                tr.total(name, k) - (tr.total(minus, k) if minus else 0.0)
                for k in passes)
        per_batch = sorted(1e3 * d for d in tr.durations(
            "dataset.ValidateBatch"))
        m.update({
            "stage.batches": (len(batches), "count"),
            "stage.overhead_s": (
                statistics.median(stage) - per_pass("dataset.ValidateBatch")
                if stage else 0.0, "s"),
            "kernels.mask_s": (per_pass("kernels.eval_valid"), "s"),
            "kernels.validate_batch_s": (per_pass("kernels.validate_batch"),
                                         "s"),
            "kernels.emit_s": (per_pass("kernels.validate_batch",
                                        "kernels.eval_valid"), "s"),
            "kernels.error_records": (records, "count"),
            "dataset.assembly_s": (per_pass("dataset.ValidateBatch",
                                            "kernels.validate_batch"), "s"),
            "dataset.batch_ms_p50": (_quantile(per_batch, 0.5), "ms"),
            "dataset.batch_ms_p90": (_quantile(per_batch, 0.9), "ms"),
            "dataset.message_s": (per_pass("dataset.ValidateBatch.message",
                                           "dataset.ValidateBatch"), "s"),
        })

        # checkpoint phases, split from outside with public arguments
        out_dir = os.path.join(self.run_dir, "phases")
        shutil.rmtree(out_dir, ignore_errors=True)
        n = len(self.ref["partitions"])
        phases = [
            ("checkpoint.partitions", {"max_units": n},
             {"processed": n, "skipped": 0}),
            ("checkpoint.global", {},
             {"processed": 0, "skipped": n,
              **{s: "done" for s in GLOBAL_STEPS}}),
            ("checkpoint.resume", {},
             {"processed": 0, "skipped": n,
              **{s: "skipped" for s in GLOBAL_STEPS}}),
        ]
        for name, kw, want in phases:
            run = self.attempt(name, self.job_op(corpus, out_dir, **kw))
            if run is not None:
                self.check(name, run[1]["summary"], want)
            m[name + "_s"] = (tr.total(name), "s")
        m["checkpoint.bytes_written_per_input_byte"] = (
            dir_bytes(out_dir) / dir_bytes(corpus), "B/B")

        # the global checks one by one
        from engine.drift import build_baseline, drift_check
        from engine.referential import check_references
        from engine.stats import column_stats
        from engine.uniqueness import duplicate_keys
        ds = ray.data.read_parquet(corpus)
        catalog = ray.data.read_parquet(
            os.path.join(os.path.dirname(corpus), "media_catalog.parquet"))
        last = self.ref["partitions"][-1]
        box = {}
        steps = [
            ("stats.column_stats", lambda: column_stats(ds).materialize(),
             None),
            ("uniqueness.duplicate_keys",
             lambda: {"keys": duplicate_keys(ds, "doc_id").count()},
             {"keys": self.ref["duplicate_keys"]}),
            ("referential.check_references",
             lambda: check_references(ds, catalog, exact=True).materialize(),
             None),
            ("drift.build_baseline", lambda: box.setdefault(
                "baseline", build_baseline(ds, exclude_partitions=(last,))),
             None),
            ("drift.drift_check", lambda: {"drifted": sorted({
                r["partition_id"] for r in drift_check(
                    ds, box["baseline"]).take_all() if r["drifted"]})},
             {"drifted": [last]}),
        ]
        for name, fn, want in steps:
            run = self.attempt(name, fn)
            if run is not None and want is not None:
                self.check(name, run[1], want)
            m[name + "_s"] = (tr.total(name), "s")
        return m

    def write_trace(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"info": self.info, "spans": self.tracer.spans}, f)


def _quantile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    return sorted_vals[min(len(sorted_vals) - 1,
                           math.ceil(q * len(sorted_vals)) - 1)]


def shutdown_ray() -> None:
    import ray
    try:
        run_with_timeout(ray.shutdown, SHUTDOWN_TIMEOUT_S)
    except OpTimeout:
        print("ray.shutdown did not finish", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--docs", type=int, default=DOCS,
                    help="corpus size (the benchmark's own tests shrink it)")
    args = ap.parse_args(argv)

    sys.path.insert(0, REPO)
    try:
        import engine  # noqa: F401
        import ray  # noqa: F401
    except ImportError as e:
        print(f"cannot import the engine from {REPO}: {e}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.docs, bool(args.trace))
    os.makedirs(OUT, exist_ok=True)
    bench.info["host"] = host_info()
    metrics: dict = {}
    aborted = False
    try:
        bench.setup()
        e2e = bench.measure(args.seconds)
        if args.trace:
            metrics = {k: e2e[k] for k in ("trace.docs_per_s",
                                           "trace.overhead_pct")}
            metrics.update(bench.layers())
        else:
            metrics = {k: e2e[k] for k in ("docs_per_s", "setup_s",
                                           "peak_rss_mb")}
    except Abort:
        aborted = True
    finally:
        shutdown_ray()
    bench.info["problems"] = bench.problems[:20]
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    bench.write_trace(os.path.join(OUT, f"result-{tag}.json"))
    print(json.dumps({"info": bench.info}))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}), flush=True)
    if aborted:  # a timed-out op leaves its thread behind; do not wait
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
