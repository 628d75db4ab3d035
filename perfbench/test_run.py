"""Self-tests of ``perfbench/run.py``.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

TINY_DOCS = 600


def _spec() -> dict:
    with open(os.path.join(bench.REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload,trace,section", [
    ("validate_sparse", "0", "end_to_end"),
    ("checkpoint_job", "1", "per_layer"),
])
def test_tiny_run_prints_every_named_metric(workload, trace, section):
    p = _run(bench.REPO, "--workload", workload, "--seed", "5",
             "--seconds", "1", "--trace", trace, "--docs", str(TINY_DOCS))
    assert p.returncode == 0, p.stderr[-2000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in _spec()[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    info = json.loads(p.stdout.strip().splitlines()[-2])["info"]
    assert info["host"]["nproc"] >= 1 and info["samples"] >= 1


def test_planted_count_mismatch_is_a_failed_op():
    import ray
    b = bench.Bench("validate_sparse", seed=6, docs=TINY_DOCS, trace=False)
    try:
        b.setup()
        assert b.failed == 0, b.problems
        b.ref["repeat"]["rows"] += 1  # planted: one violation row too many
        b.measure(0.5)
    finally:
        ray.shutdown()
    measured = b.attempted - bench.SETUP_REPS - 1
    assert measured >= 1
    assert b.failed == measured
    assert any("rows: got" in p for p in b.problems)


def test_timeout_is_a_failed_op(monkeypatch):
    monkeypatch.setattr(bench, "OP_TIMEOUT_S", 0.2)
    b = bench.Bench("validate_sparse", seed=0, docs=TINY_DOCS, trace=False)
    with pytest.raises(bench.Abort):
        b.attempt("sleep", lambda: time.sleep(2))
    assert (b.attempted, b.failed) == (1, 1)
    assert "timeout" in b.problems[0]


def test_fails_without_printing_a_result_when_the_engine_is_absent():
    bare = os.path.join(bench.OUT, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(bench.REPO, "BENCHMARK.json"), bare)
    shutil.copy(os.path.join(bench.BENCH_DIR, "run.py"),
                os.path.join(bare, "perfbench"))
    try:
        p = _run(bare, "--workload", "validate_sparse", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
