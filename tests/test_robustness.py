"""Robustness: parallelism-invariance of results, real kill -9 resume,
FIXTURES §3 schema variants over the spans corpus."""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pyarrow.parquet as pq
import pytest

from proc_group import REPO, kill_group, run_group, start_group

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    from engine.synth import build_corpus
    out = str(tmp_path_factory.mktemp("rob"))
    d = build_corpus(SF_DIR, out, replicate=2, partitions=4, seed=42)
    return out, d


class TestParallelismInvariance:
    def test_violations_identical_across_batch_sizes(self, corpus,
                                                     ray_session):
        import ray.data
        from engine.dataset import validate_dataset

        _, corpus_dir = corpus

        def run(batch_size, blocks):
            ds = ray.data.read_parquet(corpus_dir,
                                       override_num_blocks=blocks)
            df = validate_dataset(ds, batch_size=batch_size,
                                  with_message=False).to_pandas()
            return sorted(map(tuple, df[
                ["doc_id", "error_seq", "error_kind",
                 "instance_path"]].values))

        a = run(128, 2)
        b = run(4096, 16)
        assert a == b and len(a) > 0


#: ``engine.cli`` that halts at the point ``argv[1]`` names, after it
#: creates the file ``argv[2]``, so a SIGKILL lands exactly there:
#: right after it commits its first manifest whose name starts with
#: ``argv[1]`` (a partition's ``p<id>``, a global step's
#: ``__global_<step>``), right after a partition's verdict write before
#: its manifest (``verdict``), or inside the drift step's ``then`` hook
#: once the fold has rewritten the verdicts, before the drift marker
#: commits (``fold``)
HALT_AT = """
import sys, time
import engine.checkpoint as ck
from engine.cli import main

point, flag = sys.argv[1], sys.argv[2]


def _halt_after(fn, when=lambda *args: True):
    def run(*args):
        out = fn(*args)
        if when(*args):
            open(flag, "w").close()
            time.sleep(600)
        return out
    return run


if point == "verdict":
    ck._write_verdict = _halt_after(ck._write_verdict)
elif point == "fold":
    ck._fold_drift_into_verdicts = _halt_after(ck._fold_drift_into_verdicts)
else:
    ck._commit_manifest = _halt_after(
        ck._commit_manifest, lambda out_dir, name, record:
        name.startswith(point))
sys.exit(main(sys.argv[3:]))
"""

#: kill point -> (partition manifests, global-step markers) committed
#: when the job is killed there (the job has four partitions and, with
#: no catalog, the stats, uniqueness and drift steps)
COMMITTED_AT_KILL = {"p": (1, 0), "verdict": (0, 0), "__global_": (4, 1),
                     "fold": (4, 2)}


def _validate(corpus_dir, job_out):
    return ["validate", "--input", corpus_dir, "--out", job_out,
            "--num-cpus", "4"]


def _outputs(job_out):
    """The rows of a job's violations, verdicts and each ``checks/*``
    table, sorted on every column."""
    names = ["violations", "verdicts"] + [
        f"checks/{c}"
        for c in sorted(os.listdir(os.path.join(job_out, "checks")))]
    return {n: sorted(map(repr, pq.read_table(
        os.path.join(job_out, n)).to_pylist())) for n in names}


class TestKillResume:
    @pytest.fixture(scope="class")
    def clean(self, corpus, tmp_path_factory):
        """The outputs of an uninterrupted job."""
        job_out = str(tmp_path_factory.mktemp("clean") / "job")
        r = run_group([sys.executable, "-m", "engine.cli",
                       *_validate(corpus[1], job_out)], cwd=REPO,
                      timeout=300)
        assert r.returncode == 0, r.stderr[-500:]
        return _outputs(job_out)

    @pytest.mark.parametrize("kill_at", sorted(COMMITTED_AT_KILL))
    def test_sigkill_mid_job_then_resume(self, corpus, clean, tmp_path,
                                         kill_at):
        """SIGKILL the job, and every Ray process it started, at one of
        the points of ``HALT_AT``: after its first partition manifest or
        global-step marker commits, after a partition's verdict write,
        or inside the drift fold. A resumed run keeps every commit, and
        its outputs equal the uninterrupted job's."""
        _, corpus_dir = corpus
        job_out = str(tmp_path / "job")
        flag = str(tmp_path / "halted")
        args = _validate(corpus_dir, job_out)
        p = start_group([sys.executable, "-c", HALT_AT, kill_at, flag,
                         *args], cwd=REPO, stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL)
        manifests = os.path.join(job_out, "_manifest", "*.json")
        try:
            deadline = time.time() + 240
            while time.time() < deadline and p.poll() is None and \
                    not os.path.exists(flag):
                time.sleep(0.2)
        finally:
            kill_group(p)
        assert p.returncode == -signal.SIGKILL, "the job ended unkilled"
        done_before = {os.path.basename(f)[:-len(".json")]:
                       os.path.getmtime(f) for f in glob.glob(manifests)}
        steps = [n for n in done_before if n.startswith("__global_")]
        parts = len(done_before) - len(steps)
        assert (parts, len(steps)) == COMMITTED_AT_KILL[kill_at], \
            sorted(done_before)

        # resume to completion in a fresh process
        r = run_group([sys.executable, "-m", "engine.cli", *args],
                      cwd=REPO, timeout=300)
        assert r.returncode == 0, r.stderr[-500:]
        summary = json.loads(r.stdout.strip().splitlines()[-1])
        assert (summary["skipped"], summary["processed"]) == (parts,
                                                              4 - parts)
        for name in steps:
            assert summary[name[len("__global_"):]] == "skipped"
        for name, t in done_before.items():
            assert os.path.getmtime(os.path.join(
                job_out, "_manifest", f"{name}.json")) == t, \
                f"manifest rewritten: {name}"
        assert _outputs(job_out) == clean


class TestFixtureSchemaVariants:
    """FIXTURES.md §3 variants over real span-shaped data."""

    def _spans_batch(self):
        from engine.synth import SynthSpans
        t = pq.read_table(f"{SF_DIR}/documents.parquet",
                          columns=["doc_id", "text"])
        return SynthSpans(replicate=1, partitions=2, seed=1)(t).drop_columns(
            ["partition_id"])

    def test_allof_merge_of_span_constraints(self):
        from tests.test_kernels import assert_parity
        s = '''{"type":"object","properties":{"spans":{"type":"array",
            "items":{"allOf":[
              {"type":"object","required":["kind"]},
              {"type":"object","required":["offset"],
               "properties":{"offset":{"type":"integer","minimum":0}}}]}}}}'''
        assert_parity(s, self._spans_batch())

    def test_oneof_text_vs_media_span(self):
        from tests.test_kernels import assert_parity
        s = '''{"type":"object","properties":{"spans":{"type":"array",
            "items":{"oneOf":[
              {"type":"object","required":["text"],
               "properties":{"media_ref":{"const":""},
                             "text":{"type":"string","minLength":1}}},
              {"type":"object","required":["media_ref"],
               "properties":{"media_ref":{"type":"string",
                                          "pattern":"^media://"}}}]}}}}'''
        assert_parity(s, self._spans_batch())

    def test_ref_cycle_schema_emits_invalid_ref_per_row(self):
        from tests.test_kernels import assert_parity
        from engine import errors as E
        s = '''{"$defs":{"A":{"$ref":"#/$defs/B"},"B":{"$ref":"#/$defs/A"}},
               "type":"object","properties":{"doc_id":{"$ref":"#/$defs/A"}}}'''
        errs = assert_parity(s, self._spans_batch())
        assert errs and all(e["kind"] == E.INVALID_REF for _, _, e in errs)
        assert errs[0][2]["reason"] == 'RefCycle { ref_str: "#/$defs/A" }'

    def test_invalid_pattern_schema_emits_per_row(self):
        from tests.test_kernels import assert_parity
        from engine import errors as E
        s = '{"type":"object","properties":{"doc_id":{"type":"string","pattern":"["}}}'
        errs = assert_parity(s, self._spans_batch())
        assert errs and all(
            e["kind"] == E.INVALID_PATTERN_IN_SCHEMA for _, _, e in errs)

    def test_additional_properties_as_schema_variant(self):
        from tests.test_kernels import assert_parity
        s = '''{"type":"object","properties":{"spans":{"type":"array"}},
               "additionalProperties":{"type":"string","maxLength":6}}'''
        assert_parity(s, self._spans_batch())
