"""Robustness: parallelism-invariance of results, real kill -9 resume,
FIXTURES §3 schema variants over the spans corpus."""

import glob
import json
import os
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


class TestKillResume:
    def test_sigkill_mid_job_then_resume(self, corpus, tmp_path):
        out_root, corpus_dir = corpus
        job_out = str(tmp_path / "job")
        cmd = [sys.executable, "-m", "engine.cli", "validate",
               "--input", corpus_dir, "--out", job_out, "--num-cpus", "4"]
        # start the job, SIGKILL it (and every Ray process it started) as
        # soon as the first manifest lands
        p = start_group(cmd, cwd=REPO, stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL)
        manifest_glob = os.path.join(job_out, "_manifest", "p*.json")
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                if glob.glob(manifest_glob):
                    break
                if p.poll() is not None:
                    break
                time.sleep(0.2)
        finally:
            kill_group(p)
        done_before = sorted(glob.glob(manifest_glob))
        assert done_before, "job died before completing any partition"
        mtimes = {f: os.path.getmtime(f) for f in done_before}

        # resume to completion in a fresh process
        r = run_group(cmd, cwd=REPO, timeout=300)
        assert r.returncode == 0, r.stderr[-500:]
        summary = json.loads(r.stdout.strip().splitlines()[-1])
        assert summary["skipped"] >= len(done_before)
        assert summary["skipped"] + summary["processed"] == 4
        for f, t in mtimes.items():
            assert os.path.getmtime(f) == t, f"manifest rewritten: {f}"
        # outputs complete and readable
        assert pq.read_table(os.path.join(job_out, "verdicts")).num_rows == 4


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
