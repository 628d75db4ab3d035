"""End-to-end Ray Data pipeline tests: synth corpus -> validate -> verdicts.

Uses the session-scoped Ray fixture (local, 4 CPUs). Corpus is synthesized
deterministically from /root/testdata/sf0.001/documents.parquet.
"""

import json
import os
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from engine import errors as E

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def corpus_dir(ray_session, tmp_path_factory):
    from engine.synth import build_corpus
    out = str(tmp_path_factory.mktemp("corpus"))
    return build_corpus(SF_DIR, out, replicate=2, partitions=4, seed=42)


class TestSynth:
    def test_deterministic_and_partitioned(self, corpus_dir):
        import ray.data
        ds = ray.data.read_parquet(corpus_dir)
        n = ds.count()
        assert n == 1000  # 500 docs x replicate 2
        parts = sorted(os.listdir(corpus_dir))
        assert all(p.startswith("partition_id=") for p in parts)
        assert len(parts) == 4

    def test_same_seed_same_rows(self, corpus_dir, ray_session, tmp_path):
        # an independently-built corpus with the same seed is row-identical
        from engine.synth import build_corpus
        import ray.data
        d2 = build_corpus(SF_DIR, str(tmp_path / "c2"), replicate=2,
                          partitions=4, seed=42)
        key = ["partition_id", "doc_id", "spans"]

        def norm(d):
            df = ray.data.read_parquet(d).to_pandas()
            df["spans"] = df["spans"].map(
                lambda sp: tuple((s["kind"], s["text"], s["media_ref"],
                                  s["offset"]) for s in sp))
            df["partition_id"] = df["partition_id"].astype(str)
            return df.sort_values(key).reset_index(drop=True)[key]

        assert norm(d2).equals(norm(corpus_dir))


class TestValidatePipeline:
    def test_violations_match_oracle(self, corpus_dir, ray_session):
        import ray.data
        from engine.dataset import DOC_SCHEMA_JSON, validate_dataset
        from engine.oracle import validate as oracle_validate
        from engine.rows import table_to_json_rows
        from engine.schema import parse_schema
        from engine.pointer import encode_pointer

        ds = ray.data.read_parquet(corpus_dir)
        viol = validate_dataset(ds, DOC_SCHEMA_JSON).to_pandas()
        assert set(viol.columns) == {
            "partition_id", "doc_id", "error_seq", "error_kind",
            "instance_path", "message", "context", "spans"}

        # oracle over the whole corpus (1000 docs), compare per-doc errors
        schema = parse_schema(DOC_SCHEMA_JSON)
        table = pq.read_table(corpus_dir).select(["doc_id", "spans"])
        expected = {}
        for inst in table_to_json_rows(table):
            errs = oracle_validate(schema, inst)
            if errs:
                key = inst.get("doc_id", "")
                expected.setdefault(key, []).extend(
                    [(e["kind"], encode_pointer(e["path"])) for e in errs])
        got = {}
        for _, r in viol.iterrows():
            got.setdefault(r["doc_id"], []).append(
                (r["error_kind"], r["instance_path"]))
        # hot doc id appears multiple times; compare as sorted multisets
        assert set(got.keys()) == set(expected.keys())
        for k in expected:
            assert sorted(got[k]) == sorted(expected[k]), k
        assert len(viol) > 0

        # a doc_id that occurs once names one document: its rows must be
        # the oracle's error stream, in order, with message and context
        once = {k for k, n in Counter(
            table.column("doc_id").to_pylist()).items() if n == 1}
        insts = {inst.get("doc_id", ""): inst
                 for inst in table_to_json_rows(table)
                 if inst.get("doc_id", "") in once}
        for with_message in (True, False):
            viol = validate_dataset(ds, DOC_SCHEMA_JSON,
                                    with_message=with_message).to_pandas()
            assert ("message" in viol.columns) == with_message
            got = {}
            for r in viol.sort_values("error_seq").itertuples():
                if r.doc_id in once:
                    got.setdefault(r.doc_id, []).append((
                        r.error_seq, r.error_kind, r.instance_path,
                        r.message if with_message else None,
                        json.loads(r.context)))
            want = {}
            for key, inst in insts.items():
                for seq, e in enumerate(oracle_validate(schema, inst)):
                    want.setdefault(key, []).append((
                        seq, e["kind"], encode_pointer(e["path"]),
                        E.render_message(e) if with_message else None,
                        {f: v for f, v in e.items()
                         if f not in ("kind", "path")}))
            assert len(want) > 100
            assert got == want

    def test_span_sequence_invariant(self, corpus_dir, ray_session):
        # Every violations row carries the source doc's exact span sequence
        # (kind, text, media_ref, order) — BASELINE.json per-row invariant.
        import ray.data
        from engine.dataset import validate_dataset

        ds = ray.data.read_parquet(corpus_dir)
        viol = validate_dataset(ds).to_pandas()
        src = pq.read_table(corpus_dir).to_pandas()
        uniq = src.drop_duplicates("doc_id", keep=False).set_index("doc_id")
        checked = 0
        for _, r in viol.iterrows():
            if r["doc_id"] in uniq.index:
                src_spans = uniq.loc[r["doc_id"], "spans"]
                got = [(s["kind"], s["text"], s["media_ref"]) for s in r["spans"]]
                exp = [(s["kind"], s["text"], s["media_ref"]) for s in src_spans]
                assert got == exp
                checked += 1
        assert checked > 10

    def test_partition_verdicts(self, corpus_dir, ray_session):
        import ray.data
        from engine.dataset import partition_verdicts

        from engine.dataset import validate_dataset

        ds = ray.data.read_parquet(corpus_dir)
        out = pa.concat_tables(ray.get(partition_verdicts(ds).to_arrow_refs()))
        assert out.schema == pa.schema([
            ("partition_id", pa.string()), ("docs", pa.int64()),
            ("violation_docs", pa.int64()), ("violations", pa.int64()),
            ("pass", pa.bool_()), ("checks_failed", pa.list_(pa.string()))])
        v = out.to_pandas().sort_values("partition_id")
        assert v["docs"].sum() == 1000
        # violation injection guarantees some failures
        assert (~v["pass"]).any()
        assert (v["violation_docs"] <= v["docs"]).all()

        # exact per-partition counts, derived from the violations output:
        # each violating doc row contributes exactly one error_seq == 0 row
        viol = validate_dataset(ds).to_pandas()
        viol["partition_id"] = viol["partition_id"].astype(str)
        src = pq.read_table(corpus_dir, columns=["partition_id"]).to_pandas()
        docs = src["partition_id"].astype(str).value_counts()
        for _, r in v.iterrows():
            pv = viol[viol["partition_id"] == r["partition_id"]]
            assert r["docs"] == docs[r["partition_id"]]
            assert r["violations"] == len(pv)
            assert r["violation_docs"] == int((pv["error_seq"] == 0).sum())
            assert r["pass"] == (len(pv) == 0)
            assert list(r["checks_failed"]) == (
                ["keyword_validation"] if len(pv) else [])
        assert sorted(v["partition_id"]) == sorted(docs.index)

    def test_json_column_dynamic_path(self, ray_session):
        import ray.data
        from engine.dataset import validate_json_column

        ds = ray.data.read_parquet(f"{SF_DIR}/events.parquet")
        # props look like {"k": <int>}; no violations for the lenient schema,
        # per-row violations when k must be a string
        lenient = validate_json_column(
            ds, json.dumps({"type": "object"}), column="props",
            key_column="event_id")
        assert lenient.count() == 0
        strict = validate_json_column(
            ds, json.dumps({"type": "object",
                            "properties": {"k": {"type": "string"}}}),
            column="props", key_column="event_id")
        df = strict.to_pandas()
        assert len(df) > 0
        assert (df["error_kind"] == "ExpectedString").all()
        assert (df["instance_path"] == "/k").all()


class TestMultiSchema:
    def test_one_pass_equals_per_schema_runs(self, ray_session):
        import ray.data
        from engine.dataset import validate_dataset, validate_dataset_multi

        ds = ray.data.read_parquet(f"{SF_DIR}/documents.parquet")
        s1 = ('{"type":"object","properties":'
              '{"n_chars":{"type":"integer","maximum":300}}}')
        s2 = ('{"type":"object","properties":'
              '{"lang":{"enum":["en","de"]}}}')
        multi = validate_dataset_multi(
            ds, {"strict_len": s1, "langs": s2}).to_pandas()
        for name, sj in (("strict_len", s1), ("langs", s2)):
            single = validate_dataset(
                ray.data.read_parquet(f"{SF_DIR}/documents.parquet"), sj,
                carry_columns=(), with_message=False).to_pandas()
            sub = multi[multi["schema_name"] == name].drop(
                columns=["schema_name"]).reset_index(drop=True)
            key = ["doc_id", "error_seq", "error_kind", "instance_path"]
            assert sorted(map(tuple, sub[key].values)) == \
                sorted(map(tuple, single[key].values))
        assert len(multi) > 0


class TestFastJsonColumnValidator:
    """The flat-schema fast path must be bit-identical to the row-wise
    oracle path on every input, including rows it routes to the fallback."""

    SCHEMA = ('{"type":"object","required":["k","s"],'
              '"properties":{'
              '"k":{"type":"integer","minimum":0,"maximum":50},'
              '"s":{"type":"string","minLength":1,"maxLength":5,'
              '"pattern":"^[a-z]+$"},'
              '"e":{"enum":["x","y",3]},'
              '"c":{"const":7},'
              '"f":{"type":"number","minimum":-1.5},'
              '"b":{"type":"boolean"},'
              '"nested":{"type":"object","required":["q"]}},'
              '"additionalProperties":false}')

    def _rows(self):
        import json as _json
        import random
        rng = random.Random(99)
        rows = []
        pool = [0, -3, 51, 7, 2.5, True, False, None, "ab", "ABC", "",
                "abcdef", [1, 2], {"q": 1}, {}, 9999999999999999999999]
        for i in range(400):
            inst = {}
            for name in ("k", "s", "e", "c", "f", "b", "nested", "zz"):
                if rng.random() < 0.7:
                    inst[name] = rng.choice(pool)
            rows.append(_json.dumps(inst))
        rows += [None, "not json{", "[]", '"str"', "3", "3.5", "true",
                 "null", '{"k": 1.0}', '{"k": true}',
                 '{"k": 0, "s": "ok"}']
        return rows

    def test_differential_vs_oracle(self, ray_session):
        import ray.data
        from engine.dataset import validate_json_column
        rows = self._rows()
        t = pa.table({"event_id": pa.array(range(len(rows)), pa.int64()),
                      "props": pa.array(rows, pa.string())})
        ds = ray.data.from_arrow(t)
        fast = validate_json_column(
            ds, self.SCHEMA, engine="auto").to_pandas()
        slow = validate_json_column(
            ds, self.SCHEMA, engine="oracle").to_pandas()
        cols = ["event_id", "error_seq", "error_kind", "instance_path",
                "message"]
        fast = fast[cols].sort_values(cols).reset_index(drop=True)
        slow = slow[cols].sort_values(cols).reset_index(drop=True)
        assert fast.equals(slow), (
            fast.compare(slow) if len(fast) == len(slow)
            else f"{len(fast)} vs {len(slow)} rows")

    def test_fast_path_taken_for_flat_schema(self):
        from engine.dataset import FastJsonColumnValidator
        v = FastJsonColumnValidator(self.SCHEMA, "props", "event_id")
        assert v._flat.ok
        assert v._flat.deep_props == {"nested"}

    def test_root_combinator_falls_back(self):
        from engine.dataset import FastJsonColumnValidator
        v = FastJsonColumnValidator(
            '{"anyOf":[{"type":"object"}]}', "props", "event_id")
        assert not v._flat.ok


class TestAutotune:
    def test_pure_read_guard(self, ray_session):
        import ray.data
        from engine.tuning import _is_pure_read, autotune_batch_size
        ds = ray.data.read_parquet(
            "/root/testdata/sf0.001/documents.parquet")
        assert _is_pure_read(ds)
        b = autotune_batch_size(ds)
        assert 1024 <= b <= 262144
        t = ds.map_batches(lambda x: x)
        # a transformed dataset must fall back WITHOUT executing
        assert not _is_pure_read(t)
        assert autotune_batch_size(t) == 8192

    def test_auto_batch_validate_same_rows(self, ray_session):
        import ray.data
        from engine.dataset import validate_dataset
        ds = ray.data.read_parquet(
            "/root/testdata/sf0.001/documents.parquet")
        fixed = validate_dataset(ds, batch_size=8192,
                                 with_message=False).count()
        auto = validate_dataset(ds, batch_size="auto",
                                with_message=False).count()
        assert fixed == auto

    def test_parallelism_cap_binds_on_narrow_corpus(self, ray_session,
                                                    tmp_path):
        """A narrow 100k-row corpus must not collapse into a handful of
        32 MB batches that starve the CPUs: the batch size is capped at
        n/(2*cpus) once that exceeds the 1024 floor."""
        import pyarrow.parquet as pq
        import ray
        import ray.data
        from engine.tuning import autotune_batch_size
        import pyarrow as pa
        n = 100_000
        pq.write_table(pa.table({"k": list(range(n))}),
                       str(tmp_path / "narrow_big.parquet"))
        b = autotune_batch_size(
            ray.data.read_parquet(str(tmp_path / "narrow_big.parquet")))
        cpus = int(ray.cluster_resources()["CPU"])
        assert 1024 <= b <= max(1024, n // (2 * cpus))

    def test_wide_rows_get_smaller_batches(self, ray_session, tmp_path):
        import pyarrow.parquet as pq
        import ray.data
        from engine.tuning import autotune_batch_size
        import pyarrow as pa
        wide = pa.table({"text": ["x" * 20000] * 200})
        narrow = pa.table({"k": list(range(200))})
        pq.write_table(wide, str(tmp_path / "wide.parquet"))
        pq.write_table(narrow, str(tmp_path / "narrow.parquet"))
        bw = autotune_batch_size(
            ray.data.read_parquet(str(tmp_path / "wide.parquet")))
        bn = autotune_batch_size(
            ray.data.read_parquet(str(tmp_path / "narrow.parquet")))
        assert bw < bn
