"""Sanitizer parity (sanitizers.rs golden cases), uuid feature flag, and the
compile CLI verb (discovery + all-or-nothing + dedupe artifacts)."""

import json
import os
import subprocess
import sys

import pyarrow as pa
import pytest

from engine import sanitizers as sz
from proc_group import REPO, run_group


class TestSanitizers:
    def test_field_name(self):  # sanitizers.rs tests :302-326
        assert sz.sanitize_field_name("foo-bar") == "foo_bar"
        assert sz.sanitize_field_name("first_name") == "first_name"
        assert sz.sanitize_field_name("toddGriffin") == "todd_griffin"
        assert sz.sanitize_field_name("HTTPResponse") == "http_response"
        assert sz.sanitize_field_name("") == "empty"
        assert sz.sanitize_field_name("3d") == "field_3d"
        assert sz.sanitize_field_name("_") == "empty"
        assert sz.sanitize_field_name("type") == "type_"

    def test_pascal_case(self):  # sanitizers.rs tests :329-417
        assert sz.to_pascal_case("address") == "Address"
        assert sz.to_pascal_case("street_address") == "StreetAddress"
        assert sz.to_pascal_case("") == "Unnamed"
        assert sz.to_pascal_case("123") == "N123"
        assert sz.to_pascal_case("foo__bar") == "FooBar"
        assert sz.to_pascal_case("foo--bar") == "FooBar"
        assert sz.to_pascal_case("foo  bar") == "FooBar"
        assert sz.to_pascal_case("street - address") == "StreetAddress"
        assert sz.to_pascal_case("a") == "A"
        assert sz.to_pascal_case("Address") == "Address"
        assert sz.to_pascal_case("  __ --  ") == "Unnamed"
        assert sz.to_pascal_case("my_schema_type") == "MySchemaType"
        assert sz.to_pascal_case("café") == "Caf"

    def test_enum_variants(self):  # sanitizers.rs tests :420-438
        assert sz.enum_variant_name_from_value("open") == "Open"
        assert sz.enum_variant_name_from_value("123") == "E123"
        assert sz.enum_variant_name_from_value("self") == "ESelf"
        pairs = sz.enum_variant_names_with_collision_resolution(
            ["a", "A", "b"])
        assert pairs == [("a", "A0"), ("A", "A1"), ("b", "B")]

    def test_module_and_path(self):
        assert sz.sanitize_module_name("my-schema.v2") == "my_schema_v2"
        assert sz.sanitize_module_name("crate") == "crate_mod"
        assert sz.sanitize_module_name("9lives") == "schema_9lives"
        assert sz.sanitize_path_component("sub-dir") == "sub_dir"
        assert sz.sanitize_path_component("") == "schema"
        # reference sanitize_module_name does not lowercase
        assert sz.module_name_from_path("/a/b/My-File.json") == "My_File"


class TestUuidFlag:
    def test_default_off(self):
        from engine.oracle import validate
        from engine.schema import parse_schema
        s = parse_schema('{"type":"string","format":"uuid"}')
        assert validate(s, "not-a-uuid") == []  # feature off by default

    def test_enabled_oracle_and_kernels(self, monkeypatch):
        from engine import config
        monkeypatch.setattr(config, "UUID_FORMAT", True)
        from engine.compile import compile_plan
        from engine.kernels import validate_batch
        from engine.oracle import validate
        from engine.schema import parse_schema

        s = parse_schema('{"type":"object","properties":'
                         '{"u":{"type":"string","format":"uuid"}}}')
        good = "550e8400-e29b-41d4-a716-446655440000"
        t = pa.table({"u": pa.array([
            good, good.replace("-", ""), good.upper(),
            f"urn:uuid:{good}", "{%s}" % good, "not-a-uuid", None])})
        plan = compile_plan(s)
        errs = validate_batch(plan, t)
        assert [(d, e["kind"], e["value"]) for d, _, e in errs] == [
            (5, "InvalidUuidFormat", "not-a-uuid")]
        # oracle agrees
        from engine.rows import table_to_json_rows
        for r, inst in enumerate(table_to_json_rows(t)):
            oerrs = validate(s, inst)
            assert bool(oerrs) == (r == 5)


class TestCompileVerb:
    def test_discovery_dedupe_and_artifacts(self, tmp_path):
        d = tmp_path / "schemas" / "sub-dir"
        d.mkdir(parents=True)
        (tmp_path / "schemas" / "a.json").write_text(
            '{"type":"object","properties":{"x":{"type":"string"}}}')
        (d / "b-2.json").write_text(
            '{"type":"object","properties":{"x":{"type":"string"}}}')
        (d / "c.json").write_text(
            '{"type":"object","required":["n"],"properties":'
            '{"n":{"type":"integer","minimum":0,"maximum":255}}}')
        out = tmp_path / "out"
        r = subprocess.run(
            [sys.executable, "-m", "engine.cli", "compile",
             str(tmp_path / "schemas"),
             str(tmp_path / "schemas" / "a.json"),  # duplicate input
             "-o", str(out)],
            capture_output=True, text=True, cwd=REPO)
        assert r.returncode == 0, r.stderr
        assert "3 schema(s), 2 distinct shape(s)" in r.stdout
        shared = json.loads((out / "shared.json").read_text())
        assert len(shared["shapes"]) == 2
        c = json.loads((out / "sub_dir" / "c.json").read_text())
        assert c["target_arrow_schema"] == [
            {"name": "n", "type": "uint8", "nullable": False}]

    def test_all_or_nothing(self, tmp_path):
        (tmp_path / "good.json").write_text('{"type":"string"}')
        (tmp_path / "bad.json").write_text('{"minLength": -1}')
        out = tmp_path / "out"
        r = subprocess.run(
            [sys.executable, "-m", "engine.cli", "compile",
             str(tmp_path / "good.json"), str(tmp_path / "bad.json"),
             "-o", str(out)],
            capture_output=True, text=True, cwd=REPO)
        assert r.returncode == 1
        assert "bad.json" in r.stderr
        assert not out.exists()  # nothing written on failure


class TestStatsVerb:
    def test_cli_stats(self, tmp_path):
        r = run_group(
            [sys.executable, "-m", "engine.cli", "stats",
             "--input", "/root/testdata/sf0.001/documents.parquet",
             "--num-cpus", "4"],
            cwd=REPO, timeout=180)
        assert r.returncode == 0, r.stderr[-400:]
        assert "doc_id" in r.stdout and "null_rate" in r.stdout


class TestCliRobustness:
    def test_missing_schema_file(self):
        r = subprocess.run(
            [sys.executable, "-m", "engine.cli", "validate-doc",
             "-s", "/nonexistent/s.json", "-p", "/dev/null"],
            capture_output=True, text=True, cwd=REPO)
        assert r.returncode != 0

    def test_stdin_schema(self, tmp_path):
        payload = tmp_path / "p.json"
        payload.write_text("3")
        r = subprocess.run(
            [sys.executable, "-m", "engine.cli", "validate-doc",
             "-s", "-", "-p", str(payload)],
            input='{"type":"integer"}', capture_output=True, text=True,
            cwd=REPO)
        assert r.returncode == 0, r.stderr
        payload.write_text('"nope"')
        r = subprocess.run(
            [sys.executable, "-m", "engine.cli", "validate-doc",
             "-s", "-", "-p", str(payload)],
            input='{"type":"integer"}', capture_output=True, text=True,
            cwd=REPO)
        assert r.returncode == 1
        assert "expected integer, got string" in r.stderr

    def test_compile_missing_input(self):
        r = subprocess.run(
            [sys.executable, "-m", "engine.cli", "compile",
             "/nonexistent/dir", "-o", "/tmp/x"],
            capture_output=True, text=True, cwd=REPO)
        assert r.returncode != 0
        assert "not a file or directory" in (r.stderr + r.stdout)


class TestNearDupVerb:
    def test_cli_near_dup(self, tmp_path):
        import json as _json
        import pyarrow.parquet as pq
        out = tmp_path / "nd"
        r = run_group(
            [sys.executable, "-m", "engine.cli", "near-dup",
             "--input", "/root/testdata/sf0.001/documents.parquet",
             "--output", str(out), "--survivors", "--num-cpus", "4"],
            cwd=REPO, timeout=300)
        assert r.returncode == 0, r.stderr[-400:]
        info = _json.loads(r.stdout.strip().splitlines()[-1])
        assert info["clustered_docs"] > 0
        c = pq.read_table(str(out / "clusters")).to_pandas()
        s = pq.read_table(str(out / "survivors"))
        losers = set(c[c["node"] != c["cluster_id"]]["node"])
        assert losers and losers.isdisjoint(
            set(s.column("doc_id").to_pylist()))


class TestStreamDedupVerb:
    def test_cli_stream_dedup_two_batches(self, tmp_path):
        import json as _json
        args = [sys.executable, "-m", "engine.cli", "stream-dedup",
                "--input", "/root/testdata/sf0.001/documents.parquet",
                "--state", str(tmp_path / "state"),
                "--out", str(tmp_path / "kept"), "--num-cpus", "4"]
        r1 = run_group(args + ["--batch-id", "b0"], cwd=REPO, timeout=300)
        assert r1.returncode == 0, r1.stderr[-400:]
        s1 = _json.loads(r1.stdout.strip().splitlines()[-1])
        assert s1["batch_docs_kept"] > 0
        r2 = run_group(args + ["--batch-id", "b1"], cwd=REPO, timeout=300)
        s2 = _json.loads(r2.stdout.strip().splitlines()[-1])
        assert s2["batch_docs_kept"] == 0  # same content: all seen
        assert s2["bloom_hits"] == s1["batch_docs_kept"]
