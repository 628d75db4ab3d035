"""CLI: ``python -m engine.cli <verb>`` — mirrors the reference's
``jsonschemars validate|generate`` verbs (``cli/mod.rs:11-135``) plus the
corpus verbs the Ray engine adds. This module OWNS the Ray session (guarded);
library modules never init Ray.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray_init(num_cpus=None):
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, log_to_driver=False)


def cmd_validate_doc(args) -> int:
    """Single-document validation (reference ``validate`` verb parity):
    schema + JSON payload -> one line per error on stderr, exit 1 on invalid."""
    from engine.errors import render_message
    from engine.oracle import validate
    from engine.schema import SchemaParseError, parse_schema, parse_schema_path

    try:
        schema = (parse_schema(sys.stdin.read(), strict=args.strict)
                  if args.schema == "-" else
                  parse_schema_path(args.schema, strict=args.strict))
        payload = (json.load(sys.stdin) if args.payload == "-"
                   else json.load(open(args.payload)))
    except (OSError, SchemaParseError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    errs = validate(schema, payload)
    for e in errs:
        print(render_message(e), file=sys.stderr)
    if errs:
        print(f"validation failed with {len(errs)} error(s)", file=sys.stderr)
        return 1
    return 0


def cmd_synth(args) -> int:
    _ray_init(args.num_cpus)
    from engine.synth import build_corpus
    d = build_corpus(args.sf_dir, args.out, replicate=args.replicate,
                     partitions=args.partitions, seed=args.seed)
    print(d)
    return 0


def cmd_validate(args) -> int:
    """Corpus validation job with checkpoint/resume."""
    _ray_init(args.num_cpus)
    from engine.checkpoint import run_validation_job
    from engine.dataset import DOC_SCHEMA_JSON
    schema_json = (open(args.schema).read() if args.schema
                   else DOC_SCHEMA_JSON)
    summary = run_validation_job(
        args.input, args.out, schema_json=schema_json,
        catalog_path=args.catalog, max_units=args.max_units,
        baseline_exclude=args.baseline_exclude.split(",")
        if args.baseline_exclude else ())
    print(json.dumps(summary))
    return 0


def collect_schema_entries(inputs: list[str]) -> list[tuple[str, str]]:
    """Expand INPUTs (files, dirs, "-") into deduplicated
    (input_path, output_relative) pairs — reference ``cli/utils.rs:49-113``:
    recursive ``.json`` discovery with an explicit stack, dedup by canonical
    path, output name via path sanitization."""
    from engine.sanitizers import sanitize_path_component

    seen: set[str] = set()
    entries: list[tuple[str, str]] = []
    for inp in inputs:
        if inp == "-":
            entries.append(("-", "stdin_schema.json"))
            continue
        if os.path.isfile(inp):
            canonical = os.path.realpath(inp)
            if canonical not in seen:
                seen.add(canonical)
                stem = os.path.splitext(os.path.basename(inp))[0] or "schema"
                entries.append((canonical,
                                sanitize_path_component(stem) + ".json"))
        elif os.path.isdir(inp):
            root = os.path.realpath(inp)
            stack = [root]
            while stack:
                cur = stack.pop()
                for name in os.listdir(cur):
                    p = os.path.join(cur, name)
                    if os.path.isdir(p):
                        stack.append(p)
                    elif p.endswith(".json"):
                        canonical = os.path.realpath(p)
                        if canonical in seen:
                            continue
                        seen.add(canonical)
                        rel = os.path.relpath(p, root)
                        parts = rel.split(os.sep)
                        parts = [sanitize_path_component(x)
                                 for x in parts[:-1]] + [
                            sanitize_path_component(
                                os.path.splitext(parts[-1])[0]) + ".json"]
                        entries.append((canonical, os.path.join(*parts)))
        else:
            raise SystemExit(f"not a file or directory: {inp}")
    return entries


def cmd_compile(args) -> int:
    """Batch-compile schemas -> per-schema plan summaries + shared deduped
    shapes (the engine's "generate" verb; reference ``cli/generate.rs``:
    all-or-nothing ingestion, per-schema failure log, structural dedupe)."""
    from engine.schema import SchemaParseError, parse_schema
    from engine.schema_compiler import (dedupe_schemas, resolve_all_of,
                                        structural_key, target_arrow_schema,
                                        CodeGenError)

    entries = collect_schema_entries(args.inputs)
    schemas, failures = [], []
    for i, (path, rel) in enumerate(entries):
        try:
            src = sys.stdin.read() if path == "-" else open(path).read()
            schemas.append((rel, parse_schema(src, strict=args.strict)))
        except (SchemaParseError, OSError) as e:
            failures.append((i, path, str(e)))
    if failures:  # all-or-nothing: log every failure, write nothing
        for i, path, msg in failures:
            print(f"[{i}] {path}: {msg}", file=sys.stderr)
        print(f"compilation failed for {len(failures)} schema(s)",
              file=sys.stderr)
        return 1

    from engine.sanitizers import struct_name_from
    mode = args.cgs_dedupe_mode
    name_source = args.cgs_model_name_source
    assign, canonical = dedupe_schemas([s for _, s in schemas], mode)
    os.makedirs(args.out, exist_ok=True)
    shared = []
    for ci, cs in enumerate(canonical):
        shared.append({
            "shape_id": ci,
            "structural_key": (structural_key(cs, mode)
                               if mode != "disabled" else None)})
    with open(os.path.join(args.out, "shared.json"), "w") as f:
        json.dump({"shapes": shared, "dedupe_mode": mode,
                   "model_name_source": name_source}, f, indent=1)
    for (rel, schema), shape_id in zip(schemas, assign):
        try:
            resolved = resolve_all_of(schema)
            target = target_arrow_schema(resolved) \
                if (resolved.type == "object" or resolved.properties) else None
        except CodeGenError as e:
            target = None
            print(f"{rel}: {e}", file=sys.stderr)
        out_path = os.path.join(args.out, rel)
        os.makedirs(os.path.dirname(out_path) or args.out, exist_ok=True)
        models = {"": struct_name_from(schema.title, None, is_root=True,
                                       name_source=name_source)}
        for key, sub in schema.sorted_properties():
            if sub.type == "object" or sub.properties:
                models[key] = struct_name_from(sub.title, key,
                                               name_source=name_source)
        summary = {
            "shape_id": shape_id,
            "models": models,
            "target_arrow_schema": (
                [{"name": fld.name, "type": str(fld.type),
                  "nullable": fld.nullable} for fld in target]
                if target is not None else None),
        }
        with open(out_path, "w") as f:
            json.dump(summary, f, indent=1)
    print(f"compiled {len(schemas)} schema(s), "
          f"{len(canonical)} distinct shape(s) -> {args.out}")
    return 0


def cmd_stream_window(args) -> int:
    """One micro-batch of the watermark window operator: aggregate the
    input slice against the persistent window state, append the closed
    windows to --out, print a summary JSON line. Re-running with new input
    slices continues the stream; state commits are atomic renames."""
    _ray_init(args.num_cpus)
    import pyarrow.parquet as pq
    import ray.data
    from engine.streaming import process_micro_batch
    ds = ray.data.read_parquet(
        args.input, columns=[args.key_col, args.ts_col, args.value_col])
    closed, summary = process_micro_batch(
        ds, args.state, key_col=args.key_col, ts_col=args.ts_col,
        value_col=args.value_col, window=args.window,
        allowed_lateness=args.lateness)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        version = json.load(open(os.path.join(
            args.state, "meta.json")))["version"]
        # workers write the emission as a partitioned parquet directory
        closed.write_parquet(os.path.join(
            args.out, f"closed_v{version:06d}.parquet"))
    print(json.dumps(summary))
    return 0


def cmd_drift_batch(args) -> int:
    """Incremental drift: check one micro-batch against the persistent
    baseline sketch store (seeds it on first run), print verdicts +
    summary JSON."""
    _ray_init(args.num_cpus)
    import ray.data
    from engine.drift import drift_micro_batch
    ds = ray.data.read_parquet(args.input)
    numeric = tuple(args.numeric.split(",")) if args.numeric else ()
    categorical = tuple(args.categorical.split(","))         if args.categorical else ()
    verdicts, summary = drift_micro_batch(
        ds, args.state, numeric=numeric, categorical=categorical,
        update_baseline=args.update_baseline)
    for row in verdicts.to_pylist():
        print(json.dumps(row))
    print(json.dumps(summary))
    return 0


def cmd_stats(args) -> int:
    _ray_init(args.num_cpus)
    import ray.data
    from engine.stats import column_stats
    ds = ray.data.read_parquet(args.input)
    df = column_stats(ds).to_pandas()
    print(df.to_string())
    return 0


def cmd_stream_dedup(args) -> int:
    """One micro-batch of the streaming exact-dedup operator: emit the
    input slice's never-seen documents, update the persistent seen-state
    (Bloom + hash files, rename-committed), print a summary JSON line.
    --batch-id makes re-delivery exactly-once."""
    _ray_init(args.num_cpus)
    import pyarrow.parquet as pq
    import ray.data
    from engine.streaming import stream_dedup_micro_batch
    ds = ray.data.read_parquet(args.input,
                               columns=[args.key_col, args.text_col])
    kept, summary = stream_dedup_micro_batch(
        ds, args.state, text_col=args.text_col, key_col=args.key_col,
        batch_id=args.batch_id, expected_total=args.expected_total)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        # workers write the emission as a partitioned parquet directory
        kept.write_parquet(os.path.join(
            args.out, f"kept_v{summary['version']:06d}.parquet"))
    print(json.dumps(summary))
    return 0


def cmd_near_dup(args) -> int:
    """Near-dup resolution over a parquet corpus: writes cluster
    assignments and (optionally) the deduplicated survivor view as
    partitioned parquet."""
    _ray_init(args.num_cpus)
    import ray.data
    from engine.cluster import near_dup_clusters, resolve_near_duplicates
    ds = ray.data.read_parquet(args.input,
                               columns=[args.key_col, args.text_col])
    kw = dict(text_col=args.text_col, key_col=args.key_col,
              threshold=args.threshold,
              max_bucket_size=args.max_bucket_size or None)
    clusters = near_dup_clusters(ds, **kw)
    clusters.write_parquet(os.path.join(args.output, "clusters"))
    if args.survivors:
        full = ray.data.read_parquet(args.input)
        resolve_near_duplicates(full, **kw).write_parquet(
            os.path.join(args.output, "survivors"))
    n = ray.data.read_parquet(
        os.path.join(args.output, "clusters")).count()
    print(json.dumps({"clustered_docs": n, "output": args.output}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="engine")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate-doc", help="validate one JSON payload")
    p.add_argument("-s", "--schema", required=True)
    p.add_argument("-p", "--payload", default="-")
    p.add_argument("--strict", action="store_true",
                   help="disallow unknown schema fields")
    p.set_defaults(fn=cmd_validate_doc)

    p = sub.add_parser("synth", help="build the spans corpus")
    p.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    p.add_argument("--out", required=True)
    p.add_argument("--replicate", type=int, default=1)
    p.add_argument("--partitions", type=int, default=16)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--num-cpus", type=int, default=None)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("validate", help="checkpointed corpus validation job: "
                       "one pipeline reads each partition once, then the "
                       "global checks merge the committed artifacts")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--schema", default=None)
    p.add_argument("--catalog", default=None)
    p.add_argument("--max-units", type=int, default=None,
                   help="validate at most N pending partitions in this call "
                        "and skip the global checks (resume later)")
    p.add_argument("--baseline-exclude", default="")
    p.add_argument("--num-cpus", type=int, default=None)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("compile",
                       help="batch-compile schemas to plan artifacts")
    p.add_argument("inputs", nargs="+",
                   help="schema files, directories, or '-'")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--strict", "--jss-disallow-unknown-fields",
                   action="store_true", dest="strict",
                   help="JSON Schema Settings: reject schema definitions "
                        "with unknown keys (cli/mod.rs:38-43)")
    p.add_argument("--cgs-dedupe-mode",
                   choices=["disabled", "functional", "full"],
                   default="full",
                   help="Codegen Settings: dedupe identical object schemas "
                        "(default: full; cli/mod.rs:52-57)")
    p.add_argument("--cgs-model-name-source",
                   choices=["title-first", "property-key"],
                   default="title-first",
                   help="Codegen Settings: primary source for model names "
                        "(default: title-first; cli/mod.rs:45-51)")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("stream-window",
                       help="micro-batch windowed aggregation with "
                            "watermarks (resumable state)")
    p.add_argument("--input", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--window", default="1h")
    p.add_argument("--lateness", default="30m")
    p.add_argument("--key-col", default="user_id")
    p.add_argument("--ts-col", default="ts")
    p.add_argument("--value-col", default="value")
    p.add_argument("--num-cpus", type=int, default=None)
    p.set_defaults(fn=cmd_stream_window)

    p = sub.add_parser("drift-batch",
                       help="incremental drift of one micro-batch vs the "
                            "persistent baseline sketch store")
    p.add_argument("--input", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--numeric", default="n_chars")
    p.add_argument("--categorical", default="lang")
    p.add_argument("--update-baseline", default="if_clean",
                   choices=["if_clean", "always", "never"])
    p.add_argument("--num-cpus", type=int, default=None)
    p.set_defaults(fn=cmd_drift_batch)

    p = sub.add_parser("stream-dedup",
                       help="streaming exact dedup micro-batch")
    p.add_argument("--input", required=True, help="parquet path/dir")
    p.add_argument("--state", required=True, help="state directory")
    p.add_argument("--out", default=None,
                   help="append kept docs here as kept_v{N}.parquet")
    p.add_argument("--text-col", default="text")
    p.add_argument("--key-col", default="doc_id")
    p.add_argument("--batch-id", default=None)
    p.add_argument("--expected-total", type=int, default=1_000_000)
    p.add_argument("--num-cpus", type=int, default=None)
    p.set_defaults(fn=cmd_stream_dedup)

    p = sub.add_parser("near-dup",
                       help="near-duplicate clusters + survivor view")
    p.add_argument("--input", required=True, help="parquet path/dir")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--text-col", default="text")
    p.add_argument("--key-col", default="doc_id")
    p.add_argument("--threshold", type=float, default=0.6)
    p.add_argument("--max-bucket-size", type=int, default=256,
                   help="drop flood shingles above this many docs "
                        "(default: 256; 0 = uncapped, oracle parity only)")
    p.add_argument("--survivors", action="store_true",
                   help="also write the deduplicated survivor view")
    p.add_argument("--num-cpus", type=int, default=None)
    p.set_defaults(fn=cmd_near_dup)

    p = sub.add_parser("stats", help="per-column stats")
    p.add_argument("--input", required=True)
    p.add_argument("--num-cpus", type=int, default=None)
    p.set_defaults(fn=cmd_stats)

    args = ap.parse_args(argv)
    rc = args.fn(args)
    import ray
    if ray.is_initialized():
        ray.shutdown()
    return rc


if __name__ == "__main__":
    sys.exit(main())
