"""Ray Data wiring: streaming validation of a Dataset against a schema.

Pipeline shape (SURVEY.md §3.1 engine equivalent): the plan is compiled once
per actor (``ValidateBatch.__init__``), batches flow zero-copy as
``pyarrow.Table`` (``batch_format="pyarrow", zero_copy_batch=True``), and the
violations stream is itself a Dataset that can be written, aggregated or
joined without materializing the corpus. Nothing here calls ``ray.init``.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

import numpy as np
import pyarrow as pa

from engine import errors as E
from engine.compile import compile_plan
from engine.kernels import (FailCounts, _root_ctx, batch_records, eval_emit,
                            partition_codes)
from engine.pointer import encode_pointer
from engine.schema import parse_schema

#: FIXTURES.md §3 — the primary schema applied to the interleaved documents
#: table; exercises every keyword the reference validator implements.
DOC_SCHEMA_JSON = """
{
  "$schema": "https://json-schema.org/draft/2020-12/schema",
  "type": "object",
  "required": ["doc_id", "spans"],
  "properties": {
    "doc_id": { "type": "string", "minLength": 1, "maxLength": 64,
                "pattern": "^doc-[0-9a-f]+$" },
    "spans": {
      "type": "array", "minItems": 1, "maxItems": 16, "uniqueItems": true,
      "items": { "$ref": "#/$defs/Span" }
    }
  },
  "additionalProperties": false,
  "$defs": {
    "Span": {
      "type": "object",
      "required": ["kind", "offset"],
      "properties": {
        "kind":      { "enum": ["text", "image", "audio", "table"] },
        "text":      { "type": "string", "maxLength": 4096 },
        "media_ref": { "anyOf": [ { "const": "" },
                                  { "type": "string",
                                    "pattern": "^media://[0-9a-f]{16}$" } ] },
        "offset":    { "type": "integer", "minimum": 0, "maximum": 1000000 }
      },
      "additionalProperties": false
    }
  }
}
"""

_META_COLUMNS = ("partition_id",)


class ValidateBatch:
    """Stateful batch validator stage for ``map_batches``.

    The plan (with compiled regexes) is built ONCE on the driver in
    ``__init__`` and shipped with the stage — fixing the reference's
    per-call regex recompile (``validator/mod.rs:260``) without changing
    observable behavior.

    Output: one violations row per error — ``(partition_id?, <key>, error_seq,
    error_kind, instance_path, message, context, <carry columns>)`` — where
    the carried ``spans`` column preserves the source span sequence exactly
    (the BASELINE.json per-row invariant). The error columns come straight
    from the columnar record sink (``kernels.batch_records``): one sort per
    batch, pointers, context JSON and (``with_message`` only) messages
    rendered per keyword check, never one Python dict per error. The
    ``message`` column is omitted when ``with_message`` is False.
    """

    def __init__(self, schema_json: str = DOC_SCHEMA_JSON, *,
                 key_column: str = "doc_id",
                 carry_columns: Sequence[str] = ("spans",),
                 instance_columns: Optional[Sequence[str]] = None,
                 with_message: bool = True):
        self.plan = compile_plan(parse_schema(schema_json))
        self.key_column = key_column
        self.carry_columns = tuple(carry_columns)
        self.instance_columns = (tuple(instance_columns)
                                 if instance_columns is not None else None)
        self.with_message = with_message

    def __call__(self, batch: pa.Table) -> pa.Table:
        inst_cols = self.instance_columns
        if inst_cols is None:
            inst_cols = [c for c in batch.column_names
                         if c not in _META_COLUMNS]
        out = batch_records(self.plan, batch.select(list(inst_cols)),
                            self.with_message)
        take = pa.array(out.pop("row"))
        cols: dict = {}
        if "partition_id" in batch.column_names:
            cols["partition_id"] = batch.column("partition_id").take(take)
        cols[self.key_column] = batch.column(self.key_column).take(take)
        cols.update(out)
        for c in self.carry_columns:
            if c in batch.column_names and c != self.key_column:
                cols[c] = batch.column(c).take(take)
        return pa.table(cols)


def validate_dataset(ds, schema_json: str = DOC_SCHEMA_JSON, *,
                     key_column: str = "doc_id",
                     carry_columns: Sequence[str] = ("spans",),
                     instance_columns: Optional[Sequence[str]] = None,
                     batch_size=8192, concurrency=None,
                     with_message: bool = True):
    """``ds`` -> violations Dataset (streaming, zero-copy batches).

    ``batch_size="auto"`` derives the size from the input's observed
    bytes/row (engine/tuning.py — metadata-only, pure reads only), so wide
    documents get smaller batches and narrow ones larger.
    """
    if batch_size == "auto":
        from engine.tuning import autotune_batch_size
        batch_size = autotune_batch_size(ds)
    return ds.map_batches(
        ValidateBatch(schema_json, key_column=key_column,
                      carry_columns=carry_columns,
                      instance_columns=instance_columns,
                      with_message=with_message),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, concurrency=concurrency)


class MultiValidateBatch:
    """Validate every row against N schemas in ONE corpus pass (the
    dataset-level face of C1 batch compile): one plan per schema compiled
    up-front, violations tagged with ``schema_name``. One scan replaces N —
    the dominant cost at 100 TB is the read, not the predicate evaluation."""

    def __init__(self, schema_jsons: dict, *, key_column: str = "doc_id",
                 instance_columns: Optional[Sequence[str]] = None):
        self.stages = {
            name: ValidateBatch(sj, key_column=key_column,
                                carry_columns=(), with_message=False,
                                instance_columns=instance_columns)
            for name, sj in schema_jsons.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        parts = []
        for name, stage in self.stages.items():
            out = stage(batch)
            out = out.append_column(
                "schema_name", pa.array([name] * len(out), pa.string()))
            parts.append(out)
        return pa.concat_tables(parts)


def validate_dataset_multi(ds, schema_jsons: dict, *,
                           key_column: str = "doc_id",
                           instance_columns: Optional[Sequence[str]] = None,
                           batch_size: int = 8192, concurrency=None):
    """One streaming pass, N schemas -> tagged violations Dataset."""
    return ds.map_batches(
        MultiValidateBatch(schema_jsons, key_column=key_column,
                           instance_columns=instance_columns),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size, concurrency=concurrency)


class _DocVerdictBatch:
    """Per-batch partial aggregate: (partition_id, docs, violation_docs,
    violations) — combine inside map_batches, tiny groupby after
    (partial+final pattern; avoids shuffling the corpus). Per-row error
    counts come from the plan walk with a ``FailCounts`` sink, so no error
    record is built."""

    def __init__(self, schema_json: str = DOC_SCHEMA_JSON,
                 instance_columns: Optional[Sequence[str]] = None):
        self.plan = compile_plan(parse_schema(schema_json))
        self.instance_columns = (tuple(instance_columns)
                                 if instance_columns is not None else None)

    def __call__(self, batch: pa.Table) -> pa.Table:
        inst_cols = self.instance_columns
        if inst_cols is None:
            inst_cols = [c for c in batch.column_names
                         if c not in _META_COLUMNS]
        inst = batch.select(list(inst_cols))
        sink = FailCounts(inst.num_rows)
        eval_emit(self.plan, _root_ctx(inst), sink)
        uniq, codes = partition_codes(batch)

        def per_part(weights=None) -> pa.Array:
            return pa.array(np.bincount(codes, weights, len(uniq))
                            .astype(np.int64))

        return pa.Table.from_arrays(
            [pa.array(uniq, pa.string()), per_part(),
             per_part(sink.counts > 0), per_part(sink.counts)],
            schema=pa.schema([
                ("partition_id", pa.string()), ("docs", pa.int64()),
                ("violation_docs", pa.int64()), ("violations", pa.int64())]))


def partition_verdicts(ds, schema_json: str = DOC_SCHEMA_JSON, *,
                       instance_columns: Optional[Sequence[str]] = None,
                       batch_size: int = 8192, concurrency=None):
    """Per-partition pass/fail verdicts: partial counts per batch, merged
    by partition (:func:`engine.shuffle.combine`) over (partitions x
    batches) rows only, then the verdict columns
    (:func:`engine.shuffle.finish`) over one block — one row per
    partition, and no empty merge block left with another schema."""
    from engine.shuffle import combine, finish
    sums = combine(ds, "partition_id",
                   {c: (c, "sum") for c in
                    ("docs", "violation_docs", "violations")},
                   derive=_DocVerdictBatch(schema_json, instance_columns),
                   batch_size=batch_size, concurrency=concurrency)
    return finish(sums, _finalize_verdict, one_block=True)


def _finalize_verdict(batch: pa.Table) -> pa.Table:
    import pyarrow.compute as pc
    viol = batch.column("violations")
    checks_failed = pa.array(
        [["keyword_validation"] if v > 0 else []
         for v in viol.to_numpy(zero_copy_only=False)],
        pa.list_(pa.string()))
    return batch.select(["partition_id", "docs", "violation_docs",
                         "violations"]) \
        .append_column("pass", pc.equal(viol, 0)) \
        .append_column("checks_failed", checks_failed)


class JsonColumnValidator:
    """Dynamic-JSON fallback: validate a column of JSON *strings* (arbitrary,
    heterogeneous instances) with the row-wise oracle — the path for data the
    typed kernels cannot express (actor pool; compiled schema held per actor).
    """

    _flat: Optional["_FlatPlan"] = None  # None: every row goes to the oracle

    def __init__(self, schema_json: str, column: str, key_column: str):
        from engine.oracle import validate as oracle_validate
        self.schema = parse_schema(schema_json)
        self.column = column
        self.key_column = key_column
        self._validate = oracle_validate

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.column).to_pylist()
        keys = batch.column(self.key_column).to_pylist()
        o_key, o_seq, o_kind, o_path, o_msg = [], [], [], [], []
        flat = self._flat if self._flat is not None and self._flat.ok \
            else None
        for key, txt in zip(keys, texts):
            if txt is None:
                # absent instance is at least as severe as malformed JSON —
                # record it rather than silently passing the row
                o_key.append(key); o_seq.append(0)
                o_kind.append("MissingInstance"); o_path.append("")
                o_msg.append("instance column is null")
                continue
            try:
                inst = json.loads(txt)
            except json.JSONDecodeError:
                o_key.append(key); o_seq.append(0)
                o_kind.append("InvalidJson"); o_path.append("")
                o_msg.append("instance is not valid JSON")
                continue
            errs = flat.row_errors(inst) if flat is not None else None
            if errs is None:  # no flat plan, or the row needs the oracle
                errs = self._validate(self.schema, inst)
            for seq, err in enumerate(errs):
                o_key.append(key); o_seq.append(seq)
                o_kind.append(err["kind"])
                o_path.append(encode_pointer(err["path"]))
                o_msg.append(E.render_message(err))
        return pa.table({
            self.key_column: pa.array(
                o_key, batch.schema.field(self.key_column).type),
            "error_seq": pa.array(o_seq, pa.int32()),
            "error_kind": pa.array(o_kind, pa.string()),
            "instance_path": pa.array(o_path, pa.string()),
            "message": pa.array(o_msg, pa.string())})


class _FlatPlan:
    """Pre-resolved checks for a FLAT object schema — the dynamic-JSON fast
    path (``validate_json_column``). Covers root ``type: object`` with
    ``required`` / ``additionalProperties`` allow|forbid and properties whose
    sub-schemas are scalar (const / enum / string / integer / number /
    boolean with bounds, lengths, pattern). Anything deeper — nested
    objects/arrays, ``$ref``, combinators, AP-schema — routes the affected
    ROW to the row-wise oracle, so fast-path emission order is provably the
    oracle's order: required (list order) -> AP-forbid extras (lexicographic)
    -> per present property (lexicographic): const -> enum -> type arm
    (``validator/mod.rs:173-300`` emission semantics)."""

    SCALAR_TYPES = (type(None), bool, int, float, str)

    def __init__(self, schema):
        from engine.ecma import compile_ecma
        from engine.schema import AP_ALLOW, AP_FORBID, UNSET
        self.ok = (
            schema.ref is None and schema.const is UNSET
            and not schema.enum and schema.any_of is None
            and schema.one_of is None and not schema.all_of
            and schema.type == "object" and not schema.custom
            and (schema.additional_properties in (None, AP_ALLOW, AP_FORBID)))
        if not self.ok:
            return
        self.required = list(schema.required or ())
        self.forbid_extra = schema.additional_properties == AP_FORBID
        self.prop_names = frozenset(schema.properties)
        self.props = []      # (key, spec) in lexicographic order
        self.deep_props = set()  # present => row goes to the oracle
        for key, sub in schema.sorted_properties():
            deep = (
                sub.ref is not None or sub.any_of is not None
                or sub.one_of is not None or bool(sub.all_of)
                or sub.type in ("object", "array")
                or (sub.type is None and (sub.properties or sub.required))
                or sub.format == "uuid" or bool(sub.custom))
            if deep:
                self.deep_props.add(key)
                continue
            rx = None
            rx_invalid = False
            if sub.type == "string" and sub.pattern is not None:
                rx = compile_ecma(sub.pattern)
                rx_invalid = rx is None
            self.props.append((key, {
                "const": sub.const, "enum": sub.enum or None,
                "type": sub.type, "minimum": sub.minimum,
                "maximum": sub.maximum, "min_length": sub.min_length,
                "max_length": sub.max_length, "pattern": sub.pattern,
                "rx": rx, "rx_invalid": rx_invalid,
            }))
        self._unset = UNSET

    def row_errors(self, inst):
        """Errors for one parsed instance, or None => use the oracle."""
        if not isinstance(inst, dict):
            return [{"kind": E.EXPECTED_OBJECT, "path": (),
                     "got": E.json_type_name(inst)}]
        if self.deep_props and any(k in inst for k in self.deep_props):
            return None
        out = []
        for name in self.required:
            if name not in inst:
                out.append({"kind": E.MISSING_REQUIRED, "path": (name,),
                            "property": name})
        if self.forbid_extra:
            names = self.prop_names
            for key in sorted(k for k in inst if k not in names):
                out.append({"kind": E.DISALLOWED_ADDITIONAL_PROPERTY,
                            "path": (key,), "property": key})
        UNSET = self._unset
        for key, spec in self.props:
            if key not in inst:
                continue
            v = inst[key]
            path = (key,)
            if spec["const"] is not UNSET:
                if not E.json_equal(v, spec["const"]):
                    out.append({
                        "kind": E.NOT_CONST, "path": path,
                        "expected": E.canonical_json(spec["const"]),
                        "actual": E.canonical_json(v)})
                continue
            en = spec["enum"]
            if en is not None:
                if not any(E.json_equal(a, v) for a in en):
                    out.append({
                        "kind": E.NOT_IN_ENUM, "path": path,
                        "invalid_value": E.canonical_json(v),
                        "allowed": [E.canonical_json(a) for a in en]})
                continue
            t = spec["type"]
            if t == "string":
                if not isinstance(v, str):
                    out.append({"kind": E.EXPECTED_STRING, "path": path,
                                "got": E.json_type_name(v)})
                    continue
                n_cp = len(v)
                if spec["min_length"] is not None and \
                        n_cp < spec["min_length"]:
                    out.append({"kind": E.TOO_SHORT, "path": path,
                                "min_length": spec["min_length"],
                                "actual_length": n_cp})
                if spec["max_length"] is not None and \
                        n_cp > spec["max_length"]:
                    out.append({"kind": E.TOO_LONG, "path": path,
                                "max_length": spec["max_length"],
                                "actual_length": n_cp})
                if spec["pattern"] is not None:
                    if spec["rx_invalid"]:
                        out.append({"kind": E.INVALID_PATTERN_IN_SCHEMA,
                                    "path": path,
                                    "pattern": spec["pattern"]})
                    elif spec["rx"].search(v) is None:
                        out.append({"kind": E.PATTERN_MISMATCH, "path": path,
                                    "pattern": spec["pattern"], "value": v})
            elif t == "integer":
                from engine.oracle import _as_f64, _is_i64
                if not _is_i64(v):
                    out.append({"kind": E.EXPECTED_INTEGER, "path": path,
                                "got": E.json_type_name(v)})
                else:
                    self._bounds(spec, _as_f64(v), path, out)
            elif t == "number":
                from engine.oracle import _as_f64, _is_number
                if not _is_number(v):
                    out.append({"kind": E.EXPECTED_NUMBER, "path": path,
                                "got": E.json_type_name(v)})
                else:
                    self._bounds(spec, _as_f64(v), path, out)
            elif t == "boolean":
                if not isinstance(v, bool):
                    out.append({"kind": E.EXPECTED_BOOLEAN, "path": path,
                                "got": E.json_type_name(v)})
        return out

    @staticmethod
    def _bounds(spec, v: float, path, out) -> None:
        if spec["minimum"] is not None and v < spec["minimum"]:
            out.append({"kind": E.BELOW_MINIMUM, "path": path,
                        "minimum": spec["minimum"], "actual": v})
        if spec["maximum"] is not None and v > spec["maximum"]:
            out.append({"kind": E.ABOVE_MAXIMUM, "path": path,
                        "maximum": spec["maximum"], "actual": v})


class FastJsonColumnValidator(JsonColumnValidator):
    """Dynamic-JSON validation with the flat-schema fast path (~30x the
    row-wise oracle on flat payloads); rows the fast path cannot prove are
    validated by the inherited oracle, so outputs are bit-identical to
    ``JsonColumnValidator`` by construction (differential-tested in
    tests/test_dataset.py)."""

    def __init__(self, schema_json: str, column: str, key_column: str):
        super().__init__(schema_json, column, key_column)
        self._flat = _FlatPlan(self.schema)


def validate_json_column(ds, schema_json: str, *, column: str = "props",
                         key_column: str = "event_id",
                         batch_size: int = 4096, concurrency=None,
                         engine: str = "auto"):
    """Validate a column of JSON strings. ``engine="auto"`` uses the
    flat-schema fast path with per-row oracle fallback; ``engine="oracle"``
    forces the row-wise oracle for every row."""
    cls = JsonColumnValidator if engine == "oracle" else \
        FastJsonColumnValidator
    return ds.map_batches(
        cls(schema_json, column, key_column),
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency)
