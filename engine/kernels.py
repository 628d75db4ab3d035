"""Vectorized per-batch evaluation of a compiled plan over Arrow data.

Semantics parity: ``engine/oracle.py`` (itself a faithful re-expression of
reference ``json_schema_rs/src/validator/mod.rs:53-450``). The oracle walks
one document; these kernels walk ONE PLAN NODE FOR ALL ROWS AT ONCE using
``pyarrow.compute`` / numpy masks, then reproduce the oracle's exact DFS
emission order by sorting each document's sparse error records by a rank key
assembled during traversal:

* a node's own checks contribute ``(0, check_ordinal)`` (keyword order);
* child subtrees contribute ``(child_ordinal,)`` with ordinals assigned in the
  reference's stack-pop order (object: additionalProperties-schema extras in
  reverse key order BEFORE named properties in lexicographic order,
  ``validator/mod.rs:192-228``; arrays: ``(1, element_index)``, ``:398-407``);

so lexicographic comparison of rank tuples == reference emission order.

JSON <-> Arrow mapping (documented contract, used identically by
``engine.rows.table_to_json_rows`` when diffing against the oracle):

* table row == JSON object; column / struct-field NULL == absent key;
* list-element NULL == JSON ``null`` value (present);
* int-typed columns are integer-kind numbers, float-typed columns are
  float-kind numbers (so ``type: "integer"`` fails a float64 column — the
  reference's ``1.0`` semantics, ``validator/mod.rs:291-297``).

One plan walker, :func:`eval_emit`, hands every keyword check's failing-slot
mask to a sink with ``emit(ctx, ordinal, fail, kind, const_ctx, ctx_fn,
extra_seg)``. There are two sinks:

* :class:`Records`, the columnar error records (the violations rows). Each
  ``emit`` appends one group of arrays: the failing slots' batch rows, their
  rank columns, path segments (names, index arrays) and context columns.
  ``ctx_fn`` takes the index array of every failing slot and returns
  ``{key: column}``. ``build`` sorts all records with one ``np.lexsort``
  over (batch row, rank), numbers them per document, and renders pointers,
  context JSON and (on request) messages once per group, never one Python
  dict per error. :func:`validate_batch` is the record-dict view of it.
* :class:`FailCounts` only counts failures per batch row. It backs
  :func:`eval_valid`, the anyOf/oneOf branch check whose sub-errors the
  reference discards (``validator/mod.rs:109-163``), and per-row verdicts.
  It never calls ``ctx_fn``, so no error context is materialized.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from engine import errors as E
from engine.compile import Plan
from engine.pointer import encode_segment, parse_pointer
from engine.schema import AP_FORBID, UNSET

I64_MAX = 2**63 - 1

# ---------------------------------------------------------------------------
# Arrow type classification


def _decode(val: pa.Array) -> pa.Array:
    if isinstance(val, pa.ChunkedArray):
        val = val.combine_chunks()
    if pa.types.is_dictionary(val.type):
        val = val.dictionary_decode()
    return val


def _is_string_t(t: pa.DataType) -> bool:
    return pa.types.is_string(t) or pa.types.is_large_string(t)


def _is_int_t(t: pa.DataType) -> bool:
    return pa.types.is_integer(t)


def _is_float_t(t: pa.DataType) -> bool:
    return pa.types.is_floating(t)


def _is_list_t(t: pa.DataType) -> bool:
    return (pa.types.is_list(t) or pa.types.is_large_list(t)
            or pa.types.is_fixed_size_list(t))


def arrow_json_kind(t: pa.DataType) -> str:
    """JSON type name a value of this Arrow type maps to (for "got")."""
    if _is_string_t(t):
        return "string"
    if pa.types.is_boolean(t):
        return "boolean"
    if _is_int_t(t) or _is_float_t(t):
        return "number"
    if pa.types.is_struct(t):
        return "object"
    if _is_list_t(t):
        return "array"
    if pa.types.is_null(t):
        return "null"
    raise TypeError(
        f"Arrow type {t} has no JSON mapping; validate it via the dynamic "
        f"JSON path (engine.dataset.validate_json_column) instead")


def _np_bool(mask) -> np.ndarray:
    if isinstance(mask, np.ndarray):
        return mask
    return np.asarray(mask.to_numpy(zero_copy_only=False), dtype=bool)


def _valid_mask(val: pa.Array) -> np.ndarray:
    if val.null_count == 0:
        return np.ones(len(val), dtype=bool)
    return _np_bool(pc.is_valid(val))


def partition_codes(batch: pa.Table) -> tuple[list, np.ndarray]:
    """(partition ids, each row's index into them) of a batch, from the
    dictionary codes of ``partition_id``; a batch without that column is
    the one partition ``"all"``."""
    if "partition_id" not in batch.column_names:
        return ["all"], np.zeros(len(batch), dtype=np.int64)
    enc = pc.dictionary_encode(_decode(batch.column("partition_id")))
    return (enc.dictionary.to_pylist(),
            enc.indices.to_numpy(zero_copy_only=False))


# ---------------------------------------------------------------------------
# Evaluation context + sinks


class Ctx:
    """Per-node evaluation state: the value array for every slot at this tree
    position, which slots are present, which batch row each slot belongs to,
    and the per-slot path / rank prefixes."""

    __slots__ = ("val", "present", "docrow", "segs", "rank")

    def __init__(self, val, present, docrow, segs, rank):
        self.val = val          # pa.Array (decoded, combined)
        self.present = present  # np.bool_[n] — slot carries a value
        self.docrow = docrow    # np.int64[n] — slot -> batch row
        self.segs = segs        # tuple of ("lit", str) | ("idx", np.int64[n])
        self.rank = rank        # tuple of int | np.int64[n]

    def child(self, val, present, lit: str, child_ord: int) -> "Ctx":
        return Ctx(val, present, self.docrow,
                   self.segs + (("lit", lit),), self.rank + (child_ord,))


class Records:
    """Columnar error-record sink. ``emit`` appends one group of arrays per
    keyword check (failing batch rows, rank columns, path segments, context
    columns); ``build`` sorts every record per document by rank (==
    reference emission order) and renders the output columns per group."""

    def __init__(self):
        self.groups: list[tuple] = []

    def emit(self, ctx: Ctx, ordinal: int, fail: np.ndarray, kind: str,
             const_ctx: Optional[dict] = None,
             ctx_fn: Optional[Callable[[np.ndarray], dict]] = None,
             extra_seg: Optional[str] = None) -> None:
        idx = np.nonzero(fail)[0]
        if idx.size == 0:
            return
        rank = np.column_stack([
            r[idx] if isinstance(r, np.ndarray) else np.full(idx.size, r)
            for r in ctx.rank + (0, ordinal)])
        segs = tuple(s[1] if s[0] == "lit" else s[1][idx] for s in ctx.segs)
        if extra_seg is not None:
            segs += (extra_seg,)
        self.groups.append((ctx.docrow[idx], rank, kind, segs,
                            const_ctx or {}, ctx_fn(idx) if ctx_fn else {}))

    def build(self, with_message: bool = False) -> dict:
        """Output columns sorted by (batch row, rank): ``row`` (numpy),
        ``error_seq``, ``error_kind``, ``instance_path``, ``message`` (only
        ``with_message``) and ``context`` (JSON of the context fields)."""
        groups = self.groups
        doc = np.concatenate([np.zeros(0, np.int64)] + [g[0] for g in groups])
        depth = max((g[1].shape[1] for g in groups), default=0)
        # pad with -1 so a shorter rank sorts first, as a tuple prefix does
        rank = np.concatenate([np.zeros((0, depth), np.int64)] + [
            np.pad(g[1], ((0, 0), (0, depth - g[1].shape[1])),
                   constant_values=-1) for g in groups])
        order = np.lexsort(np.vstack([rank[:, ::-1].T, doc[None]]))
        doc = doc[order]
        pos = np.arange(len(doc))
        run_start = np.where(np.diff(doc, prepend=-1) != 0, pos, 0)
        seq = pos - np.maximum.accumulate(run_start)
        parts: dict = {"error_kind": [], "instance_path": [], "context": []}
        if with_message:
            parts["message"] = []
        for _, r, kind, segs, const, cols in groups:
            n = len(r)
            ptr = _join(n, *_pointer_pieces(segs))
            fields = {**const, **cols}
            parts["error_kind"].append(pa.repeat(pa.scalar(kind), n))
            parts["instance_path"].append(ptr)
            parts["context"].append(_join(n, *_context_pieces(fields, cols)))
            if with_message:
                parts["message"].append(_join(
                    n, ptr if segs else "root", ": ",
                    *_message_pieces(kind, fields, cols)))
        out = {"row": doc, "error_seq": pa.array(seq.astype(np.int32))}
        for name in ("error_kind", "instance_path", "message", "context"):
            if name in parts:
                out[name] = pa.chunked_array(parts[name], pa.string()).take(
                    order)
        return out


class FailCounts:
    """Sink counting failures per batch row: ``counts[r]`` == the number of
    records :class:`Records` would build for row ``r``. Never calls
    ``ctx_fn``, so no error context is materialized."""

    def __init__(self, n: int):
        self.counts = np.zeros(n, dtype=np.int64)

    def emit(self, ctx: Ctx, ordinal: int, fail: np.ndarray, kind: str,
             const_ctx: Optional[dict] = None,
             ctx_fn: Optional[Callable[[int], dict]] = None,
             extra_seg: Optional[str] = None) -> None:
        np.add.at(self.counts, ctx.docrow[fail], 1)


_JSON = json.JSONEncoder(default=str).encode  # == json.dumps(v, default=str)


def _values(col) -> list:
    return col.tolist() if isinstance(col, np.ndarray) else col


def _join(n: int, *pieces) -> pa.Array:
    """Element-wise concatenation of string scalars and n-row string arrays."""
    out = pc.binary_join_element_wise(*pieces, "")
    return out if isinstance(out, pa.Array) else pa.repeat(out, n)


def _pointer_pieces(segs: tuple) -> list:
    """RFC 6901 pointer of one record group: ``"/<encoded name>"`` literals
    and array-index columns."""
    pieces = [""]
    for s in segs:
        if isinstance(s, str):
            pieces.append("/" + encode_segment(s))
        else:
            pieces += ["/", pc.cast(pa.array(s), pa.string())]
    return pieces


def _context_pieces(fields: dict, cols: dict) -> list:
    """``json.dumps(fields, default=str)`` of one record group: constants
    render once, the ``cols`` fields per record."""
    pieces = ["{"]
    for j, (key, v) in enumerate(fields.items()):
        pieces += [(", " if j else "") + _JSON(key) + ": ",
                   pa.array(list(map(_JSON, _values(v))), pa.string())
                   if key in cols else _JSON(v)]
    return pieces + ["}"]


def _message_pieces(kind: str, fields: dict, cols: dict) -> list:
    """``E.render_message`` text after the location, for one record group."""
    pieces = []
    for lit, field, spec in E.message_template(kind, fields):
        pieces.append(lit)
        if field in cols:
            pieces.append(pa.array([E.display(v, spec)
                                    for v in _values(cols[field])],
                                   pa.string()))
        elif field is not None:
            pieces.append(E.display(fields[field], spec))
    return pieces


# ---------------------------------------------------------------------------
# const / enum masks (serde Value equality: int and float are distinct kinds)


def _scalar_eq_mask(cv: Any, val: pa.Array, isnull: np.ndarray) -> np.ndarray:
    t = val.type
    n = len(val)
    if cv is None:
        return isnull.copy()
    if isinstance(cv, bool):
        if pa.types.is_boolean(t):
            return _np_bool(pc.fill_null(pc.equal(val, cv), False))
        return np.zeros(n, dtype=bool)
    if isinstance(cv, int):
        if _is_int_t(t):
            if pa.types.is_uint64(t):
                if not (0 <= cv <= 2**64 - 1):
                    return np.zeros(n, dtype=bool)
                return _np_bool(pc.fill_null(
                    pc.equal(val, pa.scalar(cv, pa.uint64())), False))
            if not (-(2**63) <= cv <= 2**63 - 1):
                return np.zeros(n, dtype=bool)
            return _np_bool(pc.fill_null(
                pc.equal(pc.cast(val, pa.int64()),
                         pa.scalar(cv, pa.int64())), False))
        return np.zeros(n, dtype=bool)
    if isinstance(cv, float):
        if _is_float_t(t):
            return _np_bool(pc.fill_null(pc.equal(val, pa.scalar(cv)), False))
        return np.zeros(n, dtype=bool)
    if isinstance(cv, str):
        if _is_string_t(t):
            return _np_bool(pc.fill_null(pc.equal(val, cv), False))
        return np.zeros(n, dtype=bool)
    # Composite const (object/array): rare — sparse per-slot python compare.
    out = np.zeros(n, dtype=bool)
    kind_ok = (pa.types.is_struct(t) and isinstance(cv, dict)) or \
              (_is_list_t(t) and isinstance(cv, list))
    if kind_ok:
        valid_idx = np.nonzero(_valid_mask(val))[0]
        sub = val.take(pa.array(valid_idx)).to_pylist()
        for i, v in zip(valid_idx.tolist(), sub):
            out[i] = E.json_equal(_strip_absent(v), cv)
    return out


def _strip_absent(v: Any) -> Any:
    """Apply the null==absent-key mapping to an as_py()-converted value."""
    if isinstance(v, dict):
        return {k: _strip_absent(x) for k, x in v.items() if x is not None}
    if isinstance(v, list):
        return [None if x is None else _strip_absent(x) for x in v]
    return v


def _enum_mask(members: list, val: pa.Array, isnull: np.ndarray) -> np.ndarray:
    t = val.type
    n = len(val)
    ok = np.zeros(n, dtype=bool)
    scalar_members: list = []
    composite_members: list = []
    for m in members:
        if m is None:
            ok |= isnull
        elif isinstance(m, (dict, list)):
            composite_members.append(m)
        else:
            scalar_members.append(m)
    matching = []
    for m in scalar_members:
        if isinstance(m, bool):
            if pa.types.is_boolean(t):
                matching.append(m)
        elif isinstance(m, int):
            if _is_int_t(t):
                matching.append(m)
        elif isinstance(m, float):
            if _is_float_t(t):
                matching.append(m)
        elif isinstance(m, str):
            if _is_string_t(t):
                matching.append(m)
    if matching:
        cmp_val = val
        if _is_string_t(t):
            vs = pa.array(matching, type=t)
        elif pa.types.is_boolean(t):
            vs = pa.array(matching, type=pa.bool_())
        elif pa.types.is_uint64(t):
            vs = pa.array([m for m in matching if 0 <= m <= 2**64 - 1],
                          type=pa.uint64())
        elif _is_int_t(t):
            cmp_val = pc.cast(val, pa.int64())
            vs = pa.array([m for m in matching
                           if -(2**63) <= m <= 2**63 - 1], type=pa.int64())
        else:  # float
            cmp_val = pc.cast(val, pa.float64())
            vs = pa.array(matching, type=pa.float64())
        if len(vs):
            ok |= _np_bool(pc.fill_null(pc.is_in(cmp_val, value_set=vs), False))
    if composite_members and (pa.types.is_struct(t) or _is_list_t(t)):
        valid_idx = np.nonzero(_valid_mask(val))[0]
        sub = val.take(pa.array(valid_idx)).to_pylist()
        for i, raw in zip(valid_idx.tolist(), sub):
            v = _strip_absent(raw)
            if any(E.json_equal(v, m) for m in composite_members):
                ok[i] = True
    return ok


def _canon(vals: pa.Array) -> list[str]:
    """``canonical_json`` of each value (NULL -> ``"null"``)."""
    return list(map(E.canonical_json, map(_strip_absent, vals.to_pylist())))


# ---------------------------------------------------------------------------
# list flattening


def _list_offsets(val: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    t = val.type
    if pa.types.is_fixed_size_list(t):
        w = t.list_size
        # offsets are absolute into .values (full child buffer): account for
        # a sliced array's offset
        offs = (np.arange(len(val) + 1, dtype=np.int64) + val.offset) * w
        return offs[:-1], offs[1:]
    offs = val.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    return offs[:-1], offs[1:]


def _flatten(val: pa.Array, active: np.ndarray):
    """Elements of the active list slots.

    Returns (elem_val, parent_slot_idx, elem_idx) — zero-copy slice of the
    child array when every slot is active and contiguous, gather otherwise.
    """
    n = len(val)
    start, end = _list_offsets(val)
    counts_all = end - start
    counts = np.where(active, counts_all, 0)
    total = int(counts.sum())
    parent = np.repeat(np.arange(n, dtype=np.int64), counts)
    cum = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=cum[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(cum, counts)
    values = val.values  # full child buffer; offsets index into it absolutely
    if bool(np.all(active)) and total == (int(end[-1] - start[0]) if n else 0):
        elem_val = values.slice(int(start[0]) if n else 0, total)
    else:
        absidx = start[parent] + within
        elem_val = values.take(pa.array(absidx))
    return _decode(elem_val), parent, within


# ---------------------------------------------------------------------------
# uniqueItems (row-local; vectorized via pandas duplicated when elements are
# flat, python fallback for nested element types)


def _first_dup_idx(val: pa.Array, active: np.ndarray) -> np.ndarray:
    """Per slot, the element index of the first element equal to a later
    one, -1 where none (reference scan order, ``validator/mod.rs:378-397``).

    Fast path: decompose elements into numeric code columns (strings via
    ``pc.dictionary_encode`` — exact equality as int codes, no Python string
    materialization), then find within-list duplicate groups with one
    ``np.lexsort`` + adjacent-equality scan. The first duplicate per list ==
    the smallest element index belonging to any >=2-sized (list, value)
    group, which equals the reference's first-(i, j>i) scan result.
    """
    start, end = _list_offsets(val)
    lens = np.where(active, end - start, 0)
    cand = active & (lens >= 2)
    out = np.full(len(val), -1, dtype=np.int64)
    if not cand.any():
        return out
    # Cheap prefilter: duplicates must agree on EVERY field, so numeric
    # fields alone can rule out most lists without touching (expensive)
    # string dictionary-encoding. Only surviving lists get the full pass.
    t = val.type
    if pa.types.is_struct(t.value_type) if _is_list_t(t) else False:
        num_fields = [f.name for f in t.value_type
                      if _is_int_t(f.type) or _is_float_t(f.type)
                      or pa.types.is_boolean(f.type)]
        if num_fields and len(num_fields) < len(t.value_type):
            elem_val, parent, within = _flatten(val, cand)
            if elem_val.null_count == 0:
                cols = []
                for name in num_fields:
                    sub = _scalar_code_cols(elem_val.field(name))
                    if sub is None:
                        cols = None
                        break
                    cols.extend(sub)
                if cols is not None:
                    maybe = np.zeros(len(val), dtype=bool)
                    maybe[parent[_dup_elems(parent, cols)]] = True
                    if not maybe.any():
                        return out
                    cand = cand & maybe
    elem_val, parent, within = _flatten(val, cand)
    codes = _elem_code_columns(elem_val)
    if codes is not None:
        marked = _dup_elems(parent, codes)
        first = np.full(len(val), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(first, parent[marked], within[marked])
        out[parent[marked]] = first[parent[marked]]
    else:
        cand_slots = np.nonzero(cand)[0]
        sub_pyl = val.take(pa.array(cand_slots)).to_pylist()
        for s, lst in zip(cand_slots.tolist(), sub_pyl):
            arr = [None if x is None else _strip_absent(x) for x in lst]
            done = False
            for i in range(len(arr)):
                for j in range(i + 1, len(arr)):
                    if E.json_equal(arr[i], arr[j]):
                        out[s] = i
                        done = True
                        break
                if done:
                    break
    return out


def _dup_elems(parent: np.ndarray, cols: list[np.ndarray]) -> np.ndarray:
    """Indices of the elements equal on ``cols`` to another element of the
    same parent: one ``np.lexsort`` + adjacent-equality scan."""
    if len(parent) < 2:
        return parent[:0]
    keys = [parent] + cols
    order = np.lexsort(tuple(reversed(keys)))
    eq = np.ones(len(parent) - 1, dtype=bool)
    for k in keys:
        sk = k[order]
        eq &= sk[1:] == sk[:-1]
    return order[np.r_[eq, False] | np.r_[False, eq]]


def _scalar_code_cols(child: pa.Array) -> Optional[list[np.ndarray]]:
    """Numeric code columns giving exact equality semantics for one scalar
    array: (validity, code/value). None for unsupported types."""
    ct = child.type
    valid = _valid_mask(child).astype(np.int8)
    if _is_string_t(ct):
        enc = child.dictionary_encode()
        codes = pc.fill_null(pc.cast(enc.indices, pa.int64()), -1)
        return [valid, codes.to_numpy(zero_copy_only=False)]
    if pa.types.is_boolean(ct):
        v = pc.fill_null(pc.cast(child, pa.int8()), -1)
        return [valid, v.to_numpy(zero_copy_only=False)]
    if _is_int_t(ct):
        if pa.types.is_uint64(ct):
            v = pc.fill_null(child, 0)
            return [valid, v.to_numpy(zero_copy_only=False)]
        v = pc.fill_null(pc.cast(child, pa.int64()), 0)
        return [valid, v.to_numpy(zero_copy_only=False)]
    if _is_float_t(ct):
        v = pc.fill_null(pc.cast(child, pa.float64()), 0.0)
        return [valid, v.to_numpy(zero_copy_only=False)]
    return None


def _elem_code_columns(elem: pa.Array) -> Optional[list[np.ndarray]]:
    """Flat numeric key columns for element equality; None -> python path."""
    t = elem.type
    if pa.types.is_struct(t):
        if elem.null_count:  # null structs expose garbage field values
            return None
        cols: list[np.ndarray] = []
        for f in t:
            child = elem.field(f.name)
            sub = _scalar_code_cols(child)
            if sub is None:
                return None
            cols.extend(sub)
        return cols
    if _is_list_t(t):
        return None
    return _scalar_code_cols(elem)


# ---------------------------------------------------------------------------
# pattern matching


def _pattern_match_mask(check, val: pa.Array, active: np.ndarray) -> np.ndarray:
    """True where the string value matches (search semantics)."""
    if check.re2 is not None:
        m = pc.match_substring_regex(val, check.re2)
        return _np_bool(pc.fill_null(m, False))
    arr = val.to_numpy(zero_copy_only=False)
    out = np.zeros(len(val), dtype=bool)
    rx = check.rx
    for i in np.nonzero(active)[0].tolist():
        s = arr[i]
        out[i] = s is not None and rx.search(s) is not None
    return out


# ---------------------------------------------------------------------------
# the plan walker (one walk, two sinks)


def eval_emit(plan: Plan, ctx: Ctx, em: Records | FailCounts) -> None:
    """Walk ``plan`` over every present slot of ``ctx``, handing each
    keyword's failing slots to ``em`` in reference emission order."""
    if not ctx.present.any():
        return
    val = ctx.val
    n = len(val)
    isnull = (~_valid_mask(val)) & ctx.present

    if plan.ref_error is not None:
        ref_str, reason = plan.ref_error
        em.emit(ctx, 0, ctx.present, E.INVALID_REF,
                const_ctx={"ref_str": ref_str, "reason": reason})
        return

    alive = ctx.present.copy()
    k = 0  # per-node check ordinal (keyword order)

    if plan.const is not UNSET:
        ok = _scalar_eq_mask(plan.const, val, isnull)
        fail = alive & ~ok
        if fail.any():
            em.emit(ctx, k, fail, E.NOT_CONST,
                    const_ctx={"expected": plan.const_display},
                    ctx_fn=lambda idx: {"actual": _canon(val.take(idx))})
        alive &= ok
        k += 1
        if not alive.any():
            return

    if plan.enum:
        ok = _enum_mask(plan.enum, val, isnull)
        fail = alive & ~ok
        if fail.any():
            # invalid_value keeps its key position ahead of allowed
            em.emit(ctx, k, fail, E.NOT_IN_ENUM,
                    const_ctx={"invalid_value": None,
                               "allowed": plan.enum_allowed_display},
                    ctx_fn=lambda idx: {
                        "invalid_value": _canon(val.take(idx))})
        alive &= ok
        k += 1
        if not alive.any():
            return

    if plan.any_of is not None:
        if not plan.any_of:
            em.emit(ctx, k, alive, E.NO_SUBSCHEMA_MATCHED,
                    const_ctx={"subschema_count": 0})
        else:
            pending = alive.copy()
            for branch in plan.any_of:
                if not pending.any():
                    break
                pending &= ~(pending & eval_valid(branch, val, pending))
            em.emit(ctx, k, pending, E.NO_SUBSCHEMA_MATCHED,
                    const_ctx={"subschema_count": len(plan.any_of)})
        return

    if plan.one_of is not None:
        if not plan.one_of:
            em.emit(ctx, k, alive, E.NO_SUBSCHEMA_MATCHED,
                    const_ctx={"subschema_count": 0})
        else:
            counts = np.zeros(n, dtype=np.int32)
            for branch in plan.one_of:
                counts += eval_valid(branch, val, alive).astype(np.int32)
            em.emit(ctx, k, alive & (counts == 0), E.NO_SUBSCHEMA_MATCHED,
                    const_ctx={"subschema_count": len(plan.one_of)})
            multi = alive & (counts > 1)
            if multi.any():
                em.emit(ctx, k + 1, multi, E.MULTIPLE_SUBSCHEMAS_MATCHED,
                        const_ctx={"subschema_count": len(plan.one_of)},
                        ctx_fn=lambda idx: {"match_count": counts[idx]})
        return

    if plan.all_of:
        for c_ord, branch in enumerate(plan.all_of, start=1):
            sub = Ctx(val, alive, ctx.docrow, ctx.segs, ctx.rank + (c_ord,))
            eval_emit(branch, sub, em)
        return

    t = val.type
    ty = plan.type
    if ty == "object":
        if not pa.types.is_struct(t):
            em.emit(ctx, k, alive, E.EXPECTED_OBJECT, ctx_fn=_got_fn(t, isnull))
            return
        obj_ok = alive & ~isnull
        if isnull.any():
            em.emit(ctx, k, alive & isnull, E.EXPECTED_OBJECT,
                    ctx_fn=_got_fn(t, isnull))
        _object_emit(plan, ctx, obj_ok, em, k + 1, check_additional=True)
    elif ty == "string":
        if not _is_string_t(t):
            em.emit(ctx, k, alive, E.EXPECTED_STRING, ctx_fn=_got_fn(t, isnull))
            return
        if isnull.any():
            em.emit(ctx, k, alive & isnull, E.EXPECTED_STRING,
                    ctx_fn=_got_fn(t, isnull))
        k += 1
        s_ok = alive & ~isnull
        if not s_ok.any():
            return
        if plan.min_length is not None or plan.max_length is not None:
            lens = pc.fill_null(pc.utf8_length(val), 0).to_numpy(
                zero_copy_only=False)
            k = _emit_bounds(em, ctx, k, s_ok, lens, "actual_length", (
                (plan.min_length, "min_length", E.TOO_SHORT),
                (plan.max_length, "max_length", E.TOO_LONG)))
        if plan.pattern is not None:
            if plan.pattern.invalid:
                em.emit(ctx, k, s_ok, E.INVALID_PATTERN_IN_SCHEMA,
                        const_ctx={"pattern": plan.pattern.pattern})
            else:
                m = _pattern_match_mask(plan.pattern, val, s_ok)
                fail = s_ok & ~m
                if fail.any():
                    em.emit(ctx, k, fail, E.PATTERN_MISMATCH,
                            const_ctx={"pattern": plan.pattern.pattern},
                            ctx_fn=lambda idx: {
                                "value": val.take(idx).to_pylist()})
            k += 1
        if plan.format_uuid:
            from engine.config import UUID_REGEX
            ok = _np_bool(pc.fill_null(
                pc.match_substring_regex(val, UUID_REGEX), False))
            fail = s_ok & ~ok
            if fail.any():
                em.emit(ctx, k, fail, E.INVALID_UUID_FORMAT,
                        ctx_fn=lambda idx: {
                            "value": val.take(idx).to_pylist()})
        _emit_custom(plan, ctx, em, s_ok, val)
    elif ty in ("integer", "number"):
        if ty == "integer":
            if _is_int_t(t):
                if pa.types.is_uint64(t):
                    over = _np_bool(pc.fill_null(
                        pc.greater(val, pa.scalar(I64_MAX, pa.uint64())), False))
                    bad = alive & (isnull | over)
                else:
                    bad = alive & isnull
            else:
                bad = alive
            if bad.any():
                em.emit(ctx, k, bad, E.EXPECTED_INTEGER, ctx_fn=_got_fn(t, isnull))
            num_ok = alive & ~bad
        else:
            if _is_int_t(t) or _is_float_t(t):
                bad = alive & isnull
            else:
                bad = alive
            if bad.any():
                em.emit(ctx, k, bad, E.EXPECTED_NUMBER, ctx_fn=_got_fn(t, isnull))
            num_ok = alive & ~bad
        k += 1
        if num_ok.any() and (plan.minimum is not None or plan.maximum is not None):
            # lossy cast == reference's as_f64 (big int64s round, never raise)
            f = pc.fill_null(pc.cast(val, pa.float64(), safe=False),
                             0.0).to_numpy(zero_copy_only=False)
            _emit_bounds(em, ctx, k, num_ok, f, "actual", (
                (plan.minimum, "minimum", E.BELOW_MINIMUM),
                (plan.maximum, "maximum", E.ABOVE_MAXIMUM)))
        _emit_custom(plan, ctx, em, num_ok, val)
    elif ty == "array":
        if not _is_list_t(t):
            em.emit(ctx, k, alive, E.EXPECTED_ARRAY, ctx_fn=_got_fn(t, isnull))
            return
        if isnull.any():
            em.emit(ctx, k, alive & isnull, E.EXPECTED_ARRAY,
                    ctx_fn=_got_fn(t, isnull))
        k += 1
        a_ok = alive & ~isnull
        if not a_ok.any():
            return
        start, end = _list_offsets(val)
        k = _emit_bounds(em, ctx, k, a_ok, end - start, "actual_count", (
            (plan.min_items, "min_items", E.TOO_FEW_ITEMS),
            (plan.max_items, "max_items", E.TOO_MANY_ITEMS)))
        if plan.unique_items:
            dup = _first_dup_idx(val, a_ok)
            if (dup >= 0).any():
                # gathers only the duplicate element of each failing row
                em.emit(ctx, k, dup >= 0, E.DUPLICATE_ARRAY_ITEMS,
                        ctx_fn=lambda idx: {"duplicate_value": _canon(
                            val.values.take(start[idx] + dup[idx]))})
            k += 1
        if plan.items is not None and a_ok.any():
            elem_val, parent, within = _flatten(val, a_ok)
            if len(elem_val):
                sub = Ctx(
                    elem_val,
                    np.ones(len(elem_val), dtype=bool),
                    ctx.docrow[parent],
                    tuple((s[0], s[1] if s[0] == "lit" else s[1][parent])
                          for s in ctx.segs) + (("idx", within),),
                    tuple(r[parent] if isinstance(r, np.ndarray) else r
                          for r in ctx.rank) + (1, within),
                )
                eval_emit(plan.items, sub, em)
    elif ty == "boolean":
        if not pa.types.is_boolean(t):
            em.emit(ctx, k, alive, E.EXPECTED_BOOLEAN, ctx_fn=_got_fn(t, isnull))
        else:
            if isnull.any():
                em.emit(ctx, k, alive & isnull, E.EXPECTED_BOOLEAN,
                        ctx_fn=_got_fn(t, isnull))
            _emit_custom(plan, ctx, em, alive & ~isnull, val)
    else:
        # Type absent/unknown: required + properties when instance is an
        # object; no additionalProperties check (validator/mod.rs:417-441).
        if pa.types.is_struct(t):
            _object_emit(plan, ctx, alive & ~isnull, em, k,
                         check_additional=False)


def _emit_bounds(em: Records | FailCounts, ctx: Ctx, k: int, ok: np.ndarray,
                 measure: np.ndarray, actual: str, checks: tuple) -> int:
    """The ``(bound, key, kind)`` lower-then-upper bound checks of one
    measured quantity (length, item count, value) in keyword order; an unset
    bound takes no ordinal. Returns the next check ordinal."""
    for j, (bound, key, kind) in enumerate(checks):
        if bound is None:
            continue
        fail = ok & (measure < bound if j == 0 else measure > bound)
        if fail.any():
            em.emit(ctx, k, fail, kind, const_ctx={key: bound},
                    ctx_fn=lambda idx: {actual: measure[idx]})
        k += 1
    return k


def _emit_custom(plan: Plan, ctx: Ctx, em: Records | FailCounts,
                 ok: np.ndarray, val: pa.Array) -> None:
    """Registry checks after the built-ins of a scalar type arm
    (engine/registry.py); ordinal base 1000 keeps them after every built-in
    check in the per-row rank sort, matching the oracle's emission order."""
    if not plan.custom:
        return
    for j, (spec, state) in enumerate(plan.custom):
        pass_mask = np.asarray(spec.predicate(state, val, ok), dtype=bool)
        fail = ok & ~pass_mask
        if fail.any():
            em.emit(ctx, 1000 + j, fail, spec.kind,
                    ctx_fn=lambda idx, s=spec, st=state: {"custom_message": [
                        s.message(st, v) for v in val.take(idx).to_pylist()]})


def _got_fn(t: pa.DataType,
            isnull: np.ndarray) -> Callable[[np.ndarray], dict]:
    name = arrow_json_kind(t)
    return lambda idx: {"got": np.where(isnull[idx], "null", name)}


def _object_emit(plan: Plan, ctx: Ctx, obj_ok: np.ndarray,
                 em: Records | FailCounts, k0: int, *,
                 check_additional: bool) -> None:
    if not obj_ok.any():
        return
    val = ctx.val
    t = val.type
    field_names = [f.name for f in t]
    field_set = set(field_names)
    prop_names = {name for name, _ in plan.properties}
    k = k0
    field_valid: dict[str, np.ndarray] = {}

    def fv(name: str) -> np.ndarray:
        if name not in field_valid:
            field_valid[name] = _valid_mask(val.field(name))
        return field_valid[name]

    if plan.required is not None:
        for name in plan.required:  # required-array order
            if name in field_set:
                miss = obj_ok & ~fv(name)
            else:
                miss = obj_ok
            em.emit(ctx, k, miss, E.MISSING_REQUIRED,
                    const_ctx={"property": name}, extra_seg=name)
            k += 1
    extras = sorted(n for n in field_names if n not in prop_names)
    if check_additional and extras and plan.additional == AP_FORBID:
        for name in extras:  # lexicographic (BTreeMap) order
            em.emit(ctx, k, obj_ok & fv(name), E.DISALLOWED_ADDITIONAL_PROPERTY,
                    const_ctx={"property": name}, extra_seg=name)
            k += 1
    # Children in stack-pop order: AP-schema extras in REVERSE key order
    # first, then named properties in lexicographic order.
    child_ord = 1
    if check_additional and extras and isinstance(plan.additional, Plan):
        for name in reversed(extras):
            child_val = _decode(val.field(name))
            pres = obj_ok & fv(name)
            if pres.any():
                eval_emit(plan.additional,
                          ctx.child(child_val, pres, name, child_ord), em)
            child_ord += 1
    for name, sub in plan.properties:  # already sorted
        if name in field_set:
            child_val = _decode(val.field(name))
            pres = obj_ok & fv(name)
            if pres.any():
                eval_emit(sub, ctx.child(child_val, pres, name, child_ord), em)
            child_ord += 1


# ---------------------------------------------------------------------------
# batch entry point


def eval_valid(plan: Plan, val: pa.Array, present: np.ndarray) -> np.ndarray:
    """Per-slot validity of ``val`` against ``plan``, True where a present
    slot fails no check or where the slot is absent."""
    n = len(val)
    sink = FailCounts(n)
    eval_emit(plan, Ctx(_decode(val), present, np.arange(n, dtype=np.int64),
                        (), ()), sink)
    return sink.counts == 0


def _root_ctx(batch: pa.Table) -> Ctx:
    """Root context of a batch: each row is one JSON object instance."""
    n = batch.num_rows
    if batch.num_columns == 0:
        # N rows of zero columns are N empty JSON objects — required-property
        # checks must still fire for each of them
        root = pa.array([{}] * n, type=pa.struct([]))
    else:
        batch = batch.combine_chunks()
        root = pa.StructArray.from_arrays(
            [_decode(c) for c in batch.columns], names=batch.column_names)
    return Ctx(root, np.ones(n, dtype=bool), np.arange(n, dtype=np.int64),
               (), ())


def batch_records(plan: Plan, batch: pa.Table,
                  with_message: bool = False) -> dict:
    """Violations columns of ``batch`` (each row == one JSON object
    instance), see :meth:`Records.build`."""
    sink = Records()
    eval_emit(plan, _root_ctx(batch), sink)
    return sink.build(with_message)


def validate_batch(plan: Plan, batch: pa.Table) -> list[tuple[int, int, dict]]:
    """Sparse ``[(doc_row, error_seq, error_dict)]`` of ``batch`` in exact
    reference emission order per document: the records of
    :func:`batch_records` as error dicts."""
    out = batch_records(plan, batch)
    return [(d, s, {"kind": k, "path": parse_pointer(p), **json.loads(c)})
            for d, s, k, p, c in zip(
                out["row"].tolist(), out["error_seq"].to_pylist(),
                out["error_kind"].to_pylist(),
                out["instance_path"].to_pylist(), out["context"].to_pylist())]
