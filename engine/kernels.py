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

One plan walker, :func:`eval_emit`, hands every failing-slot mask to a sink:

* :class:`Emitter` builds the sparse error records (the violations rows);
* :class:`FailCounts` only counts failures per batch row. It backs
  :func:`eval_valid`, the anyOf/oneOf branch check whose sub-errors the
  reference discards (``validator/mod.rs:109-163``), and per-row verdicts.
  It never calls the per-slot context callbacks, so each keyword builds its
  context lazily inside its callback and the count path stays vectorized.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from engine import errors as E
from engine.compile import Plan
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


# ---------------------------------------------------------------------------
# Evaluation context + emitter


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


class Emitter:
    """Collects sparse error records; ``build`` assembles the violations
    columns sorted per-document by rank (== reference emission order)."""

    def __init__(self):
        self.rows: list[tuple[int, tuple, dict]] = []

    def emit(self, ctx: Ctx, ordinal: int, fail: np.ndarray, kind: str,
             const_ctx: Optional[dict] = None,
             ctx_fn: Optional[Callable[[int], dict]] = None,
             extra_seg: Optional[str] = None) -> None:
        idx = np.nonzero(fail)[0]
        if idx.size == 0:
            return
        for i in idx.tolist():
            path_parts = []
            for seg in ctx.segs:
                path_parts.append(seg[1] if seg[0] == "lit" else str(seg[1][i]))
            if extra_seg is not None:
                path_parts.append(extra_seg)
            rank = tuple(
                int(r[i]) if isinstance(r, np.ndarray) else r
                for r in ctx.rank
            ) + (0, ordinal)
            context = dict(const_ctx) if const_ctx else {}
            if ctx_fn is not None:
                context.update(ctx_fn(i))
            err = {"kind": kind, "path": tuple(path_parts), **context}
            self.rows.append((int(ctx.docrow[i]), rank, err))

    def build(self) -> list[tuple[int, int, dict]]:
        """Returns [(doc_row, error_seq, err_dict)] sorted by (doc, rank)."""
        self.rows.sort(key=lambda r: (r[0], r[1]))
        out = []
        prev_doc, seq = None, 0
        for doc, rank, err in self.rows:
            seq = seq + 1 if doc == prev_doc else 0
            prev_doc = doc
            out.append((doc, seq, err))
        return out


class FailCounts:
    """Sink counting failures per batch row: ``counts[r]`` == the number of
    records :class:`Emitter` would build for row ``r``. Never calls
    ``ctx_fn``, so no error context is materialized."""

    def __init__(self, n: int):
        self.counts = np.zeros(n, dtype=np.int64)

    def emit(self, ctx: Ctx, ordinal: int, fail: np.ndarray, kind: str,
             const_ctx: Optional[dict] = None,
             ctx_fn: Optional[Callable[[int], dict]] = None,
             extra_seg: Optional[str] = None) -> None:
        np.add.at(self.counts, ctx.docrow[fail], 1)


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


def _canon_at(val: pa.Array, isnull: np.ndarray) -> Callable[[int], str]:
    def fn(i: int) -> str:
        if isnull[i]:
            return "null"
        return E.canonical_json(_strip_absent(val[i].as_py()))
    return fn


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


def _first_dup_idx(val: pa.Array, active: np.ndarray) -> dict[int, int]:
    """slot -> element index of the first element equal to a later one
    (reference scan order, ``validator/mod.rs:378-397``).

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
    if not cand.any():
        return {}
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
                    maybe = _dup_parents(parent, cols, len(val))
                    if not maybe.any():
                        return {}
                    cand = cand & maybe
    elem_val, parent, within = _flatten(val, cand)
    out: dict[int, int] = {}
    codes = _elem_code_columns(elem_val)
    if codes is not None:
        keys = [parent] + codes
        order = np.lexsort(tuple(reversed(keys)))
        skeys = [k[order] for k in keys]
        eq = np.ones(len(parent) - 1, dtype=bool) if len(parent) else \
            np.zeros(0, dtype=bool)
        for k in skeys:
            eq &= k[1:] == k[:-1]
        marked_sorted = np.zeros(len(parent), dtype=bool)
        if len(eq):
            marked_sorted[1:] |= eq
            marked_sorted[:-1] |= eq
        marked = order[marked_sorted]
        if len(marked):
            n = len(val)
            first = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
            np.minimum.at(first, parent[marked], within[marked])
            for p in np.unique(parent[marked]).tolist():
                out[int(p)] = int(first[p])
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


def _dup_parents(parent: np.ndarray, cols: list[np.ndarray],
                 n: int) -> np.ndarray:
    """Bool[n]: parents having >=2 elements equal on the given key columns."""
    keys = [parent] + cols
    order = np.lexsort(tuple(reversed(keys)))
    if len(parent) < 2:
        return np.zeros(n, dtype=bool)
    eq = np.ones(len(parent) - 1, dtype=bool)
    for k in keys:
        sk = k[order]
        eq &= sk[1:] == sk[:-1]
    out = np.zeros(n, dtype=bool)
    hit = order[:-1][eq]
    out[parent[hit]] = True
    return out


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


def eval_emit(plan: Plan, ctx: Ctx, em: Emitter | FailCounts) -> None:
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
            expected = plan.const_display
            canon = _canon_at(val, isnull)
            em.emit(ctx, k, fail, E.NOT_CONST,
                    ctx_fn=lambda i: {"expected": expected, "actual": canon(i)})
        alive &= ok
        k += 1
        if not alive.any():
            return

    if plan.enum:
        ok = _enum_mask(plan.enum, val, isnull)
        fail = alive & ~ok
        if fail.any():
            allowed = plan.enum_allowed_display
            canon = _canon_at(val, isnull)
            em.emit(ctx, k, fail, E.NOT_IN_ENUM,
                    ctx_fn=lambda i: {"invalid_value": canon(i),
                                      "allowed": allowed})
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
                cnt = counts  # per-slot match_count
                em.emit(ctx, k + 1, multi, E.MULTIPLE_SUBSCHEMAS_MATCHED,
                        ctx_fn=lambda i: {
                            "subschema_count": len(plan.one_of),
                            "match_count": int(cnt[i])})
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
            got = _got_fn(t, isnull)
            em.emit(ctx, k, alive, E.EXPECTED_OBJECT, ctx_fn=got)
            return
        obj_ok = alive & ~isnull
        if isnull.any():
            got = _got_fn(t, isnull)
            em.emit(ctx, k, alive & isnull, E.EXPECTED_OBJECT, ctx_fn=got)
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
            if plan.min_length is not None:
                fail = s_ok & (lens < plan.min_length)
                if fail.any():
                    ml = plan.min_length
                    em.emit(ctx, k, fail, E.TOO_SHORT,
                            ctx_fn=lambda i: {"min_length": ml,
                                              "actual_length": int(lens[i])})
                k += 1
            if plan.max_length is not None:
                fail = s_ok & (lens > plan.max_length)
                if fail.any():
                    ml = plan.max_length
                    em.emit(ctx, k, fail, E.TOO_LONG,
                            ctx_fn=lambda i: {"max_length": ml,
                                              "actual_length": int(lens[i])})
                k += 1
        else:
            k += 2
        if plan.pattern is not None:
            if plan.pattern.invalid:
                em.emit(ctx, k, s_ok, E.INVALID_PATTERN_IN_SCHEMA,
                        const_ctx={"pattern": plan.pattern.pattern})
            else:
                m = _pattern_match_mask(plan.pattern, val, s_ok)
                fail = s_ok & ~m
                if fail.any():
                    pat = plan.pattern.pattern
                    em.emit(ctx, k, fail, E.PATTERN_MISMATCH,
                            ctx_fn=lambda i: {"pattern": pat,
                                              "value": val[i].as_py()})
            k += 1
        if plan.format_uuid:
            from engine.config import UUID_REGEX
            ok = _np_bool(pc.fill_null(
                pc.match_substring_regex(val, UUID_REGEX), False))
            fail = s_ok & ~ok
            if fail.any():
                em.emit(ctx, k, fail, E.INVALID_UUID_FORMAT,
                        ctx_fn=lambda i: {"value": val[i].as_py()})
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
            if plan.minimum is not None:
                fail = num_ok & (f < plan.minimum)
                if fail.any():
                    mn = plan.minimum
                    em.emit(ctx, k, fail, E.BELOW_MINIMUM,
                            ctx_fn=lambda i: {"minimum": mn,
                                              "actual": float(f[i])})
                k += 1
            if plan.maximum is not None:
                fail = num_ok & (f > plan.maximum)
                if fail.any():
                    mx = plan.maximum
                    em.emit(ctx, k, fail, E.ABOVE_MAXIMUM,
                            ctx_fn=lambda i: {"maximum": mx,
                                              "actual": float(f[i])})
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
        lens = end - start
        if plan.min_items is not None:
            fail = a_ok & (lens < plan.min_items)
            if fail.any():
                mi = plan.min_items
                em.emit(ctx, k, fail, E.TOO_FEW_ITEMS,
                        ctx_fn=lambda i: {"min_items": mi,
                                          "actual_count": int(lens[i])})
            k += 1
        if plan.max_items is not None:
            fail = a_ok & (lens > plan.max_items)
            if fail.any():
                mx = plan.max_items
                em.emit(ctx, k, fail, E.TOO_MANY_ITEMS,
                        ctx_fn=lambda i: {"max_items": mx,
                                          "actual_count": int(lens[i])})
            k += 1
        if plan.unique_items:
            dups = _first_dup_idx(val, a_ok)
            if dups:
                fail = np.zeros(n, dtype=bool)
                fail[list(dups)] = True

                def dup_ctx(i):
                    # converts only this failing row, never the column
                    el = val[i].as_py()[dups[i]]
                    el = None if el is None else _strip_absent(el)
                    return {"duplicate_value": E.canonical_json(el)}

                em.emit(ctx, k, fail, E.DUPLICATE_ARRAY_ITEMS, ctx_fn=dup_ctx)
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


def _emit_custom(plan: Plan, ctx: Ctx, em: Emitter | FailCounts,
                 ok: np.ndarray, val: pa.Array) -> None:
    """Registry checks after the built-ins of a scalar type arm
    (engine/registry.py); ordinal base 1000 keeps them after every built-in
    check in the per-row rank sort, matching the oracle's emission order."""
    if not plan.custom:
        return
    for idx, (spec, state) in enumerate(plan.custom):
        pass_mask = np.asarray(spec.predicate(state, val, ok), dtype=bool)
        fail = ok & ~pass_mask
        if fail.any():
            em.emit(ctx, 1000 + idx, fail, spec.kind,
                    ctx_fn=lambda i, s=spec, st=state: {
                        "custom_message": s.message(st, val[i].as_py())})


def _got_fn(t: pa.DataType, isnull: np.ndarray) -> Callable[[int], dict]:
    name = arrow_json_kind(t)

    def fn(i: int) -> dict:
        return {"got": "null" if isnull[i] else name}

    return fn


def _object_emit(plan: Plan, ctx: Ctx, obj_ok: np.ndarray,
                 em: Emitter | FailCounts, k0: int, *,
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


def validate_batch(plan: Plan, batch: pa.Table) -> list[tuple[int, int, dict]]:
    """Validate every row of ``batch`` (each row == one JSON object instance).

    Returns sparse ``[(doc_row, error_seq, error_dict)]`` in exact reference
    emission order per document.
    """
    em = Emitter()
    eval_emit(plan, _root_ctx(batch), em)
    return em.build()
