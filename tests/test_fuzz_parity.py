"""Randomized differential testing: random schemas x random typed tables,
vectorized kernels vs the row-wise oracle. Seeded and deterministic.

The generator biases toward violation-producing combinations (bounds chosen
inside value ranges, enums excluding present values, required on nullable
columns) so each round exercises real error paths, child orderings, and
short-circuits rather than all-green tables.
"""

import json
import random

import numpy as np
import pyarrow as pa
import pytest

from engine.compile import compile_plan
from engine.kernels import (FailCounts, _root_ctx, eval_emit, eval_valid,
                            validate_batch)
from engine.oracle import validate as oracle_validate
from engine.rows import table_to_json_rows
from engine.schema import parse_schema


def rand_scalar_schema(rng: random.Random, arrow_kind: str) -> dict:
    """A random keyword set plausibly constraining a column of this kind."""
    s: dict = {}
    r = rng.random()
    if arrow_kind == "str":
        if r < 0.55:
            s["type"] = "string"
            if rng.random() < 0.5:
                s["minLength"] = rng.randint(0, 4)
            if rng.random() < 0.5:
                s["maxLength"] = rng.randint(2, 8)
            if rng.random() < 0.4:
                s["pattern"] = rng.choice(
                    ["^[a-z]+$", "v[0-9]", "^x", "z$", "[A-Z]"])
        elif r < 0.75:
            s["enum"] = rng.sample(
                ["aa", "bb", "cc", "dd", "x1", "Z"], k=rng.randint(1, 4))
        elif r < 0.85:
            s["const"] = rng.choice(["aa", "bb", ""])
        else:
            s["type"] = rng.choice(["integer", "boolean", "array"])
    elif arrow_kind in ("int", "float"):
        if r < 0.6:
            s["type"] = rng.choice(["integer", "number"])
            if rng.random() < 0.6:
                s["minimum"] = rng.choice([-5, 0, 2, 7.5])
            if rng.random() < 0.6:
                s["maximum"] = rng.choice([1, 4, 9, 100])
        elif r < 0.8:
            s["enum"] = rng.sample([0, 1, 2, 5, 1.5, -3], k=rng.randint(1, 4))
        else:
            s["const"] = rng.choice([0, 3, 2.5])
    elif arrow_kind == "bool":
        s["type"] = rng.choice(["boolean", "string"])
    if rng.random() < 0.15:  # wrap in a combinator
        inner = dict(s)
        s = {rng.choice(["anyOf", "oneOf", "allOf"]): [
            inner, {"type": rng.choice(["string", "integer", "number"])}]}
    return s


def rand_table_and_schema(seed: int) -> tuple[str, pa.Table]:
    rng = random.Random(seed)
    n = rng.randint(1, 120)
    cols: dict = {}
    props: dict = {}

    def str_val():
        return rng.choice(["aa", "bb", "x1z", "", "loooooong", "Zz", None])

    def int_val():
        return rng.choice([0, 1, 2, 5, -7, 100, None])

    def float_val():
        return rng.choice([0.0, 1.0, 2.5, -3.25, 9.75, None])

    for ci in range(rng.randint(1, 4)):
        name = f"c{ci}"
        kind = rng.choice(["str", "int", "float", "bool", "list", "struct"])
        if kind == "str":
            cols[name] = pa.array([str_val() for _ in range(n)], pa.string())
            props[name] = rand_scalar_schema(rng, "str")
        elif kind == "int":
            cols[name] = pa.array([int_val() for _ in range(n)], pa.int64())
            props[name] = rand_scalar_schema(rng, "int")
        elif kind == "float":
            cols[name] = pa.array([float_val() for _ in range(n)],
                                  pa.float64())
            props[name] = rand_scalar_schema(rng, "float")
        elif kind == "bool":
            cols[name] = pa.array(
                [rng.choice([True, False, None]) for _ in range(n)])
            props[name] = rand_scalar_schema(rng, "bool")
        elif kind == "list":
            cols[name] = pa.array(
                [None if rng.random() < 0.15 else
                 [int_val() for _ in range(rng.randint(0, 5))]
                 for _ in range(n)], pa.list_(pa.int64()))
            arr_schema: dict = {"type": "array"}
            if rng.random() < 0.5:
                arr_schema["minItems"] = rng.randint(0, 2)
            if rng.random() < 0.5:
                arr_schema["maxItems"] = rng.randint(2, 4)
            if rng.random() < 0.5:
                arr_schema["uniqueItems"] = True
            if rng.random() < 0.7:
                arr_schema["items"] = rand_scalar_schema(rng, "int")
            props[name] = arr_schema
        else:
            st = pa.struct([("k", pa.string()), ("v", pa.int64())])
            cols[name] = pa.array(
                [None if rng.random() < 0.2 else
                 {"k": str_val(), "v": int_val()} for _ in range(n)], st)
            obj_schema = {
                "type": "object",
                "required": rng.sample(["k", "v"], k=rng.randint(0, 2)),
                "properties": {"k": rand_scalar_schema(rng, "str"),
                               "v": rand_scalar_schema(rng, "int")},
            }
            if rng.random() < 0.3:
                obj_schema["additionalProperties"] = rng.choice(
                    [False, {"type": "integer"}])
            if rng.random() < 0.35:
                # combinators over OBJECT shapes: mask-mode must descend
                # through required/properties/additionalProperties subtrees
                alt = {"type": "object",
                       "required": rng.sample(["k", "v"],
                                              k=rng.randint(1, 2))}
                comb = rng.choice(["anyOf", "oneOf", "allOf"])
                obj_schema = {comb: ([obj_schema, alt] if comb != "allOf"
                                     else [obj_schema])}
            props[name] = obj_schema

    schema: dict = {"type": "object", "properties": props}
    if rng.random() < 0.5:
        schema["required"] = rng.sample(list(props), k=rng.randint(
            0, len(props)))
    if rng.random() < 0.25:
        schema["additionalProperties"] = rng.choice(
            [False, {"type": "string"}])
        # keep one property out of the schema to create "extras"
        if len(props) > 1 and rng.random() < 0.7:
            victim = rng.choice(list(props))
            del schema["properties"][victim]
            if victim in schema.get("required", []):
                schema["required"].remove(victim)
    return json.dumps(schema), pa.table(cols)


@pytest.mark.parametrize("seed", range(200))
def test_random_schema_table_parity(seed):
    schema_json, table = rand_table_and_schema(seed)
    schema = parse_schema(schema_json)
    plan = compile_plan(schema)
    got = validate_batch(plan, table)
    oracle_errs = [oracle_validate(schema, inst)
                   for inst in table_to_json_rows(table)]
    expected = [(r, s, err) for r, errs in enumerate(oracle_errs)
                for s, err in enumerate(errs)]
    assert got == expected, (
        f"seed={seed}\nschema={schema_json}\n"
        f"first diff: {next(((g, e) for g, e in zip(got, expected) if g != e), None)}\n"
        f"len {len(got)} vs {len(expected)}")
    # every error must render to a display string without raising
    from engine.errors import render_message
    for _, _, e in got:
        assert isinstance(render_message(e), str)
    # the count sink at the root: eval_valid == "the oracle finds no error",
    # and per-row FailCounts == per-row validate_batch records
    n = table.num_rows
    root = _root_ctx(table)
    ok = eval_valid(plan, root.val, np.ones(n, dtype=bool))
    assert ok.tolist() == [not errs for errs in oracle_errs], seed
    sink = FailCounts(n)
    eval_emit(plan, root, sink)
    assert sink.counts.tolist() == np.bincount(
        [r for r, _, _ in got], minlength=n).tolist(), seed
