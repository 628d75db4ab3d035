"""Validation error model: kinds, context fields, one-line Display parity.

Parity target: reference ``json_schema_rs/src/validator/error.rs`` — the
22-variant error enum (``:20-205``) and its single-line Display templates
(``:241-398``). Errors are plain dicts::

    {"kind": <Kind>, "path": tuple[str, ...], ...context}

plus helpers that reproduce the reference's display-string semantics:

* ``canonical_json`` == ``serde_json::to_string`` (compact separators, keys in
  lexicographic/BTreeMap order, ryu-style float text, no ASCII escaping) —
  reference ``validator/mod.rs:27-29`` and serde_json without preserve_order.
* ``rust_f64`` == Rust ``{}`` Display for f64 (shortest round-trip digits,
  never scientific notation) used by Below/AboveMinimum messages
  (``error.rs:328-345``).
"""

from __future__ import annotations

import json
import string
from decimal import Decimal
from functools import lru_cache
from typing import Any

from engine.pointer import display_root_or_path

# Error kinds (string constants; values are the reference's variant names).
INVALID_REF = "InvalidRef"
EXPECTED_OBJECT = "ExpectedObject"
EXPECTED_STRING = "ExpectedString"
EXPECTED_INTEGER = "ExpectedInteger"
EXPECTED_NUMBER = "ExpectedNumber"
EXPECTED_ARRAY = "ExpectedArray"
EXPECTED_BOOLEAN = "ExpectedBoolean"
DUPLICATE_ARRAY_ITEMS = "DuplicateArrayItems"
TOO_FEW_ITEMS = "TooFewItems"
TOO_MANY_ITEMS = "TooManyItems"
MISSING_REQUIRED = "MissingRequired"
DISALLOWED_ADDITIONAL_PROPERTY = "DisallowedAdditionalProperty"
NOT_IN_ENUM = "NotInEnum"
NOT_CONST = "NotConst"
BELOW_MINIMUM = "BelowMinimum"
ABOVE_MAXIMUM = "AboveMaximum"
TOO_SHORT = "TooShort"
TOO_LONG = "TooLong"
PATTERN_MISMATCH = "PatternMismatch"
INVALID_PATTERN_IN_SCHEMA = "InvalidPatternInSchema"
INVALID_UUID_FORMAT = "InvalidUuidFormat"  # feature-gated in the reference
NO_SUBSCHEMA_MATCHED = "NoSubschemaMatched"
MULTIPLE_SUBSCHEMAS_MATCHED = "MultipleSubschemasMatched"

ALL_KINDS = [
    INVALID_REF, EXPECTED_OBJECT, EXPECTED_STRING, EXPECTED_INTEGER,
    EXPECTED_NUMBER, EXPECTED_ARRAY, EXPECTED_BOOLEAN, DUPLICATE_ARRAY_ITEMS,
    TOO_FEW_ITEMS, TOO_MANY_ITEMS, MISSING_REQUIRED,
    DISALLOWED_ADDITIONAL_PROPERTY, NOT_IN_ENUM, NOT_CONST, BELOW_MINIMUM,
    ABOVE_MAXIMUM, TOO_SHORT, TOO_LONG, PATTERN_MISMATCH,
    INVALID_PATTERN_IN_SCHEMA, INVALID_UUID_FORMAT, NO_SUBSCHEMA_MATCHED,
    MULTIPLE_SUBSCHEMAS_MATCHED,
]


def json_type_name(v: Any) -> str:
    """JSON type name for "got" context (reference ``validator/mod.rs:15-24``)."""
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "boolean"
    if isinstance(v, (int, float)):
        return "number"
    if isinstance(v, str):
        return "string"
    if isinstance(v, list):
        return "array"
    if isinstance(v, dict):
        return "object"
    raise TypeError(f"not a JSON value: {type(v)!r}")


def rust_f64(x: float) -> str:
    """Rust ``{}`` Display for f64: shortest round-trip, plain decimal notation."""
    if x != x or x in (float("inf"), float("-inf")):  # not producible from JSON
        return "NaN" if x != x else ("inf" if x > 0 else "-inf")
    if x == 0.0:
        return "-0" if str(x)[0] == "-" else "0"
    if float(x).is_integer() and abs(x) < 1e17:
        return str(int(x))
    r = repr(float(x))
    if "e" in r or "E" in r:
        # Expand shortest-digits scientific form to plain decimal (Rust never
        # prints exponents from Display).
        return format(Decimal(r), "f")
    return r


def ryu_float(x: float) -> str:
    """serde_json (ryu) float text: like Python repr but ``1e+21`` -> ``1e21``,
    ``1e-07`` -> ``1e-7``; integral floats keep a trailing ``.0``."""
    r = repr(float(x))
    if "e" in r:
        mant, exp = r.split("e")
        exp_i = int(exp)
        return f"{mant}e{exp_i}"
    return r


#: == ``json.dumps(s, ensure_ascii=False)`` for a str, without building an
#: encoder per call
_json_str = json.JSONEncoder(ensure_ascii=False).encode


def canonical_json(v: Any) -> str:
    """Compact JSON text matching ``serde_json::to_string`` on a BTreeMap-backed
    Value: keys sorted, ``,``/``:`` separators, non-ASCII verbatim, ryu floats."""
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return ryu_float(v)
    if isinstance(v, str):
        return _json_str(v)
    if isinstance(v, list):
        return "[" + ",".join(canonical_json(x) for x in v) + "]"
    if isinstance(v, dict):
        items = sorted(v.items(), key=lambda kv: kv[0])
        return "{" + ",".join(
            _json_str(k) + ":" + canonical_json(val)
            for k, val in items
        ) + "}"
    raise TypeError(f"not a JSON value: {type(v)!r}")


def json_equal(a: Any, b: Any) -> bool:
    """serde_json Value equality: int and float are distinct number kinds
    (``1 != 1.0``), bool is not a number; deep for arrays/objects."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, float) and isinstance(b, float):
        return a == b
    if isinstance(a, (int, float)) or isinstance(b, (int, float)):
        return False  # int vs float -> different serde Number variants
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(json_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(json_equal(a[k], b[k]) for k in a)
    return False


#: One-line Display text per kind, after ``"<location>: "`` (``error.rs:241-398``).
#: A ``{field}`` slot shows that context field; ``:f64`` renders it as a Rust
#: f64 and ``:list`` joins its items with ``", "``.
MESSAGES = {
    INVALID_REF: 'could not resolve $ref "{ref_str}": {reason}',
    EXPECTED_OBJECT: "expected object, got {got}",
    EXPECTED_STRING: "expected string, got {got}",
    EXPECTED_INTEGER: "expected integer, got {got}",
    EXPECTED_NUMBER: "expected number, got {got}",
    EXPECTED_ARRAY: "expected array, got {got}",
    EXPECTED_BOOLEAN: "expected boolean, got {got}",
    DUPLICATE_ARRAY_ITEMS: "array has duplicate items (value: {duplicate_value})",
    TOO_FEW_ITEMS: "array has {actual_count} item(s), minimum is {min_items}",
    TOO_MANY_ITEMS: "array has {actual_count} item(s), maximum is {max_items}",
    MISSING_REQUIRED: 'missing required property "{property}"',
    DISALLOWED_ADDITIONAL_PROPERTY: 'additional property "{property}" not allowed',
    NOT_IN_ENUM: "value {invalid_value} not in enum (allowed: {allowed:list})",
    NOT_CONST: "value {actual} does not match const (expected: {expected})",
    BELOW_MINIMUM: "value {actual:f64} is below minimum {minimum:f64}",
    ABOVE_MAXIMUM: "value {actual:f64} is above maximum {maximum:f64}",
    TOO_SHORT: "string has {actual_length} code points, minLength is {min_length}",
    TOO_LONG: "string has {actual_length} code points, maxLength is {max_length}",
    PATTERN_MISMATCH: 'string "{value}" does not match pattern "{pattern}"',
    INVALID_PATTERN_IN_SCHEMA: 'schema has invalid pattern "{pattern}"',
    INVALID_UUID_FORMAT: 'string "{value}" is not a valid UUID',
    NO_SUBSCHEMA_MATCHED:
        "instance does not match any of the {subschema_count} subschema(s)",
    MULTIPLE_SUBSCHEMAS_MATCHED:
        "instance matches {match_count} of the {subschema_count} oneOf "
        "subschema(s), exactly one required",
}
#: registry-registered checks (engine/registry.py) carry their own text
CUSTOM_MESSAGE = "{custom_message}"


@lru_cache(maxsize=None)
def _pieces(template: str) -> tuple:
    return tuple((lit, field, spec) for lit, field, spec, _
                 in string.Formatter().parse(template))


def message_template(kind: str, fields) -> tuple:
    """``(literal, field | None, spec)`` pieces of the message of an error
    of ``kind`` whose context has the keys ``fields``."""
    if "custom_message" in fields:
        return _pieces(CUSTOM_MESSAGE)
    if kind not in MESSAGES:
        raise ValueError(f"unknown error kind {kind!r}")
    return _pieces(MESSAGES[kind])


def display(v: Any, spec: str = "") -> str:
    """Display form of one context field inside a message."""
    if spec == "f64":
        return rust_f64(v)
    if spec == "list":
        return ", ".join(v)
    return f"{v}"


def render_message(err: dict) -> str:
    """One-line Display string for an error dict (``error.rs:241-398``)."""
    return display_root_or_path(err["path"]) + ": " + "".join(
        lit + ("" if field is None else display(err[field], spec))
        for lit, field, spec in message_template(err["kind"], err))
