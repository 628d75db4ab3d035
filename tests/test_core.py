"""Core model tests: pointer encoding, display parity, schema parsing.

Expectations ported from reference unit tests in
``json_schema_rs/src/json_pointer.rs`` and ``json_schema/json_schema.rs``
(cited per test).
"""

import math

import pytest

from engine import errors as E
from engine.pointer import (display_root_or_path, encode_pointer,
                            JsonPointerError, parse_pointer)
from engine.schema import (AP_ALLOW, AP_FORBID, Schema, SchemaParseError,
                           UNSET, parse_schema)


class TestPointer:
    def test_root_and_push(self):  # json_pointer.rs:381-390
        assert display_root_or_path(()) == "root"
        assert display_root_or_path(("x",)) == "/x"
        assert encode_pointer(()) == ""
        assert encode_pointer(("a", "b")) == "/a/b"

    def test_escaping(self):  # json_pointer.rs:35-57 (~ -> ~0, / -> ~1)
        assert encode_pointer(("a/b",)) == "/a~1b"
        assert encode_pointer(("m~n",)) == "/m~0n"
        assert encode_pointer(("~/",)) == "/~0~1"
        assert parse_pointer("/a~1b") == ("a/b",)
        assert parse_pointer("/m~0n") == ("m~n",)

    def test_invalid_escape(self):
        with pytest.raises(JsonPointerError):
            parse_pointer("/a~2b")
        with pytest.raises(JsonPointerError):
            parse_pointer("/a~")


class TestDisplayParity:
    def test_rust_f64(self):
        # Rust `{}` Display: integral floats print without fraction.
        assert E.rust_f64(5.0) == "5"
        assert E.rust_f64(5.5) == "5.5"
        assert E.rust_f64(-3.0) == "-3"
        assert E.rust_f64(0.0) == "0"
        assert E.rust_f64(-0.0) == "-0"
        assert E.rust_f64(1e21) == "1000000000000000000000"
        assert E.rust_f64(1e-7) == "0.0000001"
        assert E.rust_f64(0.1) == "0.1"

    def test_ryu_float(self):
        assert E.ryu_float(1.0) == "1.0"
        assert E.ryu_float(1e21) == "1e21"
        assert E.ryu_float(1e-7) == "1e-7"
        assert E.ryu_float(0.3) == "0.3"

    def test_canonical_json(self):
        # serde_json::to_string on BTreeMap values: compact, sorted keys.
        assert E.canonical_json({"b": 1, "a": [True, None, "x"]}) == \
            '{"a":[true,null,"x"],"b":1}'
        assert E.canonical_json(1.0) == "1.0"
        assert E.canonical_json("q\"\\\n") == '"q\\"\\\\\\n"'
        assert E.canonical_json("héllo") == '"héllo"'

    def test_canonical_json_string_escapes(self):
        # serde_json escapes '"', '\\', the two-letter controls and every
        # other char below U+0020 (lowercase \u00XX); DEL, U+2028, BOM,
        # non-ASCII and astral chars stay verbatim; keys escape the same.
        cases = {
            '"': r'"\""', "\\": r'"\\"', "\n": r'"\n"', "\r": r'"\r"',
            "\t": r'"\t"', "\b": r'"\b"', "\f": r'"\f"',
            "\x00": r'"\u0000"', "\x01": r'"\u0001"', "\x1f": r'"\u001f"',
            "\x0b": r'"\u000b"', "\x7f": '"\x7f"', "/": '"/"',
            "\u2028": '"\u2028"', "\u2029": '"\u2029"',
            "\ufeff": '"\ufeff"', "\u00e9": '"\u00e9"',
            "\U0001f600": '"\U0001f600"',
            'a"b\\c\x02d\u2028': '"a\\"b\\\\c\\u0002d\u2028"',
        }
        for s, want in cases.items():
            assert E.canonical_json(s) == want, repr(s)
            assert E.canonical_json({s: s}) == "{" + want + ":" + want + "}"

    def test_json_equal_number_kinds(self):
        # serde_json Number variants: 1 (int) != 1.0 (float); bool not a number.
        assert not E.json_equal(1, 1.0)
        assert E.json_equal(1, 1)
        assert E.json_equal(1.5, 1.5)
        assert not E.json_equal(True, 1)
        assert E.json_equal([1, {"a": 2}], [1, {"a": 2}])
        assert not E.json_equal([1, {"a": 2}], [1, {"a": 2.0}])

    def test_render_message_samples(self):  # error.rs:241-398 templates
        assert E.render_message({"kind": E.MISSING_REQUIRED, "path": ("name",),
                                 "property": "name"}) == \
            '/name: missing required property "name"'
        assert E.render_message({"kind": E.TOO_LONG, "path": (),
                                 "max_length": 2, "actual_length": 3}) == \
            "root: string has 3 code points, maxLength is 2"
        assert E.render_message({"kind": E.BELOW_MINIMUM, "path": ("a",),
                                 "minimum": 1.0, "actual": 0.5}) == \
            "/a: value 0.5 is below minimum 1"
        assert E.render_message({"kind": E.NOT_IN_ENUM, "path": (),
                                 "invalid_value": '"x"',
                                 "allowed": ['"a"', '"b"']}) == \
            'root: value "x" not in enum (allowed: "a", "b")'


class TestSchemaParse:
    def test_type_array_truncated_to_first(self):  # json_schema.rs:96-114
        s = parse_schema('{"type": ["string", "null"]}')
        assert s.type == "string"
        assert parse_schema('{"type": []}').type is None

    def test_additional_properties_tristate(self):  # json_schema.rs:52-94
        assert parse_schema('{"additionalProperties": true}'
                            ).additional_properties == AP_ALLOW
        assert parse_schema('{"additionalProperties": false}'
                            ).additional_properties == AP_FORBID
        ap = parse_schema('{"additionalProperties": {"type": "string"}}'
                          ).additional_properties
        assert isinstance(ap, Schema) and ap.type == "string"
        with pytest.raises(SchemaParseError):
            parse_schema('{"additionalProperties": 3}')

    def test_const_null_vs_absent(self):
        assert parse_schema('{}').const is UNSET
        assert parse_schema('{"const": null}').const is None

    def test_lenient_ignores_unknown_strict_rejects(self):  # json_schema.rs:137-275
        s = parse_schema('{"type": "string", "x-vendor": 1}')
        assert s.type == "string"
        with pytest.raises(SchemaParseError):
            parse_schema('{"type": "string", "x-vendor": 1}', strict=True)

    def test_properties_sorted(self):  # BTreeMap ordering, json_schema.rs:304-306
        s = parse_schema('{"properties": {"b": {}, "a": {}, "c": {}}}')
        assert [k for k, _ in s.sorted_properties()] == ["a", "b", "c"]

    def test_numeric_keyword_types(self):
        s = parse_schema('{"minimum": 1, "maximum": 2.5, "minLength": 0}')
        assert s.minimum == 1.0 and isinstance(s.minimum, float)
        assert s.maximum == 2.5
        assert s.min_length == 0
        with pytest.raises(SchemaParseError):
            parse_schema('{"minItems": -1}')
        with pytest.raises(SchemaParseError):
            parse_schema('{"minLength": 1.5}')


class TestStorage:
    def test_parquet_fallback_when_lance_missing(self):
        from engine import storage
        # this container has no lance module
        assert storage.resolve_format() == (
            "lance" if storage.lance_available() else "parquet")
        if not storage.lance_available():
            import pytest
            with pytest.raises(ImportError):
                storage.resolve_format("lance")
        assert storage.resolve_format("parquet") == "parquet"


class TestSpecVersion:
    def test_inference(self):
        from engine.schema import infer_spec_version, parse_schema
        s = parse_schema('{"$schema":"https://json-schema.org/draft/2020-12/schema"}')
        assert infer_spec_version(s) == "Draft202012"
        s = parse_schema('{"$schema":"http://json-schema.org/draft-07/schema#"}')
        assert infer_spec_version(s) == "Draft07"
        assert infer_spec_version(parse_schema('{}')) == "Draft202012"
        s = parse_schema('{"$schema":"http://example.com/custom"}')
        assert infer_spec_version(s) == "Draft202012"


class TestEcmaTriage:
    def test_dollar_translation_edges(self):
        from engine.ecma import translate_ecma, re2_safe
        assert translate_ecma("a$") == "a\\Z"
        assert translate_ecma("a\\$b") == "a\\$b"        # escaped $ literal
        assert translate_ecma("[$]") == "[$]"            # $ in class literal
        assert translate_ecma("a$|b$") == "a\\Z|b\\Z"
        import re
        rx = re.compile(translate_ecma("^abc$"))
        assert rx.search("abc") and not rx.search("abc\n")

    def test_re2_safety_whitelist(self):
        from engine.ecma import re2_safe
        assert re2_safe("^doc-[0-9a-f]+$")
        assert re2_safe("^media://[0-9a-f]{16}$")
        assert re2_safe("a|b(c)*")
        assert not re2_safe(r"\d+")          # perl class: unicode divergence
        assert not re2_safe("a$b")           # mid-pattern $
        assert not re2_safe("(?=x)")         # lookahead
        assert not re2_safe("héllo")         # non-ASCII
        assert not re2_safe("[a-z")          # unterminated class
        assert not re2_safe(r"\p{L}")        # unsupported escape


class TestAllDisplayTemplates:
    """One exact-render check per variant (error.rs:241-398 templates)."""

    def test_every_variant(self):
        cases = [
            ({"kind": E.INVALID_REF, "path": ("x",), "ref_str": "#/$defs/M",
              "reason": 'DefsMissing { ref_str: "#/$defs/M" }'},
             '/x: could not resolve $ref "#/$defs/M": '
             'DefsMissing { ref_str: "#/$defs/M" }'),
            ({"kind": E.EXPECTED_OBJECT, "path": (), "got": "array"},
             "root: expected object, got array"),
            ({"kind": E.EXPECTED_STRING, "path": (), "got": "number"},
             "root: expected string, got number"),
            ({"kind": E.EXPECTED_INTEGER, "path": (), "got": "number"},
             "root: expected integer, got number"),
            ({"kind": E.EXPECTED_NUMBER, "path": (), "got": "string"},
             "root: expected number, got string"),
            ({"kind": E.EXPECTED_ARRAY, "path": (), "got": "object"},
             "root: expected array, got object"),
            ({"kind": E.EXPECTED_BOOLEAN, "path": (), "got": "null"},
             "root: expected boolean, got null"),
            ({"kind": E.DUPLICATE_ARRAY_ITEMS, "path": (),
              "duplicate_value": '{"a":1}'},
             'root: array has duplicate items (value: {"a":1})'),
            ({"kind": E.TOO_FEW_ITEMS, "path": (), "min_items": 2,
              "actual_count": 1},
             "root: array has 1 item(s), minimum is 2"),
            ({"kind": E.TOO_MANY_ITEMS, "path": (), "max_items": 2,
              "actual_count": 5},
             "root: array has 5 item(s), maximum is 2"),
            ({"kind": E.MISSING_REQUIRED, "path": ("a", "b"),
              "property": "b"},
             '/a/b: missing required property "b"'),
            ({"kind": E.DISALLOWED_ADDITIONAL_PROPERTY, "path": ("q",),
              "property": "q"},
             '/q: additional property "q" not allowed'),
            ({"kind": E.NOT_IN_ENUM, "path": (), "invalid_value": "3",
              "allowed": ['"a"', "1"]},
             'root: value 3 not in enum (allowed: "a", 1)'),
            ({"kind": E.NOT_CONST, "path": (), "expected": "null",
              "actual": "0"},
             "root: value 0 does not match const (expected: null)"),
            ({"kind": E.BELOW_MINIMUM, "path": (), "minimum": 1.5,
              "actual": 0.25},
             "root: value 0.25 is below minimum 1.5"),
            ({"kind": E.ABOVE_MAXIMUM, "path": (), "maximum": 10.0,
              "actual": 11.0},
             "root: value 11 is above maximum 10"),
            ({"kind": E.TOO_SHORT, "path": (), "min_length": 3,
              "actual_length": 1},
             "root: string has 1 code points, minLength is 3"),
            ({"kind": E.TOO_LONG, "path": (), "max_length": 3,
              "actual_length": 9},
             "root: string has 9 code points, maxLength is 3"),
            ({"kind": E.PATTERN_MISMATCH, "path": (), "pattern": "^a$",
              "value": "b"},
             'root: string "b" does not match pattern "^a$"'),
            ({"kind": E.INVALID_PATTERN_IN_SCHEMA, "path": (),
              "pattern": "["},
             'root: schema has invalid pattern "["'),
            ({"kind": E.INVALID_UUID_FORMAT, "path": (), "value": "nope"},
             'root: string "nope" is not a valid UUID'),
            ({"kind": E.NO_SUBSCHEMA_MATCHED, "path": (),
              "subschema_count": 3},
             "root: instance does not match any of the 3 subschema(s)"),
            ({"kind": E.MULTIPLE_SUBSCHEMAS_MATCHED, "path": (),
              "subschema_count": 3, "match_count": 2},
             "root: instance matches 2 of the 3 oneOf subschema(s), "
             "exactly one required"),
        ]
        assert {c[0]["kind"] for c in cases} == set(E.ALL_KINDS)
        for err, expected in cases:
            assert E.render_message(err) == expected


class TestSchemaSerialization:
    def test_round_trip_and_field_order(self):
        import json
        from engine.schema import parse_schema, schema_to_dict
        src = '''{
          "$schema": "https://json-schema.org/draft/2020-12/schema",
          "type": "object", "required": ["a"],
          "properties": {"a": {"type": "integer", "minimum": 0,
                               "maximum": 10},
                         "b": {"type": "array", "minItems": 1,
                               "uniqueItems": true,
                               "items": {"enum": ["x", "y"]}}},
          "additionalProperties": false,
          "$defs": {"S": {"type": "string", "pattern": "^a",
                          "minLength": 1, "title": "T",
                          "default": null, "deprecated": true}},
          "allOf": [{"type": "object"}]}'''
        s1 = parse_schema(src)
        d = schema_to_dict(s1)
        s2 = parse_schema(d)
        assert schema_to_dict(s2) == d  # stable round-trip
        # serde struct-declaration field order
        assert list(d.keys()) == ["$schema", "type", "$defs", "properties",
                                  "additionalProperties", "required", "allOf"]
        sd = d["$defs"]["S"]
        assert list(sd.keys()) == ["type", "title", "minLength", "pattern",
                                   "default", "deprecated"]
        # const null vs absent survives the round-trip
        from engine.schema import UNSET
        assert parse_schema(schema_to_dict(
            parse_schema('{"const": null}'))).const is None
        assert parse_schema(schema_to_dict(parse_schema('{}'))).const is UNSET

    def test_empty_containers_skipped(self):
        from engine.schema import parse_schema, schema_to_dict
        d = schema_to_dict(parse_schema(
            '{"required": [], "enum": [], "properties": {}, "allOf": [],'
            ' "$defs": {}}'))
        assert d == {}  # all skip rules fire (None OR empty)


class TestStrictModeNested:
    def test_unknown_keys_rejected_at_any_depth(self):
        from engine.schema import SchemaParseError, parse_schema
        nested = ('{"type":"object","properties":{"a":{"$defs":'
                  '{"X":{"frobnicate":1}}}}}')
        assert parse_schema(nested).properties["a"].defs["X"] is not None
        import pytest
        with pytest.raises(SchemaParseError, match="frobnicate"):
            parse_schema(nested, strict=True)
        with pytest.raises(SchemaParseError):
            parse_schema('{"items":{"additionalProperties":{"zzz":1}}}',
                         strict=True)
        with pytest.raises(SchemaParseError):
            parse_schema('{"allOf":[{"nope":1}]}', strict=True)


class TestSpecVersionUris:
    """Exact-URI draft matching (spec_version.rs:48-75)."""

    def test_exact_uris(self):
        from engine.schema import spec_version_from_uri
        assert spec_version_from_uri(
            "https://json-schema.org/draft/2020-12/schema") == "Draft202012"
        assert spec_version_from_uri(
            "http://json-schema.org/draft-07/schema#") == "Draft07"
        assert spec_version_from_uri(
            "http://json-schema.org/draft-05/schema#") == "Draft05"
        # legacy deprecated alias -> Draft04
        assert spec_version_from_uri(
            "http://json-schema.org/schema#") == "Draft04"
        # trailing slash normalized
        assert spec_version_from_uri(
            "https://json-schema.org/draft/2019-09/schema/") == "Draft201909"
        # whitespace trimmed
        assert spec_version_from_uri(
            "  https://json-schema.org/draft/2020-12/schema ") == \
            "Draft202012"

    def test_unknown_and_empty(self):
        from engine.schema import spec_version_from_uri
        assert spec_version_from_uri("") is None
        assert spec_version_from_uri("https://example.com/schema") is None
        # substring-lookalikes are NOT matched (exact matching only)
        assert spec_version_from_uri(
            "https://mysite.org/2020-12/custom") is None
