from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import weakref
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from normlens import (
    AttributeSpec,
    ClassificationMode,
    DecompositionError,
    FunctionalDependency,
    NormalForm,
    RelationSchema,
    Schema,
    Severity,
    ValidationReport,
    candidate_keys,
    emit_report,
    emit_schema,
    normalize_fds,
    normalize_to_bcnf,
    parse_schema,
    partition_preventing,
    schema_nc,
)
from normlens import completeness, dsl, transform
from normlens.cli import main
from normlens.model import _IDENT, IDENTIFIER

from conftest import CASE_STUDY_PATH, REPO_ROOT, fixture_copies
from corpus import benchmark_texts, build_corpus, build_multi_corpus, fd, probe_inputs

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_parse_case_study_fixture(case_study):
    assert case_study.name == "PropertyInspection"
    assert len(case_study.relations) == 1
    assert len(case_study.fds) == 16
    rel = case_study.relations[0]
    assert rel.primary_key == ("propertyNo", "iDate")
    assert all(spec.atomic for spec in rel.attributes)
    # Written attribute order survives parsing.
    assert case_study.fds[8].determinant == ("carReg", "iDate", "iTime")
    assert case_study.fds[8].label == "FD9"


def test_parse_minimal_document():
    result = parse_schema("schema s\nrelation R(a) key(a)")
    assert result.ok
    assert result.schema == Schema("s", (RelationSchema("R", ("a",), ("a",)),), ())


def test_parse_reports_empty_dependent_list():
    result = parse_schema("schema s\nrelation R(a, b) key(a)\nfd F1: a ->")
    assert result.schema is None
    (diag,) = result.syntax_errors
    assert diag.message == "empty dependent list"
    assert diag.line == 3
    assert diag.column == 12


def test_parse_reports_empty_determinant_list():
    result = parse_schema("schema s\nrelation R(a, b) key(a)\nfd F1: -> b")
    (diag,) = result.syntax_errors
    assert diag.message == "empty determinant list"
    assert diag.line == 3
    assert diag.column == 8


def test_parse_non_atomic_marker():
    result = parse_schema("schema s\nrelation R(a, b*, c) key(a)")
    assert result.schema is not None
    assert result.schema.relations[0].attributes == (
        AttributeSpec("a"),
        AttributeSpec("b", atomic=False),
        AttributeSpec("c"),
    )


def test_parse_skips_comments_and_blank_lines():
    text = "# heading\n\nschema s  # trailing\n\nrelation R(a) key(a)  # note\n"
    result = parse_schema(text)
    assert result.ok and result.schema is not None


def test_parser_recovers_per_line():
    text = "schema s\nrelation R(a key(a)\nrelation T(b) key(b)\nfd : a -> b\n"
    result = parse_schema(text)
    assert result.schema is None
    assert len(result.syntax_errors) == 2
    assert {d.line for d in result.syntax_errors} == {2, 4}


def test_relation_after_fd_is_an_error():
    text = "schema s\nrelation R(a, b) key(a)\nfd F1: a -> b\nrelation T(c) key(c)"
    result = parse_schema(text)
    assert any(
        "must come before" in d.message and d.line == 4 for d in result.syntax_errors
    )


def test_duplicate_schema_declaration():
    result = parse_schema("schema s\nschema t\nrelation R(a) key(a)")
    assert any(d.message == "duplicate schema declaration" for d in result.syntax_errors)


def test_missing_schema_declaration():
    result = parse_schema("relation R(a) key(a)")
    messages = {d.message for d in result.syntax_errors}
    assert "expected 'schema' declaration first" in messages
    assert "missing schema declaration" in messages


def test_schema_without_relations():
    result = parse_schema("schema s")
    assert any(d.message == "schema declares no relations" for d in result.syntax_errors)


def test_unknown_declaration_keyword():
    result = parse_schema("schema s\ntable R(a) key(a)")
    assert any("expected 'schema', 'relation' or 'fd'" in d.message for d in result.syntax_errors)


def test_semantic_violation_becomes_anchored_diagnostic():
    text = "schema s\nrelation R(a, b) key(a)\nfd F1: a -> a"
    result = parse_schema(text)
    assert result.schema is None
    assert not result.syntax_errors  # grammar is fine, semantics are not
    (diag,) = [d for d in result.diagnostics if d.severity is Severity.ERROR]
    assert diag.code == "TRIVIAL_FD"
    assert diag.line == 3


def test_primary_key_warning_keeps_schema_usable():
    result = parse_schema("schema s\nrelation R(a, b) key(a)")
    assert result.ok and result.schema is not None
    (diag,) = result.diagnostics
    assert diag.severity is Severity.WARNING
    assert diag.code == "PRIMARY_KEY_NOT_SUPERKEY"


def test_duplicate_attribute_in_fd_list_warns_and_ignores():
    result = parse_schema("schema s\nrelation R(a, b) key(a, b)\nfd F1: a, a -> b")
    assert result.schema is not None
    assert result.schema.fds[0].determinant == ("a",)
    assert any(d.severity is Severity.WARNING and "duplicate" in d.message for d in result.diagnostics)


def test_round_trip_fixture(case_study):
    assert parse_schema(emit_schema(case_study)).schema == case_study


def test_round_trip_multi_relation_schema():
    schema = Schema(
        "warehouse",
        (
            RelationSchema("Stock", ("sku", AttributeSpec("bins", atomic=False)), ("sku",)),
            RelationSchema("Vendor", ("vid", "name"), ("vid",)),
        ),
        (fd("F1", "sku", "bins"), fd("F2", "vid", "name")),
    )
    result = parse_schema(emit_schema(schema))
    assert result.schema == schema


def test_round_trip_corpus():
    for schema, _keys in build_corpus(count=40, seed=17):
        assert parse_schema(emit_schema(schema)).schema == schema


@settings(max_examples=200)
@given(st.text(max_size=200))
def test_parser_never_crashes_on_fuzz_input(text):
    result = parse_schema(text)
    for diag in result.diagnostics:
        assert diag.line >= 1
        assert diag.column >= 1


DSL_TOKENS = (
    "schema", "relation", "fd", "key", "(", ")", ",", ":", "->", "*", "#", "-", ">",
    "a", "b", "R", "S", "F1", "_x9", "9z", " ", " ", "\t", "\n", "\n", "\r", "\r\n",
    "\x0c", "\x85", "\u2028", "é", "Ω", "名", "🙂",
)


@settings(max_examples=300)
@given(st.lists(st.sampled_from(DSL_TOKENS), max_size=80).map("".join))
def test_diagnostics_point_inside_the_text_on_token_fuzz(text):
    # Lines as grep -n counts them: only \n, \r\n and \r end one.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n").split("\n")
    for diag in parse_schema(text).diagnostics:
        assert 1 <= diag.line <= max(1, len(lines))
        line = lines[diag.line - 1] if lines else ""
        assert 1 <= diag.column <= len(line) + 1


_NAME = st.sampled_from(["a", "b", "a", "R", "F1", "_x9", "key", "fd", "relation"])
_NAMES = st.lists(_NAME, min_size=1, max_size=4).map(lambda names: " , ".join(names).split(" "))
_ATTRS = st.lists(st.tuples(_NAME, st.sampled_from([[], ["*"]])), min_size=1, max_size=4).map(
    lambda attrs: [token for i, (name, star) in enumerate(attrs) for token in [","][:i] + [name] + star]
)
_RELATION_TOKENS = st.tuples(_NAME, _ATTRS, _NAMES).map(
    lambda parts: ["relation", parts[0], "(", *parts[1], ")", "key", "(", *parts[2], ")"]
)
_FD_TOKENS = st.tuples(_NAME, _NAMES, _NAMES).map(
    lambda parts: ["fd", parts[0], ":", *parts[1], "->", *parts[2]]
)
# "" between two names runs them together; \x0c and \x85 are whitespace too.
_GAP = st.sampled_from(["", " ", " ", "\t", "\x0c", "\x85", " \t "])


@settings(max_examples=1000)
@given(st.one_of(_RELATION_TOKENS, _FD_TOKENS), st.data())
def test_the_line_match_accepts_exactly_what_the_token_walk_accepts(tokens, data):
    # Well-formed declarations, some broken by one token dropped, added or swapped.
    edit = data.draw(st.sampled_from(["none", "none", "drop", "add", "swap"]))
    at = data.draw(st.integers(0, len(tokens) - 1))
    token = data.draw(st.sampled_from([t for t in DSL_TOKENS[:16] if t != "#"] + ["é", "9z"]))
    if edit == "drop":
        del tokens[at]
    elif edit == "add":
        tokens.insert(at, token)
    elif edit == "swap":
        tokens[at] = token
    gaps = data.draw(st.lists(_GAP, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    content = "".join(gap + token for gap, token in zip(gaps, tokens)) + gaps[-1]
    assume(content.strip())

    walk: list[dsl.ParseDiagnostic] = []
    dsl._walk(walk, 1, content)
    matched = dsl._DECLARATION_RE.fullmatch(content) is not None
    assert matched == (not any(d.severity is Severity.ERROR for d in walk)), content
    if not matched:
        return
    # Read without validation, so every matched declaration comes back.
    comment = data.draw(st.sampled_from(["", "#", "# x, y) ->", "\t# key(a)"]))
    text = "schema s\nrelation S(a) key(a)\n" + content + comment
    with mock.patch.object(dsl, "validate_schema", lambda schema: ValidationReport(())):
        result = parse_schema(text)
    # Both report the same repeated-name warnings, at the same columns.
    assert [(d.line, d.column, d.message) for d in result.diagnostics] == [
        (3, d.column, d.message) for d in walk
    ]
    # Without repeats, the declaration keeps every character of the line but whitespace.
    if not walk:
        built = emit_schema(result.schema).splitlines()[-1]
        assert "".join(built.split()) == "".join(content.split())


_HEAD = "schema s\n"
_REL = "schema s\nrelation R(a, b) key(a)\n"
_NO_RELATIONS = (1, 1, "error", "schema declares no relations")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("schema", [(1, 7, "error", "expected schema name"),
                    (1, 1, "error", "missing schema declaration")]),
        ("schema  ", [(1, 7, "error", "expected schema name"),
                      (1, 1, "error", "missing schema declaration")]),
        ("schema 9", [(1, 8, "error", "expected schema name"),
                      (1, 1, "error", "missing schema declaration")]),
        ("schema s extra", [(1, 10, "error", "unexpected text after schema declaration"),
                            (1, 1, "error", "missing schema declaration")]),
        (_HEAD + "schema t", [(2, 1, "error", "duplicate schema declaration"), _NO_RELATIONS]),
        ("relation R(a) key(a)", [(1, 1, "error", "expected 'schema' declaration first"),
                                  (1, 1, "error", "missing schema declaration")]),
        ("fd F1: a -> b\n" + _REL, [(1, 1, "error", "expected 'schema' declaration first")]),
        (_HEAD + "table R(a)",
         [(2, 1, "error", "expected 'schema', 'relation' or 'fd', got 'table'"), _NO_RELATIONS]),
        (_HEAD + "relation R(a", [(2, 13, "error", "expected ')'"), _NO_RELATIONS]),
        ("schema s\r\nrelation R(a\r\n", [(2, 13, "error", "expected ')'"), _NO_RELATIONS]),
        (_HEAD + "relation R(a)", [(2, 14, "error", "expected 'key'"), _NO_RELATIONS]),
        (_HEAD + "relation R(a)   ", [(2, 14, "error", "expected 'key'"), _NO_RELATIONS]),
        (_HEAD + "relation R(a)  # note", [(2, 14, "error", "expected 'key'"), _NO_RELATIONS]),
        (_HEAD + "relation R(a) kee(a)", [(2, 15, "error", "expected 'key'"), _NO_RELATIONS]),
        (_HEAD + "relation R(a) key", [(2, 18, "error", "expected '('"), _NO_RELATIONS]),
        (_HEAD + "relation R(a) key(a", [(2, 20, "error", "expected ')'"), _NO_RELATIONS]),
        (_HEAD + "relation R(a) key(a\t\x0c", [(2, 20, "error", "expected ')'"), _NO_RELATIONS]),
        (_HEAD + "relation R(a) key()", [(2, 19, "error", "empty key list"), _NO_RELATIONS]),
        (_HEAD + "relation R()", [(2, 12, "error", "empty attribute list"), _NO_RELATIONS]),
        (_HEAD + "relation R(a,) key(a)",
         [(2, 14, "error", "expected attribute name"), _NO_RELATIONS]),
        (_HEAD + "relation 9R(a) key(a)",
         [(2, 10, "error", "expected relation name"), _NO_RELATIONS]),
        (_HEAD + "relation R a", [(2, 12, "error", "expected '('"), _NO_RELATIONS]),
        (_HEAD + "relation R(a*, b) key(a) x",
         [(2, 26, "error", "unexpected text after relation declaration"), _NO_RELATIONS]),
        (_HEAD + "relation R(a, b) key(a, a)",
         [(2, 25, "warning", "duplicate attribute 'a' in key list (ignored)"),
          (2, 10, "warning",
           "primary key (a) of relation 'R' does not determine every attribute")]),
        (_REL + "fd F1: a", [(3, 9, "error", "expected '->'")]),
        (_REL + "fd F1: a   # note", [(3, 9, "error", "expected '->'")]),
        (_REL + "fd : a -> b", [(3, 4, "error", "expected fd label")]),
        (_REL + "fd F1 a -> b", [(3, 7, "error", "expected ':'")]),
        (_REL + "fd F1: -> b", [(3, 8, "error", "empty determinant list")]),
        (_REL + "fd F1: a ->", [(3, 12, "error", "empty dependent list")]),
        (_REL + "fd F1: a -> b,", [(3, 15, "error", "expected dependent attribute")]),
        (_REL + "fd F1: a -> b c", [(3, 15, "error", "unexpected text after fd declaration")]),
        (_REL + "fd F1: a, a -> b",
         [(3, 11, "warning", "duplicate attribute 'a' in determinant list (ignored)")]),
        (_REL + "fd F1: a -> b\nrelation T(c) key(c)",
         [(4, 1, "error", "relation declarations must come before fd declarations")]),
        (_HEAD + "relation R(a, b) key(a,)",
         [(2, 24, "error", "expected key attribute"), _NO_RELATIONS]),
        (_REL + "fd F1: a, -> b", [(3, 11, "error", "expected determinant attribute")]),
        (_REL + "fd F1: a, a ->",
         [(3, 11, "warning", "duplicate attribute 'a' in determinant list (ignored)"),
          (3, 15, "error", "empty dependent list")]),
        (_HEAD + "relation R(a, b) key(a, a",
         [(2, 25, "warning", "duplicate attribute 'a' in key list (ignored)"),
          (2, 26, "error", "expected ')'"), _NO_RELATIONS]),
        (_HEAD + "relation R(a*, b*,) key(a)",
         [(2, 19, "error", "expected attribute name"), _NO_RELATIONS]),
        (_REL + "fd F1: a -> b, b c",
         [(3, 16, "warning", "duplicate attribute 'b' in dependent list (ignored)"),
          (3, 18, "error", "unexpected text after fd declaration")]),
    ],
)
def test_syntax_messages_and_columns(text, expected):
    diagnostics = parse_schema(text).diagnostics
    assert [(d.line, d.column, d.severity.value, d.message) for d in diagnostics] == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        # A bad key in the first of two relations named R.
        ("schema s\nrelation R(a) key(z)\nrelation R(b) key(b)",
         [("PRIMARY_KEY_NOT_IN_RELATION", 2, 10), ("DUPLICATE_RELATION_NAME", 3, 10)]),
        ("schema s\nrelation R(a, a) key(a)\nrelation R(b) key(b)",
         [("DUPLICATE_ATTRIBUTE", 2, 10), ("DUPLICATE_RELATION_NAME", 3, 10)]),
        ("schema s\nrelation R(a, b) key(a)\nfd F1: a -> a\nfd F1: a -> b",
         [("TRIVIAL_FD", 3, 4), ("DUPLICATE_FD_LABEL", 4, 4)]),
        # Equal declarations are equal dataclasses, yet each keeps its own line.
        ("schema s\n" + "relation R(a) key(a)\n" * 3,
         [("DUPLICATE_RELATION_NAME", 3, 10), ("DUPLICATE_RELATION_NAME", 4, 10)]),
        ("schema s\nrelation R(a, b, c) key(a)\nfd F1: a -> b\nfd F1: a -> c\nfd F1: b -> c",
         [("DUPLICATE_FD_LABEL", 4, 4), ("DUPLICATE_FD_LABEL", 5, 4)]),
    ],
    ids=["bad-key", "duplicate-attribute", "trivial-fd", "equal-relations", "label-thrice"],
)
def test_findings_about_repeated_names_point_at_their_own_declaration(text, expected):
    diagnostics = parse_schema(text).diagnostics
    assert [(d.code, d.line, d.column) for d in diagnostics] == expected


def test_a_shared_list_text_with_a_repeat_warns_on_every_line():
    # One list text, "a, b, a", as a key and twice as a determinant.
    text = "schema s\nrelation R(a, b, c) key(a, b, a)\nfd F1: a, b, a -> c\nfd F2: a, b, a -> c\n"
    result = parse_schema(text)
    assert [(d.line, d.column, d.severity.value, d.message) for d in result.diagnostics] == [
        (2, 31, "warning", "duplicate attribute 'a' in key list (ignored)"),
        (3, 14, "warning", "duplicate attribute 'a' in determinant list (ignored)"),
        (4, 14, "warning", "duplicate attribute 'a' in determinant list (ignored)"),
    ]
    (rel,) = result.schema.relations
    assert rel.primary_key == result.schema.fds[0].determinant == ("a", "b")


def test_declarations_share_each_distinct_name_list(case_study, monkeypatch):
    scanned = Counter()
    ident = dsl._IDENT_RE

    class Counting:
        def findall(self, text):
            scanned[text] += 1
            return ident.findall(text)

    monkeypatch.setattr(dsl, "_IDENT_RE", Counting())
    schema = fixture_copies(case_study, 4)
    parsed = parse_schema(emit_schema(schema)).schema
    assert parsed == schema
    lists = [
        *(rel.primary_key for rel in parsed.relations),
        *(names for item in parsed.fds for names in (item.determinant, item.dependents)),
    ]
    assert scanned == Counter({", ".join(names) for names in lists})
    # The fixture's 16 FDs have 6 determinants: FDs that repeat a list text hold one tuple.
    by_text = {}
    for names in lists:
        assert by_text.setdefault(", ".join(names), names) is names
    assert len({id(item.determinant) for item in parsed.fds}) == 6 * 4


_CORPUS_TEXTS = [emit_schema(schema) for schema, _keys in build_corpus(count=200, seed=29)]


@settings(max_examples=200)
@given(st.sampled_from(_CORPUS_TEXTS), st.randoms(use_true_random=False))
def test_lists_read_unshared_parse_as_shared_ones(text, rng):
    # Random spaces around every comma give most lists a text of their own.
    spaced = re.sub(",", lambda _: " " * rng.randint(0, 2) + "," + " " * rng.randint(0, 3), text)
    shared, unshared = parse_schema(text), parse_schema(spaced)
    assert unshared.schema == shared.schema
    assert [(d.line, d.severity, d.code, d.message) for d in unshared.diagnostics] == [
        (d.line, d.severity, d.code, d.message) for d in shared.diagnostics
    ]


_BENCHMARK = benchmark_texts(1)


def _assert_same_text(got: str, want: str) -> None:
    # Asserts on the first differing line only: pytest's diff of two megabyte texts,
    # which it builds under -v too, takes minutes.
    if got == want:
        return
    got_lines, want_lines = got.split("\n"), want.split("\n")
    at = next(
        (n for n, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
        min(len(got_lines), len(want_lines)),
    )
    assert got_lines[at : at + 1] == want_lines[at : at + 1], f"first difference on line {at + 1}"


@pytest.mark.parametrize("name", sorted(_BENCHMARK))
def test_the_benchmark_texts_read_unshared_give_the_same_output(name):
    # A space after every comma, then the line number's binary digits, lowest first, as
    # tab for 1 and space for 0: no two lines share a list text of two or more names.
    spaced = "\n".join(
        line.replace(",", ", " + f"{number:b}"[::-1].translate({48: " ", 49: "\t"}))
        for number, line in enumerate(_BENCHMARK[name].split("\n"), 1)
    )
    for command in ("check", "analyze"):
        code, out = _structured(command, ClassificationMode.PRIMARY, _BENCHMARK[name])
        spaced_code, spaced_out = _structured(command, ClassificationMode.PRIMARY, spaced)
        assert spaced_code == code
        _assert_same_text(spaced_out, out)


def _assert_built_alike(record, built):
    # Every field and derived value, by type and value, and the hash; all are immutable.
    assert {type(value) for value in vars(built).values()} <= {str, bool, tuple, frozenset}
    assert vars(record).keys() == vars(built).keys()
    for name, value in vars(built).items():
        got = vars(record)[name]
        assert (type(got), got) == (type(value), value), name
    assert hash(record) == hash(built)


# Repeated names in key, determinant and dependent lists, and a non-atomic attribute.
_REPEATS = "schema s\nrelation R(a, b, c*) key(b, a, b)\nfd F1: a, a -> b, c, b\nfd F2: b -> c\n"


def _texts_and_schemas(family):
    # (text, the schema its constructors built, or None) of each input of a family.
    if family == "corpus":
        return [(emit_schema(s), s) for s, _keys in build_corpus(count=200, seed=31)]
    if family == "multi":
        return [(emit_schema(s), s) for s in build_multi_corpus(50, seed=31)]
    if family == "probes":
        return [(text, None) for _label, text in probe_inputs()]
    return [(_REPEATS if family == "repeats" else _BENCHMARK[family], None)]


@pytest.mark.parametrize("family", ["corpus", "multi", "probes", "repeats", *sorted(_BENCHMARK)])
def test_parsed_records_and_singletons_equal_constructor_built_ones(family):
    for text, built in _texts_and_schemas(family):
        schema = parse_schema(text).schema
        if built is not None:
            for got, want in zip((*schema.relations, *schema.fds), (*built.relations, *built.fds)):
                _assert_built_alike(got, want)
        for rel in schema.relations:
            _assert_built_alike(rel, RelationSchema(rel.name, rel.attributes, rel.primary_key))
            for spec in rel.attributes:
                _assert_built_alike(spec, AttributeSpec(spec.name, spec.atomic))
        for item in (*schema.fds, *normalize_fds(schema.fds)):
            rebuilt = FunctionalDependency(item.label, item.determinant, item.dependents)
            _assert_built_alike(item, rebuilt)


# str.splitlines() also ends a line at these; grep -n and the DSL do not.
_NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("separator", _NOT_LINE_ENDS, ids=[hex(ord(c)) for c in _NOT_LINE_ENDS])
def test_only_newlines_end_a_line(separator):
    text = f"schema s\n# page{separator}\nrelation R(a) key(z)\n"
    (finding,) = parse_schema(text).diagnostics
    assert (finding.code, finding.line, finding.column) == ("PRIMARY_KEY_NOT_IN_RELATION", 3, 10)
    # Inside a declaration the character is whitespace between two tokens.
    result = parse_schema(f"schema s\nrelation R(a){separator}key(a)\n")
    assert result.diagnostics == ()
    assert result.schema == Schema("s", (RelationSchema("R", ("a",), ("a",)),), ())


def test_a_leading_byte_order_mark_is_not_schema_text():
    text = "schema s\nrelation R(a, b) key(a)\nfd F1: a -> b\n"
    result = parse_schema("\ufeff" + text)
    assert result.ok
    assert result == parse_schema(text)


def test_the_documented_identifier_rule_is_the_one_the_code_uses():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for text in (readme, dsl.__doc__):
        (rule,) = re.findall(r"^ *IDENT +:= (\S+) *$", text, re.MULTILINE)
        assert rule == _IDENT
    assert IDENTIFIER.pattern == _IDENT + r"\Z"
    assert dsl._IDENT is _IDENT


def test_source_document_provenance_in_rendering():
    # The parse knows only the text; the caller names its source when rendering.
    diagnostic = parse_schema("schema s").diagnostics[0]
    assert diagnostic.render("demo.nls") == "demo.nls:1:1: error: schema declares no relations"
    assert diagnostic.render().startswith("<input>:1:1: error:")


# --- report rendering --------------------------------------------------------


def test_schema_nc_text_report_total_equation(step1):
    text = emit_report(schema_nc(step1.nc_after.schema))
    assert "2.71 + 4 = 6.71" in text.splitlines()
    assert "NC = 2.71 (exact 19/7)" in text
    assert "membership x = 0.71 (exact 5/7)" in text


def test_single_relation_text_report(case_study):
    text = emit_report(schema_nc(case_study))
    lines = text.splitlines()
    assert lines[-1] == "1.62"
    assert "NC = 1.62 (exact 13/8)" in text


def test_empty_schema_text_report():
    text = emit_report(schema_nc(Schema("s", (), ())))
    assert text.splitlines()[-1] == "0.00"


def test_schema_nc_structured_report(case_study):
    payload = json.loads(emit_report(schema_nc(case_study), "structured"))
    assert payload["kind"] == "schema_nc"
    assert payload["mode"] == "primary"
    assert payload["total"] == {"num": 13, "den": 8, "display": "1.62"}
    relation = payload["relations"][0]
    assert relation["normal_form"] == {"label": "1NF", "level": 1}
    assert relation["membership"] == {"num": 5, "den": 8, "display": "0.62"}


def test_trace_reports(case_study):
    from normlens import normalize_to_bcnf
    from conftest import CASE_STUDY_RENAMES

    trace = normalize_to_bcnf(case_study, rename=CASE_STUDY_RENAMES)
    text = emit_report(trace)
    assert "initial NC: 1.62" in text
    assert "new relation:     Property(propertyNo, pAddress)" in text
    assert "final NC: 4 + 4 + 4 + 4 = 16.00" in text
    assert "unpreserved FDs: FD4, FD5, FD9, FD10, FD11, FD12, FD13, FD15" in text
    assert "schema after step" not in text

    with_snapshots = emit_report(trace, dsl_snapshots=True)
    assert "  schema after step 1:" in with_snapshots
    assert "    schema PropertyInspection" in with_snapshots

    payload = json.loads(emit_report(trace, "structured"))
    assert payload["kind"] == "transform_trace"
    assert [step["moved_fds"] for step in payload["steps"]] == [["FD6"], ["FD7"], ["FD8"]]
    assert payload["final_nc"]["total"]["display"] == "16.00"


def test_reports_are_byte_stable(case_study):
    report = schema_nc(case_study)
    for fmt in ("text", "structured"):
        assert emit_report(report, fmt) == emit_report(report, fmt)


def test_emit_report_rejects_unknown_formats_and_types(case_study):
    report = schema_nc(case_study)
    with pytest.raises(ValueError):
        emit_report(report, "yaml")
    with pytest.raises(TypeError):
        emit_report(case_study)  # a Schema is not a report
    with pytest.raises(TypeError):
        emit_report(partition_preventing(case_study.relations[0], case_study.fds))
    written = []
    with pytest.raises(ValueError):
        dsl.write_report(report, "yaml", written.append)
    assert written == []
    with pytest.raises(TypeError):
        dsl.write_report(case_study, "text", written.append)
    keys = dsl.CandidateKeys(case_study, ())  # no key tuple for the one relation
    for fmt in ("text", "structured"):
        with pytest.raises(ValueError):
            emit_report(keys, fmt)



def test_write_report_writes_what_emit_report_returns(case_study):
    trace = normalize_to_bcnf(case_study)
    rel = case_study.relations[0]
    keys = dsl.CandidateKeys(case_study, (candidate_keys(rel, case_study.projected_fds(rel)),))
    for report in (parse_schema(emit_schema(case_study)), keys, schema_nc(case_study), trace):
        for fmt in ("text", "structured"):
            chunks = []
            dsl.write_report(report, fmt, chunks.append, dsl_snapshots=True)
            assert "".join(chunks) == emit_report(report, fmt, dsl_snapshots=True)
            # Only a structured trace is written piecewise, at least once per step.
            streamed = report is trace and fmt == "structured"
            assert len(chunks) > len(trace.steps) if streamed else len(chunks) == 1


# --- structured rendering ------------------------------------------------------

_DOCUMENTS = [emit_schema(schema) for schema, _keys in build_corpus(100)]
_DOCUMENTS += [emit_schema(schema) for schema in build_multi_corpus(40)]
# A line's first token, which check quotes when it starts no declaration.
_BAD_TOKENS = st.characters(min_codepoint=0x80, blacklist_categories=("Cs",)).filter(
    lambda char: char.isprintable() and not char.isspace()
) | st.sampled_from(['"', "\\", "\U0001f600"])


def _structured(command: str, mode: ClassificationMode, text: str) -> tuple[int, str]:
    stdin = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(out):
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--mode", mode.value, "--format", "structured"])
    return code, out.getvalue()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_DOCUMENTS), st.sampled_from(ClassificationMode), st.none() | _BAD_TOKENS)
def test_the_encoder_equals_json_dumps(text, mode, bad):
    if bad is not None:
        text += f"relation caf\u00e9(a) key(a)\n{bad} x\n"
    result = parse_schema(text)
    schema = result.schema
    reports = {"check": result}
    if schema is not None:
        reports["keys"] = dsl.CandidateKeys(schema, tuple(
            candidate_keys(rel, schema.projected_fds(rel)) for rel in schema.relations
        ))
        reports["analyze"] = schema_nc(schema, mode)
        with contextlib.suppress(DecompositionError):
            reports["normalize"] = normalize_to_bcnf(schema, mode)
    for command in ("check", "keys", "analyze", "normalize"):
        out = _structured(command, mode, text)[1]
        assert bool(out) == (command in reports)
        if out:
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
            # The CLI streams a trace; emit_report returns it whole.
            assert emit_report(reports[command], "structured") == out
        if command == "check" and bad is not None:
            assert json.dumps(bad)[1:-1] in out


@pytest.mark.parametrize("mode", list(ClassificationMode))
@pytest.mark.parametrize(
    "name, command",  # bulk's normalize output is over 100 MB; decoding it takes gigabytes
    [(n, c) for n in sorted(_BENCHMARK) for c in ("check", "keys", "analyze", "normalize")
     if (n, c) != ("bulk", "normalize")],
)
def test_structured_output_on_the_benchmark_texts_equals_json_dumps(name, command, mode):
    code, out = _structured(command, mode, _BENCHMARK[name])
    assert code == 0
    _assert_same_text(out, json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n")


class _Text(str):
    pass


class _Count(int):
    def __repr__(self) -> str:
        return "many"

    __str__ = __repr__


@pytest.mark.parametrize(
    "leaf", [True, False, None, 0, -(2**70), NormalForm.BCNF, _Count(3), _Text("x\u00e9"), ""]
)
def test_the_encoder_reads_leaves_of_subclasses_and_bool_as_json_dumps_does(leaf):
    # The leaf fills every field of its JSON kind in a relation and a check payload;
    # bool and IntEnum must not read as int, nor a subclass through its own str().
    name = leaf if isinstance(leaf, str) else "R"
    atomic = leaf if isinstance(leaf, bool) else True
    number = leaf if isinstance(leaf, int) and not isinstance(leaf, bool) else 1
    rel = RelationSchema(name, [AttributeSpec(name, atomic)], [name])
    tree = {"attributes": [{"atomic": atomic, "name": name}], "key": [name], "name": name}
    assert transform._relation(rel, "\n", {}) == json.dumps(tree, indent=2, sort_keys=True)
    diagnostic = dsl.ParseDiagnostic(number, number, Severity.WARNING, name, name)
    result = dsl.ParseResult(None if leaf is None else Schema(name, [rel]), (diagnostic,))
    tree = {
        "diagnostics": [
            {"code": name, "column": number, "line": number, "message": name, "severity": "warning"}
        ],
        "kind": "check",
        "ok": True,
        "schema": None if leaf is None else name,
    }
    assert emit_report(result, "structured") == json.dumps(tree, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("mode", list(ClassificationMode))
def test_a_structured_trace_builds_each_score_once(case_study, monkeypatch, mode):
    trace = normalize_to_bcnf(fixture_copies(case_study, 8), mode)
    calls = []
    original = completeness._relation_nc

    def counting(rnc, pad, cache):
        calls.append((id(rnc), pad))
        return original(rnc, pad, cache)

    monkeypatch.setattr(completeness, "_relation_nc", counting)
    out = emit_report(trace, "structured")
    scores = [trace.initial_nc, trace.final_nc]
    steps = [nc for step in trace.steps for nc in (step.nc_before, step.nc_after)]
    # Each score renders once per indent: the top-level scores' and the steps'.
    distinct = [{id(rnc) for nc in ncs for rnc in nc.per_relation} for ncs in (scores, steps)]
    assert len(calls) == len(set(calls)) == sum(map(len, distinct))
    assert out.count('"membership"') == sum(len(nc.per_relation) for nc in scores + steps)


def test_a_text_trace_renders_the_shared_fd_block_once(case_study, monkeypatch):
    trace = normalize_to_bcnf(fixture_copies(case_study, 8))
    calls = []
    original = dsl._fd_line

    def counting(item):
        calls.append(item)
        return original(item)

    monkeypatch.setattr(dsl, "_fd_line", counting)
    out = emit_report(trace, dsl_snapshots=True)
    assert len(calls) == len(trace.initial_nc.schema.fds)
    assert out.count("\n    fd ") == len(trace.steps) * len(trace.initial_nc.schema.fds)


def test_a_structured_report_keeps_nothing_after_it_returns(case_study):
    trace = normalize_to_bcnf(case_study)
    parts = [trace, trace.final_nc.schema, trace.final_nc, trace.final_nc.per_relation[0]]
    refs = [weakref.ref(part) for part in parts]
    emit_report(trace, "structured")
    del trace, parts
    assert [ref() for ref in refs] == [None] * len(refs)


def test_traces_rendered_in_turn_match_their_own_goldens():
    # Each trace is freed before the next is built, so ids come back.
    sources = {"case_study": CASE_STUDY_PATH, "multi_relation": GOLDEN / "multi_relation.nls"}
    for _ in range(3):
        for name, path in sources.items():
            for mode in ClassificationMode:
                trace = normalize_to_bcnf(parse_schema(path.read_text(encoding="utf-8")).schema, mode)
                expected = (GOLDEN / f"{name}.normalize.{mode.value}.json").read_text(encoding="utf-8")
                assert emit_report(trace, "structured") == expected
                del trace
