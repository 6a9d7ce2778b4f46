from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlens import (
    AttributeSpec,
    RelationSchema,
    Schema,
    Severity,
    SourceDocument,
    emit_report,
    emit_schema,
    parse_schema,
    partition_preventing,
    schema_nc,
)

from corpus import build_corpus, fd


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
    lines = text.splitlines()
    for diag in parse_schema(text).diagnostics:
        assert 1 <= diag.line <= max(1, len(lines))
        line = lines[diag.line - 1] if lines else ""
        assert 1 <= diag.column <= len(line) + 1


def test_source_document_provenance_in_rendering():
    result = parse_schema(SourceDocument("schema s", "demo.nls"))
    rendered = result.diagnostics[0].render(result.provenance)
    assert rendered.startswith("demo.nls:1:1: error:")


# --- report rendering --------------------------------------------------------


def test_schema_nc_text_report_total_equation(step1):
    text = emit_report(schema_nc(step1.schema_after))
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


def test_partition_text_report(case_study):
    part = partition_preventing(case_study.relations[0], case_study.fds)
    text = emit_report(part)
    assert "preventing FDs (3): FD6, FD7, FD8" in text
    assert (
        "preventing attributes (6): carReg, iDate, pAddress, propertyNo, sName, staffNo"
        in text
    )
    assert "total attributes: 8" in text


def test_partition_structured_report(case_study):
    part = partition_preventing(case_study.relations[0], case_study.fds)
    payload = json.loads(emit_report(part, "structured"))
    assert payload["kind"] == "fd_partition"
    assert payload["preventing"] == ["FD6", "FD7", "FD8"]
    assert payload["counts"] == {"completeness": 8, "preventing": 6, "total": 8}


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
