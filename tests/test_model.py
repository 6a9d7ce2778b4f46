from __future__ import annotations

import random
import re

import pytest

from normlens import (
    AttributeSpec,
    FunctionalDependency,
    NormalForm,
    RelationSchema,
    Schema,
    Severity,
    Violation,
    candidate_keys,
    normalize_fds,
    parse_schema,
    emit_schema,
    partition_preventing,
    relation_nc,
    schema_nc,
    validate_schema,
)

from corpus import build_corpus, fd


def test_normal_form_levels_and_labels():
    assert [form.value for form in NormalForm] == [0, 1, 2, 3, 4]
    assert NormalForm.UNF < NormalForm.FIRST < NormalForm.BCNF
    assert NormalForm.FIRST.label == "1NF"
    assert NormalForm.BCNF.label == "BCNF"


def test_attribute_spec_defaults_atomic():
    assert AttributeSpec("comments").atomic is True
    assert AttributeSpec("phones", atomic=False).atomic is False


def test_fd_canonicalizes_order_and_duplicates():
    dep = FunctionalDependency("F1", ("b", "a", "b"), ("c", "c"))
    assert dep.determinant == ("b", "a")
    assert dep.dependents == ("c",)
    assert dep.determinant_set == frozenset({"a", "b"})
    assert str(dep) == "F1: b, a -> c"


def test_fd_set_input_is_sorted_for_determinism():
    dep = FunctionalDependency("F1", {"b", "a"}, {"d", "c"})
    assert dep.determinant == ("a", "b")
    assert dep.dependents == ("c", "d")


def test_relation_schema_accepts_bare_names():
    rel = RelationSchema("R", ("a", AttributeSpec("b", atomic=False)), ("a",))
    assert rel.attribute_names == ("a", "b")
    assert rel.attributes[1].atomic is False
    assert rel.heading() == "R(a, b)"


def test_case_study_validates_ok(case_study):
    report = validate_schema(case_study)
    assert report.ok
    assert report.violations == ()


def test_trivial_fd_is_rejected():
    schema = Schema(
        "s",
        (RelationSchema("R", ("a", "b"), ("a",)),),
        (fd("F1", "a", "a"),),
    )
    report = validate_schema(schema)
    assert not report.ok
    assert [v.code for v in report.errors] == ["TRIVIAL_FD"]
    assert report.errors[0].fd_label == "F1"


def test_empty_relation_is_rejected():
    schema = Schema("s", (RelationSchema("R", (), ("a",)),), ())
    codes = {v.code for v in validate_schema(schema).errors}
    assert "EMPTY_RELATION" in codes
    assert "PRIMARY_KEY_NOT_IN_RELATION" in codes


@pytest.mark.parametrize(
    "schema, expected",
    [
        (
            Schema("s", (RelationSchema("R", ("a",), ()),), ()),
            "EMPTY_PRIMARY_KEY",
        ),
        (
            Schema("s", (RelationSchema("R", ("a", "a"), ("a",)),), ()),
            "DUPLICATE_ATTRIBUTE",
        ),
        (
            Schema(
                "s",
                (
                    RelationSchema("R", ("a",), ("a",)),
                    RelationSchema("R", ("b",), ("b",)),
                ),
                (),
            ),
            "DUPLICATE_RELATION_NAME",
        ),
        (
            Schema(
                "s",
                (RelationSchema("R", ("a", "b"), ("a",)),),
                (fd("F1", "a", "b"), fd("F1", "b", "a")),
            ),
            "DUPLICATE_FD_LABEL",
        ),
        (
            Schema(
                "s",
                (RelationSchema("R", ("a", "b"), ("a",)),),
                (fd("F1", "a", "z"),),
            ),
            "UNKNOWN_FD_ATTRIBUTE",
        ),
        (
            Schema("bad name", (RelationSchema("R", ("a",), ("a",)),), ()),
            "BAD_SCHEMA_NAME",
        ),
    ],
)
def test_structural_violations(schema, expected):
    assert expected in {v.code for v in validate_schema(schema).errors}


def _one_relation(*fds, attributes=("a", "b"), key=("a",), name="R"):
    return Schema("s", (RelationSchema(name, attributes, key),), fds)


def _error(code, message, relation=None, fd_label=None):
    return Violation(code, message, Severity.ERROR, relation, fd_label)


FINDINGS = [
    (
        Schema("bad name", (RelationSchema("R", ("a",), ("a",)),)),
        [_error("BAD_SCHEMA_NAME", "schema name 'bad name' is not an identifier")],
    ),
    (
        _one_relation(name="9R", attributes=("a",)),
        [_error("BAD_RELATION_NAME", "relation name '9R' is not an identifier", "9R")],
    ),
    (
        _one_relation(attributes=()),
        [
            _error("EMPTY_RELATION", "relation 'R' has no attributes", "R"),
            _error(
                "PRIMARY_KEY_NOT_IN_RELATION",
                "primary key attributes ['a'] are not attributes of relation 'R'",
                "R",
            ),
        ],
    ),
    (
        _one_relation(attributes=("a", "b c")),
        [
            _error(
                "BAD_ATTRIBUTE_NAME",
                "attribute name 'b c' in relation 'R' is not an identifier",
                "R",
            )
        ],
    ),
    (
        _one_relation(attributes=("a", "a")),
        [_error("DUPLICATE_ATTRIBUTE", "attribute 'a' appears twice in relation 'R'", "R")],
    ),
    (
        _one_relation(key=()),
        [_error("EMPTY_PRIMARY_KEY", "relation 'R' has an empty primary key", "R")],
    ),
    (
        _one_relation(key=("a", "z")),
        [
            _error(
                "PRIMARY_KEY_NOT_IN_RELATION",
                "primary key attributes ['z'] are not attributes of relation 'R'",
                "R",
            )
        ],
    ),
    (
        Schema("s", (RelationSchema("R", ("a",), ("a",)), RelationSchema("R", ("b",), ("b",)))),
        [_error("DUPLICATE_RELATION_NAME", "relation name 'R' declared more than once", "R")],
    ),
    (
        _one_relation(fd("F-1", "a", "b")),
        [_error("BAD_FD_LABEL", "fd label 'F-1' is not an identifier", fd_label="F-1")],
    ),
    (
        _one_relation(fd("F1", "a", "b"), fd("F1", "b", "a")),
        [_error("DUPLICATE_FD_LABEL", "fd label 'F1' used more than once", fd_label="F1")],
    ),
    (
        _one_relation(fd("F1", "", "b")),
        [_error("EMPTY_DETERMINANT", "fd 'F1' has an empty determinant", fd_label="F1")],
    ),
    (
        _one_relation(fd("F1", "a", "")),
        [_error("EMPTY_DEPENDENTS", "fd 'F1' has an empty dependent list", fd_label="F1")],
    ),
    (
        _one_relation(fd("F1", "a", "9b")),
        [
            _error(
                "BAD_ATTRIBUTE_NAME",
                "attribute name '9b' in fd 'F1' is not an identifier",
                fd_label="F1",
            ),
            _error(
                "UNKNOWN_FD_ATTRIBUTE",
                "fd 'F1' mentions ['9b'], which belong to no relation",
                fd_label="F1",
            ),
        ],
    ),
    (
        _one_relation(fd("F1", "a", "a b")),
        [_error("TRIVIAL_FD", "fd 'F1' is trivial: ['a'] appear on both sides", fd_label="F1")],
    ),
    (
        _one_relation(fd("F1", "a", "z")),
        [
            _error(
                "UNKNOWN_FD_ATTRIBUTE",
                "fd 'F1' mentions ['z'], which belong to no relation",
                fd_label="F1",
            )
        ],
    ),
    (
        _one_relation(),
        [
            Violation(
                "PRIMARY_KEY_NOT_SUPERKEY",
                "primary key (a) of relation 'R' does not determine every attribute",
                Severity.WARNING,
                relation="R",
            )
        ],
    ),
]


@pytest.mark.parametrize("schema, expected", FINDINGS, ids=[v[0].code for _, v in FINDINGS])
def test_every_validation_finding(schema, expected):
    assert list(validate_schema(schema).violations) == expected


def test_the_finding_table_covers_every_documented_code():
    documented = set(re.findall(r"[A-Z]+(?:_[A-Z]+)+", validate_schema.__doc__))
    assert {v.code for _, found in FINDINGS for v in found} == documented
    assert len(documented) == 15


def test_primary_key_not_superkey_is_a_warning_only():
    schema = Schema("s", (RelationSchema("R", ("a", "b"), ("a",)),), ())
    report = validate_schema(schema)
    assert report.ok
    assert [v.code for v in report.warnings] == ["PRIMARY_KEY_NOT_SUPERKEY"]


def test_a_finding_carries_the_declaration_it_is_about():
    first, second = RelationSchema("R", ("a",), ("z",)), RelationSchema("R", ("b",), ("b",))
    trivial, repeated = fd("F1", "a", "a"), fd("F1", "a", "b")
    report = validate_schema(Schema("s", (first, second), (trivial, repeated)))
    # By identity: the same name (and for equal declarations, the same value) can repeat.
    assert [(v.code, id(v.subject)) for v in report.violations] == [
        ("PRIMARY_KEY_NOT_IN_RELATION", id(first)),
        ("DUPLICATE_RELATION_NAME", id(second)),
        ("TRIVIAL_FD", id(trivial)),
        ("DUPLICATE_FD_LABEL", id(repeated)),
    ]
    bad_name = validate_schema(Schema("bad name", (RelationSchema("R", ("a",), ("a",)),)))
    assert [v.subject for v in bad_name.violations] == [None]


def test_the_subject_is_not_part_of_a_findings_value():
    one, other = RelationSchema("R", ("a",), ("a",)), RelationSchema("R", ("b",), ("b",))
    left = Violation("EMPTY_RELATION", "m", Severity.ERROR, "R", None, one)
    right = Violation("EMPTY_RELATION", "m", Severity.ERROR, "R", None, other)
    assert left == right
    assert hash(left) == hash(right)
    assert repr(left) == repr(right) == repr(Violation("EMPTY_RELATION", "m", relation="R"))


def test_validation_is_order_independent(case_study):
    broken = Schema(
        "s",
        (
            RelationSchema("R", ("a", "b"), ("a",)),
            RelationSchema("T", (), ("x",)),
        ),
        (fd("F1", "a", "a"), fd("F2", "a", "q")),
    )
    rng = random.Random(7)
    baseline = frozenset(validate_schema(broken).violations)
    for _ in range(5):
        relations = list(broken.relations)
        fds = list(broken.fds)
        rng.shuffle(relations)
        rng.shuffle(fds)
        permuted = Schema("s", tuple(relations), tuple(fds))
        assert frozenset(validate_schema(permuted).violations) == baseline
    # Idempotent as well: validating twice yields the same report.
    assert validate_schema(broken) == validate_schema(broken)


def test_normalize_fds_splits_multi_attribute_rhs():
    split = normalize_fds((fd("FD2", "a", "b c"), fd("FD3", "a b", "d")))
    assert [str(item) for item in split] == [
        "FD2.a: a -> b",
        "FD2.b: a -> c",
        "FD3: a, b -> d",
    ]
    # Singleton dependencies pass through as the same objects.
    single = fd("F1", "a", "b")
    assert normalize_fds((single,)) == (single,)


def test_normalize_fds_suffixes_wrap_past_z():
    wide = FunctionalDependency("F", ("x",), tuple(f"d{i}" for i in range(27)))
    labels = [item.label for item in normalize_fds((wide,))]
    assert labels[0] == "F.a"
    assert labels[25] == "F.z"
    assert labels[26] == "F.aa"


def test_validated_schema_never_fails_downstream():
    for schema, _keys in build_corpus(count=80, seed=11):
        assert validate_schema(schema).ok
        for rel in schema.relations:
            relation_nc(rel, schema.fds).normal_form
            partition_preventing(rel, schema.fds)
            relation_nc(rel, schema.fds)
            candidate_keys(rel, schema.fds)
        schema_nc(schema)
        reparsed = parse_schema(emit_schema(schema))
        assert reparsed.schema == schema
