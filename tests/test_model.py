from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import normlens.model
from normlens import (
    AttributeSpec,
    CandidateKeys,
    ClassificationMode,
    FDPartition,
    FunctionalDependency,
    NormalForm,
    ParseDiagnostic,
    ParseResult,
    RelationNC,
    RelationSchema,
    Schema,
    SchemaNC,
    Severity,
    TransformStep,
    TransformTrace,
    ValidationReport,
    Violation,
    candidate_keys,
    normalize_fds,
    normalize_to_bcnf,
    parse_schema,
    emit_schema,
    partition_preventing,
    relation_nc,
    schema_nc,
    validate_schema,
)
from normlens.model import _truncated, truncated

from conftest import CASE_STUDY_PATH
from corpus import build_corpus, fd


def test_normal_form_levels_and_labels():
    assert [form.value for form in NormalForm] == [0, 1, 2, 3, 4]
    assert NormalForm.UNF < NormalForm.FIRST < NormalForm.BCNF
    assert NormalForm.FIRST.label == "1NF"
    assert NormalForm.BCNF.label == "BCNF"


@given(st.integers(), st.integers(min_value=1))
@example(-1, 3)  # "-0.34": the floor of -33.3 hundredths, not -1 plus 0.66
def test_both_truncations_floor_hundredths_with_a_sign(numerator, denominator):
    display = _truncated(numerator, denominator)
    assert display == truncated(Fraction(numerator, denominator))
    assert re.fullmatch(r"-?(0|[1-9][0-9]*)\.[0-9]{2}", display)
    hundredths = math.floor(Fraction(100 * numerator, denominator))
    assert Fraction(display) == Fraction(hundredths, 100)
    assert display.startswith("-") == (hundredths < 0)


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
    for unordered in (set, frozenset):
        dep = FunctionalDependency("F1", unordered({"b", "a"}), unordered({"d", "c"}))
        assert dep.determinant == ("a", "b")
        assert dep.dependents == ("c", "d")
        # Six names, so hash order passes for sorted once in 720 runs at most.
        rel = RelationSchema("R", tuple("abcdef"), unordered("fbdcea"))
        assert rel.primary_key == tuple("abcdef")


@pytest.mark.parametrize(
    "names, expected",
    [
        (("b", "a", "b", "c", "a"), ("b", "a", "c")),
        (["b", "a", "b"], ("b", "a")),
        ({"c", "a", "b"}, ("a", "b", "c")),
        (frozenset({"c", "a"}), ("a", "c")),
        ("a", ("a",)),
    ],
    ids=["tuple-with-repeats", "list", "set", "frozenset", "str"],
)
def test_every_kind_of_name_collection_gives_the_same_fields_and_sets(names, expected):
    dep = FunctionalDependency("F1", names, ("z",))
    assert (dep.determinant, dep.determinant_set) == (expected, frozenset(expected))
    assert dep.attributes == {*expected, "z"}
    rel = RelationSchema("R", (*expected, "z"), names)
    assert (rel.primary_key, rel.primary_key_set) == (expected, frozenset(expected))
    assert dep == FunctionalDependency("F1", expected, ("z",))


def test_a_tuple_of_distinct_names_is_kept_as_given():
    names = ("b", "a")
    dep = FunctionalDependency("F1", names, ("c",))
    assert dep.determinant is names
    assert RelationSchema("R", ("a", "b"), names).primary_key is names


def test_derived_values_stay_out_of_fields_equality_hash_and_repr():
    dep = FunctionalDependency("F1", ("b", "a"), ("c",))
    assert dep.__match_args__ == ("label", "determinant", "dependents")
    assert repr(dep) == "FunctionalDependency(label='F1', determinant=('b', 'a'), dependents=('c',))"
    assert hash(dep) == hash(("F1", ("b", "a"), ("c",)))
    assert dep == FunctionalDependency("F1", ["b", "a", "b"], "c")
    assert dep != FunctionalDependency("F1", ("a", "b"), ("c",))  # order is part of the value
    assert (dep.determinant_set, dep.dependents_set) == ({"a", "b"}, {"c"})
    assert dep.attributes == {"a", "b", "c"}

    rel = RelationSchema("R", ("b", AttributeSpec("a", atomic=False)), ("b",))
    assert rel.__match_args__ == ("name", "attributes", "primary_key")
    assert repr(rel) == (
        "RelationSchema(name='R', attributes=(AttributeSpec(name='b', atomic=True),"
        " AttributeSpec(name='a', atomic=False)), primary_key=('b',))"
    )
    assert hash(rel) == hash(("R", (AttributeSpec("b"), AttributeSpec("a", False)), ("b",)))
    assert rel == RelationSchema("R", (AttributeSpec("b"), AttributeSpec("a", False)), "b")
    assert (rel.attribute_names, rel.attribute_set, rel.primary_key_set) == (
        ("b", "a"), {"a", "b"}, {"b"}
    )


@pytest.mark.parametrize(
    "obj, name",
    [
        (FunctionalDependency("F1", ("a",), ("b",)), "determinant_set"),
        (FunctionalDependency("F1", ("a",), ("b",)), "dependents_set"),
        (FunctionalDependency("F1", ("a",), ("b",)), "attributes"),
        (RelationSchema("R", ("a",), ("a",)), "attribute_names"),
        (RelationSchema("R", ("a",), ("a",)), "attribute_set"),
        (RelationSchema("R", ("a",), ("a",)), "primary_key_set"),
        *(
            (FunctionalDependency("F1", ("a",), ("b",)), name)
            for name in ("label", "determinant", "dependents")
        ),
        *((RelationSchema("R", ("a",), ("a",)), name) for name in ("name", "attributes", "primary_key")),
    ],
)
def test_derived_values_are_read_only(obj, name):
    before = getattr(obj, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(obj, name, frozenset({"z"}))
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(obj, name)
    assert getattr(obj, name) == before


def replace_recomputes_the_derived_values(replace):
    dep = replace(FunctionalDependency("F1", ("a",), ("b",)), dependents=("c", "d"))
    assert (dep.dependents_set, dep.attributes) == ({"c", "d"}, {"a", "c", "d"})
    rel = replace(RelationSchema("R", ("a", "b"), ("a",)), attributes=("x", "y"))
    assert (rel.attribute_names, rel.attribute_set) == (("x", "y"), {"x", "y"})
    assert replace(rel, primary_key=("y",)).primary_key_set == {"y"}


def test_replace_recomputes_the_derived_values():
    replace_recomputes_the_derived_values(lambda obj, **changes: obj.__replace__(**changes))


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace_recomputes_the_derived_values():
    replace_recomputes_the_derived_values(copy.replace)


# The fields of each public record type, in order: positional construction and
# match patterns depend on them.
RECORD_FIELDS = {
    AttributeSpec: ("name", "atomic"),
    FunctionalDependency: ("label", "determinant", "dependents"),
    RelationSchema: ("name", "attributes", "primary_key"),
    Schema: ("name", "relations", "fds"),
    Violation: ("code", "message", "severity", "relation", "fd_label", "subject"),
    ValidationReport: ("violations",),
    ParseDiagnostic: ("line", "column", "severity", "message", "code"),
    ParseResult: ("schema", "diagnostics"),
    FDPartition: ("relation", "preventing", "non_preventing"),
    RelationNC: ("normal_form", "partition"),
    SchemaNC: ("schema", "mode", "per_relation"),
    TransformStep: ("position", "moved_fd_labels", "nc_before", "nc_after"),
    TransformTrace: ("steps", "initial_nc"),
    CandidateKeys: ("schema", "keys"),
}


def test_every_exported_record_type_is_in_the_record_contract():
    exported = {getattr(normlens, name) for name in normlens.__all__}
    records = {v for v in exported if isinstance(v, type) and issubclass(v, normlens.model._Record)}
    assert records == set(RECORD_FIELDS)


@pytest.fixture(scope="module")
def records(case_study):
    """Instances of each record type: the first two differ, and equal ones may follow."""
    primary = normalize_to_bcnf(case_study)
    strict = normalize_to_bcnf(case_study, ClassificationMode.STRICT)
    initial, final = primary.initial_nc, primary.final_nc
    broken = parse_schema("schema s\nrelation R(a key(a)\nrelation S(b) key\n")
    bad = Schema("s", (RelationSchema("R", ("a", "a"), ()),), (fd("F1", "a", "a"),))
    violations = validate_schema(bad).violations
    return {
        AttributeSpec: [*case_study.relations[0].attributes[:2], AttributeSpec("propertyNo")],
        FunctionalDependency: [*case_study.fds[:2], fd("FD1", "propertyNo iDate", "iTime")],
        RelationSchema: [case_study.relations[0], final.schema.relations[1]],
        Schema: [case_study, final.schema, initial.schema],
        # subject is no part of the value: the last two are equal.
        Violation: [*violations[:2], violations[0].__replace__(subject=None), Violation("X", "m")],
        ValidationReport: [validate_schema(case_study), validate_schema(bad)],
        ParseDiagnostic: list(broken.diagnostics[:2]),
        ParseResult: [parse_schema(CASE_STUDY_PATH.read_text(encoding="utf-8")), broken],
        FDPartition: [initial.per_relation[0].partition, final.per_relation[0].partition],
        RelationNC: [initial.per_relation[0], final.per_relation[0]],
        SchemaNC: [initial, strict.initial_nc, final],
        TransformStep: [*primary.steps[:2]],
        TransformTrace: [primary, strict],
        CandidateKeys: [
            CandidateKeys(schema, tuple(
                candidate_keys(rel, schema.projected_fds(rel)) for rel in schema.relations
            ))
            for schema in (case_study, final.schema)
        ],
    }


def positional_fields(record):
    """What a positional class pattern binds, for a record of up to seven fields."""
    cls = type(record)
    match len(cls.__match_args__), record:
        case 1, cls(a):
            return (a,)
        case 2, cls(a, b):
            return (a, b)
        case 3, cls(a, b, c):
            return (a, b, c)
        case 4, cls(a, b, c, d):
            return (a, b, c, d)
        case 5, cls(a, b, c, d, e):
            return (a, b, c, d, e)
        case 6, cls(a, b, c, d, e, f):
            return (a, b, c, d, e, f)
        case 7, cls(a, b, c, d, e, f, g):
            return (a, b, c, d, e, f, g)


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_records_compare_hash_and_print_as_frozen_dataclasses(cls, records):
    fields = RECORD_FIELDS[cls]
    assert cls.__match_args__ == fields
    # A copy built through __init__ from positional and from keyword fields.
    values = [getattr(records[cls][0], name) for name in fields]
    instances = [*records[cls], cls(*values), cls(**dict(zip(fields, values)))]
    hidden = dataclasses.field(compare=False, repr=False)
    twin_type = dataclasses.make_dataclass(
        cls.__name__,
        [
            (name, object, hidden) if (cls, name) == (Violation, "subject") else name
            for name in fields
        ],
        frozen=True,
    )
    twins = [twin_type(*(getattr(record, name) for name in fields)) for record in instances]

    for record, twin in zip(instances, twins):
        assert type(record) is cls
        assert vars(record).keys() >= set(fields)  # defaults too
        assert repr(record) == repr(twin)
        assert hash(record) == hash(twin)
        assert record != twin
        bound = positional_fields(record)
        assert bound == positional_fields(twin)
        assert all(value is getattr(record, name) for value, name in zip(bound, fields))
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(clone) is cls
            assert clone == record
            assert hash(clone) == hash(record)
    equalities = [[a == b for b in instances] for a in instances]
    assert equalities == [[a == b for b in twins] for a in twins]
    inequalities = [[a != b for b in instances] for a in instances]
    assert inequalities == [[not e for e in row] for row in equalities]
    assert not equalities[0][1]

    for args, kwargs in (
        ((*values, None), {}),  # one value too many
        (values, {fields[0]: values[0]}),  # a field twice
        ((), {**dict(zip(fields, values)), "extra": None}),
        ((), {}),  # every record has a field without a default
    ):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)

    if cls is SchemaNC:
        scored = instances[-1]
        assert "total" not in vars(scored)
        total = scored.total
        assert vars(scored)["total"] is total
        assert scored.total is total


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


def test_validation_matches_each_distinct_name_once(case_study, monkeypatch):
    matched = Counter()
    identifier = normlens.model.IDENTIFIER

    class Counting:
        def match(self, name):
            matched[name] += 1
            return identifier.match(name)

    monkeypatch.setattr(normlens.model, "IDENTIFIER", Counting())
    # A copy: parse_schema already validated the fixture, and the report is kept on it.
    # Its names pass the one match of them all, so none is matched on its own.
    assert validate_schema(Schema(case_study.name, case_study.relations, case_study.fds)).ok
    assert matched == Counter()
    # A bad name is still reported at every declaration that uses it, and once the
    # match of them all fails, each distinct name is matched once.
    relation = RelationSchema("R", ("a", "b-c"), ("a",))
    broken = Schema("s", (relation,), (fd("F1", "a", "b-c"), fd("F2", "b-c", "a")))
    assert [(v.code, v.relation, v.fd_label) for v in validate_schema(broken).violations] == [
        ("BAD_ATTRIBUTE_NAME", "R", None),
        ("BAD_ATTRIBUTE_NAME", None, "F1"),
        ("BAD_ATTRIBUTE_NAME", None, "F2"),
    ]
    assert matched == Counter({"s", "R", "a", "b-c", "F1", "F2"})
    assert matched["b-c"] == 1


def _bad_name_findings(schema):
    # The name rule of validate_schema, matching every use of every name on its own.
    def bad(name):
        return not normlens.model.IDENTIFIER.match(name or "")

    found = [("BAD_SCHEMA_NAME", None, None)] if bad(schema.name) else []
    for rel in schema.relations:
        found += [("BAD_RELATION_NAME", rel.name, None)] * bad(rel.name)
        found += [("BAD_ATTRIBUTE_NAME", rel.name, None) for n in rel.attribute_names if bad(n)]
    for item in schema.fds:
        found += [("BAD_FD_LABEL", None, item.label)] * bad(item.label)
        names = (*item.determinant, *item.dependents)
        found += [("BAD_ATTRIBUTE_NAME", None, item.label) for n in names if bad(n)]
    return found


def _schemas_naming(name):
    # The name as the schema's, a relation's, an attribute's, a label and on each side of an FD.
    rel = RelationSchema("R", ("a", "b"), ("a",))
    with_attribute = RelationSchema("R", ("a", AttributeSpec(name)), ("a",))
    return [
        Schema(name, (rel,), (fd("F", "a", "b"),)),
        Schema("s", (RelationSchema(name, ("a", "b"), ("a",)),), (fd("F", "a", "b"),)),
        Schema("s", (with_attribute,), (FunctionalDependency("F", ("a",), (name,)),)),
        Schema("s", (rel,), (FunctionalDependency(name, ("a",), ("b",)),)),
        Schema("s", (rel,), (FunctionalDependency("F", (name, "a"), ("b",)),)),
    ]


@pytest.mark.parametrize("name", ["a b", "a\nb", "", None, "a ", "\na", "b-c"])
def test_the_match_of_all_names_passes_no_bad_name(name):
    # Joined by spaces, "a b" and "" would give a string of identifiers and spaces.
    together = RelationSchema("R", ("a", *map(AttributeSpec, ("a b", "", None, "c"))), ("a",))
    mixed = Schema("s", (together,), (FunctionalDependency("F", ("a", "a b"), ("", "c")),))
    for schema in [*_schemas_naming(name), mixed]:
        bad = [
            (v.code, v.relation, v.fd_label)
            for v in validate_schema(schema).violations
            if v.code.startswith("BAD_")
        ]
        assert bad == _bad_name_findings(schema) != []


def test_a_name_that_is_no_string_fails_as_its_own_match_does():
    with pytest.raises(TypeError):
        normlens.model.IDENTIFIER.match(5)
    for schema in _schemas_naming(5):
        with pytest.raises(TypeError):
            validate_schema(schema)


def test_each_heading_is_projected_once_and_shared_by_with_relations(case_study, monkeypatch):
    calls = []
    original = normlens.model.project_fds

    def counting(fds, attrs):
        calls.append(attrs)
        return original(fds, attrs)

    monkeypatch.setattr(normlens.model, "project_fds", counting)
    schema = Schema(case_study.name, case_study.relations, case_study.fds)
    (rel,) = schema.relations
    projected = schema.projected_fds(rel)
    assert projected == original(normalize_fds(schema.fds), rel.attribute_set)
    assert schema.projected_fds(rel) is projected
    # Same heading under another name, in a schema derived by with_relations.
    renamed = RelationSchema("Renamed", rel.attributes, rel.primary_key)
    narrower = RelationSchema("Narrower", ("staffNo", "sName"), ("staffNo",))
    derived = schema.with_relations((renamed, narrower))
    assert derived.projected_fds(renamed) is projected
    assert [item.label for item in derived.projected_fds(narrower)] == ["FD7"]
    assert calls == [rel.attribute_set, narrower.attribute_set]


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
            fds = schema.projected_fds(rel)
            relation_nc(rel, fds).normal_form
            partition_preventing(rel, fds)
            relation_nc(rel, fds)
            candidate_keys(rel, fds)
        schema_nc(schema)
        reparsed = parse_schema(emit_schema(schema))
        assert reparsed.schema == schema
