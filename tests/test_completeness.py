from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import normlens.completeness
import normlens.model
from normlens import (
    ClassificationMode,
    FDPartition,
    ForeignAttributeError,
    FunctionalDependency,
    NormalForm,
    RelationSchema,
    Schema,
    SchemaNC,
    fuzzy_membership,
    relation_nc,
    schema_nc,
    truncated,
)

from conftest import fixture_copies
from corpus import build_corpus, build_multi_corpus


def test_membership_case_study_values():
    assert fuzzy_membership(8, 6, 8) == Fraction(5, 8)
    assert fuzzy_membership(7, 4, 7) == Fraction(5, 7)
    assert fuzzy_membership(6, 3, 6) == Fraction(3, 4)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
def test_membership_endpoints(n):
    assert fuzzy_membership(n, 0, n) == 1
    assert fuzzy_membership(0, n, n) == 0


@pytest.mark.parametrize(
    "c, p, n",
    [(1, 0, 0), (5, 0, 4), (-1, 0, 4), (0, 5, 4), (0, -1, 4)],
)
def test_membership_rejects_out_of_range_counts(c, p, n):
    with pytest.raises(ValueError):
        fuzzy_membership(c, p, n)


@pytest.mark.parametrize(
    "value, display",
    [
        (Fraction(5, 8), "0.62"),
        (Fraction(5, 7), "0.71"),
        (Fraction(2, 3), "0.66"),  # truncation, not rounding
        (Fraction(13, 8), "1.62"),
        (Fraction(47, 7), "6.71"),
        (Fraction(4), "4.00"),
        (Fraction(16), "16.00"),
        (Fraction(0), "0.00"),
        (Fraction(199, 100), "1.99"),
    ],
)
def test_truncated_display(value, display):
    assert truncated(value) == display


_huge = st.integers(min_value=-(10**40), max_value=10**40)


@given(
    st.fractions()
    | st.builds(Fraction, _huge, st.integers(min_value=1, max_value=10**30))
    | st.integers()
    | _huge
)
def test_truncated_floors_hundredths_of_any_rational(value):
    hundredths = math.floor(value * 100)
    assert truncated(value) == f"{hundredths // 100}.{hundredths % 100:02d}"


def _fds_over(label, names):
    """No FD for no names, else one FD whose attributes are exactly ``names``."""
    return (FunctionalDependency(label, names[:1], names[1:]),) if names else ()


def test_one_fraction_scores_equal_the_paper_formula(monkeypatch):
    # Every count triple up to twelve attributes, at every level below BCNF.
    for n in range(1, 13):
        attrs = tuple(f"a{i}" for i in range(n))
        rel = RelationSchema("R", attrs, attrs[:1])
        for c in range(n + 1):
            for p in range(n + 1):
                x = (Fraction(c, n) + (1 - Fraction(p, n))) / 2
                assert fuzzy_membership(c, p, n) == x
                partition = FDPartition(rel, _fds_over("P", attrs[:p]), _fds_over("C", attrs[:c]))
                counts = (partition.completeness_count, partition.preventing_count)
                assert (*counts, partition.total_attributes) == (c, p, n)
                monkeypatch.setattr(
                    normlens.completeness, "partition_preventing", lambda *_: partition
                )
                for form in (NormalForm.UNF, NormalForm.FIRST, NormalForm.SECOND, NormalForm.THIRD):
                    monkeypatch.setattr(
                        normlens.completeness, "classify_partition", lambda *_, **__: form
                    )
                    scored = relation_nc(rel, ())
                    assert (scored.membership, scored.nc) == (x, form.value + x)


def test_relation_nc_case_study_values(case_study, step1, step2):
    fds = case_study.projected_fds
    first = relation_nc(case_study.relations[0], fds(case_study.relations[0]))
    assert first.nc == Fraction(13, 8)
    assert first.nc_display == "1.62"
    assert first.membership == Fraction(5, 8)

    second = relation_nc(step1.reduced_relation, fds(step1.reduced_relation))
    assert second.nc == 2 + Fraction(5, 7)
    assert second.nc_display == "2.71"

    third = relation_nc(step2.reduced_relation, fds(step2.reduced_relation))
    assert third.nc == Fraction(15, 4)
    assert third.nc_display == "3.75"

    bcnf = relation_nc(step1.new_relation, fds(step1.new_relation))
    assert bcnf.normal_form is NormalForm.BCNF
    assert bcnf.nc == Fraction(4)
    assert bcnf.nc_display == "4.00"
    assert bcnf.membership == 1


def test_schema_nc_totals_across_the_transformation(case_study, step1, step2):
    initial = schema_nc(case_study)
    assert initial.total == Fraction(13, 8)
    assert initial.total_display == "1.62"

    after_first = schema_nc(step1.nc_after.schema)
    assert [r.relation_name for r in after_first.per_relation] == [
        "StaffInspection",
        "Property",
    ]
    assert after_first.total == 6 + Fraction(5, 7)
    assert after_first.total_display == "6.71"

    after_second = schema_nc(step2.nc_after.schema)
    assert [r.relation_name for r in after_second.per_relation] == [
        "Inspection",
        "Property",
        "Staff",
    ]
    assert after_second.total == Fraction(47, 4)
    assert after_second.total_display == "11.75"


def test_a_score_sums_its_total_when_first_read(step1):
    nc = SchemaNC(step1.nc_after.schema, ClassificationMode.PRIMARY, step1.nc_after.per_relation)
    assert "total" not in vars(nc)
    assert nc.total == 6 + Fraction(5, 7)
    assert nc.total is nc.total
    assert nc == step1.nc_after  # the total is no field
    denominators = set()
    for schema in build_multi_corpus(100):
        scored = schema_nc(schema)
        assert scored.total == sum(r.nc for r in scored.per_relation)
        denominators.add(frozenset(r.nc.denominator for r in scored.per_relation))
    assert len(denominators) > 10  # many mixes of denominators were summed


def test_scoring_projects_each_relation_once(case_study, monkeypatch):
    calls = []
    original = normlens.model.project_fds

    def counting(fds, attrs):
        calls.append(attrs)
        return original(fds, attrs)

    monkeypatch.setattr(normlens.model, "project_fds", counting)
    schema = fixture_copies(case_study, 3)
    scored = schema_nc(schema)
    assert len(calls) == 3
    projected = tuple(relation_nc(rel, schema.projected_fds(rel)) for rel in schema.relations)
    assert scored.per_relation == projected
    assert len(calls) == 3  # each heading's projection is kept on the schema
    # A global list is refused, not projected again.
    with pytest.raises(ForeignAttributeError, match="'FD1_1'"):
        relation_nc(schema.relations[0], schema.fds)


def test_empty_schema_total_is_zero():
    report = schema_nc(Schema("s", (), ()))
    assert report.total == 0
    assert report.total_display == "0.00"


def test_relation_without_fds_scores_four():
    rel = RelationSchema("R", ("a", "b"), ("a", "b"))
    scored = relation_nc(rel, ())
    assert scored.normal_form is NormalForm.BCNF
    assert scored.nc == 4


def test_mode_is_carried_in_the_report(case_study):
    strict = schema_nc(case_study, ClassificationMode.STRICT)
    assert strict.mode is ClassificationMode.STRICT


counts = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(
        st.integers(min_value=0, max_value=n),
        st.integers(min_value=0, max_value=n),
        st.just(n),
    )
)


@given(counts)
def test_membership_is_bounded(cpn):
    c, p, n = cpn
    value = fuzzy_membership(c, p, n)
    assert 0 <= value <= 1
    assert (value == 1) == (c == n and p == 0)
    assert (value == 0) == (c == 0 and p == n)


@given(counts)
def test_membership_monotone_in_counts(cpn):
    c, p, n = cpn
    value = fuzzy_membership(c, p, n)
    if c < n:
        assert fuzzy_membership(c + 1, p, n) > value
    if p < n:
        assert fuzzy_membership(c, p + 1, n) < value


def test_nc_stays_within_one_level_of_n():
    for schema, _keys in build_corpus(count=120, seed=5):
        (rel,) = schema.relations
        scored = relation_nc(rel, schema.projected_fds(rel))
        if scored.normal_form is NormalForm.BCNF:
            assert scored.nc == 4
        else:
            level = scored.normal_form.value
            assert level <= scored.nc <= level + 1
            assert scored.nc == level + scored.membership
