from __future__ import annotations

import itertools
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normlens.fd
from normlens import (
    CapacityError,
    ForeignAttributeError,
    FunctionalDependency,
    RelationSchema,
    candidate_keys,
    closure,
    is_superkey,
    normalize_fds,
    project_fds,
)

from corpus import build_corpus, build_multi_corpus, fd
from oracles import brute_force_keys, naive_closure

ALL_CASE_ATTRS = frozenset(
    {"propertyNo", "iDate", "iTime", "pAddress", "comments", "staffNo", "sName", "carReg"}
)


@pytest.fixture(scope="module")
def case_fds(case_study):
    return case_study.fds


@pytest.fixture(scope="module")
def case_relation(case_study):
    return case_study.relations[0]


def test_closure_of_empty_set_is_empty(case_fds):
    assert closure((), case_fds) == frozenset()


def test_closure_of_primary_key_reaches_everything(case_fds):
    result = closure({"propertyNo", "iDate"}, case_fds)
    assert result == ALL_CASE_ATTRS
    assert result == naive_closure({"propertyNo", "iDate"}, case_fds)


def test_closure_of_staffno_only_adds_sname(case_fds):
    result = closure({"staffNo"}, case_fds)
    assert result == frozenset({"staffNo", "sName"})
    assert result == naive_closure({"staffNo"}, case_fds)


def test_closure_of_propertyno_only_adds_paddress(case_fds):
    assert closure({"propertyNo"}, case_fds) == frozenset({"propertyNo", "pAddress"})


def test_is_superkey(case_relation, case_fds):
    assert is_superkey({"propertyNo", "iDate"}, case_relation, case_fds)
    assert not is_superkey({"propertyNo"}, case_relation, case_fds)
    assert is_superkey(case_relation.attribute_set, case_relation, case_fds)


def test_is_superkey_rejects_foreign_attributes(case_relation, case_fds):
    with pytest.raises(ForeignAttributeError):
        is_superkey({"propertyNo", "zipCode"}, case_relation, case_fds)


def test_candidate_keys_case_study(case_relation, case_fds):
    expected = (
        frozenset({"iDate", "propertyNo"}),
        frozenset({"carReg", "iDate", "iTime"}),
        frozenset({"iDate", "iTime", "staffNo"}),
    )
    keys = candidate_keys(case_relation, case_fds)
    assert keys == expected
    assert list(keys) == brute_force_keys(case_relation, case_fds)


def test_candidate_keys_without_fds_is_full_heading():
    rel = RelationSchema("R", ("a", "b", "c"), ("a",))
    assert candidate_keys(rel, ()) == (frozenset({"a", "b", "c"}),)


def test_candidate_keys_two_attribute_relation():
    rel = RelationSchema("Property", ("propertyNo", "pAddress"), ("propertyNo",))
    keys = candidate_keys(rel, (fd("FD6", "propertyNo", "pAddress"),))
    assert keys == (frozenset({"propertyNo"}),)


def test_candidate_keys_capacity_error():
    wide = RelationSchema("W", tuple(f"a{i}" for i in range(21)), ("a0",))
    with pytest.raises(CapacityError):
        candidate_keys(wide, ())
    small = RelationSchema("R", ("a", "b", "c", "d"), ("a",))
    with pytest.raises(CapacityError):
        candidate_keys(small, (), cap=3)


def test_candidate_keys_match_brute_force_on_wide_headings():
    # Wider than build_corpus's default 8 attributes, still within brute force's reach.
    for schema, keys in build_corpus(60, seed=20261018, widths=(9, 13), max_fds=16):
        assert candidate_keys(schema.relations[0], schema.fds) == tuple(keys)


@pytest.mark.parametrize("pairs", range(1, 7))
def test_equivalent_pairs_give_every_choice_as_a_key(pairs):
    # a_i <-> b_i for each i: a key picks one side of every pair, 2**pairs keys.
    sides = [(f"a{i}", f"b{i}") for i in range(pairs)]
    rel = RelationSchema("R", tuple(itertools.chain(*sides)), tuple(a for a, _ in sides))
    fds = [fd(f"F{a}", a, b) for a, b in sides] + [fd(f"F{b}", b, a) for a, b in sides]
    expected = sorted((frozenset(choice) for choice in itertools.product(*sides)), key=sorted)
    assert candidate_keys(rel, fds) == tuple(expected)
    assert len(expected) == 2**pairs


def test_candidate_keys_work_grows_with_the_keys_not_the_subsets(monkeypatch):
    # Disjoint planted keys of sizes 3, 4 and 5 over 20 attributes, each
    # determining every other attribute; the remaining 8 are non-prime. A walk
    # over attribute subsets needs hundreds of thousands of closures here.
    names = [f"a{index:02d}" for index in range(20)]
    random.Random(20).shuffle(names)
    planted = [names[0:3], names[3:7], names[7:12]]
    rel = RelationSchema("W", tuple(sorted(names)), tuple(planted[0]))
    fds = normalize_fds(
        [
            FunctionalDependency(f"K{number}", tuple(key), tuple(a for a in names if a not in key))
            for number, key in enumerate(planted, 1)
        ]
    )
    calls = []
    original = normlens.fd.closure

    def counting(start, dependencies):
        calls.append(start)
        return original(start, dependencies)

    monkeypatch.setattr(normlens.fd, "closure", counting)
    keys = candidate_keys(rel, fds)
    assert keys == tuple(frozenset(key) for key in planted)
    assert len(calls) <= len(keys) * (len(fds) + 1) * len(names)


def test_candidate_keys_of_global_and_projected_fds_agree():
    for schema in build_multi_corpus(200):
        for rel in schema.relations:
            assert candidate_keys(rel, schema.fds) == candidate_keys(
                rel, schema.projected_fds(rel)
            )


def test_candidate_keys_ignore_dependencies_through_foreign_attributes():
    # a -> z -> b chains through z, which R lacks, so it does not give a -> b.
    rel = RelationSchema("R", ("a", "b"), ("a", "b"))
    assert candidate_keys(rel, (fd("F1", "a", "z"), fd("F2", "z", "b"))) == (
        frozenset({"a", "b"}),
    )


def test_project_onto_staff_inspection(case_fds):
    attrs = ALL_CASE_ATTRS - {"pAddress"}
    labels = [item.label for item in project_fds(case_fds, attrs)]
    assert labels == [
        "FD1", "FD2", "FD3", "FD4", "FD5", "FD7", "FD8",
        "FD9", "FD11", "FD12", "FD13", "FD14", "FD16",
    ]


def test_project_identity_when_nothing_is_removed(case_fds):
    union = frozenset().union(*(item.attributes for item in case_fds))
    assert project_fds(case_fds, union) == case_fds


def test_project_onto_inspection(case_fds):
    # FD5 (propertyNo, iDate -> carReg) survives: all three attributes remain.
    attrs = ALL_CASE_ATTRS - {"pAddress", "sName"}
    labels = [item.label for item in project_fds(case_fds, attrs)]
    assert labels == [
        "FD1", "FD2", "FD3", "FD5", "FD8", "FD9", "FD11", "FD12", "FD14", "FD16",
    ]


_NAMES = st.integers(min_value=1, max_value=6).map(
    lambda n: tuple(string.ascii_lowercase[:n])
)


@st.composite
def heading_fds_subset(draw):
    names = draw(_NAMES)
    fds = []
    for index in range(draw(st.integers(min_value=0, max_value=8))):
        det = draw(
            st.frozensets(
                st.sampled_from(names), min_size=1, max_size=min(3, len(names))
            )
        )
        rest = tuple(name for name in names if name not in det)
        if not rest:
            continue
        deps = draw(
            st.frozensets(
                st.sampled_from(rest), min_size=1, max_size=min(2, len(rest))
            )
        )
        fds.append(FunctionalDependency(f"F{index}", det, deps))
    subset = draw(st.frozensets(st.sampled_from(names), max_size=len(names)))
    return names, tuple(fds), subset


@given(heading_fds_subset())
def test_closure_is_extensive_idempotent_and_matches_oracle(case):
    names, fds, subset = case
    result = closure(subset, fds)
    assert result >= subset
    assert closure(result, fds) == result
    assert result == naive_closure(subset, fds)


@given(heading_fds_subset(), st.data())
def test_closure_is_monotone(case, data):
    names, fds, subset = case
    larger = subset | data.draw(
        st.frozensets(st.sampled_from(names), max_size=len(names))
    )
    assert closure(subset, fds) <= closure(larger, fds)


@settings(max_examples=60)
@given(heading_fds_subset())
def test_candidate_keys_are_minimal_superkeys(case):
    names, fds, _subset = case
    rel = RelationSchema("R", names, names)
    keys = candidate_keys(rel, fds)
    assert list(keys) == brute_force_keys(rel, fds)
    for key in keys:
        assert closure(key, fds) >= rel.attribute_set
        for attr in key:
            assert not closure(key - {attr}, fds) >= rel.attribute_set


@given(heading_fds_subset())
def test_project_is_a_sub_list_and_idempotent(case):
    names, fds, subset = case
    projected = project_fds(fds, subset)
    assert set(projected) <= set(fds)
    assert project_fds(projected, subset) == projected
    assert all(item.attributes <= subset for item in projected)
