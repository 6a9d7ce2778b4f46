from __future__ import annotations

import pytest

from normlens import (
    AttributeSpec,
    CapacityError,
    ClassificationMode,
    ForeignAttributeError,
    NormalForm,
    RelationSchema,
    Schema,
    normalize_fds,
    partition_preventing,
    relation_nc,
    schema_nc,
)
from normlens.classify import classify_partition

from corpus import build_corpus, build_multi_corpus, fd
from oracles import brute_force_normal_form

PRIMARY = ClassificationMode.PRIMARY
STRICT = ClassificationMode.STRICT


@pytest.fixture(scope="module")
def relations(case_study, step1, step2):
    return {
        "StaffPropertyInspection": case_study.relations[0],
        "StaffInspection": step1.reduced_relation,
        "Property": step1.new_relation,
        "Inspection": step2.reduced_relation,
        "Staff": step2.new_relation,
    }


def _form(case_study, rel, mode=PRIMARY):
    return relation_nc(rel, case_study.projected_fds(rel), mode).normal_form


def test_classification_ladder_on_case_study(relations, case_study):
    assert _form(case_study, relations["StaffPropertyInspection"]) is NormalForm.FIRST
    assert _form(case_study, relations["StaffInspection"]) is NormalForm.SECOND
    assert _form(case_study, relations["Inspection"]) is NormalForm.THIRD
    assert _form(case_study, relations["Property"]) is NormalForm.BCNF
    assert _form(case_study, relations["Staff"]) is NormalForm.BCNF


def test_property_is_bcnf_in_both_modes(relations, case_study):
    for mode in (PRIMARY, STRICT):
        assert _form(case_study, relations["Property"], mode) is NormalForm.BCNF


def test_strict_mode_demotes_staff_inspection(relations, case_study):
    # staffNo is a proper subset of candidate key {staffNo, iDate, iTime} and
    # determines the non-prime sName, so the all-keys reading blocks 2NF.
    rel = relations["StaffInspection"]
    assert _form(case_study, rel, PRIMARY) is NormalForm.SECOND
    assert _form(case_study, rel, STRICT) is NormalForm.FIRST


def test_strict_mode_agrees_on_inspection(relations, case_study):
    assert _form(case_study, relations["Inspection"], STRICT) is NormalForm.THIRD


def test_non_atomic_attribute_means_unnormalized():
    rel = RelationSchema(
        "R", (AttributeSpec("a"), AttributeSpec("phones", atomic=False)), ("a",)
    )
    assert relation_nc(rel, (fd("F1", "a", "phones"),)).normal_form is NormalForm.UNF
    assert relation_nc(rel, (), STRICT).normal_form is NormalForm.UNF


def test_relation_without_projected_fds_is_bcnf():
    rel = RelationSchema("R", ("a", "b"), ("a", "b"))
    assert relation_nc(rel, ()).normal_form is NormalForm.BCNF
    part = partition_preventing(rel, ())
    assert part.preventing == () and part.non_preventing == ()


def test_partition_step1(case_study):
    part = partition_preventing(case_study.relations[0], case_study.fds)
    assert [item.label for item in part.preventing] == ["FD6", "FD7", "FD8"]
    assert [item.label for item in part.non_preventing] == [
        "FD1", "FD2", "FD3", "FD4", "FD5",
        "FD9", "FD10", "FD11", "FD12", "FD13", "FD14", "FD15", "FD16",
    ]
    assert part.completeness_count == 8
    assert part.preventing_count == 6
    assert part.total_attributes == 8
    assert part.preventing_attributes == frozenset(
        {"propertyNo", "pAddress", "staffNo", "sName", "iDate", "carReg"}
    )


def test_partition_step2(step1, case_study):
    rel = step1.reduced_relation
    part = partition_preventing(rel, case_study.projected_fds(rel))
    assert [item.label for item in part.preventing] == ["FD7", "FD8"]
    assert part.completeness_count == 7
    assert part.preventing_count == 4
    assert part.total_attributes == 7


def test_partition_step3(step2, case_study):
    rel = step2.reduced_relation
    part = partition_preventing(rel, case_study.projected_fds(rel))
    assert [item.label for item in part.preventing] == ["FD8"]
    assert [item.label for item in part.non_preventing] == [
        "FD1", "FD2", "FD3", "FD5", "FD9", "FD11", "FD12", "FD14", "FD16",
    ]
    assert part.completeness_count == 6
    assert part.preventing_count == 3
    assert part.total_attributes == 6


def test_partition_property(step1, case_study):
    rel = step1.new_relation
    part = partition_preventing(rel, case_study.projected_fds(rel))
    assert part.preventing == ()
    assert part.completeness_count == 2
    assert part.total_attributes == 2


def test_attribute_can_sit_on_both_sides_of_the_partition(case_study):
    part = partition_preventing(case_study.relations[0], case_study.fds)
    assert "staffNo" in part.completeness_attributes
    assert "staffNo" in part.preventing_attributes


def test_partition_preserves_schema_fd_order(case_study):
    part = partition_preventing(case_study.relations[0], case_study.fds)
    projected_labels = [
        item.label for item in case_study.fds
    ]  # all 16 project onto the full heading
    merged = sorted(
        part.preventing + part.non_preventing, key=lambda f: projected_labels.index(f.label)
    )
    assert [item.label for item in merged] == projected_labels
    assert set(part.preventing).isdisjoint(part.non_preventing)


def test_primary_mode_never_enumerates_keys():
    wide = RelationSchema("W", tuple(f"a{i}" for i in range(25)), ("a0",))
    fds = normalize_fds((fd("F1", "a0", " ".join(f"a{i}" for i in range(1, 25))),))
    assert relation_nc(wide, fds, PRIMARY).normal_form is NormalForm.BCNF
    with pytest.raises(CapacityError):
        relation_nc(wide, fds, STRICT).normal_form


def test_a_mode_that_is_no_member_is_refused_before_any_answer(case_study):
    # "strict" is not ClassificationMode.STRICT: no score mixes the two readings of
    # the keys, even for a relation the mode would never reach (UNF) or none at all.
    rel = case_study.relations[0]
    unf = RelationSchema("U", (AttributeSpec("a"), AttributeSpec("b", atomic=False)), ("a",))
    with pytest.raises(TypeError, match="ClassificationMode"):
        schema_nc(case_study, "strict")
    with pytest.raises(TypeError, match="ClassificationMode"):
        relation_nc(rel, case_study.projected_fds(rel), "strict")
    with pytest.raises(TypeError, match="ClassificationMode"):
        classify_partition(partition_preventing(rel, case_study.projected_fds(rel)), None)
    with pytest.raises(TypeError, match="ClassificationMode"):
        relation_nc(unf, (), "primary")
    with pytest.raises(TypeError, match="ClassificationMode"):
        schema_nc(Schema("e", []), "strict")


def test_bcnf_iff_no_preventing_dependency():
    # Holds whenever attributes are atomic and the primary key is a candidate
    # key; the corpus generator guarantees both.
    for schema, _keys in build_corpus(count=120, seed=3):
        (rel,) = schema.relations
        fds = schema.projected_fds(rel)
        is_bcnf = relation_nc(rel, fds).normal_form is NormalForm.BCNF
        no_preventing = not partition_preventing(rel, fds).preventing
        assert is_bcnf == no_preventing


@pytest.mark.parametrize(
    "relation, fds, primary, strict",
    [
        # Strict: d is non-prime (keys {a, b} and {b, c}) and a reaches it only
        # through the prime c, so no listed FD from a proper subset of a key
        # determines it. Primary: c is outside the declared key.
        (RelationSchema("R", ("a", "b", "c", "d"), ("a", "b")),
         (fd("F1", "a", "c"), fd("F2", "b c", "a"), fd("F3", "a c", "d")),
         NormalForm.FIRST, NormalForm.FIRST),
        # a, e -> d: a non-superkey determinant that shares a with the only key.
        (RelationSchema("R", ("a", "b", "e", "d"), ("a", "b")),
         (fd("F1", "a b", "e"), fd("F2", "a e", "d")),
         NormalForm.THIRD, NormalForm.SECOND),
    ],
    ids=["2nf-through-a-chain", "3nf-determinant-overlapping-the-key"],
)
def test_textbook_cases_in_both_modes(relation, fds, primary, strict):
    assert relation_nc(relation, fds, PRIMARY).normal_form is primary
    assert relation_nc(relation, fds, STRICT).normal_form is strict
    assert brute_force_normal_form(relation, fds, strict=False) == primary
    assert brute_force_normal_form(relation, fds, strict=True) == strict


def test_only_a_list_that_projecting_leaves_unchanged_is_read_as_it_is(case_study, step1):
    # A dependency with two dependents inside the heading is refused, not split.
    rel = RelationSchema("R", ("a", "b", "c", "d"), ("a",))
    with pytest.raises(ForeignAttributeError, match="'F1' is not in the projection onto"):
        partition_preventing(rel, (fd("F1", "b", "c d"),))
    assert partition_preventing(rel, normalize_fds((fd("F1", "b", "c d"),))).preventing == (
        fd("F1.a", "b", "c"), fd("F1.b", "b", "d"),
    )
    # step1's reduced relation has a narrower heading than the fixture relation:
    # the global list and the fixture relation's projection both reach pAddress.
    (wide,) = case_study.relations
    narrow = step1.reduced_relation
    for fds in (case_study.projected_fds(wide), case_study.fds):
        with pytest.raises(ForeignAttributeError, match="'FD6'"):
            partition_preventing(narrow, fds)
    own = step1.nc_after.schema.projected_fds(narrow)
    assert partition_preventing(narrow, own) == partition_preventing(
        narrow, case_study.projected_fds(narrow)
    )


def test_both_modes_match_the_brute_force_normal_form_oracle():
    schemas = [schema for schema, _keys in build_corpus(500)] + build_multi_corpus(100)
    for schema in schemas:
        for rel in schema.relations:
            projected = schema.projected_fds(rel)
            for mode in (PRIMARY, STRICT):
                expected = brute_force_normal_form(rel, projected, strict=mode is STRICT)
                assert relation_nc(rel, projected, mode).normal_form == expected, (rel, mode)
