from __future__ import annotations

import pytest

from normlens import (
    AttributeSpec,
    CapacityError,
    ClassificationMode,
    NormalForm,
    RelationSchema,
    partition_preventing,
    relation_nc,
)

from corpus import build_corpus, fd

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


def test_classification_ladder_on_case_study(relations, case_study):
    fds = case_study.fds
    assert relation_nc(relations["StaffPropertyInspection"], fds).normal_form is NormalForm.FIRST
    assert relation_nc(relations["StaffInspection"], fds).normal_form is NormalForm.SECOND
    assert relation_nc(relations["Inspection"], fds).normal_form is NormalForm.THIRD
    assert relation_nc(relations["Property"], fds).normal_form is NormalForm.BCNF
    assert relation_nc(relations["Staff"], fds).normal_form is NormalForm.BCNF


def test_property_is_bcnf_in_both_modes(relations, case_study):
    for mode in (PRIMARY, STRICT):
        assert relation_nc(relations["Property"], case_study.fds, mode).normal_form is NormalForm.BCNF


def test_strict_mode_demotes_staff_inspection(relations, case_study):
    # staffNo is a proper subset of candidate key {staffNo, iDate, iTime} and
    # determines the non-prime sName, so the all-keys reading blocks 2NF.
    rel = relations["StaffInspection"]
    assert relation_nc(rel, case_study.fds, PRIMARY).normal_form is NormalForm.SECOND
    assert relation_nc(rel, case_study.fds, STRICT).normal_form is NormalForm.FIRST


def test_strict_mode_agrees_on_inspection(relations, case_study):
    rel = relations["Inspection"]
    assert relation_nc(rel, case_study.fds, STRICT).normal_form is NormalForm.THIRD


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
    part = partition_preventing(step1.reduced_relation, case_study.fds)
    assert [item.label for item in part.preventing] == ["FD7", "FD8"]
    assert part.completeness_count == 7
    assert part.preventing_count == 4
    assert part.total_attributes == 7


def test_partition_step3(step2, case_study):
    part = partition_preventing(step2.reduced_relation, case_study.fds)
    assert [item.label for item in part.preventing] == ["FD8"]
    assert [item.label for item in part.non_preventing] == [
        "FD1", "FD2", "FD3", "FD5", "FD9", "FD11", "FD12", "FD14", "FD16",
    ]
    assert part.completeness_count == 6
    assert part.preventing_count == 3
    assert part.total_attributes == 6


def test_partition_property(step1, case_study):
    part = partition_preventing(step1.new_relation, case_study.fds)
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
    fds = (fd("F1", "a0", " ".join(f"a{i}" for i in range(1, 25))),)
    assert relation_nc(wide, fds, PRIMARY).normal_form is NormalForm.BCNF
    with pytest.raises(CapacityError):
        relation_nc(wide, fds, STRICT).normal_form


def test_bcnf_iff_no_preventing_dependency():
    # Holds whenever attributes are atomic and the primary key is a candidate
    # key; the corpus generator guarantees both.
    for schema, _keys in build_corpus(count=120, seed=3):
        rel = schema.relations[0]
        is_bcnf = relation_nc(rel, schema.fds).normal_form is NormalForm.BCNF
        no_preventing = not partition_preventing(rel, schema.fds).preventing
        assert is_bcnf == no_preventing
