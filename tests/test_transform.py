from __future__ import annotations

from fractions import Fraction

import pytest

import normlens.classify
import normlens.completeness
import normlens.transform
from normlens import (
    AlreadyBCNFError,
    AttributeSpec,
    CapacityError,
    ClassificationMode,
    DecompositionError,
    FunctionalDependency,
    NormalForm,
    RelationSchema,
    Schema,
    SchemaNC,
    UnknownRelationError,
    closure,
    decompose_step,
    normalize_fds,
    normalize_to_bcnf,
    parse_schema,
    project_fds,
    relation_nc,
    schema_nc,
)

from conftest import CASE_STUDY_RENAMES, REPO_ROOT, fixture_copies
from corpus import build_corpus, build_multi_corpus, fd


def test_first_step_moves_fd6(step1):
    assert step1.source_name == "StaffPropertyInspection"
    assert step1.moved_fd_labels == ("FD6",)
    assert step1.new_relation.heading() == "Property(propertyNo, pAddress)"
    assert step1.new_relation.primary_key == ("propertyNo",)
    assert step1.reduced_relation.heading() == (
        "StaffInspection(propertyNo, iDate, iTime, comments, staffNo, sName, carReg)"
    )
    assert step1.reduced_relation.primary_key == ("propertyNo", "iDate")


def test_second_step_moves_fd7(step2):
    assert step2.moved_fd_labels == ("FD7",)
    assert step2.new_relation.heading() == "Staff(staffNo, sName)"
    assert step2.new_relation.primary_key == ("staffNo",)
    assert step2.reduced_relation.heading() == (
        "Inspection(propertyNo, iDate, iTime, comments, staffNo, carReg)"
    )


def test_third_step_moves_fd8(step3):
    assert step3.moved_fd_labels == ("FD8",)
    # Determinant keeps its written order: staffNo before iDate.
    assert step3.new_relation.attribute_names == ("staffNo", "iDate", "carReg")
    assert step3.new_relation.primary_key == ("staffNo", "iDate")
    assert step3.reduced_relation.attribute_names == (
        "propertyNo", "iDate", "iTime", "comments", "staffNo",
    )


def test_attribute_preservation_per_step(case_study, step1, step2, step3):
    source = case_study.relations[0].attribute_set
    for step in (step1, step2, step3):
        new_and_reduced = (
            step.new_relation.attribute_set | step.reduced_relation.attribute_set
        )
        assert new_and_reduced == source
        source = step.reduced_relation.attribute_set


def test_normalize_full_run(case_study):
    trace = normalize_to_bcnf(case_study, rename=CASE_STUDY_RENAMES)
    assert len(trace.steps) == 3
    assert trace.initial_nc.schema == case_study
    assert trace.initial_nc.total_display == "1.62"
    assert [step.nc_after.total_display for step in trace.steps] == [
        "6.71",
        "11.75",
        "16.00",
    ]
    assert trace.final_nc.total == Fraction(16)
    assert len(trace.final_nc.schema.relations) == 4
    for rel in trace.final_nc.schema.relations:
        assert relation_nc(rel, trace.final_nc.schema.fds).normal_form is NormalForm.BCNF


def test_normalize_already_bcnf_schema_is_a_fixpoint():
    schema = Schema(
        "s", (RelationSchema("R", ("a", "b"), ("a",)),), (fd("F1", "a", "b"),)
    )
    trace = normalize_to_bcnf(schema)
    assert trace.steps == ()
    assert trace.final_nc.schema == schema
    assert trace.initial_nc.total == trace.final_nc.total == 4


def test_unpreserved_fds_reported(case_study):
    trace = normalize_to_bcnf(case_study, rename=CASE_STUDY_RENAMES)
    assert trace.unpreserved_fd_labels == (
        "FD4", "FD5", "FD9", "FD10", "FD11", "FD12", "FD13", "FD15",
    )


def test_unknown_relation_error(case_study):
    with pytest.raises(UnknownRelationError):
        decompose_step(schema_nc(case_study), "Nowhere")


def test_a_name_shared_by_two_relations_is_a_decomposition_error():
    # The first R is BCNF and the second is not; no step may pick either by name.
    schema = Schema(
        "s",
        (RelationSchema("R", ("c", "d"), ("c",)), RelationSchema("R", ("a", "b", "c"), ("a",))),
        (fd("F1", "b", "c"), fd("F2", "a", "b")),
    )
    with pytest.raises(DecompositionError, match="'R'"):
        normalize_to_bcnf(schema)
    with pytest.raises(DecompositionError, match="'R'"):
        decompose_step(schema_nc(schema), "R")
    with pytest.raises(UnknownRelationError) as missing:
        decompose_step(schema_nc(schema), "Nowhere")
    assert str(missing.value) == "no relation named 'Nowhere' in schema 's'"


def test_decompose_bcnf_relation_is_rejected():
    schema = Schema(
        "s", (RelationSchema("R", ("a", "b"), ("a",)),), (fd("F1", "a", "b"),)
    )
    with pytest.raises(AlreadyBCNFError):
        decompose_step(schema_nc(schema), "R")


def test_a_relation_below_bcnf_with_no_preventing_fd_cannot_be_stepped():
    # R_b(b, c*) keeps the non-atomic c: it is below BCNF, yet no split can raise it.
    text = (REPO_ROOT / "tests/golden/unnormalized.nls").read_text(encoding="utf-8")
    step = decompose_step(schema_nc(parse_schema(text).schema), "R")
    with pytest.raises(DecompositionError, match="'R_b' is below BCNF"):
        decompose_step(step.nc_after, "R_b")
    atoms = (AttributeSpec("a"), AttributeSpec("b", atomic=False))
    schema = Schema("s", (RelationSchema("U", atoms, ("a",)),), ())
    with pytest.raises(DecompositionError, match="'U' is below BCNF"):
        decompose_step(schema_nc(schema), "U")


def test_moved_dependent_inside_primary_key_is_rejected():
    schema = Schema(
        "s",
        (RelationSchema("R", ("a", "b", "c"), ("a", "b")),),
        (fd("F1", "c", "a"),),
    )
    with pytest.raises(DecompositionError, match="primary key"):
        decompose_step(schema_nc(schema), "R")


def test_preventing_fds_with_equal_determinant_move_together():
    schema = Schema(
        "s",
        (RelationSchema("R", ("a", "b", "c", "d", "e"), ("a", "b")),),
        (fd("G1", "c", "d"), fd("G2", "c", "e")),
    )
    step = decompose_step(schema_nc(schema), "R")
    assert step.moved_fd_labels == ("G1", "G2")
    assert step.new_relation.heading() == "R_c(c, d, e)"
    assert step.reduced_relation.attribute_names == ("a", "b", "c")


def test_rename_collision_is_rejected(case_study):
    with pytest.raises(DecompositionError, match="duplicate"):
        decompose_step(
            schema_nc(case_study),
            "StaffPropertyInspection",
            rename={"StaffPropertyInspection_propertyNo": "StaffPropertyInspection"},
        )


def test_normalize_rejects_partial_dependency_with_superkey_determinant():
    # Oversized primary key: {a} already determines everything, so F1 blocks
    # 2NF without being a preventing dependency. No split can fix that.
    schema = Schema(
        "s",
        (RelationSchema("R", ("a", "b", "c"), ("a", "b")),),
        (fd("F1", "a", "b"), fd("F2", "a", "c")),
    )
    assert relation_nc(schema.relations[0], schema.fds).normal_form is NormalForm.FIRST
    with pytest.raises(DecompositionError, match="no preventing"):
        normalize_to_bcnf(schema)


def test_normalize_rejects_non_atomic_attributes():
    schema = Schema(
        "s",
        (
            RelationSchema(
                "R", (AttributeSpec("a"), AttributeSpec("b", atomic=False)), ("a",)
            ),
        ),
        (),
    )
    with pytest.raises(DecompositionError, match="no preventing"):
        normalize_to_bcnf(schema)


def test_nc_strictly_increases_on_case_study(step1, step2, step3):
    for step in (step1, step2, step3):
        assert step.nc_after.total > step.nc_before.total


def test_corpus_steps_are_lossless_and_nc_increases():
    steps_seen = 0
    for schema, _keys in build_corpus(count=60, seed=9):
        try:
            trace = normalize_to_bcnf(schema)
        except DecompositionError:
            continue  # moved dependent inside the primary key; documented rejection
        for step in trace.steps:
            steps_seen += 1
            shared = (
                step.new_relation.attribute_set & step.reduced_relation.attribute_set
            )
            determinant = frozenset(step.new_relation.primary_key)
            assert shared == determinant
            projected = project_fds(
                normalize_fds(trace.initial_nc.schema.fds), step.new_relation.attribute_set
            )
            assert closure(determinant, projected) >= step.new_relation.attribute_set
            assert step.nc_after.total > step.nc_before.total
    assert steps_seen > 10


def test_new_relation_bcnf_flag_is_accurate(case_study, step1, step2, step3):
    # The freshly split relation is usually BCNF, but another dependency can
    # project into it with a non-superkey determinant; the step flags that
    # instead of assuming, and the run splits the flagged relation later.
    for step in (step1, step2, step3):
        assert step.new_relation_bcnf is True
    flagged = 0
    for schema, _keys in build_corpus(count=60, seed=13):
        try:
            trace = normalize_to_bcnf(schema)
        except DecompositionError:
            continue
        for step in trace.steps:
            expected = (
                relation_nc(step.new_relation, trace.initial_nc.schema.fds).normal_form
                is NormalForm.BCNF
            )
            assert step.new_relation_bcnf == expected
            flagged += not expected
        for rel in trace.final_nc.schema.relations:
            assert relation_nc(rel, trace.final_nc.schema.fds).normal_form is NormalForm.BCNF
    assert flagged > 0  # the corpus does exercise the exceptional case


def test_split_off_relation_gets_a_fresh_default_name():
    relations = (
        RelationSchema("R", ("a", "b", "c"), ("a",)),
        RelationSchema("R_b", ("x",), ("x",)),
    )
    fds = (fd("F1", "a", "b"), fd("F2", "b", "c"), fd("F3", "a", "c"))
    trace = normalize_to_bcnf(Schema("s", relations, fds))
    assert [rel.heading() for rel in trace.final_nc.schema.relations] == [
        "R(a, b)", "R_b(x)", "R_b_2(b, c)",
    ]
    taken_twice = Schema("s", (*relations, RelationSchema("R_b_2", ("y",), ("y",))), fds)
    assert decompose_step(schema_nc(taken_twice), "R").new_relation.name == "R_b_3"
    # A collision the caller asked for is still an error.
    with pytest.raises(DecompositionError, match="duplicate"):
        decompose_step(schema_nc(Schema("s", relations, fds)), "R", rename={"R_b_2": "R_b"})


def test_direct_step_raises_step_errors_before_the_key_search():
    # key_cap=1 makes any strict-mode key search fail, so each of these must
    # surface before the step scores the relations it produces.
    strict = ClassificationMode.STRICT
    bcnf = Schema("s", (RelationSchema("R", ("a", "b"), ("a",)),), (fd("F1", "a", "b"),))
    broken_key = Schema(
        "s", (RelationSchema("R", ("a", "b", "c"), ("a", "b")),), (fd("F1", "c", "a"),)
    )
    with pytest.raises(UnknownRelationError):
        decompose_step(schema_nc(bcnf, strict), "Nowhere", key_cap=1)
    with pytest.raises(AlreadyBCNFError):
        decompose_step(schema_nc(bcnf, strict), "R", key_cap=1)
    with pytest.raises(DecompositionError, match="primary key"):
        decompose_step(schema_nc(broken_key, strict), "R", key_cap=1)
    transitive = Schema(
        "s", (RelationSchema("R", ("a", "b", "c"), ("a",)),), (fd("F1", "a", "b"), fd("F2", "b", "c"))
    )
    with pytest.raises(CapacityError):
        decompose_step(schema_nc(transitive, strict), "R", key_cap=1)


def test_a_score_must_cover_the_relations_of_its_schema(case_study):
    text = (REPO_ROOT / "tests" / "golden" / "multi_relation.nls").read_text(encoding="utf-8")
    schema = parse_schema(text).schema
    primary = ClassificationMode.PRIMARY
    # Four relations, but not these four: R1 does have a preventing dependency.
    others = Schema("o", tuple(RelationSchema(f"X{i}", ("a",), ("a",)) for i in range(4)), ())
    with pytest.raises(ValueError, match="'M'"):
        decompose_step(SchemaNC(schema, primary, schema_nc(others).per_relation), "R1")
    with pytest.raises(ValueError, match="'M'"):
        decompose_step(SchemaNC(schema, primary, schema_nc(case_study).per_relation), "R4")
    # A score of the first three relations only.
    with pytest.raises(ValueError, match="'M'"):
        decompose_step(SchemaNC(schema, primary, schema_nc(schema).per_relation[:3]), "R1")


@pytest.mark.parametrize(
    ("determinant", "dependents"), [(("b", "c"), ("c",)), (("b",), ())], ids=["trivial", "empty"]
)
def test_a_step_that_moves_no_attribute_is_a_decomposition_error(determinant, dependents):
    # Validation rejects both FDs, but library schemas are not validated; each
    # is preventing, and splitting it off would leave R as it was, forever.
    schema = Schema(
        "s",
        (RelationSchema("R", ("a", "b", "c"), ("a",)),),
        (FunctionalDependency("F1", determinant, dependents),),
    )
    with pytest.raises(DecompositionError, match="'R': F1 moves no attribute"):
        decompose_step(schema_nc(schema), "R")
    with pytest.raises(DecompositionError, match="'R': F1 moves no attribute"):
        normalize_to_bcnf(schema)


def _scored_from_scratch(schema: Schema, mode: ClassificationMode) -> SchemaNC:
    # Every relation scored against the global FD list, bypassing the schema's
    # FD index and any score a run carried forward.
    return SchemaNC(
        schema, mode, tuple(relation_nc(rel, schema.fds, mode) for rel in schema.relations)
    )


@pytest.mark.parametrize("mode", list(ClassificationMode))
def test_carried_scores_equal_scores_recomputed_from_scratch(mode):
    steps_seen = 0
    for schema in build_multi_corpus(count=80):
        try:
            trace = normalize_to_bcnf(schema, mode)
        except DecompositionError:
            continue
        before = schema
        for step in trace.steps:
            assert step.nc_before == _scored_from_scratch(before, mode)
            assert step.nc_after == _scored_from_scratch(step.nc_after.schema, mode)
            assert step.new_relation_bcnf == (
                relation_nc(step.new_relation, schema.fds, mode).normal_form is NormalForm.BCNF
            )
            # The derived relations are the scored schemas' own objects.
            relations_after = step.nc_after.schema.relations
            assert step.reduced_relation is relations_after[step.position]
            assert step.new_relation is relations_after[-1]
            assert step.source_name == step.nc_before.schema.relations[step.position].name
            before = step.nc_after.schema
            steps_seen += 1
        assert trace.initial_nc == _scored_from_scratch(schema, mode)
        assert trace.final_nc == _scored_from_scratch(trace.final_nc.schema, mode)
        assert trace.final_nc is (trace.steps[-1].nc_after if trace.steps else trace.initial_nc)
        for nc in (trace.initial_nc, *(step.nc_after for step in trace.steps)):
            for rnc in nc.per_relation:
                assert rnc.relation_name == rnc.partition.relation.name
                assert rnc.partition.total_attributes == len(rnc.partition.relation.attributes)
    assert steps_seen > 100


def test_a_step_carries_the_total_of_every_relation_it_scores():
    steps_seen = 0
    for schema, _keys in build_corpus(500):
        try:
            trace = normalize_to_bcnf(schema)
        except DecompositionError:
            continue
        for step in trace.steps:
            assert "total" in vars(step.nc_after)  # carried, not summed on first read
            assert step.nc_after.total == sum(r.nc for r in step.nc_after.per_relation)
            steps_seen += 1
        assert trace.final_nc.total == sum(r.nc for r in trace.final_nc.per_relation)
    assert steps_seen > 100


@pytest.mark.parametrize("mode", list(ClassificationMode))
def test_a_chain_of_public_steps_is_the_run(mode):
    steps_seen = 0
    for schema in build_multi_corpus(count=80):
        try:
            trace = normalize_to_bcnf(schema, mode)
        except DecompositionError:
            continue
        nc = schema_nc(schema, mode)
        for step in trace.steps:
            chained = decompose_step(nc, step.source_name)
            assert chained == step
            nc = chained.nc_after
            steps_seen += 1
        assert nc == trace.final_nc
    assert steps_seen > 100


@pytest.mark.parametrize("mode", list(ClassificationMode))
def test_normalize_scores_only_the_relations_each_step_changes(case_study, monkeypatch, mode):
    calls = []
    original = normlens.completeness.relation_nc

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return original(*args, **kwargs)

    for module in (normlens.completeness, normlens.transform):
        monkeypatch.setattr(module, "relation_nc", counting, raising=False)
    copies = 8
    trace = normalize_to_bcnf(fixture_copies(case_study, copies), mode)
    assert len(trace.steps) == 3 * copies
    assert trace.final_nc.total == 16 * copies
    assert len(calls) <= copies + 2 * len(trace.steps)


@pytest.mark.parametrize("mode", list(ClassificationMode))
def test_normalize_projects_each_relation_once(case_study, monkeypatch, mode):
    # The unpreserved FDs are read from the final scores, not projected again.
    calls = []
    original = Schema.projected_fds

    def counting(self, relation):
        calls.append(relation.name)
        return original(self, relation)

    monkeypatch.setattr(Schema, "projected_fds", counting)
    # Scoring reads those projections as they are.
    monkeypatch.setattr(normlens.classify, "project_fds", None)
    copies = 8
    trace = normalize_to_bcnf(fixture_copies(case_study, copies), mode)
    assert len(trace.steps) == 3 * copies
    assert len(calls) <= copies + 2 * len(trace.steps)
    singletons = normalize_fds(trace.initial_nc.schema.fds)
    preserved = {
        fd
        for rel in trace.final_nc.schema.relations
        for fd in project_fds(singletons, rel.attribute_set)
    }
    assert trace.unpreserved_fd_labels == tuple(
        fd.label for fd in singletons if fd not in preserved
    )
    assert len(trace.unpreserved_fd_labels) == 8 * copies
