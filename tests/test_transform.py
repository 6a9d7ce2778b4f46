from __future__ import annotations

import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import normlens.completeness
import normlens.transform
from normlens import (
    AlreadyBCNFError,
    AttributeSpec,
    CapacityError,
    ClassificationMode,
    DecompositionError,
    FunctionalDependency,
    InvalidSchemaError,
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
    validate_schema,
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
    final = trace.final_nc.schema
    assert len(final.relations) == 4
    for rel in final.relations:
        assert relation_nc(rel, final.projected_fds(rel)).normal_form is NormalForm.BCNF


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
    with pytest.raises(UnknownRelationError) as missing:
        decompose_step(schema_nc(case_study), "Nowhere")
    assert str(missing.value) == "no relation named 'Nowhere' in schema 'PropertyInspection'"


def _hand_built(schema: Schema) -> SchemaNC:
    # Each relation scored against its projection, past schema_nc and its validation.
    return SchemaNC(
        schema,
        ClassificationMode.PRIMARY,
        tuple(relation_nc(rel, schema.projected_fds(rel)) for rel in schema.relations),
    )


def test_a_name_shared_by_two_relations_is_an_invalid_schema():
    # The first R is BCNF and the second is not; no step may pick either by name.
    schema = Schema(
        "s",
        (RelationSchema("R", ("c", "d"), ("c",)), RelationSchema("R", ("a", "b", "c"), ("a",))),
        (fd("F1", "b", "c"), fd("F2", "a", "b")),
    )
    repeated = "relation name 'R' declared more than once"
    for entry in (schema_nc, normalize_to_bcnf):
        with pytest.raises(InvalidSchemaError, match=repeated) as invalid:
            entry(schema)
        assert invalid.value.report is validate_schema(schema)
    for name in ("R", "Nowhere"):
        with pytest.raises(InvalidSchemaError):
            decompose_step(_hand_built(schema), name)


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


def test_a_renamed_relation_must_get_an_identifier():
    # Without the check, the step's score would hold a schema with BAD_RELATION_NAME.
    schema = Schema(
        "s",
        (RelationSchema("R", ("a", "b", "c", "d"), ("a",)),),
        (fd("F1", "b", "c"), fd("F2", "c", "d")),
    )
    for rename in ({"R_b": "x y\nz"}, {"R": ""}):
        with pytest.raises(DecompositionError, match="is not an identifier"):
            decompose_step(schema_nc(schema), "R", rename=rename)
        with pytest.raises(DecompositionError, match="is not an identifier"):
            normalize_to_bcnf(schema, rename=rename)


def test_the_readme_python_example_prints_the_fixture_score():
    # The example renames every relation it splits. A leaked file raises
    # ResourceWarning in a destructor, where Python prints it and exits 0
    # anyway, so stderr must be empty too.
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert blocks
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", "".join(blocks)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        check=False,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[0] == "16.00"


def test_normalize_rejects_partial_dependency_with_superkey_determinant():
    # Oversized primary key: {a} already determines everything, so F1 blocks
    # 2NF without being a preventing dependency. No split can fix that.
    schema = Schema(
        "s",
        (RelationSchema("R", ("a", "b", "c"), ("a", "b")),),
        (fd("F1", "a", "b"), fd("F2", "a", "c")),
    )
    (rel,) = schema.relations
    assert relation_nc(rel, schema.projected_fds(rel)).normal_form is NormalForm.FIRST
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
            new = step.new_relation
            expected = relation_nc(new, schema.projected_fds(new)).normal_form is NormalForm.BCNF
            assert step.new_relation_bcnf == expected
            flagged += not expected
        final = trace.final_nc.schema
        for rel in final.relations:
            assert relation_nc(rel, final.projected_fds(rel)).normal_form is NormalForm.BCNF
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
    refused = "is not the primary score of schema 'M'"
    with pytest.raises(ValueError, match=refused) as other:
        decompose_step(SchemaNC(schema, primary, schema_nc(others).per_relation), "R1")
    assert type(other.value) is ValueError
    with pytest.raises(ValueError, match=refused):
        decompose_step(SchemaNC(schema, primary, schema_nc(case_study).per_relation), "R4")
    # A score of the first three relations only.
    with pytest.raises(ValueError, match=refused):
        decompose_step(SchemaNC(schema, primary, schema_nc(schema).per_relation[:3]), "R1")
    # A score of a schema that does not validate: an FD over an attribute no relation has.
    invalid = Schema("M", schema.relations, (*schema.fds, fd("F9", "zz", "a")))
    with pytest.raises(InvalidSchemaError, match="'F9' mentions"):
        decompose_step(SchemaNC(invalid, primary, schema_nc(schema).per_relation), "R1")


def test_a_hand_built_score_is_checked_against_its_schemas_own():
    # R's scores without F1 call it BCNF; a step must not trust them and stop there.
    schema = Schema("s", (RelationSchema("R", ("a", "b", "c"), ("a",)),), (fd("F1", "b", "c"),))
    without_f1 = schema_nc(Schema("s", schema.relations)).per_relation
    lying = SchemaNC(schema, ClassificationMode.PRIMARY, without_f1)
    with pytest.raises(ValueError, match="is not the primary score of schema 's'") as refused:
        decompose_step(lying, "R")
    assert type(refused.value) is ValueError
    # The true scores, built by hand, step as schema_nc's own do.
    honest = _hand_built(schema)
    assert decompose_step(honest, "R") == decompose_step(schema_nc(schema), "R")
    assert decompose_step(honest, "R").moved_fd_labels == ("F1",)


@pytest.mark.parametrize(
    ("determinant", "dependents", "code"),
    [(("b", "c"), ("c",), "TRIVIAL_FD"), (("b",), (), "EMPTY_DEPENDENTS")],
    ids=["trivial", "empty"],
)
def test_an_fd_that_moves_no_attribute_is_an_invalid_schema(determinant, dependents, code):
    # Each FD is preventing, and splitting it off would leave R as it was, forever.
    schema = Schema(
        "s",
        (RelationSchema("R", ("a", "b", "c"), ("a",)),),
        (FunctionalDependency("F1", determinant, dependents),),
    )
    for entry in (schema_nc, normalize_to_bcnf):
        with pytest.raises(InvalidSchemaError, match="'F1'") as invalid:
            entry(schema)
        assert [v.code for v in invalid.value.report.errors] == [code]
    # F1 is no relation's projection, so the scores by hand are R's without it.
    without_f1 = schema_nc(Schema("s", schema.relations)).per_relation
    with pytest.raises(InvalidSchemaError, match="'F1'"):
        decompose_step(SchemaNC(schema, ClassificationMode.PRIMARY, without_f1), "R")


def _from_scratch(schema: Schema, relation: RelationSchema) -> tuple[FunctionalDependency, ...]:
    # The relation's projection, bypassing the schema's FD index.
    return project_fds(normalize_fds(schema.fds), relation.attribute_set)


def _scored_from_scratch(schema: Schema, mode: ClassificationMode) -> SchemaNC:
    # Every relation scored without the schema's FD index or any score a run carried forward.
    return SchemaNC(schema, mode, tuple(
        relation_nc(rel, _from_scratch(schema, rel), mode) for rel in schema.relations
    ))


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
            new = step.new_relation
            assert step.new_relation_bcnf == (
                relation_nc(new, _from_scratch(schema, new), mode).normal_form is NormalForm.BCNF
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
    copies = 8
    schema = fixture_copies(case_study, copies)
    # Validated first, as parse_schema does: its superkey test reads the projections too.
    assert validate_schema(schema).ok
    calls.clear()
    trace = normalize_to_bcnf(schema, mode)
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
