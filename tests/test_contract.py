"""The library's contract over records built directly, past the DSL.

Hypothesis builds ``Schema``, ``RelationSchema``, ``FunctionalDependency`` and
``SchemaNC`` values that the DSL cannot spell: empty lists, names with spaces
or newlines, keys and FDs over foreign attributes, repeated relation names and
FD labels, and scores taken from another FD list or in another relation
order. Where ``validate_schema`` reports an error, ``schema_nc``,
``normalize_to_bcnf`` and ``decompose_step`` each raise ``InvalidSchemaError``;
otherwise every normal form they report is the brute-force one, and
``emit_report`` writes every score as its exact value: each structured
``{num, den, display}`` and each text "exact" term is the record's ``Fraction``.

The per-relation entries (``relation_nc`` in both modes,
``partition_preventing`` and ``candidate_keys``) get a relation and an FD list:
a projection, or a global list with foreign attributes, empty sides, trivial
or multi-dependent FDs. On a valid schema's ``projected_fds`` they match the
brute force; on any other list they raise ``ForeignAttributeError``.
"""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlens import (
    AttributeSpec,
    ClassificationMode,
    ForeignAttributeError,
    FunctionalDependency,
    InvalidSchemaError,
    NormalForm,
    NormlensError,
    RelationSchema,
    Schema,
    SchemaNC,
    candidate_keys,
    decompose_step,
    emit_report,
    normalize_fds,
    normalize_to_bcnf,
    partition_preventing,
    project_fds,
    relation_nc,
    schema_nc,
    truncated,
    validate_schema,
)

from oracles import brute_force_keys, brute_force_normal_form, naive_closure

_ATTRIBUTES = ("a", "b", "c", "d", "e")
_ODD_NAMES = ("", "a b", "x\ny", "9z", "zz")  # "zz" is a good name that no heading holds
# Scores of another schema, handed to a step as if they were an invalid schema's.
_DONOR = Schema(
    "d", (RelationSchema("R", ("a", "b", "c"), ("a",)),), (FunctionalDependency("F1", "b", "c"),)
)


@st.composite
def schemas(draw: st.DrawFn) -> Schema:
    # A clean draw keeps every rule that validation checks, so about half the
    # schemas are valid; any other draw may break each of them.
    clean = draw(st.booleans())

    def name(pool: tuple[str, ...]) -> st.SearchStrategy[str]:
        return st.sampled_from(pool if clean else pool + _ODD_NAMES)

    def names(pool: tuple[str, ...], least: int, most: int) -> list[str]:
        least = least if clean else 0
        return draw(st.lists(name(pool), min_size=least, max_size=most, unique=clean))

    relations = []
    for relation_name in names(("R", "S", "T"), 1, 3):
        heading = names(_ATTRIBUTES, 1, 5)
        atomic = st.sampled_from((True,) * 19 + (False,))
        specs = [AttributeSpec(attribute, draw(atomic)) for attribute in heading]
        key_pool = st.sampled_from(heading) if clean else name(_ATTRIBUTES)
        key = draw(st.lists(key_pool, min_size=int(clean), max_size=2 + (not clean), unique=clean))
        relations.append(RelationSchema(relation_name, specs, key))

    # Most clean FDs keep to one heading, so that they project into it.
    headings = [sorted({name for relation in relations for name in relation.attribute_names})]
    headings += [relation.attribute_names for relation in relations] * 2
    fds = []
    for number in range(draw(st.integers(0, 5))):
        if clean:
            heading = draw(st.sampled_from(headings))
            pick = st.sampled_from(heading)
            determinant = draw(st.lists(pick, min_size=1, max_size=2, unique=True))
            rest = [attribute for attribute in heading if attribute not in determinant]
            if not rest:
                continue
            dependents = draw(st.lists(st.sampled_from(rest), min_size=1, max_size=2, unique=True))
            fds.append(FunctionalDependency(f"F{number}", determinant, dependents))
        else:
            determinant, dependents = (draw(st.lists(name(_ATTRIBUTES), max_size=3)) for _ in "ab")
            fds.append(FunctionalDependency(draw(name(("F1", "F2"))), determinant, dependents))
    return Schema(draw(name(("s",))), relations, fds)


def _outcome(call):
    # What a call returns, or the type of the NormlensError it raises.
    try:
        return call()
    except NormlensError as error:
        return type(error)


def _assert_brute_force_normal_forms(nc: SchemaNC) -> None:
    strict = nc.mode is ClassificationMode.STRICT
    for relation, scored in zip(nc.schema.relations, nc.per_relation, strict=True):
        expected = brute_force_normal_form(relation, nc.schema.projected_fds(relation), strict)
        assert scored.normal_form == expected, (relation, nc.mode)


def _rational(value) -> dict:
    return {"num": value.numerator, "den": value.denominator, "display": truncated(value)}


def _assert_rendered_scores(nc: SchemaNC, payload: dict) -> None:
    # A structured score against the record's Fraction values.
    assert payload["total"] == _rational(nc.total)
    for scored, rendered in zip(nc.per_relation, payload["relations"], strict=True):
        assert rendered["membership"] == _rational(scored.membership)
        assert rendered["nc"] == _rational(scored.nc)


def _assert_reports_are_exact(nc: SchemaNC, trace: object) -> None:
    _assert_rendered_scores(nc, json.loads(emit_report(nc, "structured")))
    exact = re.findall(r"\(exact (.*?)\)$", emit_report(nc), re.M)
    assert exact == [str(value) for r in nc.per_relation for value in (r.membership, r.nc)]
    if not isinstance(trace, type):
        payload = json.loads(emit_report(trace, "structured"))
        _assert_rendered_scores(trace.initial_nc, payload["initial_nc"])
        _assert_rendered_scores(trace.final_nc, payload["final_nc"])
        for step, rendered in zip(trace.steps, payload["steps"], strict=True):
            _assert_rendered_scores(step.nc_after, rendered["nc_after"])


@settings(max_examples=400, deadline=None)
@given(schemas(), st.sampled_from(list(ClassificationMode)), st.data())
def test_an_entry_refuses_an_invalid_schema_and_classifies_a_valid_one(schema, mode, data):
    report = validate_schema(schema)
    name = data.draw(st.sampled_from([*(rel.name for rel in schema.relations), "Nowhere"]))
    if not report.ok:
        hand_built = SchemaNC(schema, mode, schema_nc(_DONOR, mode).per_relation)
        entries = (
            lambda: schema_nc(schema, mode),
            lambda: normalize_to_bcnf(schema, mode),
            lambda: decompose_step(hand_built, name),
        )
        for entry in entries:
            with pytest.raises(InvalidSchemaError) as invalid:
                entry()
            assert invalid.value.report is report
        return

    nc = schema_nc(schema, mode)
    _assert_brute_force_normal_forms(nc)
    trace = _outcome(lambda: normalize_to_bcnf(schema, mode))
    if not isinstance(trace, type):
        _assert_brute_force_normal_forms(trace.final_nc)
        assert {scored.normal_form for scored in trace.final_nc.per_relation} <= {NormalForm.BCNF}
    step = _outcome(lambda: decompose_step(nc, name))
    if not isinstance(step, type):
        _assert_brute_force_normal_forms(step.nc_after)
    _assert_reports_are_exact(nc, trace)

    # A hand-built score: the schema's own, one read from a sublist of its FDs,
    # or its own in reverse relation order. Only the schema's own may step.
    kept = data.draw(st.lists(st.sampled_from(schema.fds), unique=True)) if schema.fds else []
    candidates = (
        nc.per_relation,
        schema_nc(Schema(schema.name, schema.relations, kept), mode).per_relation,
        nc.per_relation[::-1],
    )
    hand_built = SchemaNC(schema, mode, data.draw(st.sampled_from(candidates)))
    if hand_built.per_relation == nc.per_relation:
        assert _outcome(lambda: decompose_step(hand_built, name)) == step
    else:
        with pytest.raises(ValueError, match="is not the") as refused:
            decompose_step(hand_built, name)
        assert type(refused.value) is ValueError


@st.composite
def relations_and_fd_lists(
    draw: st.DrawFn,
) -> tuple[RelationSchema, tuple[FunctionalDependency, ...]]:
    # A relation R, and an FD list or R's projection of it.
    heading = draw(st.lists(st.sampled_from(_ATTRIBUTES), min_size=1, max_size=5, unique=True))
    atomic = st.sampled_from((True,) * 19 + (False,))
    key = draw(st.lists(st.sampled_from(heading), min_size=1, max_size=2, unique=True))
    relation = RelationSchema("R", [AttributeSpec(name, draw(atomic)) for name in heading], key)
    # Most FDs keep to the heading; the others may reach outside it. A clean FD
    # has a determinant and dependents apart from it; any other may have an
    # empty side or be trivial.
    clean = draw(st.booleans())
    fds = []
    for number in range(draw(st.integers(1, 6))):
        pool = draw(st.sampled_from((heading, heading, _ATTRIBUTES)))
        if clean:
            determinant = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True))
            rest = [name for name in pool if name not in determinant]
            if not rest:
                continue
            dependents = draw(st.lists(st.sampled_from(rest), min_size=1, max_size=2, unique=True))
        else:
            side = st.lists(st.sampled_from(pool), max_size=3, unique=True)
            determinant, dependents = draw(side), draw(side)
        fds.append(FunctionalDependency(f"F{number}", determinant, dependents))
    if draw(st.booleans()):
        return relation, project_fds(normalize_fds(fds), heading)
    return relation, tuple(fds)


def _is_a_valid_schemas_projection(
    relation: RelationSchema, fds: tuple[FunctionalDependency, ...]
) -> bool:
    # The list, relabeled (projecting names the parts of a split FD "F.a", "F.b"),
    # must be the projection onto the relation of a valid schema that holds just
    # those FDs; U holds every attribute, so that no FD is unknown to it.
    own = tuple(
        FunctionalDependency(f"G{n}", fd.determinant, fd.dependents) for n, fd in enumerate(fds)
    )
    schema = Schema("s", (relation, RelationSchema("U", _ATTRIBUTES, _ATTRIBUTES)), own)
    return validate_schema(schema).ok and schema.projected_fds(relation) == own


@settings(max_examples=400, deadline=None)
@given(relations_and_fd_lists())
def test_a_per_relation_entry_reads_only_a_valid_schemas_projection(case):
    relation, fds = case
    entries = (
        *(lambda mode=mode: relation_nc(relation, fds, mode) for mode in ClassificationMode),
        lambda: partition_preventing(relation, fds),
        lambda: candidate_keys(relation, fds),
    )
    if not _is_a_valid_schemas_projection(relation, fds):
        for entry in entries:
            with pytest.raises(ForeignAttributeError):
                entry()
        return

    for mode in ClassificationMode:
        expected = brute_force_normal_form(relation, fds, mode is ClassificationMode.STRICT)
        assert relation_nc(relation, fds, mode).normal_form == expected, mode
    superkey = {fd: naive_closure(fd.determinant, fds) >= relation.attribute_set for fd in fds}
    partition = partition_preventing(relation, fds)
    assert partition.preventing == tuple(fd for fd in fds if not superkey[fd])
    assert partition.non_preventing == tuple(fd for fd in fds if superkey[fd])
    assert list(candidate_keys(relation, fds)) == brute_force_keys(relation, fds)
