"""Metamorphic properties: answers that must not change when the input only looks different.

The oracles check answers against brute force on small headings; these check that
answers agree between inputs that must agree, at any size, and that the probe
shapes, whose answers are known in closed form, get them at sizes brute force
cannot reach.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from normlens import (
    AttributeSpec,
    ClassificationMode,
    DecompositionError,
    FunctionalDependency,
    NormalForm,
    RelationSchema,
    Schema,
    candidate_keys,
    closure,
    normalize_to_bcnf,
    parse_schema,
    schema_nc,
    validate_schema,
)

from corpus import build_corpus, build_multi_corpus, probe_text


def _answers(schema, rename=None):
    # Each mode's total; per relation name, each mode's normal form and NC, and the
    # candidate keys as a set of sets, in the names before ``rename``.
    back = {new: old for old, new in (rename or {}).items()}
    totals, per_relation = [], {}
    for mode in ClassificationMode:
        nc = schema_nc(schema, mode)
        totals.append(nc.total)
        for rnc in nc.per_relation:
            per_relation.setdefault(rnc.relation_name, []).append((rnc.normal_form, rnc.nc))
    for rel in schema.relations:
        keys = candidate_keys(rel, schema.projected_fds(rel))
        per_relation[rel.name].append({frozenset(back.get(a, a) for a in key) for key in keys})
    return totals, per_relation


def _shuffled(schema, rng):
    # (what changed, the changed schema): the FDs and the relations in a new order
    fds, relations = list(schema.fds), list(schema.relations)
    rng.shuffle(fds)
    rng.shuffle(relations)
    return [
        ("shuffled FD order", Schema(schema.name, schema.relations, fds)),
        ("shuffled relation order", Schema(schema.name, relations, schema.fds)),
    ]


def _variants(schema, rng):
    # (what changed, the changed schema, the attribute renaming it applies)
    variants = [(change, variant, None) for change, variant in _shuffled(schema, rng)]
    names = sorted(frozenset().union(*(rel.attribute_set for rel in schema.relations)))
    rename = {old: f"x_{new}" for old, new in zip(names, rng.sample(names, len(names)))}

    def renamed(items):
        return [rename[name] for name in items]

    renamed_schema = Schema(
        schema.name,
        [
            RelationSchema(
                rel.name,
                [AttributeSpec(rename[spec.name], spec.atomic) for spec in rel.attributes],
                renamed(rel.primary_key),
            )
            for rel in schema.relations
        ],
        [
            FunctionalDependency(item.label, renamed(item.determinant), renamed(item.dependents))
            for item in schema.fds
        ],
    )
    return [*variants, ("renamed attributes", renamed_schema, rename)]


def _corpora():
    return [schema for schema, _keys in build_corpus(300)] + build_multi_corpus(150)


def test_scores_and_keys_ignore_fd_order_relation_order_and_attribute_names():
    rng = random.Random(17)
    for number, schema in enumerate(_corpora()):
        expected = _answers(schema)
        for change, variant, rename in _variants(schema, rng):
            assert _answers(variant, rename) == expected, (number, change)


def _broken_copies(schema):
    # Each adds one kind of error: a repeated FD label, an FD over an attribute of
    # no relation, and a trivial FD.
    heading = schema.relations[0].attribute_names
    first, last = heading[0], heading[-1]
    return [
        Schema(schema.name, schema.relations, (*schema.fds, *extra))
        for extra in (
            [FunctionalDependency("Twice", (first,), (last,))] * 2,
            [FunctionalDependency("Unknown", ("zz",), (first,))],
            [FunctionalDependency("Trivial", (first,), (first,))],
        )
    ]


def test_validation_ignores_fd_order_and_relation_order():
    rng = random.Random(23)
    for number, schema in enumerate(_corpora()):
        for checked in (schema, *_broken_copies(schema)):
            expected = Counter(validate_schema(checked).violations)
            assert expected or checked is schema, number
            for change, variant in _shuffled(checked, rng):
                assert Counter(validate_schema(variant).violations) == expected, (number, change)


def _probe(shape, size):
    return parse_schema(probe_text(shape, size)).schema


@pytest.mark.parametrize("m", range(1, 9))
def test_pairs_has_two_to_the_m_keys_of_size_m(m):
    schema = _probe("pairs", m)
    (rel,) = schema.relations
    keys = candidate_keys(rel, schema.projected_fds(rel))
    assert len(set(keys)) == len(keys) == 2**m
    assert {len(key) for key in keys} == {m}
    # Each key takes one of ai and bi for every i.
    assert all(len({name[1:] for name in key}) == m for key in keys)


def test_a_chain_reaches_its_whole_heading_from_its_first_attribute():
    for n in range(2, 61):
        schema = _probe("chain", n)
        (rel,) = schema.relations
        fds = schema.projected_fds(rel)
        assert closure("a0", fds) == rel.attribute_set, n
        assert candidate_keys(rel, fds, cap=n) == (frozenset({"a0"}),), n


@pytest.mark.parametrize("mode", list(ClassificationMode))
@pytest.mark.parametrize("k", [1, 2, 10, 100])
def test_a_star_takes_one_step_per_point(k, mode):
    trace = normalize_to_bcnf(_probe("star", k), mode)
    assert len(trace.steps) == k
    final = trace.final_nc
    assert len(final.per_relation) == 2 * k
    assert {rnc.normal_form for rnc in final.per_relation} == {NormalForm.BCNF}
    assert final.total == 8 * k


@pytest.mark.parametrize("mode", list(ClassificationMode))
def test_every_normalize_step_raises_the_total(mode):
    steps = 0
    for number, schema in enumerate(build_multi_corpus()):
        try:
            trace = normalize_to_bcnf(schema, mode)
        except DecompositionError:
            continue  # a moved dependent inside the primary key: a documented refusal
        for step in trace.steps:
            steps += 1
            assert step.nc_after.total > step.nc_before.total, (number, step.source_name)
    assert steps > 100
