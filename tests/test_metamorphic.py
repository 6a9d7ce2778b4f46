"""Metamorphic properties: answers that must not change when the input only looks different.

The oracles check answers against brute force on small headings; these check that
answers agree between inputs that must agree, at any size.
"""

from __future__ import annotations

import random

from normlens import (
    AttributeSpec,
    ClassificationMode,
    FunctionalDependency,
    RelationSchema,
    Schema,
    candidate_keys,
    schema_nc,
)

from corpus import build_corpus, build_multi_corpus


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


def _variants(schema, rng):
    # (what changed, the changed schema, the attribute renaming it applies)
    fds, relations = list(schema.fds), list(schema.relations)
    rng.shuffle(fds)
    rng.shuffle(relations)
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
    return [
        ("shuffled FD order", Schema(schema.name, schema.relations, fds), None),
        ("shuffled relation order", Schema(schema.name, relations, schema.fds), None),
        ("renamed attributes", renamed_schema, rename),
    ]


def test_scores_and_keys_ignore_fd_order_relation_order_and_attribute_names():
    rng = random.Random(17)
    schemas = [schema for schema, _keys in build_corpus(300)] + build_multi_corpus(150)
    for number, schema in enumerate(schemas):
        expected = _answers(schema)
        for change, variant, rename in _variants(schema, rng):
            assert _answers(variant, rename) == expected, (number, change)
