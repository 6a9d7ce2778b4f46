"""Schema decomposition: split preventing dependencies out until BCNF.

Each step takes the first preventing dependency (schema FD order) of a
target relation, groups every other preventing dependency sharing its
determinant, and moves determinant plus dependents into a new relation keyed
by the determinant. The reduced relation keeps its key and loses only the
moved dependents. Both halves share exactly the determinant, which
functionally determines the whole new relation, so every split is lossless
under the binary join criterion. Dependency preservation is NOT guaranteed;
the trace lists dependencies that no longer project into any one relation.
"""

from __future__ import annotations

import itertools

from .completeness import SchemaNC, _sum, relation_nc, schema_nc
from .errors import AlreadyBCNFError, DecompositionError, UnknownRelationError
from .fd import DEFAULT_KEY_CAP
from .model import (
    IDENTIFIER, ClassificationMode, NormalForm, RelationSchema, Schema, _Record, normalize_fds
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from collections.abc import Mapping


class TransformStep(_Record):
    """One decomposition step with the scored schemas before and after it.

    ``position`` indexes the source in ``nc_before.schema.relations``; after the
    step the reduced relation holds it and the new relation comes last. The new
    relation is usually in BCNF (``new_relation_bcnf``), but an unrelated
    dependency can project into it with a non-superkey determinant.
    """

    position: int
    moved_fd_labels: tuple[str, ...]
    nc_before: SchemaNC
    nc_after: SchemaNC

    @property
    def source_name(self) -> str:
        return self.nc_before.schema.relations[self.position].name

    @property
    def reduced_relation(self) -> RelationSchema:
        return self.nc_after.schema.relations[self.position]

    @property
    def new_relation(self) -> RelationSchema:
        return self.nc_after.schema.relations[-1]

    @property
    def new_relation_bcnf(self) -> bool:
        return self.nc_after.per_relation[-1].normal_form is NormalForm.BCNF


class TransformTrace(_Record):
    """Full decomposition run: initial score and ordered steps; the last step's score is final."""

    steps: tuple[TransformStep, ...]
    initial_nc: SchemaNC

    @property
    def final_nc(self) -> SchemaNC:
        return self.steps[-1].nc_after if self.steps else self.initial_nc

    @property
    def unpreserved_fd_labels(self) -> tuple[str, ...]:
        parts = [rnc.partition for rnc in self.final_nc.per_relation]
        preserved = {fd for part in parts for fd in part.preventing + part.non_preventing}
        fds = normalize_fds(self.initial_nc.schema.fds)
        return tuple(fd.label for fd in fds if fd not in preserved)


def decompose_step(
    nc_before: SchemaNC,
    relation_name: str,
    *,
    rename: Mapping[str, str] | None = None,
    key_cap: int = DEFAULT_KEY_CAP,
) -> TransformStep:
    """Split one preventing dependency group out of the named relation.

    ``nc_before`` is ``schema_nc(schema, mode)`` or an earlier step's
    ``nc_after``, both trusted; a hand-built score is checked first against
    ``schema_nc`` (InvalidSchemaError for an invalid schema, ValueError for
    other scores). The step splits the score's schema, reads the relation's
    partition from it and scores only the two changed relations, in its mode.
    The new relation's default name is ``<source>_<determinant attributes>``,
    made fresh with a ``_2``, ``_3``, ... suffix while the name is taken; the
    reduced relation keeps the source name; ``rename`` maps default names to
    wanted ones. Raises UnknownRelationError for an unknown name,
    AlreadyBCNFError for a relation in BCNF, and DecompositionError for one
    below BCNF with no preventing dependency (no split can atomize an
    attribute or shrink an oversized key), for a moved dependent in the
    source primary key, or for a rename to a taken name or a non-identifier,
    all before any scoring (so before strict mode's CapacityError).
    """
    schema, mode = nc_before.schema, nc_before.mode
    if "_trusted" not in vars(nc_before):  # built by hand
        if nc_before.per_relation != schema_nc(schema, mode, key_cap=key_cap).per_relation:
            raise ValueError(f"nc_before is not the {mode.value} score of schema {schema.name!r}")
    rename = rename or {}
    positions = {rel.name: i for i, rel in enumerate(schema.relations)}
    if relation_name not in positions:
        raise UnknownRelationError(f"no relation named {relation_name!r} in schema {schema.name!r}")
    position = positions[relation_name]
    source = schema.relations[position]
    scored = nc_before.per_relation[position]
    partition = scored.partition
    if not partition.preventing:
        if scored.normal_form is NormalForm.BCNF:
            raise AlreadyBCNFError(
                f"relation {relation_name!r} has no preventing dependency to split off"
            )
        raise DecompositionError(
            f"relation {relation_name!r} is below BCNF but has no preventing"
            f" dependency; decomposition cannot raise it further"
        )

    first = partition.preventing[0]
    group = [fd for fd in partition.preventing if fd.determinant_set == first.determinant_set]
    determinant = first.determinant
    # Validation leaves no trivial FD: every dependent of the group moves.
    moved = list(dict.fromkeys(dep for fd in group for dep in fd.dependents))
    broken_key = sorted(set(moved) & source.primary_key_set)
    if broken_key:
        raise DecompositionError(
            f"cannot decompose {relation_name!r}: moved dependents {broken_key}"
            f" are part of its primary key"
        )

    spec_by_name = {spec.name: spec for spec in source.attributes}
    base = new_default = f"{source.name}_{'_'.join(determinant)}"
    copies = itertools.count(2)
    while new_default in positions:
        new_default = f"{base}_{next(copies)}"
    new_relation = RelationSchema(
        name=rename.get(new_default, new_default),
        attributes=tuple(spec_by_name[name] for name in (*determinant, *moved)),
        primary_key=determinant,
    )
    reduced_relation = RelationSchema(
        name=rename.get(source.name, source.name),
        attributes=tuple(s for s in source.attributes if s.name not in moved),
        primary_key=source.primary_key,
    )

    produced = (new_relation.name, reduced_relation.name)
    if len(set(produced)) < 2 or (positions.keys() - {source.name}) & set(produced):
        raise DecompositionError(
            f"decomposing {relation_name!r} produces duplicate relation names {produced}"
        )
    if not all(map(IDENTIFIER.match, produced)):
        raise DecompositionError(f"a relation name in {produced} is not an identifier")

    relations = list(schema.relations)
    relations[position] = reduced_relation
    schema_after = schema.with_relations((*relations, new_relation))
    reduced_nc, new_nc = (
        relation_nc(rel, schema_after.projected_fds(rel), mode, key_cap=key_cap)
        for rel in (reduced_relation, new_relation)
    )
    scores = list(nc_before.per_relation)
    scores[position] = reduced_nc
    nc_after = SchemaNC(schema_after, mode, (*scores, new_nc))
    # Every other relation's score carries over: seed the cached total with the difference.
    num, den = scored._nc
    total = _sum((nc_before._total, (-num, den), reduced_nc._nc, new_nc._nc))
    vars(nc_after).update(_total=total, _trusted=True)
    return TransformStep(position, tuple(fd.label for fd in group), nc_before, nc_after)


def normalize_to_bcnf(
    schema: Schema,
    mode: ClassificationMode = ClassificationMode.PRIMARY,
    *,
    rename: Mapping[str, str] | None = None,
    key_cap: int = DEFAULT_KEY_CAP,
) -> TransformTrace:
    """Decompose the first relation below BCNF, repeatedly, until none is left.

    Raises InvalidSchemaError as ``schema_nc`` does, and DecompositionError
    when a relation sits below BCNF with no preventing dependency: splitting
    cannot atomize attributes, nor fix a partial dependency whose determinant
    is already a superkey (an oversized primary key). Each step replaces its
    source with two strictly smaller relations, so the run ends.

    The schema is scored once; each step scores its two changed relations
    and hands the score on, so s steps over r relations score r + 2s.
    """
    steps: list[TransformStep] = []
    nc = initial_nc = schema_nc(schema, mode, key_cap=key_cap)
    while True:
        target = next((r for r in nc.per_relation if r.normal_form is not NormalForm.BCNF), None)
        if target is None:
            return TransformTrace(tuple(steps), initial_nc)
        steps.append(decompose_step(nc, target.relation_name, rename=rename, key_cap=key_cap))
        nc = steps[-1].nc_after
