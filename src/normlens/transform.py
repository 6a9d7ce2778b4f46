"""Schema decomposition: split preventing dependencies out until BCNF.

Each step takes the first preventing dependency (schema FD order) of a
target relation, groups every other preventing dependency sharing its
determinant, and moves determinant plus dependents into a new relation keyed
by the determinant. The reduced relation keeps its key and loses only the
moved dependents. Both halves share exactly the determinant, which
functionally determines the whole new relation, so every split is lossless
under the binary join criterion. Dependency preservation is NOT guaranteed;
the trace lists dependencies that no longer project into any one relation.

A trace renders here, as text or as stable JSON that embeds every schema and
score; ``dsl.emit_report`` is the public entry, and ``dsl.write_report``
streams a structured trace with ``_write_trace``. Of the commands, only
``normalize`` compiles these renderers.
"""

from __future__ import annotations

import itertools

from .completeness import SchemaNC, _equation, _schema_nc, _sum, relation_nc, schema_nc
from .errors import AlreadyBCNFError, DecompositionError, UnknownRelationError
from .fd import DEFAULT_KEY_CAP
from .model import (
    _BOOL, _TOP, ClassificationMode, NormalForm, RelationSchema, Schema, _is_identifier, _Record,
    _array, _names, _quote, _shared, normalize_fds,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from collections.abc import Callable, Mapping

    from .model import FunctionalDependency


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
) -> TransformStep:
    """Split one preventing dependency group out of the named relation.

    ``nc_before`` is a ``schema_nc`` score or an earlier step's ``nc_after``,
    both trusted; a hand-built score is checked first against
    ``schema_nc(schema, mode)`` (InvalidSchemaError for an invalid schema,
    ValueError for other scores). The step splits the score's schema, reads the
    relation's partition from it and scores only the two changed relations, in
    its mode and under the key cap it was scored with (the default cap for a
    hand-built score), so a half wider than that cap raises CapacityError. The new
    relation's default name is ``<source>_<determinant attributes>``, made fresh
    with a ``_2``, ``_3``, ... suffix while the name is taken; the reduced
    relation keeps the source name; ``rename`` maps default names to wanted
    ones. Raises UnknownRelationError for an unknown name, AlreadyBCNFError for
    a relation in BCNF, and DecompositionError for one below BCNF with no
    preventing dependency (no split can atomize an attribute or shrink an
    oversized key), for a moved dependent in the source primary key, or for a
    rename to a taken name or a non-identifier, all before any scoring.
    """
    schema, mode = nc_before.schema, nc_before.mode
    if "_key_cap" not in vars(nc_before):  # built by hand
        if nc_before.per_relation != schema_nc(schema, mode).per_relation:
            raise ValueError(f"nc_before is not the {mode.value} score of schema {schema.name!r}")
    key_cap = vars(nc_before).get("_key_cap", DEFAULT_KEY_CAP)
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
    if not all(map(_is_identifier, produced)):
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
    vars(nc_after).update(_total=total, _key_cap=key_cap)
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

    The schema is scored once, the only call given ``key_cap``; each step reads
    the cap from the score it splits, scores its two changed relations and hands
    the score on, so s steps over r relations score r + 2s.
    """
    steps: list[TransformStep] = []
    nc = initial_nc = schema_nc(schema, mode, key_cap=key_cap)
    while True:
        target = next((r for r in nc.per_relation if r.normal_form is not NormalForm.BCNF), None)
        if target is None:
            return TransformTrace(tuple(steps), initial_nc)
        steps.append(decompose_step(nc, target.relation_name, rename=rename))
        nc = steps[-1].nc_after


# --- rendering (model's JSON primitives; dsl.emit_report is the entry) ------

def _relation(rel: RelationSchema, pad: str, cache: object) -> str:
    p1 = pad + "  "
    p2 = p1 + "  "
    p3 = p2 + "  "
    specs = [
        f'{{{p3}"atomic": {_BOOL[bool(spec.atomic)]},{p3}"name": {_quote(spec.name)}{p2}}}'
        for spec in rel.attributes
    ]
    return (
        f'{{{p1}"attributes": {_array(specs, p1)},{p1}"key": {_names(rel.primary_key, p1)},'
        f'{p1}"name": {_quote(rel.name)}{pad}}}'
    )


def _fds(fds: tuple[FunctionalDependency, ...], pad: str, cache: object) -> str:
    p1 = pad + "  "
    p2 = p1 + "  "
    items = [
        f'{{{p2}"dependents": {_names(fd.dependents, p2)},'
        f'{p2}"determinant": {_names(fd.determinant, p2)},'
        f'{p2}"label": {_quote(fd.label)}{p1}}}'
        for fd in fds
    ]
    return _array(items, pad)


def _schema(schema: Schema, pad: str, cache: dict) -> str:
    p1 = pad + "  "
    fds = _shared(cache, _fds, schema.fds, p1)
    relations = [_shared(cache, _relation, rel, p1 + "  ") for rel in schema.relations]
    return (
        f'{{{p1}"fds": {fds},{p1}"name": {_quote(schema.name)},'
        f'{p1}"relations": {_array(relations, p1)}{pad}}}'
    )


def _step(step: TransformStep, pad: str, cache: dict) -> str:
    p1 = pad + "  "
    return (
        f'{{{p1}"moved_fds": {_names(step.moved_fd_labels, p1)},'
        f'{p1}"nc_after": {_shared(cache, _schema_nc, step.nc_after, p1)},'
        f'{p1}"nc_before": {_shared(cache, _schema_nc, step.nc_before, p1)},'
        f'{p1}"new_relation": {_shared(cache, _relation, step.new_relation, p1)},'
        f'{p1}"new_relation_bcnf": {_BOOL[step.new_relation_bcnf]},'
        f'{p1}"reduced_relation": {_shared(cache, _relation, step.reduced_relation, p1)},'
        f'{p1}"schema_after": {_shared(cache, _schema, step.nc_after.schema, p1)},'
        f'{p1}"source": {_quote(step.source_name)}{pad}}}'
    )


def _write_trace(trace: TransformTrace, write: Callable[[str], object]) -> None:
    # Written step by step: only the text of records that later steps may share is kept.
    cache: dict[tuple[int, str], tuple[object, str]] = {}
    first, last = trace.initial_nc, trace.final_nc
    write(
        f'{{\n  "final": {_shared(cache, _schema, last.schema, _TOP)},'
        f'\n  "final_nc": {_shared(cache, _schema_nc, last, _TOP)},'
        f'\n  "initial": {_shared(cache, _schema, first.schema, _TOP)},'
        f'\n  "initial_nc": {_shared(cache, _schema_nc, first, _TOP)},'
        f'\n  "kind": "transform_trace",\n  "mode": {_quote(first.mode.value)},'
        f'\n  "schema": {_quote(first.schema.name)},\n  "steps": '
    )
    pad = _TOP + "  "
    separator = "[" + pad
    for step in trace.steps:
        write(separator + _step(step, pad, cache))
        separator = "," + pad
        # The next step's nc_before is this nc_after; nothing else reuses either text.
        cache.pop((id(step.nc_before), pad + "  "), None)
        cache.pop((id(step.nc_after.schema), pad + "  "), None)
    unpreserved = _names(trace.unpreserved_fd_labels, _TOP)
    write(f'{_TOP + "]" if trace.steps else "[]"},\n  "unpreserved_fds": {unpreserved}\n}}\n')


def _text_trace(trace: TransformTrace, dsl_snapshots: bool) -> list[str]:
    from .dsl import _declaration_lines, _fd_line  # the DSL's own; only dsl.emit_report gets here

    # Each step's schema keeps the FD tuple of the one before it, so its block is rendered once.
    fds: tuple[FunctionalDependency, ...] | None = None
    fd_lines: list[str] = []
    suffix = " [strict mode]" if trace.initial_nc.mode is ClassificationMode.STRICT else ""
    lines = [
        f"schema {trace.initial_nc.schema.name}: normalization trace{suffix}",
        f"initial NC: {_equation(trace.initial_nc)}",
    ]
    for number, step in enumerate(trace.steps, 1):
        determinant = ", ".join(step.new_relation.primary_key)
        lines += [
            "",
            f"step {number}: {step.source_name}, moved"
            f" {', '.join(step.moved_fd_labels)} (determinant {determinant})",
            f"  new relation:     {step.new_relation.heading()}",
            f"  reduced relation: {step.reduced_relation.heading()}",
            f"  NC after: {_equation(step.nc_after)}",
        ]
        if not step.new_relation_bcnf:
            lines.append("  note: new relation is not yet in BCNF and will be split again")
        if dsl_snapshots:
            lines.append(f"  schema after step {number}:")
            schema = step.nc_after.schema
            lines += [f"    {text}" for text in _declaration_lines(schema)]
            if schema.fds is not fds:
                fds, fd_lines = schema.fds, [f"    {_fd_line(fd)}" for fd in schema.fds]
            lines += fd_lines
    lines += [
        "",
        f"final NC: {_equation(trace.final_nc)}",
        f"unpreserved FDs: {', '.join(trace.unpreserved_fd_labels) or '(none)'}",
    ]
    return lines
