"""Schema and functional dependency data model.

All values are immutable. Constructors canonicalize their collection
arguments (tuples, duplicate removal where set semantics apply) but do not
enforce semantic rules; ``validate_schema`` reports every violation as data
so callers can surface all problems at once. Analysis entry points assume a
schema that validated without errors.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .fd import is_superkey, project_fds

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class NormalForm(IntEnum):
    """Normal form ladder up to BCNF; the integer value is the level."""

    UNF = 0
    FIRST = 1
    SECOND = 2
    THIRD = 3
    BCNF = 4

    @property
    def label(self) -> str:
        return _NF_LABELS[self]


_NF_LABELS = {
    NormalForm.UNF: "UNF",
    NormalForm.FIRST: "1NF",
    NormalForm.SECOND: "2NF",
    NormalForm.THIRD: "3NF",
    NormalForm.BCNF: "BCNF",
}


def _ordered_names(names: Iterable[str] | str) -> tuple[str, ...]:
    # Unique names preserving first occurrence; unordered inputs are sorted
    # so downstream output stays deterministic.
    if isinstance(names, str):
        names = (names,)
    elif isinstance(names, (set, frozenset)):
        names = sorted(names)
    return tuple(dict.fromkeys(names))


@dataclass(frozen=True)
class AttributeSpec:
    """A named attribute; ``atomic=False`` marks composite or multivalued values."""

    name: str
    atomic: bool = True


@dataclass(frozen=True)
class FunctionalDependency:
    """Labeled dependency: the determinant fixes every dependent attribute.

    Attribute order is kept as written so reports and decompositions can echo
    the input; comparisons that need set semantics go through the ``*_set``
    properties.
    """

    label: str
    determinant: tuple[str, ...]
    dependents: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "determinant", _ordered_names(self.determinant))
        object.__setattr__(self, "dependents", _ordered_names(self.dependents))

    @property
    def determinant_set(self) -> frozenset[str]:
        return frozenset(self.determinant)

    @property
    def dependents_set(self) -> frozenset[str]:
        return frozenset(self.dependents)

    @property
    def attributes(self) -> frozenset[str]:
        """Every attribute the dependency mentions, both sides."""
        return self.determinant_set | self.dependents_set

    def __str__(self) -> str:
        return (
            f"{self.label}: {', '.join(self.determinant)}"
            f" -> {', '.join(self.dependents)}"
        )


@dataclass(frozen=True)
class RelationSchema:
    """Named heading with atomicity flags and a designated primary key."""

    name: str
    attributes: tuple[AttributeSpec, ...]
    primary_key: tuple[str, ...]

    def __post_init__(self) -> None:
        specs = tuple(
            AttributeSpec(attr) if isinstance(attr, str) else attr
            for attr in self.attributes
        )
        object.__setattr__(self, "attributes", specs)
        object.__setattr__(self, "primary_key", _ordered_names(self.primary_key))

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.attributes)

    @property
    def attribute_set(self) -> frozenset[str]:
        return frozenset(self.attribute_names)

    @property
    def primary_key_set(self) -> frozenset[str]:
        return frozenset(self.primary_key)

    def heading(self) -> str:
        """Render as ``Name(attr1, attr2, ...)``."""
        return f"{self.name}({', '.join(self.attribute_names)})"


@dataclass(frozen=True)
class Schema:
    """Named collection of relations sharing one global labeled FD list.

    ``fds`` stays as written; its singleton form and attribute index are built
    on first use and shared by ``with_relations``.
    """

    name: str
    relations: tuple[RelationSchema, ...]
    fds: tuple[FunctionalDependency, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "fds", tuple(self.fds))

    def with_relations(self, relations: Iterable[RelationSchema]) -> Schema:
        """This schema's name and FDs over other relations, sharing the FD index."""
        derived = Schema(self.name, tuple(relations), self.fds)
        derived.__dict__["_fd_index"] = self._fd_index
        return derived

    @cached_property
    def _fd_index(self) -> tuple[tuple[FunctionalDependency, ...], dict[str | None, list[int]]]:
        # A singleton fits only headings holding its anchor attribute (if any).
        singletons = normalize_fds(self.fds)
        index: dict[str | None, list[int]] = {}
        for position, fd in enumerate(singletons):
            index.setdefault(next(iter(fd.determinant + fd.dependents), None), []).append(position)
        return singletons, index

    def projected_fds(self, relation: RelationSchema) -> tuple[FunctionalDependency, ...]:
        """``project_fds(normalize_fds(self.fds), ...)``, scanning only anchored FDs."""
        singletons, index = self._fd_index
        attrs = relation.attribute_set
        anchored = itertools.chain.from_iterable(index.get(a, ()) for a in (None, *attrs))
        return project_fds([singletons[position] for position in sorted(anchored)], attrs)


def _letter_suffixes() -> Iterator[str]:
    # a, b, ..., z, aa, ab, ... (spreadsheet style)
    width = 1
    while True:
        for combo in itertools.product("abcdefghijklmnopqrstuvwxyz", repeat=width):
            yield "".join(combo)
        width += 1


def normalize_fds(
    fds: Sequence[FunctionalDependency],
) -> tuple[FunctionalDependency, ...]:
    """Split multi-attribute right-hand sides into one dependency per attribute.

    Singleton dependencies pass through unchanged; a split dependency keeps its
    label with a letter suffix per dependent ("FD2.a", "FD2.b", ...). Multi-
    attribute right-hand sides are an input convenience only, so analysis
    always runs on the singleton form.
    """
    out: list[FunctionalDependency] = []
    for fd in fds:
        if len(fd.dependents) <= 1:
            out.append(fd)
            continue
        for suffix, dep in zip(_letter_suffixes(), fd.dependents):
            out.append(
                FunctionalDependency(f"{fd.label}.{suffix}", fd.determinant, (dep,))
            )
    return tuple(out)


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


_Subject = RelationSchema | FunctionalDependency | None


@dataclass(frozen=True)
class Violation:
    """One validation finding; ``relation``/``fd_label`` anchor it when known.

    ``subject`` is the relation or FD object it is about (``None``: the schema
    name); equality, hashing and repr ignore it, so findings compare by value.
    """

    code: str
    message: str
    severity: Severity = Severity.ERROR
    relation: str | None = None
    fd_label: str | None = None
    subject: _Subject = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ValidationReport:
    """Immutable list of violations with a convenience ``ok`` flag."""

    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def errors(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.severity is Severity.WARNING)


def validate_schema(schema: Schema) -> ValidationReport:
    """Check every structural rule; violations are data, not exceptions.

    Error codes: BAD_SCHEMA_NAME, BAD_RELATION_NAME, EMPTY_RELATION,
    BAD_ATTRIBUTE_NAME, DUPLICATE_ATTRIBUTE, EMPTY_PRIMARY_KEY,
    PRIMARY_KEY_NOT_IN_RELATION, DUPLICATE_RELATION_NAME, BAD_FD_LABEL,
    DUPLICATE_FD_LABEL, EMPTY_DETERMINANT, EMPTY_DEPENDENTS, TRIVIAL_FD,
    UNKNOWN_FD_ATTRIBUTE. One warning code: PRIMARY_KEY_NOT_SUPERKEY
    (classification stays well defined, the key is just not doing its job).

    Each finding's ``subject`` is the declaration object it is about, so
    declarations that share a name stay apart. The violation set is
    order-independent: permuting relations or FDs yields the same findings.
    """
    out: list[Violation] = []

    def err(
        code: str, message: str, subject: _Subject = None, severity: Severity = Severity.ERROR
    ) -> None:
        relation = subject.name if isinstance(subject, RelationSchema) else None
        fd_label = subject.label if isinstance(subject, FunctionalDependency) else None
        out.append(Violation(code, message, severity, relation, fd_label, subject))

    if not IDENTIFIER.match(schema.name or ""):
        err("BAD_SCHEMA_NAME", f"schema name {schema.name!r} is not an identifier")

    seen_relations: set[str] = set()
    for rel in schema.relations:
        if not IDENTIFIER.match(rel.name or ""):
            err("BAD_RELATION_NAME", f"relation name {rel.name!r} is not an identifier", rel)
        if rel.name in seen_relations:
            err("DUPLICATE_RELATION_NAME", f"relation name {rel.name!r} declared more than once", rel)
        seen_relations.add(rel.name)

        if not rel.attributes:
            err("EMPTY_RELATION", f"relation {rel.name!r} has no attributes", rel)
        seen_attrs: set[str] = set()
        for spec in rel.attributes:
            if not IDENTIFIER.match(spec.name or ""):
                err(
                    "BAD_ATTRIBUTE_NAME",
                    f"attribute name {spec.name!r} in relation {rel.name!r} is not an identifier",
                    rel,
                )
            if spec.name in seen_attrs:
                err(
                    "DUPLICATE_ATTRIBUTE",
                    f"attribute {spec.name!r} appears twice in relation {rel.name!r}",
                    rel,
                )
            seen_attrs.add(spec.name)

        if not rel.primary_key:
            err("EMPTY_PRIMARY_KEY", f"relation {rel.name!r} has an empty primary key", rel)
        missing_pk = sorted(rel.primary_key_set - rel.attribute_set)
        if missing_pk:
            err(
                "PRIMARY_KEY_NOT_IN_RELATION",
                f"primary key attributes {missing_pk} are not attributes of relation {rel.name!r}",
                rel,
            )

    universe = frozenset().union(*(rel.attribute_set for rel in schema.relations))
    seen_labels: set[str] = set()
    for fd in schema.fds:
        if not IDENTIFIER.match(fd.label or ""):
            err("BAD_FD_LABEL", f"fd label {fd.label!r} is not an identifier", fd)
        if fd.label in seen_labels:
            err("DUPLICATE_FD_LABEL", f"fd label {fd.label!r} used more than once", fd)
        seen_labels.add(fd.label)

        if not fd.determinant:
            err("EMPTY_DETERMINANT", f"fd {fd.label!r} has an empty determinant", fd)
        if not fd.dependents:
            err("EMPTY_DEPENDENTS", f"fd {fd.label!r} has an empty dependent list", fd)
        for name in (*fd.determinant, *fd.dependents):
            if not IDENTIFIER.match(name or ""):
                err(
                    "BAD_ATTRIBUTE_NAME",
                    f"attribute name {name!r} in fd {fd.label!r} is not an identifier",
                    fd,
                )
        overlap = sorted(fd.determinant_set & fd.dependents_set)
        if overlap:
            err("TRIVIAL_FD", f"fd {fd.label!r} is trivial: {overlap} appear on both sides", fd)
        unknown = sorted(fd.attributes - universe)
        if unknown:
            err(
                "UNKNOWN_FD_ATTRIBUTE",
                f"fd {fd.label!r} mentions {unknown}, which belong to no relation",
                fd,
            )

    if not out:
        # Structure is sound, so the closure machinery is safe to run.
        for rel in schema.relations:
            if not is_superkey(rel.primary_key_set, rel, schema.projected_fds(rel)):
                err(
                    "PRIMARY_KEY_NOT_SUPERKEY",
                    f"primary key ({', '.join(rel.primary_key)}) of relation"
                    f" {rel.name!r} does not determine every attribute",
                    rel,
                    Severity.WARNING,
                )

    return ValidationReport(tuple(out))
