"""Schema and functional dependency data model.

All values are immutable. Constructors canonicalize their collection
arguments (tuples, duplicate removal where set semantics apply) but do not
enforce semantic rules; ``validate_schema`` reports every violation as data
so callers can surface all problems at once; the analysis entry points
raise ``InvalidSchemaError`` for a schema with errors. The value types are
records (see ``_Record``): ==, hash and repr run over their fields. Sets
and name tuples derived from the fields are plain attributes built once,
left out of the fields: ``FunctionalDependency`` and ``RelationSchema``
here, and ``FDPartition`` and ``RelationNC`` in the scoring modules, have
constructors that set fields and derived values in one step.
``ClassificationMode`` and ``truncated`` live here, so that parsing and
rendering load no scoring module, and so do the JSON primitives that every
structured report shares: ``dsl``, ``completeness`` and ``transform`` render
their own records with them.
"""

from __future__ import annotations

import itertools
import operator
import re
from _json import encode_basestring_ascii as _quote  # the C encoder json.encoder re-exports
from enum import Enum, IntEnum
from functools import cached_property

from .fd import is_superkey, project_fds

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:  # annotations only; completeness builds the scores
    from collections.abc import Callable, Iterable, Iterator, Sequence
    from fractions import Fraction
    from typing import Any, ClassVar

    _Names = tuple[tuple[str, ...], frozenset[str]]  # canonical: distinct, in order, and their set

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"  # the grammar's IDENT; dsl builds its patterns on it
IDENTIFIER = re.compile(rf"{_IDENT}\Z")
_IDENTIFIERS = re.compile(rf"(?:{_IDENT} )*\Z")  # names, each followed by one space


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


def truncated(value: Fraction) -> str:
    """Two-decimal truncation: 0.625 -> '0.62', 5/7 -> '0.71', -1/3 -> '-0.34'. Floor, not round."""
    return _truncated(value.numerator, value.denominator)


def _truncated(numerator: int, denominator: int) -> str:
    # The floor of 100 * numerator / denominator, signed: scores are kept as integer ratios.
    hundredths = numerator * 100 // denominator
    whole, cents = divmod(abs(hundredths), 100)
    return f"{'-' if hundredths < 0 else ''}{whole}.{cents:02d}"


# --- JSON primitives of the structured reports -------------------------------
#
# Each record renders its own JSON text in the layout of
# ``json.dumps(tree, indent=2, sort_keys=True)``, with no tree in between. A
# renderer takes the record, ``pad`` (a newline and the indent of the line the
# record ends on) and the report's cache; its f-strings spell the keys in sorted
# order, each on its own line at ``pad + "  "``.

_BOOL = ("false", "true")
_TOP = "\n  "  # pad of a report's top-level values


def _array(items: list[str], pad: str) -> str:
    inner = pad + "  "
    return f"[{inner}{(',' + inner).join(items)}{pad}]" if items else "[]"


def _names(names: Iterable[str], pad: str) -> str:
    return _array(list(map(_quote, names)), pad)


def _shared(cache: dict, render: Callable[..., Any], obj: Any, pad: str) -> Any:
    # render(obj, pad, cache), run once per object and pad; the entry keeps obj,
    # so no other object takes its id while the cache lives.
    entry = cache.get((id(obj), pad))
    if entry is None:
        entry = cache[id(obj), pad] = (obj, render(obj, pad, cache))
    return entry[1]


class ClassificationMode(Enum):
    """Keys that judge partial and transitive dependencies (see ``classify``)."""

    PRIMARY = "primary"
    STRICT = "strict"


def _names_and_set(names: Iterable[str] | str) -> _Names:
    # Unique names preserving first occurrence (a tuple of distinct names is kept
    # as given) and their set, both from one frozenset; unordered inputs are sorted
    # so downstream output stays deterministic.
    if type(names) is not tuple:
        if isinstance(names, str):
            names = (names,)
        elif isinstance(names, (set, frozenset)):
            names = tuple(sorted(names))
        else:
            names = tuple(names)
    name_set = frozenset(names)
    if len(name_set) < len(names):
        names = tuple(dict.fromkeys(names))
    return names, name_set


_setattr = object.__setattr__  # sets a field past _Record.__setattr__
_new = object.__new__  # a bare record, for a constructor's private setter to fill


class _Record:
    """Base of the immutable value types: a frozen dataclass without generated code.

    A subclass's fields are its annotated class attributes, in order, and
    ``__match_args__`` names them; a class attribute is that field's default.
    ==, hash and repr run over ``_value_fields`` (the fields, unless the class
    names fewer), and ``==`` holds only between instances of one class. An
    instance keeps a ``__dict__``, where derived values and ``cached_property``
    results live, but refuses assignment and deletion. ``__replace__`` is the
    ``copy.replace`` protocol (Python 3.13+): a copy built through ``__init__``.
    """

    __match_args__: ClassVar[tuple[str, ...]] = ()
    _value_fields: ClassVar[tuple[str, ...]] = ()
    _values: ClassVar[Callable[[Any], tuple[Any, ...]]]  # the _value_fields of a record
    _defaults: ClassVar[dict[str, Any]] = {}
    _required: ClassVar[frozenset[str]] = frozenset()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        own = vars(cls)
        fields = cls.__match_args__ = tuple(cls.__annotations__)
        shown = cls._value_fields = own.get("_value_fields", fields)
        get = operator.attrgetter(*shown)  # a tuple for two or more names
        cls._values = staticmethod(get if len(shown) > 1 else lambda record: (get(record),))
        cls._defaults = {name: own.get(name) for name in fields}
        cls._required = frozenset(name for name in fields if name not in own)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        cls, names = type(self), self.__match_args__
        if args:
            if len(args) > len(names) or not kwargs.keys().isdisjoint(names[: len(args)]):
                raise TypeError(f"{cls.__name__}() takes the fields {names}, each once")
            kwargs.update(zip(names, args))
        if not cls._required <= kwargs.keys() <= cls._defaults.keys():
            raise TypeError(f"{cls.__name__}() takes {names}, needing {sorted(cls._required)}")
        vars(self).update(cls._defaults, **kwargs)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._value_fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __replace__(self, **changes: Any) -> Any:
        return type(self)(**{name: getattr(self, name) for name in self.__match_args__} | changes)


class AttributeSpec(_Record):
    """A named attribute; ``atomic=False`` marks composite or multivalued values."""

    name: str
    atomic: bool = True

    def __init__(self, name: str, atomic: bool = True) -> None:
        # One field at a time keeps the instance's dict sharing the class's keys
        # (a dict update would copy them), so reading ``spec.name`` stays fast.
        _setattr(self, "name", name)
        _setattr(self, "atomic", atomic)


class FunctionalDependency(_Record):
    """Labeled dependency: the determinant fixes every dependent attribute.

    Attribute order is kept as written so reports and decompositions can echo
    the input; comparisons that need set semantics go through the ``*_set``
    attributes, and ``attributes`` holds every attribute on both sides.
    """

    label: str
    determinant: tuple[str, ...]
    dependents: tuple[str, ...]

    def __init__(
        self, label: str, determinant: Iterable[str] | str, dependents: Iterable[str] | str
    ) -> None:
        self._set(label, _names_and_set(determinant), _names_and_set(dependents))

    def _set(self, label: str, determinant: _Names, dependents: _Names) -> FunctionalDependency:
        # Fields and derived sets from canonical sides; the parser and normalize_fds,
        # whose names are canonical already, call it on a bare instance.
        vars(self).update(
            label=label, determinant=determinant[0], dependents=dependents[0],
            determinant_set=determinant[1], dependents_set=dependents[1],
            attributes=determinant[1] | dependents[1],
        )
        return self

    def __str__(self) -> str:
        return (
            f"{self.label}: {', '.join(self.determinant)}"
            f" -> {', '.join(self.dependents)}"
        )


class RelationSchema(_Record):
    """Named heading with atomicity flags and a designated primary key."""

    name: str
    attributes: tuple[AttributeSpec, ...]
    primary_key: tuple[str, ...]

    def __init__(
        self,
        name: str,
        attributes: Iterable[AttributeSpec | str],
        primary_key: Iterable[str] | str,
    ) -> None:
        specs = tuple(AttributeSpec(attr) if isinstance(attr, str) else attr for attr in attributes)
        self._set(name, specs, _names_and_set(primary_key))

    def _set(self, name: str, specs: tuple[AttributeSpec, ...], key: _Names) -> RelationSchema:
        # As FunctionalDependency._set, from specs and a canonical key; the parser calls it.
        attribute_names = tuple(spec.name for spec in specs)
        vars(self).update(
            name=name, attributes=specs, primary_key=key[0], attribute_names=attribute_names,
            attribute_set=frozenset(attribute_names), primary_key_set=key[1],
        )
        return self

    def heading(self) -> str:
        """Render as ``Name(attr1, attr2, ...)``."""
        return f"{self.name}({', '.join(self.attribute_names)})"


class Schema(_Record):
    """Named collection of relations sharing one global labeled FD list.

    ``fds`` stays as written; its singleton form, attribute index and the
    projection onto each heading are built on first use and shared by
    ``with_relations``. ``validate_schema`` keeps its report here as well.
    """

    name: str
    relations: tuple[RelationSchema, ...]
    fds: tuple[FunctionalDependency, ...] = ()

    def __init__(
        self,
        name: str,
        relations: Iterable[RelationSchema],
        fds: Iterable[FunctionalDependency] = (),
    ) -> None:
        vars(self).update(name=name, relations=tuple(relations), fds=tuple(fds))

    def with_relations(self, relations: Iterable[RelationSchema]) -> Schema:
        """This schema's name and FDs over other relations, sharing the FD index."""
        derived = Schema(self.name, tuple(relations), self.fds)
        derived.__dict__["_fd_index"] = self._fd_index
        return derived

    @cached_property
    def _fd_index(self) -> tuple[
        tuple[FunctionalDependency, ...],
        dict[str | None, list[int]],
        dict[frozenset[str], tuple[FunctionalDependency, ...]],
    ]:
        # A singleton fits only headings holding its anchor attribute (if any).
        singletons = normalize_fds(self.fds)
        index: dict[str | None, list[int]] = {}
        for position, fd in enumerate(singletons):
            index.setdefault((fd.determinant or fd.dependents or (None,))[0], []).append(position)
        return singletons, index, {}

    def projected_fds(self, relation: RelationSchema) -> tuple[FunctionalDependency, ...]:
        """``project_fds(normalize_fds(self.fds), ...)``, scanning only anchored FDs.

        A projection depends only on the heading, so each is computed once.
        """
        singletons, index, projections = self._fd_index
        attrs = relation.attribute_set
        projected = projections.get(attrs)
        if projected is None:
            anchored = itertools.chain.from_iterable(index.get(a, ()) for a in (None, *attrs))
            projected = projections[attrs] = project_fds(
                [singletons[position] for position in sorted(anchored)], attrs
            )
        return projected


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
        determinant = fd.determinant, fd.determinant_set
        for suffix, dep in zip(_letter_suffixes(), fd.dependents):
            label, dependents = f"{fd.label}.{suffix}", ((dep,), frozenset((dep,)))
            out.append(_new(FunctionalDependency)._set(label, determinant, dependents))
    return tuple(out)


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


_Subject = RelationSchema | FunctionalDependency | None


class Violation(_Record):
    """One validation finding; ``relation``/``fd_label`` anchor it when known.

    ``subject`` is the relation or FD object it is about (``None``: the schema
    name); equality, hashing and repr ignore it, so findings compare by value.
    """

    code: str
    message: str
    severity: Severity = Severity.ERROR
    relation: str | None = None
    fd_label: str | None = None
    subject: _Subject = None

    _value_fields = ("code", "message", "severity", "relation", "fd_label")


class ValidationReport(_Record):
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
    The report is kept on the schema, outside its fields: each is checked once.
    """
    if "_report" in vars(schema):
        return vars(schema)["_report"]
    out: list[Violation] = []
    universe = frozenset().union(*(rel.attribute_set for rel in schema.relations))
    # Names repeat across declarations, so the distinct ones are matched in one go, joined
    # by spaces: with one space fewer than names, no name holds one. Only when that fails
    # is each matched on its own, to find the bad ones.
    names = universe.union(
        (schema.name,),
        (rel.name for rel in schema.relations),
        (fd.label for fd in schema.fds),
        *(fd.attributes for fd in schema.fds),
    )
    try:
        joined = " ".join(names)
    except TypeError:  # a name that is not a str
        joined = ""
    one_match = joined.count(" ") == len(names) - 1 and _IDENTIFIERS.match(joined + " ")
    bad_names = set() if one_match else {n for n in names if not IDENTIFIER.match(n or "")}

    def err(
        code: str, message: str, subject: _Subject = None, severity: Severity = Severity.ERROR
    ) -> None:
        relation = subject.name if isinstance(subject, RelationSchema) else None
        fd_label = subject.label if isinstance(subject, FunctionalDependency) else None
        out.append(Violation(code, message, severity, relation, fd_label, subject))

    if schema.name in bad_names:
        err("BAD_SCHEMA_NAME", f"schema name {schema.name!r} is not an identifier")

    seen_relations: set[str] = set()
    for rel in schema.relations:
        if rel.name in bad_names:
            err("BAD_RELATION_NAME", f"relation name {rel.name!r} is not an identifier", rel)
        if rel.name in seen_relations:
            err("DUPLICATE_RELATION_NAME", f"relation name {rel.name!r} declared more than once", rel)
        seen_relations.add(rel.name)

        if not rel.attributes:
            err("EMPTY_RELATION", f"relation {rel.name!r} has no attributes", rel)
        seen_attrs: set[str] = set()
        for spec in rel.attributes:
            if spec.name in bad_names:
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
        if not rel.primary_key_set <= rel.attribute_set:
            missing_pk = sorted(rel.primary_key_set - rel.attribute_set)
            err(
                "PRIMARY_KEY_NOT_IN_RELATION",
                f"primary key attributes {missing_pk} are not attributes of relation {rel.name!r}",
                rel,
            )

    seen_labels: set[str] = set()
    for fd in schema.fds:
        if fd.label in bad_names:
            err("BAD_FD_LABEL", f"fd label {fd.label!r} is not an identifier", fd)
        if fd.label in seen_labels:
            err("DUPLICATE_FD_LABEL", f"fd label {fd.label!r} used more than once", fd)
        seen_labels.add(fd.label)

        if not fd.determinant:
            err("EMPTY_DETERMINANT", f"fd {fd.label!r} has an empty determinant", fd)
        if not fd.dependents:
            err("EMPTY_DEPENDENTS", f"fd {fd.label!r} has an empty dependent list", fd)
        if not bad_names.isdisjoint(fd.attributes):
            for name in (*fd.determinant, *fd.dependents):
                if name in bad_names:
                    err(
                        "BAD_ATTRIBUTE_NAME",
                        f"attribute name {name!r} in fd {fd.label!r} is not an identifier",
                        fd,
                    )
        if not fd.determinant_set.isdisjoint(fd.dependents_set):
            overlap = sorted(fd.determinant_set & fd.dependents_set)
            err("TRIVIAL_FD", f"fd {fd.label!r} is trivial: {overlap} appear on both sides", fd)
        if not fd.attributes <= universe:
            unknown = sorted(fd.attributes - universe)
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

    return vars(schema).setdefault("_report", ValidationReport(tuple(out)))
