"""Functional dependency algebra: closure, superkeys, candidate keys, projection."""

from __future__ import annotations

from .errors import CapacityError, ForeignAttributeError

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:  # model imports this module, so only annotations use its names
    from collections.abc import Iterable, Sequence

    from .model import FunctionalDependency, RelationSchema

# The number of candidate keys can be exponential in the heading, so key search is capped.
DEFAULT_KEY_CAP = 20


def _names(value: Iterable[str] | str) -> frozenset[str]:
    if isinstance(value, str):
        return frozenset((value,))
    return frozenset(value)


def closure(
    start: Iterable[str] | str, fds: Sequence[FunctionalDependency]
) -> frozenset[str]:
    """Least fixpoint of ``start`` under the given dependencies.

    A dependency fires once its whole determinant is reachable. Fired
    dependencies are dropped from later passes, so each is applied at most
    once. Extensive (result contains ``start``), monotone in both arguments,
    idempotent.
    """
    reached = set(_names(start))
    remaining = list(fds)
    changed = True
    while changed and remaining:
        changed = False
        still: list[FunctionalDependency] = []
        for fd in remaining:
            if reached.issuperset(fd.determinant):
                reached.update(fd.dependents)
                changed = True
            else:
                still.append(fd)
        remaining = still
    return frozenset(reached)


def is_superkey(
    candidate: Iterable[str] | str,
    relation: RelationSchema,
    fds: Sequence[FunctionalDependency],
) -> bool:
    """True iff the candidate's closure covers the whole heading: the one superkey test.

    ``fds`` must already be projected onto the relation; raises
    ForeignAttributeError when the candidate strays outside the heading.
    """
    cand = _names(candidate)
    foreign = sorted(cand - relation.attribute_set)
    if foreign:
        raise ForeignAttributeError(
            f"attributes {foreign} are not part of relation {relation.name!r}"
        )
    return closure(cand, fds) >= relation.attribute_set


def candidate_keys(
    relation: RelationSchema,
    fds: Sequence[FunctionalDependency],
    *,
    cap: int = DEFAULT_KEY_CAP,
) -> tuple[frozenset[str], ...]:
    """All minimal superkeys, by size then lexicographically.

    ``fds`` may be the schema's global list or already projected (only
    dependencies with a determinant inside the heading count, so both agree).
    Lucchesi & Osborn (1978): minimize the heading to a first key; for each
    key K and dependency X -> Y, the superkey X | (K - Y) holds a new key
    whenever it contains no known one. Minimizing drops attributes in sorted
    order while the set stays a superkey; by Saiedian & Spencer (1996) an
    attribute on no right-hand side is in every key and one only on
    right-hand sides is in none, so neither is tried. Raises CapacityError
    when the heading is wider than ``cap``: the key count can be exponential.
    """
    width = len(relation.attribute_names)
    if width > cap:
        raise CapacityError(
            f"relation {relation.name!r} has {width} attributes;"
            f" candidate-key search is capped at {cap}"
        )
    attrs = relation.attribute_set
    inside = [fd for fd in fds if attrs.issuperset(fd.determinant)]
    left = frozenset().union(*(fd.determinant for fd in inside))
    right = attrs & frozenset().union(*(fd.dependents for fd in inside))
    never, optional = right - left, sorted(right & left)

    def minimize(superkey: frozenset[str]) -> frozenset[str]:
        key = superkey - never
        for attr in optional:
            if attr in key and closure(key - {attr}, inside) >= attrs:
                key -= {attr}
        return key

    keys = [minimize(attrs)]
    for key in keys:  # grows while it is walked; each new key is expanded in turn
        for fd in inside:
            superkey = key.difference(fd.dependents).union(fd.determinant)
            if not any(known <= superkey for known in keys):
                keys.append(minimize(superkey))
    return tuple(sorted(keys, key=lambda key: (len(key), sorted(key))))


def project_fds(
    fds: Sequence[FunctionalDependency], attrs: Iterable[str] | str
) -> tuple[FunctionalDependency, ...]:
    """Dependencies whose attributes all lie inside ``attrs``, original order.

    Purely syntactic: a dependency touching any removed attribute is dropped,
    and implied dependencies are never synthesized. This keeps per-step FD
    lists stable under decomposition instead of surfacing derived ones.
    """
    keep = _names(attrs)
    return tuple(fd for fd in fds if fd.attributes <= keep)
