"""Functional dependency algebra: closure, superkeys, candidate keys, projection."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import CapacityError, ForeignAttributeError

if TYPE_CHECKING:  # model imports this module, so only annotations use its names
    from .model import FunctionalDependency, RelationSchema

# Candidate-key search enumerates attribute subsets, so it is capped.
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
    """All minimal superkeys, sorted by size then lexicographically.

    Breadth-first over subset sizes with superset pruning: once a key is
    found, none of its supersets is tested, so every survivor of the superkey
    test is minimal. The full heading is always a superkey, so the result is
    never empty. Raises CapacityError when the heading is wider than ``cap``.
    """
    names = sorted(relation.attribute_names)
    if len(names) > cap:
        raise CapacityError(
            f"relation {relation.name!r} has {len(names)} attributes;"
            f" candidate-key search is capped at {cap}"
        )
    attrs = relation.attribute_set
    keys: list[frozenset[str]] = []
    for size in range(len(names) + 1):
        for combo in itertools.combinations(names, size):
            subset = frozenset(combo)
            if any(key <= subset for key in keys):
                continue
            if closure(subset, fds) >= attrs:
                keys.append(subset)
    keys.sort(key=lambda key: (len(key), tuple(sorted(key))))
    return tuple(keys)


def prime_attributes(
    relation: RelationSchema,
    fds: Sequence[FunctionalDependency],
    *,
    cap: int = DEFAULT_KEY_CAP,
) -> frozenset[str]:
    """Union of every candidate key."""
    return frozenset(
        itertools.chain.from_iterable(candidate_keys(relation, fds, cap=cap))
    )


def project_fds(
    fds: Sequence[FunctionalDependency], attrs: Iterable[str] | str
) -> tuple[FunctionalDependency, ...]:
    """Dependencies whose attributes all lie inside ``attrs``, original order.

    Purely syntactic: a dependency touching any removed attribute is dropped,
    and implied dependencies are never synthesized. This keeps per-step FD
    lists stable under decomposition instead of surfacing derived ones.
    """
    keep = _names(attrs)
    return tuple(fd for fd in fds if keep.issuperset(fd.determinant + fd.dependents))
