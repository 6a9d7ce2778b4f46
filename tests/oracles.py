"""Brute-force oracles, deliberately independent of the package's algorithms."""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from normlens import FunctionalDependency, RelationSchema


def naive_closure(
    start: Iterable[str], fds: Sequence[FunctionalDependency]
) -> frozenset[str]:
    """Fixpoint by rescanning the full dependency list until nothing changes."""
    pairs = [(frozenset(fd.determinant), frozenset(fd.dependents)) for fd in fds]
    result = set(start)
    while True:
        grew = False
        for det, deps in pairs:
            if det <= result and not deps <= result:
                result |= deps
                grew = True
        if not grew:
            return frozenset(result)


def brute_force_keys(
    relation: RelationSchema, fds: Sequence[FunctionalDependency]
) -> list[frozenset[str]]:
    """Enumerate every attribute subset, keep superkeys, drop non-minimal ones."""
    names = sorted(relation.attribute_names)
    target = frozenset(names)
    superkeys = [
        frozenset(combo)
        for size in range(len(names) + 1)
        for combo in itertools.combinations(names, size)
        if naive_closure(combo, fds) >= target
    ]
    return sorted(
        (key for key in superkeys if not any(other < key for other in superkeys)),
        key=lambda key: (len(key), tuple(sorted(key))),
    )


def brute_force_normal_form(
    relation: RelationSchema, fds: Sequence[FunctionalDependency], strict: bool
) -> int:
    """Normal form level (0 UNF .. 4 BCNF) of a small heading, by the definitions.

    ``fds`` are the relation's projected dependencies; every superkey test
    takes the closure of an attribute subset. ``strict``: the textbook
    definitions over all candidate keys, tested on every subset X of the
    heading. 2NF: no proper subset of a key reaches a non-prime attribute.
    3NF: whatever a non-superkey X reaches beyond itself is prime. BCNF: a
    non-superkey X reaches nothing beyond itself. Otherwise the README's
    primary-mode rules as written, on the listed dependencies, with the
    declared key as the only key.
    """
    if any(not spec.atomic for spec in relation.attributes):
        return 0
    names = sorted(relation.attribute_names)
    heading = frozenset(names)
    closures = {
        frozenset(combo): naive_closure(combo, fds)
        for size in range(len(names) + 1)
        for combo in itertools.combinations(names, size)
    }
    superkeys = {x for x, reached in closures.items() if reached >= heading}
    if strict:
        keys = [key for key in superkeys if not any(other < key for other in superkeys)]
        non_prime = heading - frozenset().union(*keys)
        if any(closures[x] & non_prime for key in keys for x in closures if x < key):
            return 1
        beyond = [closures[x] - x for x in closures if x not in superkeys]
        if any(reached & non_prime for reached in beyond):
            return 2
        return 3 if any(beyond) else 4
    key = relation.primary_key_set
    leaves_key = [fd for fd in fds if not fd.dependents_set <= key]
    if any(fd.determinant and fd.determinant_set < key for fd in leaves_key):
        return 1  # a partial dependency
    if any(
        fd.determinant_set.isdisjoint(key) and fd.determinant_set not in superkeys
        for fd in leaves_key
    ):
        return 2  # a transitive dependency
    return 3 if any(fd.determinant_set not in superkeys for fd in fds) else 4
