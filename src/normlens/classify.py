"""Normal form classification and the preventing dependency partition.

A dependency prevents BCNF when its determinant is not a superkey of the
relation it projects into. That partition drives the completeness score:
attributes of non-preventing dependencies count toward completeness,
attributes of preventing dependencies count against it, and the two unions
are computed independently (an attribute may land in both).

Partial and transitive dependencies can be judged against different key
sets, so classification has two modes:

* PRIMARY: only the declared primary key matters. A partial dependency is a
  proper nonempty subset of the primary key determining an attribute outside
  it; a transitive dependency has a determinant disjoint from the primary
  key that is not a superkey and determines an attribute outside the key.
* STRICT: every candidate key matters and "non-prime" means belonging to no
  candidate key. This stronger reading can demote a relation PRIMARY
  accepts (a proper subset of any candidate key determining a non-prime
  attribute already blocks 2NF). STRICT is the only mode that enumerates
  candidate keys, so it is the only one that can hit the search cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

# closure is unused here, but bench/tests checks that the tracer patches it here.
from .fd import DEFAULT_KEY_CAP, candidate_keys, closure, is_superkey, project_fds  # noqa: F401
from .model import FunctionalDependency, NormalForm, RelationSchema, normalize_fds


class ClassificationMode(Enum):
    PRIMARY = "primary"
    STRICT = "strict"


@dataclass(frozen=True)
class FDPartition:
    """Projected dependencies of one relation split by the superkey test.

    ``preventing`` and ``non_preventing`` together are exactly the relation's
    projected dependencies, in schema order. ``completeness_attributes`` is
    the union of all attributes of non-preventing dependencies,
    ``preventing_attributes`` the same for preventing ones; both are subsets
    of the heading, and they may overlap.
    """

    relation_name: str
    preventing: tuple[FunctionalDependency, ...]
    non_preventing: tuple[FunctionalDependency, ...]
    completeness_attributes: frozenset[str]
    preventing_attributes: frozenset[str]
    total_attributes: int

    @property
    def completeness_count(self) -> int:
        return len(self.completeness_attributes)

    @property
    def preventing_count(self) -> int:
        return len(self.preventing_attributes)


def partition_preventing(
    relation: RelationSchema, fds: Sequence[FunctionalDependency]
) -> FDPartition:
    """Split the schema's dependencies for one relation by the superkey test.

    The per-relation analysis that classification and scoring read: one
    projection, one superkey verdict per distinct determinant. ``fds`` may be
    the schema's global list or already projected (both steps are idempotent).
    """
    projected = project_fds(normalize_fds(fds), relation.attribute_set)
    determinants = dict.fromkeys(fd.determinant_set for fd in projected)
    superkey = {det: is_superkey(det, relation, projected) for det in determinants}
    preventing = tuple(fd for fd in projected if not superkey[fd.determinant_set])
    non_preventing = tuple(fd for fd in projected if superkey[fd.determinant_set])
    return FDPartition(
        relation_name=relation.name,
        preventing=preventing,
        non_preventing=non_preventing,
        completeness_attributes=frozenset().union(*(fd.attributes for fd in non_preventing)),
        preventing_attributes=frozenset().union(*(fd.attributes for fd in preventing)),
        total_attributes=len(relation.attributes),
    )


def classify_partition(
    relation: RelationSchema,
    partition: FDPartition,
    mode: ClassificationMode = ClassificationMode.PRIMARY,
    *,
    key_cap: int = DEFAULT_KEY_CAP,
) -> NormalForm:
    """Highest normal form of ``relation``, read from its preventing partition.

    Gate order: any non-atomic attribute leaves the relation unnormalized;
    otherwise it is at least 1NF, reaches 2NF without partial dependencies,
    3NF additionally without transitive dependencies, and BCNF once no
    dependency is preventing. Only a preventing dependency (non-superkey
    determinant) can be transitive.
    """
    if any(not spec.atomic for spec in relation.attributes):
        return NormalForm.UNF

    projected = partition.preventing + partition.non_preventing
    if mode is ClassificationMode.PRIMARY:
        keys: tuple[frozenset[str], ...] = (relation.primary_key_set,)
    else:
        keys = candidate_keys(relation, projected, cap=key_cap)
    primes: frozenset[str] = frozenset().union(*keys)

    def non_prime_dependent(fd: FunctionalDependency) -> bool:
        return any(a not in primes for a in fd.dependents)

    if any(
        fd.determinant
        and any(fd.determinant_set < key for key in keys)
        and non_prime_dependent(fd)
        for fd in projected
    ):
        return NormalForm.FIRST
    if any(
        non_prime_dependent(fd)
        and (mode is ClassificationMode.STRICT or fd.determinant_set.isdisjoint(primes))
        for fd in partition.preventing
    ):
        return NormalForm.SECOND
    if partition.preventing:
        return NormalForm.THIRD
    return NormalForm.BCNF
