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
  accepts: a non-prime attribute in the closure of a proper subset of any
  candidate key blocks 2NF, whether one listed dependency or a chain of them
  reaches it. STRICT is the only mode that enumerates candidate keys, so it
  is the only one that can hit the search cap.
"""

from __future__ import annotations

from .fd import DEFAULT_KEY_CAP, candidate_keys, closure, is_superkey, project_fds
from .model import (
    ClassificationMode,
    FunctionalDependency,
    NormalForm,
    RelationSchema,
    _Record,
    normalize_fds,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from collections.abc import Sequence


class FDPartition(_Record):
    """Projected dependencies of one relation split by the superkey test.

    ``preventing`` and ``non_preventing`` together are exactly the projected
    dependencies of ``relation``, in schema order. The constructor derives
    ``relation_name``, ``total_attributes`` (the heading's width) and the
    attribute unions of the two tuples, ``completeness_attributes`` and
    ``preventing_attributes``: subsets of the heading that may overlap.
    """

    relation: RelationSchema
    preventing: tuple[FunctionalDependency, ...]
    non_preventing: tuple[FunctionalDependency, ...]

    def __init__(
        self,
        relation: RelationSchema,
        preventing: tuple[FunctionalDependency, ...],
        non_preventing: tuple[FunctionalDependency, ...],
    ) -> None:
        vars(self).update(
            relation=relation,
            preventing=preventing,
            non_preventing=non_preventing,
            relation_name=relation.name,
            total_attributes=len(relation.attributes),
            completeness_attributes=frozenset().union(*(fd.attributes for fd in non_preventing)),
            preventing_attributes=frozenset().union(*(fd.attributes for fd in preventing)),
        )

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
    the schema's global list or already projected (both steps are idempotent),
    as ``Schema.projected_fds`` gives it: such a list is used as it is.
    """
    attrs, projected = relation.attribute_set, fds
    if any(len(fd.dependents) > 1 or not fd.attributes <= attrs for fd in fds):
        projected = project_fds(normalize_fds(fds), attrs)
    determinants = dict.fromkeys(fd.determinant_set for fd in projected)
    superkey = {det: is_superkey(det, relation, projected) for det in determinants}
    preventing = tuple(fd for fd in projected if not superkey[fd.determinant_set])
    non_preventing = tuple(fd for fd in projected if superkey[fd.determinant_set])
    return FDPartition(relation, preventing, non_preventing)


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

    if mode is ClassificationMode.STRICT:
        # Textbook 2NF: no proper subset of a key reaches a non-prime attribute,
        # through any chain of dependencies. Closure is monotone, so the
        # subsets one attribute short of a key are the only ones to try
        # (in sorted order, so the number of closures repeats from run to run).
        partial = any(
            not closure(key - {a}, projected) <= primes for key in keys for a in sorted(key)
        )
    else:
        partial = any(
            fd.determinant
            and fd.determinant_set < relation.primary_key_set
            and non_prime_dependent(fd)
            for fd in projected
        )
    if partial:
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
