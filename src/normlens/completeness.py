"""Fuzzy membership and normalization completeness scores.

A relation below BCNF scores ``NC = N + x`` where N is its normal form level
and the membership value

    x = ((c / n) + (1 - p / n)) / 2

combines c, the number of attributes under non-preventing dependencies, with
p, the number under preventing dependencies, over n total attributes. x lives
in [0, 1]: it hits 1 exactly when c = n and p = 0, hits 0 exactly when c = 0
and p = n, grows with c and shrinks with p.

A BCNF relation contributes exactly 4, the top of the ladder, not 4 + x: the
scale ends at BCNF, so schema totals stay additive as decomposition replaces
one scored relation with several. All arithmetic is exact ``Fraction`` math;
the only place precision is lost is the two-decimal display truncation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .classify import FDPartition, classify_partition, partition_preventing
from .errors import InvalidSchemaError
from .fd import DEFAULT_KEY_CAP
from .model import (
    ClassificationMode,
    FunctionalDependency,
    NormalForm,
    RelationSchema,
    Schema,
    _Record,
    truncated,
    validate_schema,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from collections.abc import Sequence


def fuzzy_membership(completeness: int, preventing: int, total: int) -> Fraction:
    """Membership value ((c/n) + (1 - p/n)) / 2 as an exact rational.

    Requires n >= 1 and 0 <= c, p <= n; raises ValueError otherwise.
    """
    if total < 1:
        raise ValueError(f"total attribute count must be >= 1, got {total}")
    if not 0 <= completeness <= total:
        raise ValueError(
            f"completeness count {completeness} out of range [0, {total}]"
        )
    if not 0 <= preventing <= total:
        raise ValueError(f"preventing count {preventing} out of range [0, {total}]")
    return Fraction(completeness + total - preventing, 2 * total)


class RelationNC(_Record):
    """Normalization completeness of one relation: its normal form and partition.

    The constructor derives ``relation_name``, ``membership`` x and ``nc``
    (N + x below BCNF, exactly 1 and 4 in BCNF).
    """

    normal_form: NormalForm
    partition: FDPartition

    def __init__(self, normal_form: NormalForm, partition: FDPartition) -> None:
        if normal_form is NormalForm.BCNF:
            membership, nc = Fraction(1), Fraction(4)
        else:
            c, p = partition.completeness_count, partition.preventing_count
            n = partition.total_attributes
            membership = fuzzy_membership(c, p, n)
            nc = Fraction(2 * n * normal_form.value + c + n - p, 2 * n)
        vars(self).update(
            normal_form=normal_form,
            partition=partition,
            relation_name=partition.relation_name,
            membership=membership,
            nc=nc,
        )

    @property
    def nc_display(self) -> str:
        return truncated(self.nc)


class SchemaNC(_Record):
    """The scored schema, its per-relation scores and their exact sum, computed once."""

    schema: Schema
    mode: ClassificationMode
    per_relation: tuple[RelationNC, ...]

    @cached_property
    def total(self) -> Fraction:
        ncs = [r.nc for r in self.per_relation]
        den = math.lcm(*(nc.denominator for nc in ncs))
        return Fraction(sum(nc.numerator * (den // nc.denominator) for nc in ncs), den)

    @property
    def total_display(self) -> str:
        return truncated(self.total)


def relation_nc(
    relation: RelationSchema,
    fds: Sequence[FunctionalDependency],
    mode: ClassificationMode = ClassificationMode.PRIMARY,
    *,
    key_cap: int = DEFAULT_KEY_CAP,
) -> RelationNC:
    """Score one relation: partition, classify, then NC = N + x (or exactly 4).

    ``fds`` is ``Schema.projected_fds(relation)`` (ForeignAttributeError otherwise).
    A relation with no projected dependencies is vacuously BCNF, so the
    membership formula never sees n = 0.
    """
    partition = partition_preventing(relation, fds)
    return RelationNC(classify_partition(partition, mode, key_cap=key_cap), partition)


def schema_nc(
    schema: Schema,
    mode: ClassificationMode = ClassificationMode.PRIMARY,
    *,
    key_cap: int = DEFAULT_KEY_CAP,
) -> SchemaNC:
    """Score every relation in schema order and total them exactly.

    Raises InvalidSchemaError, with the report, when ``validate_schema`` finds an error.
    """
    if not (report := validate_schema(schema)).ok:
        raise InvalidSchemaError(report)
    nc = SchemaNC(schema, mode, tuple(
        relation_nc(rel, schema.projected_fds(rel), mode, key_cap=key_cap)
        for rel in schema.relations
    ))
    vars(nc)["_trusted"] = True
    return nc
