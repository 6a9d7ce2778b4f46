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
one scored relation with several. All arithmetic is exact: each score is kept
as its reduced integer ratio, and its public ``Fraction`` is built on first
read, so scoring and rendering load no ``fractions``. The only place
precision is lost is the two-decimal display truncation.

A score renders here, as text (schema totals as equations, e.g.
"2.71 + 4 = 6.71") or as stable JSON in which every exact rational appears as
``{"num": ..., "den": ..., "display": ...}``; ``dsl.emit_report`` and
``dsl.write_report`` are the public entries. Of the commands, only
``analyze`` and ``normalize`` compile these renderers.
"""

from __future__ import annotations

import math
from functools import cached_property

from .classify import FDPartition, _strict, classify_partition, partition_preventing
from .errors import InvalidSchemaError
from .fd import DEFAULT_KEY_CAP
from .model import (
    ClassificationMode, FunctionalDependency, NormalForm, RelationSchema, Schema, _Record,
    _array, _names, _quote, _shared, _truncated, validate_schema,
    truncated,  # noqa: F401  the README documents normlens.completeness.truncated
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence
    from fractions import Fraction

    Ratio = tuple[int, int]  # (numerator, denominator), reduced, denominator > 0


def _membership(completeness: int, preventing: int, total: int) -> Ratio:
    # x = (c + n - p) / 2n, reduced; N + x over the same denominator is reduced too.
    num, den = completeness + total - preventing, 2 * total
    g = math.gcd(num, den)
    return num // g, den // g


def _sum(ratios: Iterable[Ratio]) -> Ratio:
    num, den = 0, 1
    for n, d in ratios:
        num, den = num * d + n * den, den * d
        g = math.gcd(num, den)
        num, den = num // g, den // g
    return num, den


def _fraction(ratio: Ratio) -> Fraction:
    from fractions import Fraction  # loaded only by a caller that reads a score

    return Fraction(*ratio)


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
    return _fraction(_membership(completeness, preventing, total))


class RelationNC(_Record):
    """Normalization completeness of one relation: its normal form and partition.

    The constructor derives ``relation_name`` and the reduced integer ratios
    ``_membership`` of x and ``_nc`` (N + x below BCNF, exactly 1 and 4 in
    BCNF); ``membership`` and ``nc`` are their ``Fraction`` values.
    """

    normal_form: NormalForm
    partition: FDPartition

    def __init__(self, normal_form: NormalForm, partition: FDPartition) -> None:
        if normal_form is NormalForm.BCNF:
            membership, nc = (1, 1), (4, 1)
        else:
            num, den = membership = _membership(
                partition.completeness_count,
                partition.preventing_count,
                partition.total_attributes,
            )
            nc = (normal_form.value * den + num, den)
        vars(self).update(
            normal_form=normal_form,
            partition=partition,
            relation_name=partition.relation_name,
            _membership=membership,
            _nc=nc,
        )

    @cached_property
    def membership(self) -> Fraction:
        return _fraction(self._membership)

    @cached_property
    def nc(self) -> Fraction:
        return _fraction(self._nc)

    @property
    def nc_display(self) -> str:
        return _truncated(*self._nc)


class SchemaNC(_Record):
    """The scored schema, its per-relation scores and their exact sum, computed once.

    ``_total`` is the sum as a reduced integer ratio; ``total`` is its ``Fraction``.
    """

    schema: Schema
    mode: ClassificationMode
    per_relation: tuple[RelationNC, ...]

    @cached_property
    def _total(self) -> Ratio:
        return _sum(r._nc for r in self.per_relation)

    @cached_property
    def total(self) -> Fraction:
        return _fraction(self._total)

    @property
    def total_display(self) -> str:
        return _truncated(*self._total)


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

    Raises TypeError for a mode not in ClassificationMode, InvalidSchemaError for an invalid schema.
    """
    _strict(mode)  # the mode test of classify_partition, also for a schema with no relations
    if not (report := validate_schema(schema)).ok:
        raise InvalidSchemaError(report)
    nc = SchemaNC(schema, mode, tuple(
        relation_nc(rel, schema.projected_fds(rel), mode, key_cap=key_cap)
        for rel in schema.relations
    ))
    vars(nc)["_key_cap"] = key_cap  # trusted: a step reads the cap it was keyed at here
    return nc


# --- rendering (model's JSON primitives; dsl.emit_report is the entry) ------

def _rational(value: Ratio, pad: str) -> str:
    p1 = pad + "  "  # the display is digits and a point: nothing to escape
    num, den = value
    return (
        f'{{{p1}"den": {den},{p1}"display": "{_truncated(num, den)}",'
        f'{p1}"num": {num}{pad}}}'
    )


def _relation_nc(rnc: RelationNC, pad: str, cache: object) -> str:
    p1 = pad + "  "
    p2 = p1 + "  "
    p3 = p2 + "  "
    part, form = rnc.partition, rnc.normal_form
    partition = (
        f'{{{p2}"completeness_attributes": {_names(sorted(part.completeness_attributes), p2)},'
        f'{p2}"counts": {{{p3}"completeness": {part.completeness_count},'
        f'{p3}"preventing": {part.preventing_count},{p3}"total": {part.total_attributes}{p2}}},'
        f'{p2}"non_preventing": {_names([fd.label for fd in part.non_preventing], p2)},'
        f'{p2}"preventing": {_names([fd.label for fd in part.preventing], p2)},'
        f'{p2}"preventing_attributes": {_names(sorted(part.preventing_attributes), p2)},'
        f'{p2}"relation": {_quote(part.relation_name)}{p1}}}'
    )
    return (
        f'{{{p1}"membership": {_rational(rnc._membership, p1)},'
        f'{p1}"name": {_quote(rnc.relation_name)},{p1}"nc": {_rational(rnc._nc, p1)},'
        f'{p1}"normal_form": {{{p2}"label": {_quote(form.label)},'
        f'{p2}"level": {form.value}{p1}}},{p1}"partition": {partition}{pad}}}'
    )


def _schema_nc(nc: SchemaNC, pad: str, cache: dict, kind: str = "") -> str:
    p1 = pad + "  "
    relations = [_shared(cache, _relation_nc, rnc, p1 + "  ") for rnc in nc.per_relation]
    return (
        f'{{{kind}{p1}"mode": {_quote(nc.mode.value)},'
        f'{p1}"relations": {_array(relations, p1)},{p1}"schema": {_quote(nc.schema.name)},'
        f'{p1}"total": {_rational(nc._total, p1)}{pad}}}'
    )


def _labels(fds: tuple[FunctionalDependency, ...]) -> str:
    return ", ".join(fd.label for fd in fds) or "(none)"


def _term(value: Ratio) -> str:
    return str(value[0]) if value[1] == 1 else _truncated(*value)


def _exact(value: Ratio) -> str:
    # str(Fraction(*value)): the numerator alone when the denominator is 1.
    return str(value[0]) if value[1] == 1 else f"{value[0]}/{value[1]}"


def _equation(nc: SchemaNC) -> str:
    if len(nc.per_relation) < 2:
        return nc.total_display
    terms = " + ".join(_term(r._nc) for r in nc.per_relation)
    return f"{terms} = {nc.total_display}"


def _text_schema_nc(nc: SchemaNC) -> list[str]:
    suffix = " [strict mode]" if nc.mode is ClassificationMode.STRICT else ""
    lines = [f"schema {nc.schema.name}{suffix}"]
    for rnc in nc.per_relation:
        part = rnc.partition
        lines += [
            "",
            f"relation {rnc.relation_name}: {rnc.normal_form.label} (N={rnc.normal_form.value})",
            f"  preventing FDs ({len(part.preventing)}): {_labels(part.preventing)}",
            f"  non-preventing FDs ({len(part.non_preventing)}): {_labels(part.non_preventing)}",
            f"  attributes: completeness {part.completeness_count},"
            f" preventing {part.preventing_count}, total {part.total_attributes}",
            f"  membership x = {_truncated(*rnc._membership)} (exact {_exact(rnc._membership)})",
            f"  NC = {rnc.nc_display} (exact {_exact(rnc._nc)})",
        ]
    lines += ["", _equation(nc)]
    return lines
