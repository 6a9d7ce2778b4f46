"""Seeded input generators for the benchmark workloads, with expected results.

Every expected value comes from how an input is built, never from normlens's
own algorithms: the fixture's four decomposition stages carry frozen,
hand-checked scores, and the wide ``keysearch`` relations have their keys,
normal forms and scores fixed by what is planted in them. A seed changes
names, positions and orders but not the shape of the work, so two seeds cost
the same and their timings can be compared.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from fractions import Fraction

# Structured output of every command the benchmark times, keyed by its metric.
COMMANDS = {
    "check_s": ("check", "--format", "structured"),
    "analyze_s": ("analyze", "--format", "structured"),
    "normalize_s": ("normalize", "--format", "structured"),
    "keys_s": ("keys", "--format", "structured"),
    "analyze_strict_s": ("analyze", "--mode", "strict", "--format", "structured"),
}

FIXTURE_RELATION = "StaffPropertyInspection"
FIXTURE_KEY = ("propertyNo", "iDate")

# The fixture's sixteen dependencies, numbered FD1..FD16 in file order.
FIXTURE_FDS = (
    (("propertyNo", "iDate"), "iTime"),
    (("propertyNo", "iDate"), "comments"),
    (("propertyNo", "iDate"), "staffNo"),
    (("propertyNo", "iDate"), "sName"),
    (("propertyNo", "iDate"), "carReg"),
    (("propertyNo",), "pAddress"),
    (("staffNo",), "sName"),
    (("staffNo", "iDate"), "carReg"),
    (("carReg", "iDate", "iTime"), "propertyNo"),
    (("carReg", "iDate", "iTime"), "pAddress"),
    (("carReg", "iDate", "iTime"), "comments"),
    (("carReg", "iDate", "iTime"), "staffNo"),
    (("carReg", "iDate", "iTime"), "sName"),
    (("staffNo", "iDate", "iTime"), "propertyNo"),
    (("staffNo", "iDate", "iTime"), "pAddress"),
    (("staffNo", "iDate", "iTime"), "comments"),
)

# The three splits of the fixture walk, in order: moved FD, determinant, and
# the attribute that leaves the wide relation.
FIXTURE_SPLITS = ((6, ("propertyNo",), "pAddress"), (7, ("staffNo",), "sName"),
                  (8, ("staffNo", "iDate"), "carReg"))
FIXTURE_ATTRIBUTES = ("propertyNo", "iDate", "iTime", "pAddress", "comments",
                      "staffNo", "sName", "carReg")
FIXTURE_UNPRESERVED = (4, 5, 9, 10, 11, 12, 13, 15)
FIXTURE_WALK = ("1.62", "6.71", "11.75", "16.00")


@dataclass(frozen=True)
class StageScores:
    """Frozen per-relation results of one stage relation."""

    primary_level: int
    primary_nc: Fraction
    strict_level: int
    strict_nc: Fraction
    keys: tuple[tuple[str, ...], ...]


_WIDE_KEYS = (("iDate", "propertyNo"), ("carReg", "iDate", "iTime"),
              ("iDate", "iTime", "staffNo"))
# The wide relation at stages 0..3; every split-off relation is BCNF.
STAGE_WIDE_SCORES = (
    StageScores(1, Fraction(13, 8), 1, Fraction(13, 8), _WIDE_KEYS),
    StageScores(2, Fraction(19, 7), 1, Fraction(12, 7), _WIDE_KEYS),
    StageScores(3, Fraction(15, 4), 3, Fraction(15, 4), _WIDE_KEYS),
    StageScores(4, Fraction(4), 4, Fraction(4),
                (("iDate", "propertyNo"), ("iDate", "iTime", "staffNo"))),
)
STAGE_TOTALS = (Fraction(13, 8), Fraction(47, 7), Fraction(47, 4), Fraction(16))


@dataclass(frozen=True)
class Relation:
    name: str
    attributes: tuple[str, ...]
    key: tuple[str, ...]


@dataclass(frozen=True)
class Scored:
    """Expected analysis of one relation: normal-form level and exact NC."""

    name: str
    level: int
    nc: Fraction


@dataclass(frozen=True)
class Expected:
    """What every command must print for one generated schema.

    ``step_totals`` is the schema total after each step where the step order
    is known, else None; ``final`` is the set of relations ``normalize`` ends
    with, as (name, attribute set, key).
    """

    schema: str
    primary: tuple[Scored, ...]
    strict: tuple[Scored, ...]
    keys: tuple[tuple[str, tuple[tuple[str, ...], ...]], ...]
    moved: tuple[tuple[str, ...], ...]
    step_totals: tuple[Fraction, ...] | None
    final: frozenset[tuple[str, frozenset[str], tuple[str, ...]]]
    final_total: Fraction
    unpreserved: frozenset[str]


@dataclass(frozen=True)
class Workload:
    name: str
    text: str
    expected: Expected
    relations: int
    fds: int


def _split_name(source: str, determinant: tuple[str, ...]) -> str:
    return f"{source}_{'_'.join(determinant)}"


def _stage_relations(stage: int, suffix: str) -> list[tuple[Relation, StageScores]]:
    """The relations of one fixture copy after ``stage`` splits, renamed."""

    def ren(names: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(f"{name}{suffix}" for name in names)

    wide_name = f"{FIXTURE_RELATION}{suffix}"
    gone = {moved for _, _, moved in FIXTURE_SPLITS[:stage]}
    wide = Relation(
        wide_name,
        ren(tuple(a for a in FIXTURE_ATTRIBUTES if a not in gone)),
        ren(FIXTURE_KEY),
    )
    out = [(wide, STAGE_WIDE_SCORES[stage])]
    for _, determinant, moved in FIXTURE_SPLITS[:stage]:
        key = ren(determinant)
        rel = Relation(_split_name(wide_name, key), key + ren((moved,)), key)
        out.append((rel, StageScores(4, Fraction(4), 4, Fraction(4), (determinant,))))
    return out


def _fixture_fds(suffix: str) -> list[tuple[str, tuple[str, ...], tuple[str, ...]]]:
    return [
        (f"FD{number}{suffix}", tuple(f"{a}{suffix}" for a in det), (f"{dep}{suffix}",))
        for number, (det, dep) in enumerate(FIXTURE_FDS, 1)
    ]


def render(
    schema: str,
    relations: list[Relation],
    fds: list[tuple[str, tuple[str, ...], tuple[str, ...]]],
) -> str:
    """The schema in the normlens DSL."""
    lines = [f"schema {schema}"]
    lines += [
        f"relation {rel.name}({', '.join(rel.attributes)}) key({', '.join(rel.key)})"
        for rel in relations
    ]
    lines += [f"fd {label}: {', '.join(det)} -> {', '.join(deps)}" for label, det, deps in fds]
    return "\n".join(lines) + "\n"


def _fixture_copies(
    schema: str,
    copies: list[tuple[str, int]],
    fds: list[tuple[str, tuple[str, ...], tuple[str, ...]]],
) -> Workload:
    """Schema of fixture copies, each given as (suffix, stage).

    A copy's suffix is on every attribute, relation and FD label, so no
    dependency crosses copies. Decomposition always works on the first
    relation below BCNF, and a copy's split-off relations are BCNF, so the
    steps run copy by copy. Within a copy each step moves the remaining one
    of FD6, FD7, FD8 that comes first in the global FD list.
    """
    relations: list[Relation] = []
    primary: list[Scored] = []
    strict: list[Scored] = []
    keys: list[tuple[str, tuple[tuple[str, ...], ...]]] = []
    final: set[tuple[str, frozenset[str], tuple[str, ...]]] = set()
    unpreserved: set[str] = set()
    position = {label: index for index, (label, _, _) in enumerate(fds)}
    moved: list[tuple[str, ...]] = []
    for suffix, stage in copies:
        for rel, scores in _stage_relations(stage, suffix):
            relations.append(rel)
            primary.append(Scored(rel.name, scores.primary_level, scores.primary_nc))
            strict.append(Scored(rel.name, scores.strict_level, scores.strict_nc))
            keys.append((rel.name, tuple(
                tuple(f"{a}{suffix}" for a in key) for key in scores.keys
            )))
        final.update(
            (rel.name, frozenset(rel.attributes), rel.key)
            for rel, _ in _stage_relations(3, suffix)
        )
        remaining = [f"FD{number}{suffix}" for number, _, _ in FIXTURE_SPLITS[stage:]]
        moved += [(label,) for label in sorted(remaining, key=position.__getitem__)]
        unpreserved.update(f"FD{number}{suffix}" for number in FIXTURE_UNPRESERVED)
    # Keys are printed sorted by size, then by their sorted attribute names.
    keys = [
        (name, tuple(sorted((tuple(sorted(k)) for k in ks), key=lambda k: (len(k), k))))
        for name, ks in keys
    ]
    step_totals = None
    if all(stage == 0 for _, stage in copies):
        # FD6, FD7, FD8 in fixture order: each step walks one copy a stage on.
        base = STAGE_TOTALS[0] * len(copies)
        step_totals = tuple(
            base + done * (STAGE_TOTALS[3] - STAGE_TOTALS[0])
            + STAGE_TOTALS[step] - STAGE_TOTALS[0]
            for done in range(len(copies))
            for step in (1, 2, 3)
        )
    expected = Expected(
        schema=schema,
        primary=tuple(primary),
        strict=tuple(strict),
        keys=tuple(keys),
        moved=tuple(moved),
        step_totals=step_totals,
        final=frozenset(final),
        final_total=STAGE_TOTALS[3] * len(copies),
        unpreserved=frozenset(unpreserved),
    )
    return Workload(schema.lower(), render(schema, relations, fds), expected,
                    len(relations), len(fds))


def bulk(seed: int, copies: int) -> Workload:
    """Many fixture copies, an equal number at each of the four stages.

    The seed assigns the stages to copies and shuffles the global FD list, so
    relation and FD counts do not depend on it.
    """
    rng = random.Random(f"bulk:{seed}")
    stages = [copy % 4 for copy in range(copies)]
    rng.shuffle(stages)
    fds = [fd for copy in range(copies) for fd in _fixture_fds(f"_c{copy}")]
    rng.shuffle(fds)
    return _fixture_copies("Bulk", [(f"_c{copy}", stage) for copy, stage in enumerate(stages)], fds)


def decompose(seed: int, copies: int) -> Workload:
    """Stage-0 fixture copies; each needs three steps to reach BCNF.

    The seed interleaves the copies' FD blocks at random while keeping every
    copy's own FDs in fixture order, so the step sequence is fixed.
    """
    rng = random.Random(f"decompose:{seed}")
    blocks = [_fixture_fds(f"_c{copy}") for copy in range(copies)]
    owners = [copy for copy in range(copies) for _ in range(len(FIXTURE_FDS))]
    rng.shuffle(owners)
    fds = [blocks[copy].pop(0) for copy in owners]
    return _fixture_copies("Decompose", [(f"_c{copy}", 0) for copy in range(copies)], fds)


def fixture() -> Workload:
    """The shipped fixture ``case_study.nls`` itself, with its expected results."""
    return _fixture_copies("PropertyInspection", [("", 0)], _fixture_fds(""))


def _letters(index: int) -> str:
    """Spreadsheet-style suffix: 0 -> a, 25 -> z, 26 -> aa."""
    width = 1
    while index >= 26**width:
        index -= 26**width
        width += 1
    letters = ""
    for _ in range(width):
        index, digit = divmod(index, 26)
        letters = string.ascii_lowercase[digit] + letters
    return letters


# (width, planted key sizes, extra dependency). A "partial" extra maps a proper
# part of the primary key to a non-prime attribute (1NF); a "transitive" one
# maps two non-prime attributes to a third (2NF); None leaves the relation in
# BCNF. Widths stay within the default key-search cap of 20 attributes.
KEYSEARCH_SHAPES = (
    (16, (4, 5), "partial"),
    (16, (3, 4, 5), "transitive"),
    (16, (6,), None),
)


@dataclass(frozen=True)
class Planted:
    """One wide relation with its FDs and everything it is expected to yield.

    ``moved`` holds the FD labels ``normalize`` splits off (empty when the
    relation is already BCNF) and ``final`` the relations it leaves behind.
    """

    relation: Relation
    fds: list[tuple[str, tuple[str, ...], tuple[str, ...]]]
    keys: tuple[tuple[str, ...], ...]
    score: Scored
    moved: tuple[str, ...]
    final: tuple[tuple[str, frozenset[str], tuple[str, ...]], ...]
    unpreserved: frozenset[str]


def wide_relation(
    rng: random.Random,
    name: str,
    width: int,
    key_sizes: tuple[int, ...],
    extra: str | None,
) -> Planted:
    """One wide relation with disjoint planted keys.

    Each key K determines every other attribute through one multi-attribute
    dependency, so any set not containing a planted key only reaches itself
    plus, through the extra dependency, one non-prime attribute: the planted
    keys are exactly the candidate keys.
    """
    names = [f"{name}_a{index:02d}" for index in range(width)]
    rng.shuffle(names)
    keys: list[tuple[str, ...]] = []
    at = 0
    for size in key_sizes:
        keys.append(tuple(names[at:at + size]))
        at += size
    nonprime = names[at:]
    fds = []
    for number, key in enumerate(keys, 1):
        dependents = [a for a in names if a not in key]
        rng.shuffle(dependents)
        fds.append((f"{name}_K{number}", key, tuple(dependents)))
    relation = Relation(name, tuple(sorted(names)), keys[0])
    sorted_keys = tuple(sorted((tuple(sorted(k)) for k in keys), key=lambda k: (len(k), k)))
    if extra is None:
        rng.shuffle(fds)
        return Planted(relation, fds, sorted_keys, Scored(name, 4, Fraction(4)), (),
                       ((name, frozenset(names), keys[0]),), frozenset())

    if extra == "partial":
        determinant, level = keys[0][:-1], 1
    else:
        determinant, level = tuple(nonprime[:2]), 2
    target = nonprime[-1]
    # normalize_fds splits each key's FD into one per dependent, labelled
    # with a letter suffix; the pieces that reach the moved attribute are
    # left with no relation that holds all of their attributes.
    unpreserved = frozenset(
        f"{label}.{_letters(deps.index(target))}" for label, _, deps in fds
    )
    fds.append((f"{name}_X", determinant, (target,)))
    rng.shuffle(fds)
    # Every attribute is under a non-preventing dependency (c = n); the extra
    # one's attributes are the preventing ones (p = |det| + 1).
    nc = level + 1 - Fraction(len(determinant) + 1, 2 * width)
    final = (
        (_split_name(name, determinant), frozenset((*determinant, target)), determinant),
        (name, frozenset(a for a in names if a != target), keys[0]),
    )
    return Planted(relation, fds, sorted_keys, Scored(name, level, nc), (f"{name}_X",),
                   final, unpreserved)


def keysearch(
    seed: int, shapes: tuple[tuple[int, tuple[int, ...], str | None], ...] = KEYSEARCH_SHAPES
) -> Workload:
    """A few wide relations whose candidate keys are planted.

    Primary and strict mode agree on every planted shape: the partial
    determinant is a proper part of the primary key, and the transitive one
    is disjoint from every key.
    """
    rng = random.Random(f"keysearch:{seed}")
    planted = [
        wide_relation(rng, f"W{index}", *shape) for index, shape in enumerate(shapes)
    ]
    scored = [p.score for p in planted]
    # normalize splits each relation below BCNF once, in schema order, and
    # both halves are BCNF (4 each).
    total = sum((s.nc for s in scored), Fraction(0))
    totals = []
    for score in scored:
        if score.level < 4:
            total += 8 - score.nc
            totals.append(total)
    final = frozenset(rel for p in planted for rel in p.final)
    expected = Expected(
        schema="Keysearch",
        primary=tuple(scored),
        strict=tuple(scored),
        keys=tuple((p.relation.name, p.keys) for p in planted),
        moved=tuple(p.moved for p in planted if p.moved),
        step_totals=tuple(totals),
        final=final,
        final_total=Fraction(4) * len(final),
        unpreserved=frozenset().union(*(p.unpreserved for p in planted)),
    )
    relations = [p.relation for p in planted]
    fds = [fd for p in planted for fd in p.fds]
    return Workload("keysearch", render("Keysearch", relations, fds), expected,
                    len(relations), len(fds))
