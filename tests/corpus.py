"""Deterministic random schema corpus shared by the oracle and property suites."""

from __future__ import annotations

import random
import string
import sys
from pathlib import Path

from normlens import FunctionalDependency, RelationSchema, Schema

from oracles import brute_force_keys

ATTR_POOL = tuple(string.ascii_lowercase)
BENCH = str(Path(__file__).resolve().parents[1] / "bench")


def fd(label: str, determinant: str, dependents: str) -> FunctionalDependency:
    """Shorthand: fd("F1", "a b", "c") == F1: a, b -> c."""
    return FunctionalDependency(
        label, tuple(determinant.split()), tuple(dependents.split())
    )


def random_heading_and_fds(
    rng: random.Random, widths: tuple[int, int] = (2, 8), max_fds: int = 12
) -> tuple[tuple[str, ...], list[FunctionalDependency]]:
    """A heading of ``widths[0]``..``widths[1]`` attributes and FDs drawn inside it."""
    count = rng.randint(*widths)
    names = ATTR_POOL[:count]
    fds: list[FunctionalDependency] = []
    for index in range(rng.randint(0, max_fds)):
        det = rng.sample(names, rng.randint(1, min(3, count)))
        rest = [name for name in names if name not in det]
        if not rest:
            continue
        deps = rng.sample(rest, rng.randint(1, min(2, len(rest))))
        fds.append(FunctionalDependency(f"F{index + 1}", tuple(det), tuple(deps)))
    return names, fds


def random_case(
    rng: random.Random, widths: tuple[int, int] = (2, 8), max_fds: int = 12
) -> tuple[Schema, list[frozenset[str]]]:
    """One single-relation schema plus its oracle-computed candidate keys.

    The primary key is drawn from the candidate keys so that key-based
    classification invariants hold by construction.
    """
    names, fds = random_heading_and_fds(rng, widths, max_fds)
    relation = RelationSchema("R", names, names)
    keys = brute_force_keys(relation, fds)
    primary = sorted(rng.choice(keys))
    return (
        Schema("S", (RelationSchema("R", names, tuple(primary)),), tuple(fds)),
        keys,
    )


def build_corpus(
    count: int = 500,
    seed: int = 20250811,
    widths: tuple[int, int] = (2, 8),
    max_fds: int = 12,
) -> list[tuple[Schema, list[frozenset[str]]]]:
    rng = random.Random(seed)
    return [random_case(rng, widths, max_fds) for _ in range(count)]


MULTI_POOL = tuple(string.ascii_lowercase[:12])


def random_multi_relation_schema(
    rng: random.Random, relations: int = 4, fds: int = 10
) -> Schema:
    """Several overlapping relations sharing one global dependency list.

    Relations draw 3-6 attributes from a 12-attribute pool, so one dependency
    often projects into several relations. Each dependency is drawn inside one
    relation's heading, and most list two or three dependents, so the
    ``FD.a``/``FD.b`` splitting of multi-attribute right-hand sides fires.
    Every primary key is a candidate key of its relation's projection,
    computed by the brute-force oracle on a projection done here.
    """
    headings = [
        tuple(rng.sample(MULTI_POOL, rng.randint(3, 6))) for _ in range(relations)
    ]
    dependencies: list[FunctionalDependency] = []
    for index in range(fds):
        heading = rng.choice(headings)
        det = rng.sample(heading, rng.randint(1, 2))
        rest = [name for name in heading if name not in det]
        deps = rng.sample(rest, rng.randint(1, min(3, len(rest))))
        dependencies.append(FunctionalDependency(f"F{index + 1}", tuple(det), tuple(deps)))
    out = []
    for number, heading in enumerate(headings, 1):
        inside = set(heading)
        singletons = [
            FunctionalDependency("p", item.determinant, (dep,))
            for item in dependencies
            for dep in item.dependents
            if inside.issuperset(item.determinant) and dep in inside
        ]
        keys = brute_force_keys(RelationSchema("R", heading, heading), singletons)
        out.append(RelationSchema(f"R{number}", heading, tuple(sorted(rng.choice(keys)))))
    return Schema("M", tuple(out), tuple(dependencies))


def build_multi_corpus(count: int = 200, seed: int = 20261017) -> list[Schema]:
    rng = random.Random(seed)
    return [random_multi_relation_schema(rng) for _ in range(count)]


def benchmark_texts(seed: int) -> dict[str, str]:
    """Each benchmark workload's input text at ``seed``, as ``bench/run.py`` builds it."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    from run import WORKLOADS

    return {name: build(seed).text for name, (build, _metrics) in WORKLOADS.items()}


def probe_inputs() -> list[tuple[str, str]]:
    """(label, text) of the probe shapes at small sizes.

    ``star k``: k relations Ri(ai, bi, ci) key(ai) with bi -> ci. ``chain n``: one
    relation R(a0..a(n-1)) key(a0) with a(i) -> a(i+1), listed last to first.
    ``pairs m``: one relation R(a0..a(m-1), b0..b(m-1)) key(a0..a(m-1)) with ai -> bi
    and bi -> ai, which has 2^m candidate keys.
    """
    inputs = []
    for k in (1, 3, 7):
        lines = [f"relation R{i}(a{i}, b{i}, c{i}) key(a{i})" for i in range(k)]
        lines += [f"fd F{i}: b{i} -> c{i}" for i in range(k)]
        inputs.append((f"probe star {k}", lines))
    for n in (3, 5, 8, 13):
        lines = [f"relation R({', '.join(f'a{i}' for i in range(n))}) key(a0)"]
        lines += [f"fd F{i}: a{i} -> a{i + 1}" for i in reversed(range(n - 1))]
        inputs.append((f"probe chain {n}", lines))
    for m in (2, 3, 5):
        a, b = ([f"{side}{i}" for i in range(m)] for side in "ab")
        lines = [f"relation R({', '.join(a + b)}) key({', '.join(a)})"]
        lines += [f"fd F{i}: a{i} -> b{i}" for i in range(m)]
        lines += [f"fd G{i}: b{i} -> a{i}" for i in range(m)]
        inputs.append((f"probe pairs {m}", lines))
    return [(label, "\n".join(["schema probe", *lines]) + "\n") for label, lines in inputs]
