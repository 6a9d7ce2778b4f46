"""Checks of the CLI's structured output against a workload's expected results.

Each check returns None when the output is right, else a one-line reason.
They read only the JSON the CLI printed and compare it with values the
generators fixed by construction.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import FIXTURE_WALK, Expected, Scored


def _rational(node: dict) -> Fraction:
    return Fraction(node["num"], node["den"])


def _check_scores(payload: dict, expected: tuple[Scored, ...], mode: str) -> str | None:
    if payload.get("kind") != "schema_nc" or payload.get("mode") != mode:
        return f"expected a {mode} schema_nc report"
    got = [
        Scored(rel["name"], rel["normal_form"]["level"], _rational(rel["nc"]))
        for rel in payload["relations"]
    ]
    if len(got) != len(expected):
        return f"{len(got)} relations scored, expected {len(expected)}"
    for scored, wanted in zip(got, expected):
        if scored != wanted:
            return f"got {scored}, expected {wanted}"
    total = sum((s.nc for s in expected), Fraction(0))
    if _rational(payload["total"]) != total:
        return f"total {_rational(payload['total'])} != {total}"
    return None


def _check_check(payload: dict, expected: Expected) -> str | None:
    wanted = {"kind": "check", "ok": True, "schema": expected.schema, "diagnostics": []}
    return None if payload == wanted else "check did not report a clean schema"


def _check_keys(payload: dict, expected: Expected) -> str | None:
    got = tuple(
        (rel["name"], tuple(tuple(key) for key in rel["keys"]))
        for rel in payload.get("relations", ())
    )
    if payload.get("kind") != "candidate_keys" or got != expected.keys:
        return "candidate keys differ from the planted ones"
    return None


def _check_normalize(payload: dict, expected: Expected) -> str | None:
    if payload.get("kind") != "transform_trace":
        return "expected a transform_trace report"
    steps = payload["steps"]
    moved = tuple(tuple(step["moved_fds"]) for step in steps)
    if moved != expected.moved:
        return f"{len(moved)} steps moved {moved[:3]}..., expected {expected.moved[:3]}..."
    initial = sum((s.nc for s in expected.primary), Fraction(0))
    if _rational(payload["initial_nc"]["total"]) != initial:
        return f"initial total {_rational(payload['initial_nc']['total'])} != {initial}"
    totals = [_rational(step["nc_after"]["total"]) for step in steps]
    if expected.step_totals is not None and tuple(totals) != expected.step_totals:
        return "schema totals after the steps differ"
    final = {
        (rel["name"], frozenset(a["name"] for a in rel["attributes"]), tuple(rel["key"]))
        for rel in payload["final"]["relations"]
    }
    if final != expected.final or len(payload["final"]["relations"]) != len(final):
        return "final relations differ"
    if _rational(payload["final_nc"]["total"]) != expected.final_total:
        return f"final total {_rational(payload['final_nc']['total'])} != {expected.final_total}"
    labels = payload["unpreserved_fds"]
    if set(labels) != expected.unpreserved or len(labels) != len(expected.unpreserved):
        return "unpreserved FD labels differ"
    return None


def check_output(metric: str, stdout: bytes, expected: Expected) -> str | None:
    """Verdict on one command's output; ``metric`` names the command."""
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    try:
        if metric == "check_s":
            return _check_check(payload, expected)
        if metric == "analyze_s":
            return _check_scores(payload, expected.primary, "primary")
        if metric == "analyze_strict_s":
            return _check_scores(payload, expected.strict, "strict")
        if metric == "keys_s":
            return _check_keys(payload, expected)
        if metric == "normalize_s":
            return _check_normalize(payload, expected)
    except (KeyError, TypeError) as exc:
        return f"output lacks an expected field: {exc!r}"
    raise ValueError(f"no oracle for {metric!r}")


def check_fixture_walk(stdout: bytes) -> str | None:
    """The shipped fixture must walk 1.62 -> 6.71 -> 11.75 -> 16.00."""
    try:
        payload = json.loads(stdout)
        walk = [payload["initial_nc"]["total"]["display"]] + [
            step["nc_after"]["total"]["display"] for step in payload["steps"]
        ]
    except (ValueError, KeyError, TypeError) as exc:
        return f"fixture walk unreadable: {exc!r}"
    if tuple(walk) != FIXTURE_WALK:
        return f"fixture walk {' -> '.join(walk)} != {' -> '.join(FIXTURE_WALK)}"
    return None
