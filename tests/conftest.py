from __future__ import annotations

import re
from pathlib import Path

import pytest

from normlens import Schema, TransformStep, decompose_step, parse_schema

REPO_ROOT = Path(__file__).resolve().parents[1]
CASE_STUDY_PATH = REPO_ROOT / "case_study.nls"

# Friendlier relation names for the fixture's decomposition steps, keyed by
# the default names each step would otherwise produce.
CASE_STUDY_RENAMES = {
    "StaffPropertyInspection_propertyNo": "Property",
    "StaffPropertyInspection": "StaffInspection",
    "StaffInspection_staffNo": "Staff",
    "StaffInspection": "Inspection",
}


@pytest.fixture(scope="session")
def case_study() -> Schema:
    result = parse_schema(CASE_STUDY_PATH.read_text(encoding="utf-8"))
    assert result.ok, result.diagnostics
    assert result.schema is not None
    return result.schema


@pytest.fixture(scope="session")
def step1(case_study: Schema) -> TransformStep:
    return decompose_step(
        case_study, "StaffPropertyInspection", rename=CASE_STUDY_RENAMES
    )


@pytest.fixture(scope="session")
def step2(step1: TransformStep) -> TransformStep:
    return decompose_step(step1.schema_after, "StaffInspection", rename=CASE_STUDY_RENAMES)


@pytest.fixture(scope="session")
def step3(step2: TransformStep) -> TransformStep:
    return decompose_step(step2.schema_after, "Inspection", rename=CASE_STUDY_RENAMES)


def _criterion_order(name: str) -> int:
    match = re.search(r"test_criterion_(\d+)", name)
    return int(match.group(1)) if match else 99


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    outcomes: dict[str, str] = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                outcomes[nodeid.split("::")[-1]] = status
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(outcomes, key=_criterion_order):
        status = outcomes[name]
        verdict = {"passed": "PASS", "failed": "FAIL", "error": "FAIL"}.get(
            status, status.upper()
        )
        terminalreporter.write_line(f"{name}: {verdict}")
