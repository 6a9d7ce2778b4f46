from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from normlens import (
    FunctionalDependency,
    RelationSchema,
    Schema,
    TransformStep,
    decompose_step,
    parse_schema,
    schema_nc,
)
from normlens.cli import main

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


def start_python(*args: str, env: dict[str, str] | None = None, **kwargs) -> subprocess.Popen:
    """Start ``python args``: the one way the tests start a child Python.

    The child sees none of the caller's ``PYTHON*`` settings, since
    PYTHONUNBUFFERED, PYTHONIOENCODING and PYTHONWARNINGS each change its bytes,
    so its streams are those a shell gives it. It imports this checkout's
    sources and writes no bytecode into them. ``env`` entries win; other
    keywords go to ``Popen``. stdout and stderr are pipes unless given.
    """
    kept = {name: value for name, value in os.environ.items() if not name.startswith("PYTHON")}
    kept.update(PYTHONPATH=str(REPO_ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", **(env or {}))
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.Popen([sys.executable, *args], env=kept, **kwargs)


def run_python(*args: str, stdin: bytes = b"", **kwargs) -> subprocess.CompletedProcess:
    """Run ``python args`` to its end with ``stdin`` as its input; see ``start_python``."""
    with start_python(*args, stdin=subprocess.PIPE, **kwargs) as child:
        out, err = child.communicate(stdin)
    return subprocess.CompletedProcess(child.args, child.returncode, out, err)


def run_main(argv: list[str], stdin: bytes = b"") -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in this process, reading ``stdin``.

    The one in-process runner: stdin is read as a file of these bytes is, and both
    output streams are captured as text.
    """
    stream = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", stream), contextlib.redirect_stdout(out):
        with contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def fixture_copies(schema: Schema, copies: int) -> Schema:
    """``copies`` renamed copies of the one-relation fixture, one shared FD list."""
    (rel,) = schema.relations

    def tag(names: tuple[str, ...], copy: int) -> tuple[str, ...]:
        return tuple(f"{name}_{copy}" for name in names)

    return Schema(
        "Copies",
        tuple(
            RelationSchema(f"{rel.name}_{c}", tag(rel.attribute_names, c), tag(rel.primary_key, c))
            for c in range(copies)
        ),
        tuple(
            FunctionalDependency(f"{item.label}_{c}", tag(item.determinant, c), tag(item.dependents, c))
            for c in range(copies)
            for item in schema.fds
        ),
    )


@pytest.fixture(scope="session")
def case_study() -> Schema:
    result = parse_schema(CASE_STUDY_PATH.read_text(encoding="utf-8"))
    assert result.ok, result.diagnostics
    assert result.schema is not None
    return result.schema


@pytest.fixture(scope="session")
def step1(case_study: Schema) -> TransformStep:
    return decompose_step(
        schema_nc(case_study), "StaffPropertyInspection", rename=CASE_STUDY_RENAMES
    )


@pytest.fixture(scope="session")
def step2(step1: TransformStep) -> TransformStep:
    return decompose_step(step1.nc_after, "StaffInspection", rename=CASE_STUDY_RENAMES)


@pytest.fixture(scope="session")
def step3(step2: TransformStep) -> TransformStep:
    return decompose_step(step2.nc_after, "Inspection", rename=CASE_STUDY_RENAMES)


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
