"""Structured reports stay byte-identical to committed golden outputs.

The golden files were produced by the implementation that rescored the whole
schema on every decomposition step; the incremental rescoring must not change
a single byte of what ``analyze`` and ``normalize`` print.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from normlens.cli import main

from conftest import CASE_STUDY_PATH

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = {
    "case_study": CASE_STUDY_PATH,
    "multi_relation": GOLDEN / "multi_relation.nls",
}


@pytest.mark.parametrize("mode", ["primary", "strict"])
@pytest.mark.parametrize("command", ["analyze", "normalize"])
@pytest.mark.parametrize("source", sorted(INPUTS))
def test_structured_output_matches_golden(capsys, source, command, mode):
    code = main([command, str(INPUTS[source]), "--mode", mode, "--format", "structured"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    golden = GOLDEN / f"{source}.{command}.{mode}.json"
    assert captured.out.encode("utf-8") == golden.read_bytes()
