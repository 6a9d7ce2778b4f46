"""Command output stays byte-identical to committed golden outputs.

The structured ``analyze`` and ``normalize`` files were produced by the
implementation that rescored the whole schema on every decomposition step;
the incremental rescoring must not change a single byte of what they print.
The command table pins the outputs no structured file covers: ``keys`` and
``check`` in both formats, text ``analyze`` and ``normalize`` (with and
without ``--trace``, and both in strict mode for ``multi_relation``),
``check`` on invalid schemas read from stdin, among them one whose findings
about repeated names must each point at their own declaration, and
``analyze`` and ``normalize`` on an unnormalized relation (``UNF (N=0)``,
NC ``1/6``) that decomposition cannot raise.
"""

from __future__ import annotations

import io
import json
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


# Golden name -> (input, arguments, exit code). The inputs in INPUTS are read
# from their file and print nothing on stderr; the others are read from stdin,
# so their diagnostics name "<stdin>", and their stderr is <name>.err.
COMMAND_CASES = {
    **{
        f"{source}.{command}.{format}": (source, [command, "--format", format], 0)
        for source in INPUTS
        for command in ("keys", "check")
        for format in ("text", "structured")
    },
    **{
        f"{source}.{label}.text": (source, args, 0)
        for source in INPUTS
        for label, args in (
            ("analyze", ["analyze"]),
            ("normalize", ["normalize"]),
            ("normalize-trace", ["normalize", "--trace"]),
        )
    },
    **{
        f"multi_relation.{label}.text": ("multi_relation", ["normalize", *args], 0)
        for label, args in (
            ("normalize-strict", ["--mode", "strict"]),
            ("normalize-strict-trace", ["--mode", "strict", "--trace"]),
        )
    },
    **{
        f"{source}.check.{format}": (source, ["check", "--format", format], code)
        for source, code in (("invalid", 1), ("invalid_semantics", 2), ("repeated_names", 2))
        for format in ("text", "structured")
    },
    **{
        f"unnormalized.analyze.{format}": ("unnormalized", ["analyze", "--format", format], 0)
        for format in ("text", "structured")
    },
    "unnormalized.normalize.text": ("unnormalized", ["normalize"], 2),
}


@pytest.mark.parametrize("name", sorted(COMMAND_CASES))
def test_command_output_matches_golden(capsys, monkeypatch, name):
    source, args, exit_code = COMMAND_CASES[name]
    if source in INPUTS:
        code = main([*args, str(INPUTS[source])])
    else:
        data = (GOLDEN / f"{source}.nls").read_bytes()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        code = main([*args, "-"])
    captured = capsys.readouterr()
    assert code == exit_code, captured.err
    assert captured.out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
    expected_err = b"" if source in INPUTS else (GOLDEN / f"{name}.err").read_bytes()
    assert captured.err.encode("utf-8") == expected_err


def test_each_structured_golden_is_json_dumps_of_itself():
    # With the tests above, every structured output they pin is json.dumps of itself.
    for path in [*GOLDEN.glob("*.json"), *GOLDEN.glob("*.structured.out")]:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name
