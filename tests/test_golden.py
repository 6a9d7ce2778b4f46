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

Every case runs through each entry: ``cli.main`` in process, ``python -m
normlens``, and the installed script's call of ``normlens.__main__.run``.
The process entries end with ``os._exit``, so these cases, and one whose
block-buffered stdout is a regular file, check that no byte is left unflushed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from normlens import emit_schema

from conftest import CASE_STUDY_PATH, fixture_copies, run_main, run_python

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = {
    "case_study": CASE_STUDY_PATH,
    "multi_relation": GOLDEN / "multi_relation.nls",
}


# Entry -> the interpreter arguments that start it, or None for cli.main in process.
ENTRIES = {
    "cli.main": None,
    "python-m-normlens": ["-m", "normlens"],
    "script-run": ["-c", "import sys; from normlens.__main__ import run; sys.exit(run())"],
}


def run_entry(entry, argv, stdin=b"", **streams):
    """(exit code, stdout, stderr) of ``normlens argv`` through ``entry``, as bytes.

    ``streams`` go to ``run_python``, whose children are buffered as a shell starts them.
    """
    if ENTRIES[entry] is None:
        code, out, err = run_main(argv, stdin)
        return code, out.encode("utf-8"), err.encode("utf-8")
    done = run_python(*ENTRIES[entry], *argv, stdin=stdin, **streams)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("mode", ["primary", "strict"])
@pytest.mark.parametrize("command", ["analyze", "normalize"])
@pytest.mark.parametrize("source", sorted(INPUTS))
@pytest.mark.parametrize("entry", ENTRIES)
def test_structured_output_matches_golden(entry, source, command, mode):
    argv = [command, str(INPUTS[source]), "--mode", mode, "--format", "structured"]
    code, out, err = run_entry(entry, argv)
    assert (code, err) == (0, b"")
    assert out == (GOLDEN / f"{source}.{command}.{mode}.json").read_bytes()


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
@pytest.mark.parametrize("entry", ENTRIES)
def test_command_output_matches_golden(entry, name):
    source, args, exit_code = COMMAND_CASES[name]
    if source in INPUTS:
        code, out, err = run_entry(entry, [*args, str(INPUTS[source])])
    else:
        data = (GOLDEN / f"{source}.nls").read_bytes()
        code, out, err = run_entry(entry, [*args, "-"], stdin=data)
    assert code == exit_code, err
    assert out == (GOLDEN / f"{name}.out").read_bytes()
    assert err == (b"" if source in INPUTS else (GOLDEN / f"{name}.err").read_bytes())


@pytest.mark.parametrize("entry", [entry for entry in ENTRIES if ENTRIES[entry]])
def test_a_large_output_to_a_regular_file_equals_the_in_process_bytes(tmp_path, case_study, entry):
    # A regular file is block-buffered, so the end of the report sits in the
    # buffer until the process entry flushes it.
    source = tmp_path / "copies.nls"
    source.write_text(emit_schema(fixture_copies(case_study, 10)), encoding="utf-8")
    argv = ["normalize", str(source), "--format", "structured"]
    code, expected, err = run_entry("cli.main", argv)
    assert (code, err) == (0, b"")
    assert len(expected) > 1_000_000
    with open(tmp_path / "out.json", "wb") as stdout:
        code, _out, err = run_entry(entry, argv, stdout=stdout)
    assert (code, err) == (0, b"")
    assert (tmp_path / "out.json").read_bytes() == expected


def test_each_structured_golden_is_json_dumps_of_itself():
    # With the tests above, every structured output they pin is json.dumps of itself.
    for path in [*GOLDEN.glob("*.json"), *GOLDEN.glob("*.structured.out")]:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name
