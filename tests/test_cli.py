from __future__ import annotations

import argparse
import ast
import functools
import gc
import importlib
import io
import itertools
import json
import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normlens.cli
import normlens.model
from normlens import emit_schema
from normlens.cli import build_parser, main
from normlens.fd import DEFAULT_KEY_CAP

from conftest import (
    CASE_STUDY_PATH, REPO_ROOT, fixture_copies, run_main, run_python, start_python,
)
from corpus import random_multi_relation_schema

FIXTURE = str(CASE_STUDY_PATH)
GOLDEN = REPO_ROOT / "tests" / "golden"


def run_process(*argv, closed=None, **kwargs):
    """``python -m normlens argv`` through ``run_python``.

    ``closed`` names a descriptor to close in the child before Python starts.
    """
    preexec_fn = None if closed is None else lambda: os.close(closed)
    return run_python("-m", "normlens", *argv, preexec_fn=preexec_fn, **kwargs)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_text(capsys):
    code, out, err = run(capsys, "analyze", FIXTURE)
    assert code == 0
    assert "NC = 1.62" in out
    assert out.splitlines()[-1] == "1.62"
    assert err == ""


def test_analyze_structured(capsys):
    code, out, err = run(capsys, "analyze", FIXTURE, "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "schema_nc"
    assert payload["total"]["display"] == "1.62"


def test_analyze_strict_mode(capsys):
    code, out, _err = run(capsys, "analyze", FIXTURE, "--mode", "strict")
    assert code == 0
    assert "[strict mode]" in out


def test_normalize_totals(capsys):
    code, out, _err = run(capsys, "normalize", FIXTURE)
    assert code == 0
    for value in ("1.62", "6.71", "11.75", "16.00"):
        assert value in out


def test_normalize_trace_snapshots(capsys):
    code, out, _err = run(capsys, "normalize", FIXTURE, "--trace")
    assert code == 0
    assert "schema after step 1:" in out
    assert "    relation StaffPropertyInspection_propertyNo(propertyNo, pAddress) key(propertyNo)" in out


def test_keys_lists_all_three(capsys):
    code, out, _err = run(capsys, "keys", FIXTURE)
    assert code == 0
    assert "relation StaffPropertyInspection: 3 candidate key(s)" in out
    assert "  (iDate, propertyNo)" in out
    assert "  (carReg, iDate, iTime)" in out
    assert "  (iDate, iTime, staffNo)" in out


def test_keys_structured(capsys):
    code, out, _err = run(capsys, "keys", FIXTURE, "--format", "structured")
    payload = json.loads(out)
    assert payload["kind"] == "candidate_keys"
    assert payload["relations"][0]["keys"] == [
        ["iDate", "propertyNo"],
        ["carReg", "iDate", "iTime"],
        ["iDate", "iTime", "staffNo"],
    ]


def test_check_ok(capsys):
    code, out, err = run(capsys, "check", FIXTURE)
    assert code == 0
    assert out.startswith("ok: PropertyInspection: 1 relation(s), 16 fd(s)")
    assert err == ""


def test_check_validation_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.nls"
    bad.write_text("schema s\nrelation R(a, b) key(a)\nfd F1: a -> a\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert out == "invalid: 1 error(s)\n"
    assert "TRIVIAL" in err or "trivial" in err


def test_parse_error_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.nls"
    bad.write_text("schema s\nrelation R(a key(a)\n")
    code, _out, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "error" in err


def test_capacity_error_exits_3(capsys):
    code, _out, err = run(capsys, "keys", FIXTURE, "--key-cap", "3")
    assert code == 3
    assert "capped at 3" in err


def test_strict_analyze_hits_the_key_cap_too(capsys):
    code, _out, err = run(
        capsys, "analyze", FIXTURE, "--mode", "strict", "--key-cap", "3"
    )
    assert code == 3
    assert "capped at 3" in err
    # Only strict mode searches for keys, so the line says which mode needed it.
    assert err == (
        "normlens: relation 'StaffPropertyInspection' has 8 attributes;"
        " candidate-key search is capped at 3 (--mode strict needs the key search)\n"
    )


def test_strict_normalize_names_the_mode_at_the_key_cap(capsys):
    code, out, err = run(capsys, "normalize", FIXTURE, "--mode", "strict", "--key-cap", "3")
    assert (code, out) == (3, "")
    assert err.endswith("capped at 3 (--mode strict needs the key search)\n")
    assert err.count("\n") == 1


def test_strict_normalize_refuses_a_half_wider_than_the_key_cap():
    # R is UNF, so only its split-off half R_a(a, b, d, e) meets the key search.
    text = (
        b"schema s\nrelation R(k, c*, a, b, d, e) key(k)\nfd K: k -> c, a\n"
        b"fd F: a -> b, d, e\n"
    )
    code, out, err = run_main(["normalize", "--mode", "strict", "--key-cap", "3"], text)
    assert (code, out) == (3, "")
    assert err == (
        "normlens: relation 'R_a' has 4 attributes; candidate-key search is capped at 3"
        " (--mode strict needs the key search)\n"
    )
    # At a cap of 4 the half is keyed, and the run stops on R, which no split atomizes.
    assert run_main(["normalize", "--mode", "strict", "--key-cap", "4"], text)[0] == 2


def test_check_with_syntax_error_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.nls"
    bad.write_text("schema s\nrelation R(a key(a)\n")
    code, out, _err = run(capsys, "check", str(bad))
    assert code == 1
    assert out.startswith("invalid:")


def test_undecomposable_schema_exits_2(capsys, tmp_path):
    stuck = tmp_path / "stuck.nls"
    stuck.write_text("schema s\nrelation R(a, b*) key(a)\n")
    code, _out, err = run(capsys, "normalize", str(stuck))
    assert code == 2
    assert "no preventing" in err


def test_usage_errors_exit_4(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus"])
    assert excinfo.value.code == 4
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 4


def test_the_command_table(capsys):
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert [(c.dest, c.help) for c in commands._choices_actions] == [
        ("analyze", "classify, partition and score every relation"),
        ("normalize", "decompose until every relation is in BCNF"),
        ("keys", "list candidate keys per relation"),
        ("check", "parse and validate only"),
    ]
    # Every command reads trace (False where --trace is not accepted).
    common = {"input": "-", "mode": "primary", "format": "text", "key_cap": DEFAULT_KEY_CAP}
    for name in ("analyze", "normalize", "keys", "check"):
        assert vars(parser.parse_args([name])) == {"command": name, **common, "trace": False}
        argv = [name, "--mode", "strict", "--format", "structured", "--key-cap", "3", FIXTURE]
        assert vars(parser.parse_args(argv)) == {
            "command": name, "input": FIXTURE, "mode": "strict", "format": "structured",
            "key_cap": 3, "trace": False,
        }
    for name in ("analyze", "keys", "check"):
        with pytest.raises(SystemExit) as excinfo:
            main([name, "--trace", FIXTURE])
        assert excinfo.value.code == 4
        assert "unrecognized arguments: --trace" in capsys.readouterr().err


# Tokens the argument reader must agree on with argparse: every command and flag,
# --trace after every command, abbreviations, = forms, values good and bad (one
# past int()'s digit limit), and what only argparse handles.
_SPELLINGS = (
    "analyze", "normalize", "keys", "check", "--mode", "--format", "--key-cap", "--trace",
    "--form", "--key-c", "--mode=strict", "--format=structured", "--key-cap=3", "--key-cap=",
    "--trace=1", "--", "-", "-h", "--help", "", "-name", "primary", "strict", "text",
    "structured", "0", "03", "x", "\u0663", "7" * 5000, FIXTURE,
)
# Five-token lists: a command, then options given again, reordered or abbreviated.
_REPEATS = ("--mode", "strict", "--format", "structured", "--key-cap", "03", "--trace", "-",
            FIXTURE, "--form")


def test_the_argument_reader_returns_what_argparse_returns_or_declines():
    parser = build_parser()
    lists = [argv for n in range(5) for argv in itertools.product(_SPELLINGS, repeat=n)]
    commands = normlens.cli._COMMANDS
    lists += [(c, *rest) for c in commands for rest in itertools.product(_REPEATS, repeat=4)]
    accepted = 0
    for argv in lists:
        read = normlens.cli._read_args(list(argv))
        if read is not None:
            # argparse exiting here (SystemExit) fails the test as well.
            assert vars(read) == vars(parser.parse_args(list(argv))), argv
            accepted += 1
    assert accepted > 1000
    assert normlens.cli._read_args(["keys", "--format", "structured", FIXTURE]) is not None
    # Spellings argparse also reads, left to it.
    for argv in (
        ["keys", "--form", "text"],
        ["keys", "--", FIXTURE],
        ["keys", "--key-cap", "3", "--key-cap", "4"],
    ):
        assert normlens.cli._read_args(argv) is None
        parser.parse_args(argv)


def test_missing_file_exits_4(capsys):
    code, _out, err = run(capsys, "analyze", "does-not-exist.nls")
    assert code == 4
    assert "cannot read" in err


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("schema s\nrelation R(a) key(a)\n"))
    code, out, _err = run(capsys, "analyze")
    assert code == 0
    assert "relation R: BCNF" in out


def test_warnings_go_to_stderr_and_structured_stdout_stays_parseable(capsys, tmp_path):
    doc = tmp_path / "warn.nls"
    doc.write_text("schema s\nrelation R(a, b) key(a)\n")
    code, out, err = run(capsys, "analyze", str(doc), "--format", "structured")
    assert code == 0
    assert "PRIMARY_KEY_NOT_SUPERKEY" not in out
    assert "does not determine" in err
    json.loads(out)


def test_repeated_runs_are_byte_identical(capsys):
    first = run(capsys, "analyze", FIXTURE)
    second = run(capsys, "analyze", FIXTURE)
    assert first == second
    third = run(capsys, "normalize", FIXTURE, "--format", "structured")
    fourth = run(capsys, "normalize", FIXTURE, "--format", "structured")
    assert third == fourth


@pytest.mark.parametrize(
    "cap", ["0", "-5", "three", pytest.param("7" * 5000, id="past-the-int-digit-limit")]
)
def test_non_positive_key_cap_is_a_usage_error(capsys, cap):
    with pytest.raises(SystemExit) as excinfo:
        main(["keys", FIXTURE, "--key-cap", cap])
    assert excinfo.value.code == 4
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"argument --key-cap: expected a positive integer, got {cap!r}\n" in err


def test_non_utf8_input_exits_4_with_one_line(capsys, tmp_path):
    bad = tmp_path / "latin1.nls"
    bad.write_bytes("schema s\nrelation R(caf\xe9) key(caf\xe9)\n".encode("latin-1"))
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 4
    assert out == ""
    assert err.startswith(f"normlens: cannot read {bad}: not valid UTF-8")
    assert err.count("\n") == 1


def test_non_utf8_stdin_exits_4_with_one_line(capsys, monkeypatch):
    stdin = io.TextIOWrapper(
        io.BytesIO(b"schema s\n\xff\n"), encoding="utf-8", errors="surrogateescape"
    )
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "check")
    assert code == 4
    assert out == ""
    assert err.startswith("normlens: cannot read <stdin>: not valid UTF-8")
    assert err.count("\n") == 1


def test_non_utf8_stdin_is_decoded_as_utf8_whatever_the_stdin_encoding():
    text = b"schema S\nrelation R(a, b) key(a)\n\xff\n"
    done = run_process("check", stdin=text, env={"PYTHONIOENCODING": "latin-1"})
    assert done.returncode == 4
    assert done.stdout == b""
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("normlens: cannot read <stdin>: not valid UTF-8")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv", [["check"], ["normalize", "--format", "structured"]])
def test_write_failure_exits_4_with_one_line(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        done = run_process(*argv, FIXTURE, stdout=full, env={"PYTHONUNBUFFERED": unbuffered})
    assert done.returncode == 4
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("normlens: cannot write output: ")


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor in the child")
def test_closed_stdin_exits_4_with_one_line():
    done = run_process("check", closed=0)
    assert done.returncode == 4
    assert done.stdout == b""
    assert done.stderr.decode().splitlines() == ["normlens: cannot read <stdin>: stdin is closed"]


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor in the child")
def test_closed_stdout_exits_4_with_one_line():
    done = run_process("check", "-", stdin=CASE_STUDY_PATH.read_bytes(), closed=1)
    assert done.returncode == 4
    assert done.stderr.decode().splitlines() == ["normlens: cannot write output: stdout is closed"]


@pytest.mark.skipif(os.name != "posix", reason="closes a pipe under a running child")
def test_a_reader_that_stops_early_gets_a_prefix_and_exit_4(case_study, tmp_path):
    # The structured trace is written step by step, megabytes in all: far more
    # than a pipe holds, so the child is still writing when the pipe closes.
    path = tmp_path / "copies.nls"
    path.write_text(emit_schema(fixture_copies(case_study, 10)), encoding="utf-8")
    argv = ("normalize", "--format", "structured", str(path))
    full = run_process(*argv).stdout
    child = start_python("-m", "normlens", *argv)
    head = child.stdout.read(4096)
    child.stdout.close()
    lines = child.stderr.read().decode().splitlines()
    child.stderr.close()
    assert child.wait() == 4
    assert len(full) > 1_000_000
    assert head == full[:4096]
    assert len(lines) == 1
    assert lines[0].startswith("normlens: cannot write output: ")


_CHECK_STDIN = ("check", "--format", "structured", "-")


@functools.cache
def check_with_stderr(name):
    """``check`` of golden ``name`` read from stdin, with stderr piped: one child per name."""
    return run_process(*_CHECK_STDIN, stdin=(GOLDEN / f"{name}.nls").read_bytes())


@pytest.mark.skipif(
    os.name != "posix" or not os.path.exists("/dev/full"), reason="needs POSIX and /dev/full"
)
@pytest.mark.parametrize(
    "stderr, unbuffered",
    [("closed", ""), ("full", "1"), ("full", "")],
    ids=["closed", "full-unbuffered", "full-buffered"],
)
@pytest.mark.parametrize("name", ["repeated_names", "invalid"])
def test_a_closed_or_full_stderr_changes_neither_stdout_nor_the_exit_code(name, stderr, unbuffered):
    text = (GOLDEN / f"{name}.nls").read_bytes()
    expected = (GOLDEN / f"{name}.check.structured.out").read_bytes()
    with_stderr = check_with_stderr(name)
    assert with_stderr.stdout == expected
    assert with_stderr.stderr == (GOLDEN / f"{name}.check.structured.err").read_bytes()
    with open("/dev/full", "wb") as full:
        where = {"closed": 2} if stderr == "closed" else {"stderr": full}
        done = run_process(*_CHECK_STDIN, stdin=text, env={"PYTHONUNBUFFERED": unbuffered}, **where)
    assert done.stdout == expected
    assert done.returncode == with_stderr.returncode


def test_keys_normalizes_the_fds_once(capsys, monkeypatch):
    calls = []
    original = normlens.model.normalize_fds

    def counting(fds):
        calls.append(len(fds))
        return original(fds)

    # Schema._fd_index is the one caller; cli imports the name only for bench/tests.
    monkeypatch.setattr(normlens.model, "normalize_fds", counting)
    code, out, _err = run(capsys, "keys", FIXTURE)
    assert code == 0
    assert "3 candidate key(s)" in out
    assert calls == [16]


COMMANDS = [["check"], ["analyze"], ["normalize"], ["normalize", "--trace"], ["keys"]]


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_command_on_random_schemas_ends_with_a_documented_exit(seed):
    text = emit_schema(random_multi_relation_schema(random.Random(seed)))
    for command in COMMANDS:
        for mode in ("primary", "strict"):
            for format in ("text", "structured"):
                for cap in ("3", "20"):
                    argv = [*command, "--mode", mode, "--format", format, "--key-cap", cap]
                    code, out, _err = run_main(argv, text.encode())
                    assert code in (0, 2, 3), argv
                    if code == 0 and format == "structured":
                        json.loads(out)


@pytest.mark.parametrize("via", ["file", "stdin"])
def test_a_leading_byte_order_mark_is_ignored(capsys, tmp_path, via):
    def analyze(text):
        if via == "stdin":
            return run_main(["analyze"], text.encode())[:2]
        path = tmp_path / "schema.nls"
        path.write_text(text, encoding="utf-8")
        return run(capsys, "analyze", str(path))[:2]

    text = "schema s\nrelation R(a, b) key(a)\nfd F1: a -> b\n"
    with_mark = analyze("\ufeff" + text)
    assert with_mark == analyze(text)
    assert with_mark[0] == 0


# The one child program of the tests below. It runs one entry, then writes one JSON
# line on stderr: the exit code that ended the entry, the exits the process entry
# asked for, the modules loaded, and "module.name" for each function that a loaded
# normlens module defines. The process entry ends the process with os._exit; here
# that raises SystemExit instead, so the report reads the process as it would end.
# Each exit records its code and whether the collector was on.
_REPORT = """
import gc, os, sys
EXITS = []
def _exit(code):
    EXITS.append((code, gc.isenabled()))
    raise SystemExit(code)
os._exit = _exit
CODE = None
try:
    {entry}
except SystemExit as exc:
    CODE = exc.code
MODULES = sorted(sys.modules)
DEFINED = sorted(
    name + "." + attr
    for name, module in list(sys.modules.items()) if name.startswith("normlens")
    for attr, value in vars(module).items()
    if type(value) is type(_exit) and value.__module__ == name
)
import json
print(json.dumps(dict(code=CODE, exits=EXITS, modules=MODULES, defined=DEFINED)), file=sys.stderr)
"""


@functools.cache
def child_report(entry: str, *argv: str) -> tuple[bytes, dict]:
    """(stdout, report) of ``_REPORT`` running ``entry`` with ``argv``, one child per call.

    -S keeps site from running .pth files, which import installed packages.
    """
    done = run_python("-S", "-c", _REPORT.format(entry=entry), *argv)
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stderr)


def test_the_cli_imports_nothing_outside_the_standard_library():
    package = REPO_ROOT / "src" / "normlens"
    modules = [f"normlens.{path.stem}" for path in sorted(package.glob("*.py"))]
    assert {"normlens.__main__", "normlens.cli", "normlens.transform"} <= set(modules)
    _out, report = child_report(f"import {', '.join(modules)}")
    loaded = {name.partition(".")[0] for name in report["modules"]}
    assert sorted(loaded - set(sys.stdlib_module_names) - {"__main__", "normlens"}) == []
    # The tool reads a file with open() and spells out its letters.
    assert sorted(loaded & {"pathlib", "string"}) == []


def test_the_cli_imports_no_private_name_from_the_package():
    # cli builds each command's report and hands it to dsl.write_report; it
    # reaches no renderer or JSON helper of its own.
    tree = ast.parse((REPO_ROOT / "src" / "normlens" / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").partition(".")[0] == "normlens")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_every_exported_name_resolves_once(monkeypatch):
    exported = normlens.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(normlens, name)] == []
    # Each name is its home module's object, read there on every access.
    assert set(exported) == {*normlens._HOME, "__version__"}
    for name, module in normlens._HOME.items():
        home = importlib.import_module(f"normlens.{module}")
        value = getattr(normlens, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
    replacement = object()
    monkeypatch.setattr(normlens.fd, "closure", replacement)
    assert normlens.closure is replacement


# "python -m normlens" and the installed script's entry.
_ENTRIES = (
    "import runpy; runpy.run_module('normlens', run_name='__main__')",
    "from normlens.__main__ import run; run()",
)
_SCORING = {"normlens.classify", "normlens.completeness", "normlens.transform"}
# Structured output needs only the C string encoder, not the json package.
_JSON = {"json", "json.decoder", "json.scanner"}
# Scores are integer ratios; only a library read of a score builds a Fraction.
_FRACTIONS = {"fractions", "decimal", "numbers"}
# Records (model._Record), not dataclasses: it imports inspect, and compiles methods per class.
_GENERATED_CODE = {"dataclasses", "inspect"}
# argparse imports gettext, which imports locale, and its help formatter imports shutil;
# only help and usage errors build the parser. Annotations need no typing at run time.
_PARSER_AND_TYPING = {"argparse", "gettext", "locale", "shutil", "typing"}


def loaded_modules(entry: str, *argv: str) -> set[str]:
    return set(child_report(entry, *argv)[1]["modules"])


def test_importing_the_package_loads_no_submodule():
    loaded = loaded_modules("import normlens")
    assert "normlens" in loaded
    assert {name for name in loaded if name.startswith("normlens.")} == set()
    assert loaded & _GENERATED_CODE == set()


# Each library layer and the normlens modules its import loads: the scoring layers
# load no parser, and the parser loads no scoring or trace layer.
_LIBRARY_IMPORTS = {
    "classify": {"classify", "errors", "fd", "model"},
    "completeness": {"classify", "completeness", "errors", "fd", "model"},
    "transform": {"classify", "completeness", "errors", "fd", "model", "transform"},
    "dsl": {"dsl", "errors", "fd", "model"},
}


@pytest.mark.parametrize("layer, loads", _LIBRARY_IMPORTS.items())
def test_importing_a_library_layer_loads_only_what_it_runs(layer, loads):
    loaded = loaded_modules(f"import normlens.{layer}")
    assert {name for name in loaded if name.startswith("normlens.")} == {
        f"normlens.{name}" for name in loads
    }
    assert loaded & (_JSON | _GENERATED_CODE | _PARSER_AND_TYPING | _FRACTIONS) == set()


_SCORE_RENDERERS = {
    "_rational", "_relation_nc", "_schema_nc", "_text_schema_nc", "_equation", "_term",
    "_exact", "_labels",
}
_TRACE_RENDERERS = {"_step", "_write_trace", "_text_trace"}
_ALL_RENDERERS = _SCORE_RENDERERS | _TRACE_RENDERERS | {"_relation", "_fds", "_schema"}


@pytest.mark.parametrize(
    "command, compiled, absent",
    [
        ("check", set(), _ALL_RENDERERS),
        ("keys", set(), _ALL_RENDERERS),
        ("analyze", _SCORE_RENDERERS, _TRACE_RENDERERS),
        ("normalize", _ALL_RENDERERS, set()),
    ],
)
def test_each_command_compiles_only_the_renderers_it_can_run(command, compiled, absent):
    # A renderer lives beside its record (completeness, transform), not in dsl or
    # cli, so a command that cannot reach it never compiles it.
    for entry in _ENTRIES:
        defined = child_report(entry, command, FIXTURE)[1]["defined"]
        names = {item.rpartition(".")[2] for item in defined}
        assert compiled <= names, entry
        assert sorted(item for item in defined if item.rpartition(".")[2] in absent) == [], entry


@pytest.mark.parametrize(
    "command, unused",
    [
        ("check", _SCORING),
        ("keys", _SCORING),
        ("analyze", {"normlens.transform"}),
        ("normalize", set()),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(command, unused):
    runs = [loaded_modules(entry, command, FIXTURE) for entry in _ENTRIES]
    loaded, each = set.union(*runs), set.intersection(*runs)  # by any entry, by every entry
    assert {"normlens.cli", "normlens.dsl", "normlens.model"} | (_SCORING - unused) <= each
    assert loaded & (unused | _JSON | _GENERATED_CODE | _PARSER_AND_TYPING | _FRACTIONS) == set()
    # Help and usage errors are still argparse's.
    usage = f"usage: normlens {command} [-h]"
    bad = run_python("-S", "-m", "normlens", command, "--mode", "bogus", FIXTURE)
    assert (bad.returncode, bad.stdout) == (4, b"")
    assert bad.stderr.decode().startswith(usage)
    assert "error: argument --mode: invalid choice: 'bogus'" in bad.stderr.decode()
    shown = run_python("-S", "-m", "normlens", command, "--help")
    assert (shown.returncode, shown.stderr) == (0, b"")
    assert shown.stdout.decode().startswith(usage)


def test_the_package_surface_is_complete_and_never_cached():
    for module in normlens._HOME.values():
        importlib.import_module(f"normlens.{module}")
    before = dict(vars(normlens))
    namespace: dict[str, object] = {}
    exec("from normlens import *", namespace)
    assert set(normlens.__all__) <= set(namespace)
    assert set(normlens.__all__) <= set(dir(normlens))
    assert not hasattr(normlens, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        normlens.no_such_name  # noqa: B018
    assert vars(normlens) == before
    assert set(vars(normlens)) & set(normlens.__all__) == {"__version__"}


# The process entry turns the collector off for the whole run (normlens.__main__).
# That is safe only while a run builds no cycles whose number grows with its input.
_GC_ARGV = [
    [*command, "--mode", mode, "--format", format]
    for command in COMMANDS
    for mode in ("primary", "strict")
    for format in ("text", "structured")
]
_BROKEN_LINES = {
    "syntax error": "relation R(a key(a)\n",
    "unknown fd attribute": "fd Stray: nowhere -> elsewhere\n",
}


def cyclic_garbage(argv, text):
    """Unreachable objects in cycles that one ``cli.main`` run leaves behind."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        code = run_main(argv, text.encode())[0]
        return code, gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_a_run_leaves_no_more_cyclic_garbage_on_a_larger_input(case_study):
    small = CASE_STUDY_PATH.read_text(encoding="utf-8")
    large = emit_schema(fixture_copies(case_study, 40))
    cases = [(argv, "") for argv in _GC_ARGV]
    cases += [(["analyze", "--mode", "strict", "--key-cap", "3"], "")]
    cases += [(argv, line) for line in _BROKEN_LINES.values() for argv in (["check"], ["analyze"])]
    codes = set()
    for argv, broken in cases:
        code, garbage = cyclic_garbage(argv, small + broken)
        assert cyclic_garbage(argv, large + broken) == (code, garbage), argv
        codes.add(code)
    assert codes == {0, 1, 2, 3}


@pytest.mark.parametrize("enabled", [True, False])
def test_the_in_process_entry_leaves_the_collector_as_it_found_it(capsys, enabled):
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        for command in COMMANDS:
            assert run(capsys, *command, FIXTURE)[0] == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen), command
    finally:
        gc.enable()


def test_the_process_entry_pauses_the_collector_and_exits_without_teardown():
    golden = (GOLDEN / "case_study.analyze.text.out").read_bytes()
    for entry in _ENTRIES:
        out, report = child_report(entry, "analyze", FIXTURE)
        assert out == golden, entry
        # os._exit(0) once, with the collector off
        assert (report["code"], report["exits"]) == (0, [[0, False]]), entry
