from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import normlens.cli
import normlens.model
from normlens import emit_schema
from normlens.cli import build_parser, main
from normlens.fd import DEFAULT_KEY_CAP

from conftest import CASE_STUDY_PATH, REPO_ROOT
from corpus import random_multi_relation_schema

FIXTURE = str(CASE_STUDY_PATH)


def run_process(*argv, stdin=b"", stdout=subprocess.PIPE, closed=None, **env):
    """``python -m normlens argv`` against this checkout's sources.

    ``closed`` names a descriptor to close in the child before Python starts.
    """
    return subprocess.run(
        [sys.executable, "-m", "normlens", *argv],
        input=stdin,
        stdout=stdout,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), **env},
        preexec_fn=None if closed is None else lambda: os.close(closed),
        check=False,
    )


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
    common = {"input": "-", "mode": "primary", "format": "text", "key_cap": DEFAULT_KEY_CAP}
    for name in ("analyze", "normalize", "keys", "check"):
        trace = {"trace": False} if name == "normalize" else {}
        assert vars(parser.parse_args([name])) == {"command": name, **common, **trace}
        argv = [name, "--mode", "strict", "--format", "structured", "--key-cap", "3", FIXTURE]
        assert vars(parser.parse_args(argv)) == {
            "command": name, "input": FIXTURE, "mode": "strict", "format": "structured",
            "key_cap": 3, **trace,
        }
    for name in ("analyze", "keys", "check"):
        with pytest.raises(SystemExit) as excinfo:
            main([name, "--trace", FIXTURE])
        assert excinfo.value.code == 4
        assert "unrecognized arguments: --trace" in capsys.readouterr().err


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


@pytest.mark.parametrize("cap", ["0", "-5", "three"])
def test_non_positive_key_cap_is_a_usage_error(capsys, cap):
    with pytest.raises(SystemExit) as excinfo:
        main(["keys", FIXTURE, "--key-cap", cap])
    assert excinfo.value.code == 4
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "positive integer" in err


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
    done = run_process(
        "check", stdin=b"schema S\nrelation R(a, b) key(a)\n\xff\n", PYTHONIOENCODING="latin-1"
    )
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
        done = run_process(*argv, FIXTURE, stdout=full, PYTHONUNBUFFERED=unbuffered)
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


def test_keys_normalizes_the_fds_once(capsys, monkeypatch):
    calls = []
    original = normlens.model.normalize_fds

    def counting(fds):
        calls.append(len(fds))
        return original(fds)

    for module in (normlens.model, normlens.cli):
        monkeypatch.setattr(module, "normalize_fds", counting)
    code, out, _err = run(capsys, "keys", FIXTURE)
    assert code == 0
    assert "3 candidate key(s)" in out
    assert calls == [16]


COMMANDS = [["check"], ["analyze"], ["normalize"], ["normalize", "--trace"], ["keys"]]


def run_on_stdin(argv, text):
    stdin = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", stdin), contextlib.redirect_stdout(out):
        with contextlib.redirect_stderr(io.StringIO()):
            return main(argv), out.getvalue()


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_command_on_random_schemas_ends_with_a_documented_exit(seed):
    text = emit_schema(random_multi_relation_schema(random.Random(seed)))
    for command in COMMANDS:
        for mode in ("primary", "strict"):
            for format in ("text", "structured"):
                for cap in ("3", "20"):
                    argv = [*command, "--mode", mode, "--format", format, "--key-cap", cap]
                    code, out = run_on_stdin(argv, text)
                    assert code in (0, 2, 3), argv
                    if code == 0 and format == "structured":
                        json.loads(out)


@pytest.mark.parametrize("via", ["file", "stdin"])
def test_a_leading_byte_order_mark_is_ignored(capsys, tmp_path, via):
    def analyze(text):
        if via == "stdin":
            return run_on_stdin(["analyze"], text)
        path = tmp_path / "schema.nls"
        path.write_text(text, encoding="utf-8")
        return run(capsys, "analyze", str(path))[:2]

    text = "schema s\nrelation R(a, b) key(a)\nfd F1: a -> b\n"
    with_mark = analyze("\ufeff" + text)
    assert with_mark == analyze(text)
    assert with_mark[0] == 0


# -S keeps site from running .pth files, which import installed packages.
_IMPORTS_OUTSIDE_STDLIB = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import normlens.cli, normlens.__main__
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"normlens"}))
# The tool reads a file with open() and spells out its letters.
print(sorted(loaded & {"pathlib", "string"}))
"""


def test_the_cli_imports_nothing_outside_the_standard_library():
    done = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORTS_OUTSIDE_STDLIB, str(REPO_ROOT / "src")],
        capture_output=True,
        text=True,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n[]\n"


def test_every_exported_name_resolves_once():
    exported = normlens.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(normlens, name)] == []
