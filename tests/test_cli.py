from __future__ import annotations

import io
import json

import pytest

from normlens.cli import main

from conftest import CASE_STUDY_PATH

FIXTURE = str(CASE_STUDY_PATH)


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
