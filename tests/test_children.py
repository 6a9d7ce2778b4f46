"""Every child Python the tests start goes through conftest's ``start_python``, in one environment."""

from __future__ import annotations

import ast
from pathlib import Path

from conftest import run_python


def test_only_conftest_imports_subprocess():
    importers = set()
    for path in Path(__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "subprocess" for name in names):
                importers.add(path.name)
    assert importers == {"conftest.py"}


def test_a_child_sees_none_of_the_callers_python_settings(monkeypatch):
    monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    monkeypatch.setenv("PYTHONIOENCODING", "ascii")
    code = "import os, sys; print(sorted(n for n in os.environ if n.startswith('PYTHON')))"
    done = run_python("-c", code + "; print(sys.stdout.write_through)")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == b"['PYTHONDONTWRITEBYTECODE', 'PYTHONPATH']\nFalse\n"
