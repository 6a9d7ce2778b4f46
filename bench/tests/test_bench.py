"""Tests of the benchmark itself: generators, oracles and the tracer.

Run from the repository root: ``python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "tests", ROOT / "src", BENCH):
    sys.path.insert(0, str(path))

import normlens  # noqa: E402
import normlens.cli as cli  # noqa: E402
from oracle import check_fixture_walk, check_output  # noqa: E402
from oracles import brute_force_keys  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import COMMANDS, bulk, decompose, fixture, keysearch  # noqa: E402

# Narrow enough for brute force, and covering every planted shape.
SMALL_SHAPES = ((9, (2, 3), "partial"), (10, (2, 3, 2), "transitive"), (8, (3,), None))


def small_workloads():
    return [bulk(7, copies=8), decompose(7, copies=3), keysearch(7, SMALL_SHAPES)]


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize(
    "build",
    [lambda s: bulk(s, copies=12), lambda s: decompose(s, copies=4), keysearch],
    ids=["bulk", "decompose", "keysearch"],
)
def test_generators_are_deterministic_per_seed(build):
    first, again, other = build(11), build(11), build(12)
    assert first == again
    assert other.text != first.text
    assert (other.relations, other.fds) == (first.relations, first.fds)


def test_planted_keys_match_brute_force():
    workload = keysearch(3, SMALL_SHAPES)
    schema = normlens.parse_schema(workload.text).schema
    assert schema is not None
    for relation, (name, planted) in zip(schema.relations, workload.expected.keys):
        assert relation.name == name
        oracle = [tuple(sorted(key)) for key in brute_force_keys(relation, schema.fds)]
        assert oracle == list(planted)


@pytest.mark.parametrize("workload", small_workloads(), ids=lambda w: w.name)
def test_every_command_passes_the_oracle(workload, tmp_path):
    path = tmp_path / "input.nls"
    path.write_text(workload.text, encoding="utf-8")
    for metric, args in COMMANDS.items():
        code, stdout = run_cli([*args, str(path)])
        assert code == 0
        assert check_output(metric, stdout, workload.expected) is None, metric


def test_fixture_walk_and_fixture_oracle():
    path = str(ROOT / "case_study.nls")
    for metric, args in COMMANDS.items():
        code, stdout = run_cli([*args, path])
        assert code == 0
        assert check_output(metric, stdout, fixture().expected) is None, metric
    assert check_fixture_walk(run_cli([*COMMANDS["normalize_s"], path])[1]) is None


def test_oracle_rejects_a_wrong_score():
    workload = decompose(1, copies=2)
    code, stdout = run_cli(["analyze", "--format", "structured", str(ROOT / "case_study.nls")])
    assert code == 0
    assert check_output("analyze_s", stdout, workload.expected) is not None
    wrong_walk = stdout.replace(b'"1.62"', b'"1.63"')
    assert check_fixture_walk(wrong_walk) is not None


def _namespaces() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "normlens" or name.startswith("normlens.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_tracer_patches_every_holder_and_restores_all():
    before = _namespaces()
    tracer = Tracer()
    closure = before[("normlens.fd", "closure")]
    normalize_fds = before[("normlens.model", "normalize_fds")]
    with tracer:
        # Modules that imported a function by name hold the wrapper too.
        for holder in (normlens.fd, normlens.classify, normlens):
            assert holder.closure.__wrapped__ is closure
        for holder in (normlens.model, normlens.cli, normlens.transform):
            assert holder.normalize_fds.__wrapped__ is normalize_fds
    assert _namespaces() == before
    assert all(_namespaces()[key] is value for key, value in before.items())

    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("boom")
    assert all(_namespaces()[key] is value for key, value in before.items())


def _traced_counts(path) -> dict[str, float]:
    tracer = Tracer()
    with tracer:
        for args in COMMANDS.values():
            assert run_cli([*args, str(path)])[0] == 0
    stats = summarize(tracer.spans, tracer.counters)
    return {name: value for name, value in stats.items() if not name.endswith("_s")}


def test_traced_counters_repeat_exactly(tmp_path):
    workload = keysearch(5, SMALL_SHAPES)
    path = tmp_path / "input.nls"
    path.write_text(workload.text, encoding="utf-8")
    first = _traced_counts(path)
    assert first == _traced_counts(path)
    for name in ("model.normalize_fds.fds_built", "fd.project_fds.scanned",
                 "fd.project_fds.kept", "fd.candidate_keys.subsets_tested",
                 "dsl.emit_report.bytes", "fd.closure.calls", "cli.main.calls"):
        assert first[name] > 0, name
    assert first["cli.main.calls"] == len(COMMANDS)
    assert first["transform.decompose_step.calls"] == len(workload.expected.moved)


def test_traced_run_reports_every_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = run.traced(keysearch(5, SMALL_SHAPES), ("keys_s", "analyze_strict_s"),
                        fixture(), seconds=0)
    assert result["calls"].failed == 0
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    assert (tmp_path / "spans-keysearch.csv").read_text().startswith("span,parent,")
