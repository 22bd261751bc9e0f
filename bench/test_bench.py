"""Self-tests of the benchmark: its output checks catch wrong answers,
tracing changes no output and is fully undone, and the layer times
account for the traced wall time.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


@pytest.fixture
def cli():
    import importlib

    return importlib.import_module("sullivan.cli")


def _library():
    return workloads.build("library-cli", 1, ROOT, "", workloads.program_setup("library-cli"))


def _failures(cli, commands):
    _, _, results = run.run_pass(cli, commands)
    return run.check_pass(commands, results)


def _command(wl, label):
    return next(c for c in wl.commands(0) if c.label == label)


def test_library_cli_has_147_library_commands_and_26_exit_3(cli):
    cmds = _library().commands(0)
    assert len(cmds) == 148
    assert sum(c.expect_exit == 3 for c in cmds) == 26 == len(workloads.EXPECTED_EXIT_3)
    assert cmds[-1].argv[0] == "gap-scan"


def test_correct_outputs_pass_their_checks(cli):
    wl = _library()
    picks = [_command(wl, label) for label in (
        "cohomology heisenberg", "cohomology mixed:5", "bigraded mixed:1",
        "wang cpl-sphere:3,1", "gysin cp:2", "toomer example-5gen", "verify mixed:4")]
    assert _failures(cli, picks) == []


def test_negative_control_corrupted_expectations_count_as_failures(cli):
    wl = _library()
    wrong_exit = dataclasses.replace(_command(wl, "bigraded mixed:1"), expect_exit=0)
    wrong_betti = workloads.library_command(
        "cohomology", "heisenberg", {"heisenberg": {"0": 1, "1": 3, "2": 2, "3": 1}})
    ok = _command(wl, "cohomology heisenberg")
    failures = _failures(cli, [wrong_exit, ok, wrong_betti])
    assert len(failures) == 2
    assert "exit 3, expected 0" in failures[0]
    assert "fixture" in failures[1]


def test_negative_control_gap_scan_category_formula(cli):
    good = workloads.gap_scan_command(3, 2, 3, 2, 11)
    # expect the formula for one more odd generator than the models have
    bad = dataclasses.replace(good, check=workloads._check_gap_scan(3, 2, 4, 2, 11))
    failures = _failures(cli, [good, bad])
    assert len(failures) == 1 and "category formula 4" in failures[0]


def test_les_generator_is_seeded_and_mixed():
    from sullivan.model import length_profile
    from sullivan.parser import parse_model

    assert workloads.les_pool(7, 4) == workloads.les_pool(7, 4)
    assert workloads.les_pool(7, 4) != workloads.les_pool(8, 4)
    for pair in workloads.les_pool(7, 4):
        for model in pair:
            parsed = parse_model(model.text)
            assert length_profile(parsed).kind == "bounded_below"
            assert parsed.generators[0].is_odd == (model.kind == "wang")


def test_tracer_restores_every_original_object(cli):
    import importlib

    verifiers = importlib.import_module("sullivan.verifiers")
    cohomology = sys.modules["sullivan.cohomology"]
    before = {
        "ALL_THEOREMS": dict(verifiers.ALL_THEOREMS),
        "cohomology.rank": cohomology.rank,
        "certify": vars(cohomology.CohomologyEngine)["certify"],
        "cli.main": cli.main,
    }
    tracer = Tracer().install()
    assert tracer.missing == []
    assert hasattr(cohomology.rank, "__bench_span__")
    assert hasattr(verifiers.ALL_THEOREMS["theorem2"], "__bench_span__")
    assert hasattr(vars(cohomology.CohomologyEngine)["certify"], "__bench_span__")
    assert len(Tracer.leftover_wrappers()) >= len(TARGETS)
    tracer.restore()
    assert Tracer.leftover_wrappers() == []
    assert verifiers.ALL_THEOREMS == before["ALL_THEOREMS"]
    assert all(verifiers.ALL_THEOREMS[k] is v for k, v in before["ALL_THEOREMS"].items())
    assert cohomology.rank is before["cohomology.rank"]
    assert vars(cohomology.CohomologyEngine)["certify"] is before["certify"]
    assert cli.main is before["cli.main"]


def test_layer_self_times_account_for_the_traced_wall_time(cli):
    commands = _library().commands(0)[:21]
    tracer = Tracer().install()
    try:
        wall, _, _ = run.run_pass(cli, commands)
    finally:
        tracer.restore()
    stats = tracer.stats
    assert stats.calls["cli.main"] == len(commands)
    layers = sum(stats.layer_self().values())
    other = wall - stats.root_time
    assert layers == pytest.approx(stats.root_time, rel=1e-9)
    assert 0 <= other < 0.05 * wall


PASS_COMMANDS = {"library-cli": 148, "scan-large": 3, "les-mixed": 6}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_is_byte_identical_and_correct(workload):
    # one untraced and one traced pass on the same inputs; any difference
    # in exit code or output bytes is a failed command
    result, lines = run.run(workload, 5, 0.01, trace=True)
    assert result["failed"] == 0, [line for line in lines if line.startswith("FAILED")]
    assert result["correct"] is True
    assert result["attempted"] == 2 * PASS_COMMANDS[workload]
    assert not os.path.exists(os.path.join(ROOT, ".bench_work"))
    assert Tracer.leftover_wrappers() == []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}


@pytest.mark.parametrize("rename", ["function", "method", "memo"])
def test_a_renamed_trace_target_makes_the_traced_run_incorrect(monkeypatch, rename):
    # the program renaming a traced function, method or memo must not pass
    # as a layer whose metrics fell to 0
    if rename == "memo":
        monkeypatch.setitem(tracer._MEMOS, "CohomologyEngine.full", "_renamed_full")
        lost = "cohomology.degree memo _renamed_full"
    else:
        target = (("linalg", "renamed_rank") if rename == "function"
                  else ("cohomology", "CohomologyEngine.renamed_full"))
        monkeypatch.setattr(tracer, "TARGETS", TARGETS + (target + ("cohomology.degree", None),))
        lost = ".".join(target)
    result, lines = run.run("scan-large", 5, 0.01, trace=True)
    assert result["failed"] == 0
    assert result["correct"] is False
    assert any(line.startswith("FAILED") and lost in line for line in lines)
    assert Tracer.leftover_wrappers() == []


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "library-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert not os.path.exists(tmp_path / ".bench_work")


def test_result_line_has_the_contract_keys():
    result, _ = run.run("library-cli", 2, 0.01, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
