import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from typing import ForwardRef

import pytest

import sullivan
import sullivan.cli as cli
from sullivan.cli import main
from sullivan.library import model_text
from sullivan.sequences import build_wang
from sullivan.toomer import GapScanRecord
from les_controls import CORRUPTED_WITNESSES, corrupt_connecting_sign


def test_toomer_5gen(capsys):
    code = main(["toomer", "--lib", "example-5gen"])
    out = capsys.readouterr().out
    assert code == 0
    assert "e0 = 3" in out
    assert "[1, 2, 2, 1]" in out


def test_verify_all_cpl(capsys):
    code = main(["verify", "all", "--lib", "cpl-sphere:4,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "theorem2     pass" in out
    assert "fail" not in out.replace("not-applicable", "")


def test_cohomology_heisenberg(capsys):
    code = main(["cohomology", "--lib", "heisenberg"])
    out = capsys.readouterr().out
    assert code == 0
    for snippet in ["b_0 = 1", "b_1 = 2", "b_2 = 2", "b_3 = 1"]:
        assert snippet in out


def test_bigraded_command(capsys):
    code = main(["bigraded", "--lib", "example-5gen"])
    out = capsys.readouterr().out
    assert code == 0
    assert "n_k = [0, 2, 5, 7]" in out


def test_wang_gysin_commands(capsys):
    assert main(["wang", "--lib", "heisenberg"]) == 0
    assert main(["gysin", "--lib", "cp:2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_wang_wrong_parity_exit_3(capsys):
    assert main(["wang", "--lib", "cp:2"]) == 3


def test_model_file_loading(tmp_path, capsys):
    path = tmp_path / "model.sul"
    path.write_text(model_text("example-5gen"))
    code = main(["toomer", "--model", str(path)])
    out = capsys.readouterr().out
    assert code == 0 and "e0 = 3" in out


def test_validate_invalid_file_exit_3(tmp_path, capsys):
    path = tmp_path / "bad.sul"
    path.write_text("gen x 2\ngen y 3\nd y = x\n")
    code = main(["validate", "--model", str(path)])
    assert code == 3
    assert "line 3: y: degree-shift: term of degree 2, expected 4" in capsys.readouterr().out


def test_validate_reports_d_squared_violation(tmp_path, capsys):
    path = tmp_path / "dd.sul"
    path.write_text("gen x 2\ngen w 3\ngen y 4\nd w = x^2\nd y = x*w\n")
    code = main(["validate", "--model", str(path), "--format", "json", "--no-timestamp"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3 and payload["valid"] is False
    assert payload["violations"] == [
        {"generator": "y", "condition": "d-squared", "message": "d(d(y)) = x^3", "line": 5}]


def test_validate_library_model(capsys):
    code = main(["validate", "--lib", "mixed:3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "VALID" in out and "bounded_below" in out


def test_unknown_library_model_exit_3(capsys):
    assert main(["toomer", "--lib", "nope"]) == 3


def test_missing_model_flag_is_usage_error(capsys):
    assert main(["toomer"]) == 2


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_json_format_stable(capsys):
    code = main(["toomer", "--lib", "cp:2", "--format", "json", "--no-timestamp"])
    first = capsys.readouterr().out
    assert code == 0
    main(["toomer", "--lib", "cp:2", "--format", "json", "--no-timestamp"])
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["e0"] == 2 and "timestamp" not in doc


def test_json_has_timestamp_by_default(capsys):
    main(["toomer", "--lib", "cp:2", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert "timestamp" in doc


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["cohomology", "--lib", "sphere:3", "--format", "json",
                 "--no-timestamp", "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(path.read_text())
    assert doc["betti"] == [1, 0, 0, 1]


def test_human_numbers_live_in_machine_tree(capsys):
    # every number shown in prose must appear in the machine tree
    code = main(["toomer", "--lib", "example-5gen", "--no-timestamp", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["e0"] == 3
    assert doc["spectrum"] == [1, 2, 2, 1]
    assert any("e0 = 3" in line for line in doc["rendering"])


def test_library_list_and_emit(capsys):
    assert main(["library"]) == 0
    out = capsys.readouterr().out
    assert "example-5gen" in out and "cpl-sphere:<l>,<r>" in out
    assert main(["library", "--emit", "cp:3"]) == 0
    out = capsys.readouterr().out
    assert "gen x 2" in out and "d y = x^4" in out


def test_gap_scan_cli(capsys):
    code = main(["gap-scan", "--count", "2", "--seed", "11"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no gaps found" in out


def test_gap_scan_json_stable_per_seed(capsys):
    argv = ["gap-scan", "--count", "3", "--seed", "21", "--format", "json",
            "--no-timestamp"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_missing_model_file_exit_3(capsys):
    assert main(["toomer", "--model", "/nonexistent/path.sul"]) == 3


def test_window_flag_rejected(capsys):
    for command in ("cohomology", "bigraded", "toomer"):
        assert main([command, "--lib", "cp:2", "--window", "4"]) == 2


@pytest.mark.parametrize("argv, code", [
    (["cohomology", "--model", "{dir}"], 3),
    (["cohomology", "--model", "{binary}"], 3),
    (["gap-scan", "--evens", "3", "--odds", "1"], 2),
    (["gap-scan", "--length", "1"], 2),
    (["gap-scan", "--count", "-1"], 2),
    (["cohomology", "--model", "{zero_denominator}"], 3),
    (["library", "--out", "{dir}/missing/report.txt"], 2),
    (["cohomology", "--lib", "cp:2", "--format", "json", "--out", "{dir}"], 2),
    # 1,200 generators of degree 3 take the basis table past the work budget
    (["cohomology", "--model", "{many_generators}"], 3),
])
def test_bad_inputs_exit_with_one_line_message(tmp_path, capsys, argv, code):
    binary = tmp_path / "model.bin"
    binary.write_bytes(b"gen x 2\n\xff\xfe\x00")
    zero_denominator = tmp_path / "zero.sul"
    zero_denominator.write_text("gen x 2\ngen y 3\nd y = 1/0*x^2\n")
    many_generators = tmp_path / "many.sul"
    many_generators.write_text("".join(f"gen y{i} 3\n" for i in range(1200)))
    argv = [a.format(dir=tmp_path, binary=binary, zero_denominator=zero_denominator,
                     many_generators=many_generators)
            for a in argv]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1 and "error" in out


def test_gap_scan_includes_library(capsys):
    code = main(["gap-scan", "--count", "1", "--include-library", "--format",
                 "json", "--no-timestamp"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    names = [r["model"] for r in doc["records"]]
    assert "heisenberg" in names
    assert all(r["verdict"] == "no-gaps" for r in doc["records"])
    assert all("model_text" in r for r in doc["records"])


def test_verify_single_not_applicable_exit_3(capsys):
    # theorem3's hypothesis fails on the five-generator example: scripts
    # can tell not-applicable (3) from pass (0) and fail (4)
    assert main(["verify", "theorem3", "--lib", "example-5gen"]) == 3
    assert main(["verify", "theorem3", "--lib", "heisenberg"]) == 0
    # inside `verify all`, not-applicable entries do not poison the run
    assert main(["verify", "all", "--lib", "example-5gen"]) == 0


def test_inexact_sequence_renders_its_failures(monkeypatch, capsys):
    # a sign-corrupted connecting map breaks exactness at H^1_1(LW): the
    # failure reaches the JSON tree and the text line, witness and all
    monkeypatch.setattr(cli, "build_wang", lambda m, ungraded=False:
                        corrupt_connecting_sign(build_wang(m, ungraded)))
    assert main(["wang", "--lib", "nil4", "--format", "json", "--no-timestamp"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_exact"] is False
    assert doc["failures"][0] == {
        "position": "H^1_1(LW)", "role": "theta->j", "rank_in": 1, "kernel_out": 1,
        "composite_zero": False, "witness": ["0", "1", "1"]}
    assert doc["failures"][0]["witness"] == [
        str(x) for x in CORRUPTED_WITNESSES[("nil4", False)]]
    assert main(["wang", "--lib", "nil4"]) == 4
    assert ("  FAIL at H^1_1(LW) (theta->j): rank(in) = 1, dim ker(out) = 1, "
            "composite zero: False, witness: ['0', '1', '1']"
            in capsys.readouterr().out.splitlines())


def test_gap_scan_reports_a_found_gap(monkeypatch, capsys):
    record = GapScanRecord("m", "gen x 2\n", 1, 3, (1, 0, 1, 1), (1,))
    monkeypatch.setattr(cli, "gap_scan", lambda corpus: [record])
    argv = ["gap-scan", "--count", "0"]
    assert main(argv + ["--format", "json", "--no-timestamp"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["gaps_found"] == 1
    assert doc["records"][0]["verdict"] == "GAP FOUND"
    assert main(argv) == 4
    assert capsys.readouterr().out.splitlines()[-1] == (
        "*** 1 MODEL(S) WITH e0-GAPS -- research-grade finding, records preserved above ***")


def test_verdict_failure_exit_4(monkeypatch, capsys):
    from sullivan.verifiers import VerificationReport

    def fake_verify_all(model):
        return [VerificationReport("theorem2", "stub", "fail", {"A": "forced"}, {})]

    monkeypatch.setattr(cli, "verify_all", fake_verify_all)
    assert main(["verify", "all", "--lib", "sphere:2"]) == 4


def test_internal_error_exit_5(monkeypatch, capsys):
    from sullivan.cohomology import InternalInvariantError

    def boom(model):
        raise InternalInvariantError("synthetic breach")

    monkeypatch.setattr(cli, "e0_spectrum", boom)
    code = main(["toomer", "--lib", "sphere:2", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 5
    assert "synthetic breach" in doc["error"]


def test_model_and_lib_together_exit_2(tmp_path, capsys):
    path = tmp_path / "model.sul"
    path.write_text(model_text("cp:2"))
    assert main(["toomer", "--model", str(path), "--lib", "cp:2"]) == 2
    assert capsys.readouterr().out == "usage error: give either --model or --lib, not both\n"


def test_unexpected_exception_exit_5_one_line(monkeypatch, capsys):
    def boom(model):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr(cli, "e0_spectrum", boom)
    assert main(["toomer", "--lib", "sphere:2"]) == 5
    assert capsys.readouterr().out == "internal error: RuntimeError: first line\n"


def test_corrupted_integration_functional_exits_5(monkeypatch, capsys):
    from sullivan.linalg import Echelon

    functional = Echelon.functional
    # drop one support monomial of phi: its row no longer integrates right
    monkeypatch.setattr(Echelon, "functional",
                        lambda self, label: dict(list(functional(self, label).items())[1:]))
    assert main(["cohomology", "--lib", "example-5gen"]) == 5
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["internal invariant breach: integration on H^7: "
                     "phi(B^7) != 0 or phi(omega) != 1"]


def test_exit_code_contract_documented():
    assert cli.EXIT_OK == 0
    assert cli.EXIT_USAGE == 2
    assert cli.EXIT_VALIDATION == 3
    assert cli.EXIT_VERDICT == 4
    assert cli.EXIT_INTERNAL == 5


def test_unknown_model_message_is_not_quoted(capsys):
    # the message is printed as written, not as the repr of a KeyError
    assert main(["toomer", "--lib", "cp:0"]) == 3
    assert capsys.readouterr().out.strip() == "error: cp:0: n must be >= 1"
    assert main(["toomer", "--lib", "mixed:9"]) == 3
    out = capsys.readouterr().out.strip()
    assert out.startswith("error: unknown library model 'mixed:9'; available: ")
    assert not out.endswith(('"', "'"))
    assert main(["toomer", "--lib", "sphere:0"]) == 3
    assert capsys.readouterr().out.strip() == "error: sphere:0: dimension must be >= 1"
    assert main(["toomer", "--lib", "cpl-sphere:1,1"]) == 3
    assert capsys.readouterr().out.strip() == "error: cpl-sphere:1,1: need l >= 2, r >= 1"


def test_closed_stdout_keeps_exit_code_without_traceback():
    # the report (about 300 KB) is more than a pipe holds, so the command is
    # still writing when the reader goes away after the first line
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "sullivan.cli", "gap-scan", "--count", "1000",
         "--evens", "1", "--odds", "1", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 0
    assert err == b""


def test_cli_import_loads_no_dataclasses():
    # a @dataclass builds its methods by exec when its module is imported,
    # about 0.65 ms per class on every start; records are NamedTuples or
    # plain classes instead
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import sullivan.cli; "
            "print('dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out == "False\n", (
        "importing sullivan.cli loaded dataclasses: no module under src/sullivan "
        "may use @dataclass (use typing.NamedTuple or a plain class)")


def test_records_hold_no_string_annotations():
    # typing.NamedTuple turns every string field annotation (as `from
    # __future__ import annotations` makes them) into a ForwardRef when its
    # module is imported, which costs start-up time; evaluated ones cost none
    records = []
    for info in pkgutil.iter_modules(sullivan.__path__, "sullivan."):
        module = importlib.import_module(info.name)
        records += [obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, tuple)
                    and hasattr(obj, "_fields") and obj.__module__ == info.name]
    assert len(records) >= 10
    forward = [f"{r.__module__}.{r.__name__}.{field}" for r in records
                for field, ann in r.__dict__.get("__annotations__", {}).items()
                if isinstance(ann, (str, ForwardRef))]
    assert not forward, f"string annotations on records: {forward}"


@pytest.mark.parametrize("argv, n", [
    (["cohomology", "--model", "y.txt"], 99999999),
    (["toomer", "--model", "y.txt"], 99999999),
    (["verify", "all", "--model", "y.txt"], 99999999),
    (["cohomology", "--lib", "cp:100000"], 200000),
    (["toomer", "--lib", "cpl-sphere:2,999999"], 2000001),
], ids=["cohomology-file", "toomer-file", "verify-file", "cp", "cpl-sphere"])
def test_formal_dimension_past_the_degree_budget_exits_3(tmp_path, argv, n):
    # every report lists the degrees 0..N, so a huge N is refused before any
    # degree is built rather than running until it is killed
    (tmp_path / "y.txt").write_text("gen y 99999999\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "sullivan.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 3 and proc.stderr == ""
    assert proc.stdout.splitlines() == [
        f"error: the formal dimension {n} is over the degree budget of 100000"]
