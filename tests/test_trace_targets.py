"""The benchmark's tracer (`bench/tracer.py`) wraps functions, methods and
memos of the sullivan modules by name.  A rename here would make every
traced benchmark run incorrect, so this guard installs the tracer as it
is, runs commands that reach its memo probes and asserts that nothing it
looks for is missing.  The CLI is looked up when the test runs, not at
collection: `bench/run.py` drops and re-imports the sullivan modules, and
the tracer wraps the modules that are loaded when it is installed."""

import importlib.util
from pathlib import Path

from test_cli_golden import MIXED_MODELS

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_and_memo_probe_is_found(tmp_path, capsys):
    tracer_module = _load_tracer()
    cli = importlib.import_module("sullivan.cli")
    model = tmp_path / "gysin-mixed.sul"
    model.write_text(MIXED_MODELS["gysin-mixed.sul"])
    tracer = tracer_module.Tracer().install()
    try:
        # the mixed Toomer filtration reads the `_deg` memo, the bigraded
        # Gysin grid the `_strand` memo and every degree build `_full`
        codes = [cli.main(argv) for argv in (
            ["toomer", "--model", str(model)],
            ["bigraded", "--lib", "example-5gen"],
            ["gysin", "--lib", "example-5gen"],
        )]
    finally:
        tracer.restore()
    capsys.readouterr()
    assert codes == [0, 0, 0]
    assert tracer.missing == []
    counters = tracer.stats.counters
    assert counters["toomer.quotient_builds"] > 0
    assert counters["cohomology.degree_builds"] > 0
    assert tracer_module.Tracer.leftover_wrappers() == []
