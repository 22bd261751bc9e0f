"""Benchmark of the sullivan CLI.

Runs one workload in this process, driving `sullivan.cli.main(argv)` as a
user would, in a closed loop (the next command starts when the last one
returns), for `--seconds` seconds.  Passes repeat until the time is used.
Every command's exit code and output are checked.

    python3 bench/run.py --workload library-cli --seed 1 --seconds 40 --trace 0

With `--trace 0` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics; with `--trace 1` passes alternate
untraced and traced on the same inputs, traced outputs must be
byte-identical to untraced ones, and the metrics are the per-layer ones.
The lines before it print every metric by name with its unit, host
information and any failed check.  Run from the repository root; see
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter, process_time

import workloads
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_SAMPLES = 16  # set-up is timed about this often, spread evenly over the run
SHOWN_FAILURES = 10


def _sullivan_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "sullivan" or n.startswith("sullivan.")}


def timed_setup(workload: str):
    """Import the program afresh and run its part of the workload's set-up
    (`workloads.program_setup`); returns (CLI module, its result, seconds).
    Only this is timed: the benchmark's own input generation is not."""
    for name in _sullivan_modules():
        del sys.modules[name]
    gc.collect()  # the dropped modules are garbage; keep their collection out of the timing
    start = perf_counter()
    cli = importlib.import_module("sullivan.cli")
    program_inputs = workloads.program_setup(workload)
    elapsed = perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src", "")):
        raise ImportError(f"sullivan imported from {cli.__file__}, not from {ROOT}/src")
    return cli, program_inputs, elapsed


def sample_setup(workload: str) -> float:
    """Time one more set-up between passes, then put back the modules the
    passes run on, so that the passes keep their warmed-up code."""
    kept = _sullivan_modules()
    _, _, elapsed = timed_setup(workload)
    for name in _sullivan_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    gc.collect()
    return elapsed


def run_pass(cli, commands):
    """Run the commands in order; returns (wall, cpu, [(latency, exit code,
    stdout)]).  An exception out of `main` is recorded as exit code None."""
    results = []
    cpu0 = process_time()
    t0 = perf_counter()
    for cmd in commands:
        buf = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(cmd.argv))
        except Exception as exc:  # a traceback is a failed command, not a crash
            code = None
            buf.write(f"{type(exc).__name__}: {exc}")
        results.append((perf_counter() - start, code, buf.getvalue()))
    return perf_counter() - t0, process_time() - cpu0, results


def check_pass(commands, results) -> list[str]:
    errors = []
    for cmd, (_, code, out) in zip(commands, results):
        err = workloads.verify_outcome(cmd, code, out)
        if err:
            errors.append(err)
    return errors


def layer_metrics(stats, wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass."""
    calls, self_t, incl, count = stats.calls, stats.self_time, stats.incl, stats.counters
    layer = stats.layer_self()
    adds = calls["linalg.echelon_add"]
    attempts = stats.edges[("cohomology.certify", "model.sample")]
    m = {
        "cohomology.certify_s": (stats.certify_outer, "s"),
        "cohomology.certify_calls": (calls["cohomology.certify"], "count"),
        "cohomology.degree_builds": (count["cohomology.degree_builds"], "count"),
        "cohomology.max_basis": (count["cohomology.max_basis"], "count"),
        "cohomology.dmatrix_s": (self_t["cohomology.dmatrix"], "s"),
        "cohomology.pd_s": (incl["cohomology.pd"], "s"),
        "cohomology.self_s": (layer["cohomology"], "s"),
        "linalg.elim_s": (layer["linalg"], "s"),
        "linalg.rank_calls": (calls["linalg.rank"], "count"),
        "linalg.kernel_calls": (calls["linalg.kernel"], "count"),
        "linalg.echelon_adds": (adds, "count"),
        "linalg.echelon_useful_ratio": (count["linalg.echelon_useful"] / adds if adds else 0.0, "ratio"),
        "linalg.cells": (count["linalg.cells"], "count"),
        "algebra.leibniz_s": (self_t["algebra.leibniz"], "s"),
        "algebra.leibniz_calls": (calls["algebra.leibniz"], "count"),
        "algebra.multiply_s": (self_t["algebra.multiply"], "s"),
        "algebra.multiply_calls": (calls["algebra.multiply"], "count"),
        "algebra.basis_s": (self_t["algebra.basis"], "s"),
        "algebra.basis_monomials": (count["algebra.basis_monomials"], "count"),
        "algebra.self_s": (layer["algebra"], "s"),
        "toomer.spectrum_s": (self_t["toomer.spectrum"], "s"),
        "toomer.quotient_s": (self_t["toomer.quotient"], "s"),
        "toomer.quotient_builds": (count["toomer.quotient_builds"], "count"),
        "toomer.class_s": (incl["toomer.class"], "s"),
        "toomer.class_calls": (calls["toomer.class"], "count"),
        "toomer.self_s": (layer["toomer"], "s"),
        "sequences.build_s": (self_t["sequences.build"], "s"),
        "sequences.exact_s": (self_t["sequences.exact"], "s"),
        "sequences.nodes": (count["sequences.nodes"], "count"),
        "sequences.self_s": (layer["sequences"], "s"),
        "cli.self_s": (layer["cli"], "s"),
        "cli.render_s": (self_t["cli.main"], "s"),
        "cli.argparse_s": (incl["cli.argparse"], "s"),
        "parser.parse_s": (self_t["parser.parse"], "s"),
        "parser.parse_calls": (calls["parser.parse"], "count"),
        "parser.print_s": (self_t["parser.print"], "s"),
        "parser.self_s": (layer["parser"], "s"),
        "model.validate_s": (self_t["model.validate"], "s"),
        "model.sample_s": (stats.sample_excl, "s"),
        "model.sample_attempts": (attempts, "count"),
        "model.sample_accept_ratio": (calls["model.sample"] / attempts if attempts else 0.0, "ratio"),
        "model.self_s": (layer["model"], "s"),
        "verifiers.self_s": (layer["verifiers"], "s"),
        "other_s": (wall - stats.root_time, "s"),
    }
    return m


def _median_metrics(samples: list[dict]) -> dict[str, tuple[float, str]]:
    return {name: (statistics.median(s[name][0] for s in samples), unit)
            for name, (_, unit) in samples[0].items()}


def _quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method, so it stays within the data)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _host() -> dict:
    try:
        load = [round(x, 2) for x in os.getloadavg()]
    except OSError:
        load = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg": load,
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns (result object, report lines)."""
    os.environ.pop("SULLIVAN_THREADS", None)
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}")
    try:
        cli, program_inputs, first_setup = timed_setup(workload)
        setup_times = [first_setup]
        wl = workloads.build(workload, seed, ROOT, workdir, program_inputs)
        tracer = Tracer() if trace else None
        passes, traced, errors = [], [], []
        latencies: dict[tuple, list[float]] = {}  # command argv -> latencies
        overheads, leftovers, traced_walls = [], [], []
        attempted = failed = 0
        start = last_setup = perf_counter()
        p = 0
        while True:
            unit_start = perf_counter()
            commands = wl.commands(p)
            wall, cpu, results = run_pass(cli, commands)
            passes.append((wall, cpu))
            for cmd, r in zip(commands, results):
                latencies.setdefault(cmd.argv, []).append(r[0])
            bad = check_pass(commands, results)
            attempted += len(commands)
            if tracer is not None:
                tracer.reset()
                tracer.install()
                try:
                    t_wall, _, t_results = run_pass(cli, commands)
                finally:
                    tracer.restore()
                leftovers += Tracer.leftover_wrappers()
                traced.append(layer_metrics(tracer.stats, t_wall))
                traced_walls.append(t_wall)
                overheads.append(t_wall - wall)
                bad += check_pass(commands, t_results)
                bad += [f"{cmd.label}: traced output differs from untraced output"
                        for cmd, r, t in zip(commands, results, t_results) if r[1:] != t[1:]]
                attempted += len(commands)
            failed += len(bad)
            errors += bad[: SHOWN_FAILURES - len(errors)]
            if perf_counter() - last_setup >= seconds / SETUP_SAMPLES:
                setup_times.append(sample_setup(workload))
                last_setup = perf_counter()
            p += 1
            unit = perf_counter() - unit_start
            if perf_counter() - start + unit / 2 >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # A command's latency is its median over the passes that ran it, so a
    # preempted sample moves no command across the 90th percentile.
    per_command = sorted(statistics.median(v) for v in latencies.values())
    end_to_end = {
        "wall_s": (statistics.median(w for w, _ in passes), "s"),
        "cpu_s": (statistics.median(c for _, c in passes), "s"),
        "cmd_p50_s": (statistics.median(per_command), "s"),
        "cmd_p90_s": (_quantile(per_command, 90), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    per_layer = {}
    if trace:
        per_layer = _median_metrics(traced)
        per_layer["trace_overhead_s"] = (statistics.median(overheads), "s")

    if leftovers:
        errors.append(f"wrappers left after the traced pass: {sorted(set(leftovers))}")
    lost = tracer.missing if trace else []
    if lost:
        errors.append(f"trace targets not found, their per-layer metrics would read 0: {lost}")
    correct = failed == 0 and not leftovers and not lost
    metrics = per_layer if trace else end_to_end
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    lines = [
        f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}",
        f"host {json.dumps(_host())}",
        f"passes {len(passes)}  commands attempted {attempted}  failed {failed}  "
        f"ops_failed_frac {failed / attempted:.4f}",
        f"command latencies (cmd_p50_s, cmd_p90_s): {len(per_command)} commands, "
        f"{sum(map(len, latencies.values()))} untraced samples",
        f"set-up samples (setup_s) {len(setup_times)}",
    ]
    lines.append("end-to-end (untraced passes):")
    lines += [f"  {k:28s} {v:14.6f} {u}" for k, (v, u) in end_to_end.items()]
    if trace:
        lines.append("per-layer (median over traced passes):")
        lines += [f"  {k:28s} {v:14.6f} {u}" for k, (v, u) in per_layer.items()]
        st = tracer.stats
        layers = st.layer_self()
        other = traced_walls[-1] - st.root_time
        lines.append(f"last traced pass: {traced_walls[-1]:.6f} s = layer self times "
                     f"{sum(layers.values()):.6f} s + other_s {other:.6f} s "
                     f"({100 * other / traced_walls[-1]:.2f}%)")
        lines += [f"  {k:28s} {v:14.6f} s" for k, v in layers.items()]
        lines.append("spans of the last traced pass (calls, inclusive s, self s; parents):")
        for span in sorted(st.calls, key=lambda s: -st.self_time[s]):
            parents = sorted(((n, par) for (s, par), n in st.edges.items() if s == span),
                             key=lambda x: -x[0])
            shown = ", ".join(f"{par or 'root'} x{n}" for n, par in parents[:4])
            lines.append(f"  {span:26s} {st.calls[span]:9d} {st.incl[span]:10.4f} "
                         f"{st.self_time[span]:10.4f}  <- {shown}")
    lines += [f"FAILED: {e}" for e in errors]
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
