"""Check that two checkouts of sullivan give the same CLI output.

    python3 tools/same_output.py OLD NEW

OLD and NEW are repository roots.  In one subprocess per checkout, with
that checkout's `src` first on the path, the tool runs the benchmark's
command sets in process, as `bench/run.py` does:

- library-cli, seeds 1-2, passes 0-1;
- scan-large, seeds 1-2, passes 0-14;
- les-mixed, seeds 1-2, all 64 model pairs.

The commands come from the `bench/workloads.py` next to this tool, loaded
read-only, so both checkouts run the very same commands.  Every command
carries `--format json --no-timestamp`.  The child then runs the parser
surface, with `COLUMNS=80` in its environment: `--help` of the top level
and of each subcommand, and three argparse usage errors.  Last it writes
each model text of `MODEL_RUNS` to a file in its temporary working
directory, so that the reports name the same model in both checkouts, and
runs that model's commands on it, each as `<command> --model <file name>
--format json --no-timestamp`:

- `validate` on syntax errors and structural faults, among them a
  differential that is not triangular, whose `d-squared` lines apply the
  general Leibniz rule;
- `validate` and `cohomology` on edge cases of the polynomial reader that
  validate, one of them with fractions in the representatives;
- `cohomology`, `toomer`, `verify all`, `wang`, `gysin`, `wang --ungraded`
  and `gysin --ungraded` on the mixed-length models of the Toomer tests,
  pow(3,3), pow(4,3) and three pure models of the test corpus; the
  sequence whose parity does not fit the first generator exits 3 with its
  refusal.
- `cohomology` and `toomer` on the library models cp:2000 and
  cpl-sphere:2,2000, whose formal dimensions (4,000 and 4,003) take the
  monomial-basis table through thousands of degrees.

The tool hashes the exit code, stdout and stderr of every command, then
prints the number of commands and names the first command whose hash
differs.  Exit code 0 means identical output, 1 a difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = os.path.join(ROOT, "bench", "workloads.py")

# (workload, seeds, passes); les-mixed pass p runs model pair p
COMMAND_SETS = (
    ("library-cli", (1, 2), range(2)),
    ("scan-large", (1, 2), range(15)),
    ("les-mixed", (1, 2), range(64)),
)

SUBCOMMANDS = ("validate", "cohomology", "bigraded", "toomer", "wang", "gysin",
               "verify", "gap-scan", "library")
# argv lists that argparse answers on its own: help texts and usage errors
PARSER_ARGVS = ([["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]
                + [["frobnicate"], ["verify", "nope"], ["gap-scan", "--count", "x"]])

# Model files, each with the commands run on it.  Each right-hand side of
# a `d` line follows "gen x 2\ngen y 3\n", and each other text is a whole
# file.  `validate` runs on the faulty texts and the edge cases of the
# reader; `cohomology` also runs on the edge cases that validate, so that a
# coefficient the reader gets wrong shows in the representatives it prints.
_HEAD = "gen x 2\ngen y 3\n"
FAULTY_TEXTS = tuple(
    [_HEAD + line + "\n" for line in (
        # syntax errors, one per fault the reader names
        "d y = x +", "d y = 2 x", "d y = 2*3", "d y = 2*", "d y = x^a", "d y = x y",
        "gen z", "gen z 3/2", "d y x^2", "d z = x^2", "foo y 3",
        # a constant term
        "d y = 2",
    )]
    + [
        # one structural fault each
        "gen x 2\ngen y 3\ngen z 0\n",
        "gen x 2\ngen y 3\nd y = x^3\n",
        "gen y 3\ngen x 2\n\nd y = x^2\n",
        "gen u 3\ngen x 2\ngen w 7\n# u^2 = 0\nd w = u^2*x\n",
        # a sum that leaves and comes back
        "gen x 2\ngen u 3\ngen y 3\nd y = 0 + u + 2\n",
        # a differential that is not triangular: its d-squared lines apply
        # the general Leibniz rule, odd factors after an odd x_i included
        "gen g0 1\ngen g1 2\ngen g2 1\ngen g3 2\n"
        "d g0 = -g0*g2\nd g1 = g1*g2 + g0*g1\nd g2 = 2*g0*g2\nd g3 = -g0*g1 + 2*g0*g3\n",
    ]
)
VALID_TEXTS = tuple(
    # terms that cancel, a sum of equal monomials
    [_HEAD + line + "\n" for line in (
        "d y = x^2 - x^2", "d y = x^2 + 2 - 2", "d y = -3/2*x^2 + x*x")]
    + [
        # a generator declared after a `d` line
        "gen x 2\ngen y 3\nd y = x^2\ngen u 3\n",
        # example-5gen with a fraction in d y2: b_5 is spanned by
        # x2*y2 + 3/2*x2*y1 - x1*y3 and x2*y1 - x1*y2 - 3/2*x1*y1
        "gen x1 2\ngen x2 2\ngen y1 3\ngen y2 3\ngen y3 3\n"
        "d y1 = x1^2\nd y2 = x1*x2 - 3/2*x1^2\nd y3 = x2^2\n",
    ]
)


def _les_style(k: int, sphere_first: bool, dy2: str, dw: str) -> str:
    """A triangular pure model as in the les-mixed workload: d y1 = x1^2,
    d y2 = x2^k + a x1^(2k) + b x1^2 x2^(k-1), d w = c x1^3 + e x1 x2,
    and a free odd sphere u first or last."""
    gens = f"gen x1 2\ngen x2 4\ngen y1 3\ngen y2 {4 * k - 1}\ngen w 5\n"
    gens = "gen u 3\n" + gens if sphere_first else gens + "gen u 3\n"
    return gens + f"d y1 = x1^2\nd y2 = {dy2}\nd w = {dw}\n"


def _pow(n: int) -> str:
    """pow(n, 3): d y_i = x_i^3 for i = 1..n."""
    lines = ([f"gen x{i} 2" for i in range(1, n + 1)] + [f"gen y{i} 5" for i in range(1, n + 1)]
             + [f"d y{i} = x{i}^3" for i in range(1, n + 1)])
    return "\n".join(lines) + "\n"


# Models on which `cohomology`, `toomer`, `verify all` and both sequences,
# bigraded where the model allows and ungraded, run: mixed-length
# models, whose Toomer values rest on the length-keyed echelon of B^i (e0
# of a class is the shortest word length of its residual modulo B^i), and
# homogeneous pure models, whose representatives rest on the elimination.
REPORT_MODELS = {
    # two classes of H^8 whose residuals modulo B^8 share their shortest term
    "shared-shortest-term": (
        "gen x 2\ngen z 2\ngen y1 3\ngen y2 5\ngen y3 5\ngen y4 7\n"
        "d y1 = x*z + 2*x^2\n"
        "d y2 = x*z^2 + 2*x^2*z + 2*x^3\n"
        "d y3 = -z^3 + x*z^2 + 2*x^2*z - 2*x^3\n"
        "d y4 = x*z^3 + 4*x^2*z^2 + 4*x^3*z\n"),
    # les-style-<seed>-<k> is les_style_model(seed, seed % 2 == 0, k) of the
    # Toomer tests
    "les-style-0-2": _les_style(2, True, "x2^2 + 2*x1^2*x2 + 2*x1^4", "x1*x2 - 2*x1^3"),
    "les-style-1-2": _les_style(2, False, "x2^2 - 2*x1^2*x2 - x1^4", "-2*x1*x2 + x1^3"),
    "les-style-2-2": _les_style(2, True, "x2^2 - 2*x1^2*x2 - 2*x1^4", "x1*x2 - 2*x1^3"),
    "les-style-0-3": _les_style(3, True, "x2^3 + 2*x1^2*x2^2 + 2*x1^6", "x1*x2 - 2*x1^3"),
    "les-style-1-3": _les_style(3, False, "x2^3 - 2*x1^2*x2^2 - x1^6", "-2*x1*x2 + x1^3"),
    "les-style-2-3": _les_style(3, True, "x2^3 - 2*x1^2*x2^2 - 2*x1^6", "x1*x2 - 2*x1^3"),
    "pow-3-3": _pow(3),
    "pow-4-3": _pow(4),
    # corpus-<seed> is random_elliptic_model(seed) of the test corpus, with
    # differentials of length l and r = dim V^odd - dim V^even
    "corpus-1002": (  # l = 2, r = 0
        "gen x1 2\ngen x2 2\ngen y1 3\ngen y2 3\n"
        "d y1 = x1*x2 - x1^2\nd y2 = 2*x2^2 - 2*x1*x2 - x1^2\n"),
    "corpus-1003": (  # l = 2, r = 1
        "gen x1 2\ngen x2 2\ngen y1 3\ngen y2 3\ngen y3 3\n"
        "d y1 = x2^2 + 2*x1*x2 + x1^2\nd y2 = -2*x1*x2 + x1^2\nd y3 = 2*x1^2\n"),
    "corpus-1007": (  # l = 3, r = 0
        "gen x1 2\ngen x2 2\ngen y1 5\ngen y2 5\n"
        "d y1 = 2*x2^3 - 2*x1*x2^2 - x1^2*x2 + 2*x1^3\n"
        "d y2 = 2*x2^3 - 2*x1*x2^2 - 2*x1^2*x2 + x1^3\n"),
}

# Models whose formal dimension N is in the thousands, on which `cohomology`
# and `toomer` run: the monomial-basis table grows through every degree
# 0..N, far past the degrees of the other models.
DEEP_MODELS = {
    "cp-2000": "gen x 2\ngen y 4001\nd y = x^2001\n",  # cp:2000, N = 4000
    # cpl-sphere:2,2000, CP^1 x S^4001, N = 4003
    "cpl-sphere-2-2000": "gen u 4001\ngen x 2\ngen y 3\nd y = x^2\n",
}

# (file stem, model text, commands); each command runs as
# `<command> --model <stem>.sul --format json --no-timestamp`
MODEL_RUNS = tuple(
    [(f"faulty{i}", text, [["validate"]]) for i, text in enumerate(FAULTY_TEXTS)]
    + [(f"valid{i}", text, [["validate"], ["cohomology"]])
       for i, text in enumerate(VALID_TEXTS)]
    + [(name, text, [["cohomology"], ["toomer"], ["verify", "all"], ["wang"], ["gysin"],
                     ["wang", "--ungraded"], ["gysin", "--ungraded"]])
       for name, text in REPORT_MODELS.items()]
    + [(name, text, [["cohomology"], ["toomer"]]) for name, text in DEEP_MODELS.items()]
)

# Runs in the child: argv = [root, workloads path, command sets as JSON,
# parser argv lists as JSON, model runs as JSON].
CHILD = r"""
import contextlib, hashlib, importlib.util, io, json, os, sys

root, workloads_path, sets = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
parser_argvs, model_runs = json.loads(sys.argv[4]), json.loads(sys.argv[5])
sys.path.insert(0, os.path.join(root, "src"))
import sullivan.cli as cli

if not os.path.abspath(cli.__file__).startswith(os.path.join(root, "src", "")):
    sys.exit(f"sullivan imported from {cli.__file__}, not from {root}/src")
spec = importlib.util.spec_from_file_location("bench_workloads", workloads_path)
workloads = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = workloads
spec.loader.exec_module(workloads)
bench_root = os.path.dirname(os.path.dirname(workloads_path))
names = workloads.program_setup("library-cli")
out = []

def run(label, argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
    except Exception as exc:
        code = f"{type(exc).__name__}: {exc}"
    text = f"{code}\n{stdout.getvalue()}\n{stderr.getvalue()}"
    out.append([f"{label}: {' '.join(argv)}", str(code),
                hashlib.sha256(text.encode()).hexdigest()])

for name, seeds, passes in sets:
    for seed in seeds:
        wl = workloads.build(name, seed, bench_root, f"{name}-{seed}", names)
        for p in passes:
            for cmd in wl.commands(p):
                run(f"{name} seed {seed} pass {p}", cmd.argv)
for argv in parser_argvs:
    run("parser", argv)
for stem, text, commands in model_runs:
    with open(f"{stem}.sul", "w", encoding="utf-8") as f:
        f.write(text)
    for command in commands:
        run("model file", command + ["--model", f"{stem}.sul", "--format", "json",
                                     "--no-timestamp"])
print(json.dumps(out))
"""


def run(root: str) -> list[list[str]]:
    """[command, exit code, hash] for every command, run on checkout root."""
    sets = json.dumps([(name, list(seeds), list(passes)) for name, seeds, passes in COMMAND_SETS])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["COLUMNS"] = "80"  # argparse wraps help text to this width
    with tempfile.TemporaryDirectory() as cwd:  # les-mixed and MODEL_RUNS write models here
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, os.path.abspath(root), WORKLOADS, sets,
             json.dumps(PARSER_ARGVS), json.dumps(MODEL_RUNS)],
            cwd=cwd, env=env, capture_output=True, text=True,
        )
    if proc.returncode:
        sys.exit(f"{root}: the command run failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_output.py OLD NEW", file=sys.stderr)
        return 2
    old, new = (run(root) for root in argv)
    for (cmd, old_code, old_hash), (new_cmd, new_code, new_hash) in zip(old, new):
        if cmd != new_cmd:
            print(f"command lists differ: {cmd!r} against {new_cmd!r}")
            return 1
        if old_hash != new_hash:
            print(f"first difference: {cmd} (exit {old_code} against {new_code})")
            return 1
    if len(old) != len(new):
        print(f"{len(old)} commands against {len(new)}")
        return 1
    print(f"identical: {len(old)} commands, exit codes and output")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
