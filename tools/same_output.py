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
each text of `MODEL_TEXTS` (syntax errors, structural faults and edge cases
of the polynomial reader) to a file in its temporary working directory and
runs `validate --model <file name> --format json --no-timestamp` on it, so
that the report names the same model in both checkouts.  The tool hashes
the exit code, stdout and stderr of every command, then prints the number
of commands and names the first command whose hash differs.  Exit code 0
means identical output, 1 a difference.
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

# Model files for `validate`: each right-hand side of a `d` line follows
# "gen x 2\ngen y 3\n", and each other text is a whole file.
_HEAD = "gen x 2\ngen y 3\n"
MODEL_TEXTS = tuple(
    [_HEAD + line + "\n" for line in (
        # syntax errors, one per fault the reader names
        "d y = x +", "d y = 2 x", "d y = 2*3", "d y = 2*", "d y = x^a", "d y = x y",
        "gen z", "gen z 3/2", "d y x^2", "d z = x^2", "foo y 3",
        # terms that cancel, a constant term, a sum of equal monomials
        "d y = x^2 - x^2", "d y = x^2 + 2 - 2", "d y = -3/2*x^2 + x*x", "d y = 2",
    )]
    + [
        # one structural fault each
        "gen x 2\ngen y 3\ngen z 0\n",
        "gen x 2\ngen y 3\nd y = x^3\n",
        "gen y 3\ngen x 2\n\nd y = x^2\n",
        "gen u 3\ngen x 2\ngen w 7\n# u^2 = 0\nd w = u^2*x\n",
        # a generator declared after a `d` line; a sum that leaves and comes back
        "gen x 2\ngen y 3\nd y = x^2\ngen u 3\n",
        "gen x 2\ngen u 3\ngen y 3\nd y = 0 + u + 2\n",
    ]
)

# Runs in the child: argv = [root, workloads path, command sets as JSON,
# parser argv lists as JSON, model texts as JSON].
CHILD = r"""
import contextlib, hashlib, importlib.util, io, json, os, sys

root, workloads_path, sets = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
parser_argvs, model_texts = json.loads(sys.argv[4]), json.loads(sys.argv[5])
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
for i, text in enumerate(model_texts):
    with open(f"model{i}.sul", "w", encoding="utf-8") as f:
        f.write(text)
    run("model file", ["validate", "--model", f"model{i}.sul", "--format", "json",
                       "--no-timestamp"])
print(json.dumps(out))
"""


def run(root: str) -> list[list[str]]:
    """[command, exit code, hash] for every command, run on checkout root."""
    sets = json.dumps([(name, list(seeds), list(passes)) for name, seeds, passes in COMMAND_SETS])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["COLUMNS"] = "80"  # argparse wraps help text to this width
    with tempfile.TemporaryDirectory() as cwd:  # les-mixed and MODEL_TEXTS write models here
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, os.path.abspath(root), WORKLOADS, sets,
             json.dumps(PARSER_ARGVS), json.dumps(MODEL_TEXTS)],
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
