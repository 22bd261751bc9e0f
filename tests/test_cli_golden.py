"""Golden output: every CLI report stays byte-identical.

The fixture `fixtures/cli_golden.json` maps each command line to its exit
code and the sha256 of its `--format json --no-timestamp` stdout.  The
commands are every command on every library model (plus
`cpl-sphere:8,4`), `wang --ungraded` and `gysin --ungraded` on the same
models, a seeded gap scan, a two-model gap scan of three larger random
shapes, and `wang`, `gysin` and `toomer` on two mixed-length models
written below.  A change to the arithmetic must leave every
representative, witness and report as it was.

Regenerate the fixture (only when an output change is intended, and say
why in the change log) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

from sullivan.cli import main
from sullivan.library import library

FIXTURE = Path(__file__).parent / "fixtures" / "cli_golden.json"
JSON_FLAGS = ["--format", "json", "--no-timestamp"]
LIBRARY_COMMANDS = ("validate", "verify", "cohomology", "bigraded", "toomer", "wang", "gysin")
EXTRA_LIBRARY_MODEL = "cpl-sphere:8,4"
SCAN_SHAPES = ((3, 3, 2), (2, 4, 2), (2, 3, 3))

# Mixed word lengths: d y2 and d w have terms of two lengths.  The first
# model opens with an odd sphere generator (Wang), the second with an even
# generator (Gysin).
MIXED_MODELS = {
    "wang-mixed.sul": (
        "gen u 3\ngen x1 2\ngen x2 4\ngen y1 3\ngen y2 7\ngen w 5\n"
        "d y1 = x1^2\n"
        "d y2 = x2^2 - 2*x1^4\n"
        "d w = x1*x2 + 2*x1^3\n"
    ),
    "gysin-mixed.sul": (
        "gen x1 2\ngen x2 4\ngen y1 3\ngen y2 7\ngen w 5\ngen u 3\n"
        "d y1 = x1^2\n"
        "d y2 = x2^2 + x1^4\n"
        "d w = -x1*x2 + x1^3\n"
    ),
}


def golden_commands() -> list[list[str]]:
    names = [m.name for m in library()] + [EXTRA_LIBRARY_MODEL]
    cmds = []
    for name in names:
        for kind in LIBRARY_COMMANDS:
            cmds.append([kind] + (["all"] if kind == "verify" else []) + ["--lib", name])
        for kind in ("wang", "gysin"):
            cmds.append([kind, "--ungraded", "--lib", name])
    cmds.append(["gap-scan", "--count", "30", "--evens", "2", "--odds", "3",
                 "--length", "2", "--seed", "1"])
    for evens, odds, length in SCAN_SHAPES:
        cmds.append(["gap-scan", "--count", "2", "--evens", str(evens), "--odds", str(odds),
                     "--length", str(length), "--seed", "7"])
    for fname in MIXED_MODELS:
        for kind in ("wang", "gysin", "toomer"):
            cmds.append([kind, "--model", fname])
    return cmds


def run_golden(model_dir: str) -> dict[str, dict]:
    """Run every golden command with `model_dir` as the working directory
    (a report names its model by the path it was given)."""
    for fname, text in MIXED_MODELS.items():
        Path(model_dir, fname).write_text(text, encoding="utf-8")
    out = {}
    cwd = os.getcwd()
    os.chdir(model_dir)
    try:
        for argv in golden_commands():
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(argv + JSON_FLAGS)
            digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
            out[" ".join(argv)] = {"exit": code, "sha256": digest}
    finally:
        os.chdir(cwd)
    return out


def test_cli_output_matches_golden_fixture(tmp_path):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = run_golden(str(tmp_path))
    assert sorted(got) == sorted(expected)
    changed = [k for k in expected if got[k] != expected[k]]
    assert not changed, f"{len(changed)} commands changed output, e.g. {changed[:5]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = run_golden(tmp)
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} commands to {FIXTURE}", file=sys.stderr)
