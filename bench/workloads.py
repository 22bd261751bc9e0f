"""Benchmark workloads: the CLI commands of each pass and the check of
every command's output.

A workload is built once per run from the workload seed.  `commands(p)`
gives the commands of pass p; the same (seed, p) always gives the same
commands.  Every command carries its expected exit code and a check of
its `--format json --no-timestamp` output, so a wrong answer counts as a
failed operation, not as a fast one.

The model generator for `les-mixed` uses only the standard library and
hands the program nothing but `.sul` text through `--model`.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

JSON_FLAGS = ["--format", "json", "--no-timestamp"]

# The seven per-model commands of library-cli.
LIBRARY_COMMANDS = ("validate", "verify", "cohomology", "bigraded", "toomer", "wang", "gysin")

# (command, library model) pairs that must exit 3, with the reason:
# bigraded tables are undefined on mixed-length models, the Wang sequence
# needs an odd first generator and the Gysin sequence an even one.
EXPECTED_EXIT_3 = frozenset(
    [("bigraded", f"mixed:{i}") for i in range(1, 6)]
    + [("wang", name) for name in (
        "example-5gen", "mixed:1", "mixed:2", "mixed:3", "mixed:4", "mixed:5",
        "sphere:2", "sphere:4", "cp:2", "cp:3", "cp:4")]
    + [("gysin", name) for name in (
        "heisenberg", "nil4", "nil5", "sphere:3", "sphere:5", "sphere:7",
        "cpl-sphere:2,1", "cpl-sphere:3,1", "cpl-sphere:4,2", "cpl-sphere:8,4")]
)

# library-cli also runs every command on this model, the largest CP x sphere
# family member that still answers in well under a second.
EXTRA_LIBRARY_MODEL = "cpl-sphere:8,4"

# scan-large shapes: (evens, odds, length), one model of each per pass.
# Each model costs 4 to 8 times a library-cli gap-scan model.  The larger
# shapes 3/4/2 and 3/3/3 take about 5 s per model with a 15% spread from
# model to model, so a run would see only about eight of them.
SCAN_SHAPES = ((3, 3, 2), (2, 4, 2), (2, 3, 3))

# les-mixed: x1 has degree 2 and x2 degree 4, so d y2 = x2^2 + c x1^4 mixes
# word lengths 2 and 4.  The extra odd generator w gets the random
# differential a x1 x2 + b x1^3, of word lengths 2 and 3.
LES_EVEN_DEGREES = (2, 4)
LES_EXTRA_ODD = (("w", 5),)
LES_SPHERE_DEGREE = 3
LES_POOL = 64  # model pairs generated at set-up; pass p uses pair p mod LES_POOL


@dataclass(frozen=True)
class Command:
    """One CLI invocation, its expected exit code and its output check.

    `check` takes the parsed JSON document and returns an error message,
    or None when the output is correct."""

    argv: tuple[str, ...]
    expect_exit: int
    check: Callable[[dict], str | None] | None = None
    label: str = ""


def verify_outcome(cmd: Command, code: int, out: str) -> str | None:
    """Error message for a wrong exit code or output, None when correct."""
    if code != cmd.expect_exit:
        return f"{cmd.label}: exit {code}, expected {cmd.expect_exit}"
    try:
        doc = json.loads(out)
    except ValueError:
        return f"{cmd.label}: output is not one JSON document"
    if doc.get("command") != cmd.argv[0]:
        return f"{cmd.label}: report names command {doc.get('command')!r}"
    if cmd.check is not None:
        err = cmd.check(doc)
        if err:
            return f"{cmd.label}: {err}"
    return None


# -- shared output checks ----------------------------------------------------


def _check_valid(doc):
    return None if doc.get("valid") is True else "model reported invalid"


def _check_no_fail_verdict(doc):
    failed = [r["theorem"] for r in doc["reports"] if r["verdict"] == "fail"]
    return f"fail verdicts: {failed}" if failed else None


def _check_spectrum(doc, no_gaps: bool):
    spectrum = doc["spectrum"]
    if spectrum[0] != 1 or sum(spectrum[1:]) != doc["dim_h_plus"]:
        return f"spectrum {spectrum} does not add up to dim H+ = {doc['dim_h_plus']}"
    if len(spectrum) != doc["e0"] + 1:
        return f"spectrum length {len(spectrum)} != e0 + 1 = {doc['e0'] + 1}"
    if no_gaps and doc["gaps"]:
        return f"gaps {doc['gaps']}"
    return None


def _check_sequence(doc, n_total=None, m_quotient=None):
    if not doc["all_exact"]:
        return f"not exact at {[f['position'] for f in doc['failures']]}"
    rel = doc["dimension_relation"]
    if not rel["holds"]:
        return f"dimension relation fails: {rel}"
    if n_total is not None and rel["N"] != n_total:
        return f"formal dimension {rel['N']} != degree formula {n_total}"
    if m_quotient is not None and rel["M"] != m_quotient:
        return f"quotient formal dimension {rel['M']} != degree formula {m_quotient}"
    return None


def _check_betti(expected: dict[str, int]):
    def check(doc):
        err = _check_cohomology(doc)
        if err:
            return err
        got = {str(i): b for i, b in enumerate(doc["betti"]) if b}
        if got != expected:
            return f"betti {got} != fixture {expected}"
        return None
    return check


def _check_cohomology(doc):
    betti = doc["betti"]
    if len(betti) != doc["formal_dimension"] + 1 or betti[0] != 1 or betti[-1] != 1:
        return f"betti {betti} is not a Poincare duality table of dimension {doc['formal_dimension']}"
    if sum(betti) != doc["total_dimension"]:
        return f"total dimension {doc['total_dimension']} != sum of betti {sum(betti)}"
    return None


def _check_error(doc):
    return None if doc.get("error") else "no error message"


def _check_bigraded(doc):
    if len(doc["h"]) != doc["formal_dimension"] + 1:
        return "h table has the wrong number of rows"
    return None


def _check_gap_scan(count: int, evens: int, odds: int, length: int, seed: int):
    """Every record: e0 from the category formula, and no gaps."""
    e0 = odds + (length - 2) * evens

    def check(doc):
        records = doc["records"]
        if len(records) != count or doc["corpus_size"] != count:
            return f"{len(records)} records, expected {count}"
        seeds = sorted(r["seed"] for r in records)
        if seeds != list(range(seed, seed + count)):
            return f"record seeds {seeds}"
        for r in records:
            if r["e0"] != e0:
                return f"{r['model']}: e0 = {r['e0']} != category formula {e0}"
            if r["gaps"]:
                return f"{r['model']}: gaps {r['gaps']}"
        return None
    return check


def gap_scan_command(count: int, evens: int, odds: int, length: int, seed: int) -> Command:
    argv = ["gap-scan", "--count", str(count), "--evens", str(evens),
            "--odds", str(odds), "--length", str(length), "--seed", str(seed)]
    return Command(
        tuple(argv + JSON_FLAGS), 0,
        _check_gap_scan(count, evens, odds, length, seed),
        f"gap-scan {evens}/{odds}/l{length} seed {seed}",
    )


# -- library-cli -------------------------------------------------------------


def library_command(kind: str, name: str, betti_fixture: dict) -> Command:
    argv = [kind] + (["all"] if kind == "verify" else []) + ["--lib", name] + JSON_FLAGS
    expect = 3 if (kind, name) in EXPECTED_EXIT_3 else 0
    check = _check_error
    if expect == 0:
        if kind == "validate":
            check = _check_valid
        elif kind == "verify":
            check = _check_no_fail_verdict
        elif kind == "cohomology":
            fixture = betti_fixture.get(name)
            check = _check_betti(fixture) if fixture is not None else _check_cohomology
        elif kind == "bigraded":
            check = _check_bigraded
        elif kind == "toomer":
            check = lambda doc: _check_spectrum(doc, no_gaps=True)  # noqa: E731
        else:
            check = _check_sequence
    return Command(tuple(argv), expect, check, f"{kind} {name}")


class LibraryCli:
    """Every command on every library model, plus one 30-model gap scan.
    Every pass runs the same commands."""

    name = "library-cli"

    def __init__(self, seed: int, betti_fixture: dict, model_names: list[str]):
        names = list(model_names) + [EXTRA_LIBRARY_MODEL]
        cmds = [library_command(kind, n, betti_fixture) for n in names for kind in LIBRARY_COMMANDS]
        cmds.append(gap_scan_command(30, 2, 3, 2, seed))
        self._commands = cmds

    def commands(self, p: int) -> list[Command]:
        return self._commands


# -- scan-large --------------------------------------------------------------


class ScanLarge:
    """One gap-scan model of each shape per pass; pass p scans the models
    of gap-scan seed `seed * 1000 + p mod 1000`."""

    name = "scan-large"

    def __init__(self, seed: int):
        self.seed = seed

    def commands(self, p: int) -> list[Command]:
        scan_seed = self.seed * 1000 + p % 1000
        return [gap_scan_command(1, e, o, l, scan_seed) for e, o, l in SCAN_SHAPES]


# -- les-mixed ---------------------------------------------------------------


def _monomial_text(exps, names) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _even_monomials(degrees, target: int, min_length: int) -> list[tuple[int, ...]]:
    """Exponent tuples over the given even degrees with total degree
    `target` and word length >= min_length, in lexicographic order."""
    out = []

    def rec(i, remaining, prefix):
        if i == len(degrees):
            if remaining == 0 and sum(prefix) >= min_length:
                out.append(tuple(prefix))
            return
        for e in range(remaining // degrees[i] + 1):
            rec(i + 1, remaining - e * degrees[i], prefix + [e])

    rec(0, target, [])
    return out


def _random_terms(rng: random.Random, monos, names) -> list[str]:
    """One signed term per monomial, with a random coefficient in
    {-2, -1, 1, 2}: every model of a pool has the same sparsity."""
    terms = []
    for m in monos:
        c = rng.choice((-2, -1, 1, 2))
        terms.append(f"{'+' if c > 0 else '-'} {abs(c)}*{_monomial_text(m, names)}")
    return terms


@dataclass(frozen=True)
class LesModel:
    """One generated model: its text and the formal dimensions of the
    model and of its quotient by the first generator, from the degrees."""

    text: str
    kind: str  # 'wang' (odd sphere generator first) or 'gysin' (even x1 first)
    formal_dimension: int
    quotient_formal_dimension: int


def _formal_dimension(degrees) -> int:
    return sum(d if d % 2 else 1 - d for d in degrees)


def les_model(rng: random.Random, kind: str) -> LesModel:
    """A triangular pure system d y_i = x_i^2 + f_i(x_1..x_(i-1)), with f_i
    of the same degree and word length >= 2, plus the odd generators of
    LES_EXTRA_ODD with random differentials in the even generators.

    Q[V^even]/(dV^odd) is finite because of the leading squares, so the
    model is elliptic; dropping x1 keeps the system triangular, so the
    Gysin quotient is elliptic too.  Both variants carry a free odd sphere
    generator u, so they cost about the same: the 'wang' variant puts it
    first, the 'gysin' variant last, keeping x1 first."""
    degrees = LES_EVEN_DEGREES
    xs = [f"x{i + 1}" for i in range(len(degrees))]
    sphere = [("u", LES_SPHERE_DEGREE)]
    gens = list(sphere) if kind == "wang" else []
    gens += list(zip(xs, degrees))
    gens += [(f"y{i + 1}", 2 * d - 1) for i, d in enumerate(degrees)]
    diffs = []
    for i, d in enumerate(degrees):
        lower = _even_monomials(degrees[:i], 2 * d, 2)
        terms = _random_terms(rng, [m + (0,) * (len(degrees) - i) for m in lower], xs)
        diffs.append(" ".join([f"d y{i + 1} = {xs[i]}^2"] + terms))
    for name, degree in LES_EXTRA_ODD:
        gens.append((name, degree))
        terms = _random_terms(rng, _even_monomials(degrees, degree + 1, 2), xs)
        diffs.append(" ".join([f"d {name} ="] + terms))
    if kind == "gysin":
        gens += sphere
    text = "".join(f"gen {n} {d}\n" for n, d in gens) + "".join(f"{line}\n" for line in diffs)
    all_degrees = [d for _, d in gens]
    return LesModel(text, kind, _formal_dimension(all_degrees), _formal_dimension(all_degrees[1:]))


def les_pool(seed: int, size: int = LES_POOL) -> list[tuple[LesModel, LesModel]]:
    """`size` (wang, gysin) model pairs, all from one seeded generator."""
    rng = random.Random(seed)
    return [(les_model(rng, "wang"), les_model(rng, "gysin")) for _ in range(size)]


class LesMixed:
    """Per pass, one (wang, gysin) model pair from a pool written at set-up:
    the sequence command, toomer and verify all on each model."""

    name = "les-mixed"

    def __init__(self, seed: int, workdir: str):
        self._pairs = []
        os.makedirs(workdir, exist_ok=True)
        for idx, pair in enumerate(les_pool(seed)):
            paths = []
            for model in pair:
                path = os.path.join(workdir, f"{model.kind}-{idx:02d}.sul")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(model.text)
                paths.append(os.path.relpath(path))
            self._pairs.append(list(zip(pair, paths)))

    def commands(self, p: int) -> list[Command]:
        cmds = []
        for model, path in self._pairs[p % len(self._pairs)]:
            n, m = model.formal_dimension, model.quotient_formal_dimension
            label = os.path.basename(path)
            cmds.append(Command(
                (model.kind, "--model", path, *JSON_FLAGS), 0,
                lambda doc, n=n, m=m: _check_sequence(doc, n, m), f"{model.kind} {label}",
            ))
            cmds.append(Command(
                ("toomer", "--model", path, *JSON_FLAGS), 0,
                lambda doc: _check_spectrum(doc, no_gaps=False), f"toomer {label}",
            ))
            cmds.append(Command(
                ("verify", "all", "--model", path, *JSON_FLAGS), 0,
                _check_no_fail_verdict, f"verify all {label}",
            ))
        return cmds


WORKLOADS = ("library-cli", "scan-large", "les-mixed")


def program_setup(name: str):
    """The program's own part of the workload's set-up, timed as `setup_s`:
    library-cli reads the model names from the program's library."""
    if name == "library-cli":
        from sullivan.library import library

        return [m.name for m in library()]
    return None


def build(name: str, seed: int, root: str, workdir: str, model_names=None):
    """The workload `name` for `seed`.  library-cli takes the model names
    from `program_setup` and the Betti tables from the test fixture;
    les-mixed writes its models under `workdir`."""
    if name == "library-cli":
        with open(os.path.join(root, "tests", "fixtures", "betti_tables.json"), encoding="utf-8") as fh:
            fixture = {k: v for k, v in json.load(fh).items() if not k.startswith("_")}
        return LibraryCli(seed, fixture, model_names)
    if name == "scan-large":
        return ScanLarge(seed)
    if name == "les-mixed":
        return LesMixed(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
