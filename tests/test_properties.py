"""Property tests: model text round-trips through the printer, and no
model text or argument list makes the CLI end outside its documented
exit codes."""

import contextlib
import io
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sullivan.algebra import Generator, monomial_basis  # noqa: E402
from sullivan.cli import main  # noqa: E402
from sullivan.model import make_model  # noqa: E402
from sullivan.parser import parse_model, print_model  # noqa: E402
from sullivan.verifiers import ALL_THEOREMS  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)

COEFFICIENTS = st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool)


@st.composite
def pure_models(draw):
    """A small pure model: even generators of degree 2 or 4 and odd ones
    whose differentials are random decomposable polynomials in the evens
    (so d^2 = 0); elliptic or not."""
    evens = draw(st.lists(st.sampled_from((2, 4)), min_size=1, max_size=3))
    odds = draw(st.lists(st.sampled_from((3, 5, 7)), min_size=1, max_size=3))
    gens = [(f"x{j}", d) for j, d in enumerate(evens)] + [(f"y{j}", d) for j, d in enumerate(odds)]
    even_gens = [Generator(j, name, d) for j, (name, d) in enumerate(gens[:len(evens)])]
    diffs = {}
    for name, degree in gens[len(evens):]:
        monos = [m for m in monomial_basis(even_gens, degree + 1) if sum(m) >= 2]
        if not monos:
            continue
        chosen = draw(st.lists(st.sampled_from(monos), max_size=3, unique=True))
        diffs[name] = {m + (0,) * len(odds): draw(COEFFICIENTS) for m in chosen}
    return make_model(gens, diffs)


@SETTINGS
@given(pure_models())
def test_parse_inverts_print(model):
    text = print_model(model)
    again = parse_model(text)
    assert again == model
    assert print_model(again) == text


@st.composite
def late_gen_texts(draw):
    """A pure model and its text with `gen` lines moved among and after
    the `d` lines, in order, each before the first `d` line naming it."""
    model = draw(pure_models())
    lines = print_model(model).splitlines()
    gens, ds = lines[:model.n_gens], lines[model.n_gens:]
    names = [set(re.findall(r"\w+", line)) for line in ds]
    first = [min([len(ds)] + [t for t, n in enumerate(names) if g.name in n])
             for g in model.generators]
    slots, at = [], 0  # gen j goes just before d line slots[j]
    for j in range(len(gens)):
        at = draw(st.integers(at, min(first[j:])))
        slots.append(at)
    moved = []
    for t in range(len(ds) + 1):
        moved += [line for line, slot in zip(gens, slots) if slot == t] + ds[t:t + 1]
    return model, "\n".join(moved) + "\n"


@SETTINGS
@given(late_gen_texts())
def test_late_gen_lines_parse_to_the_same_model(case):
    model, text = case
    assert parse_model(text) == model


@st.composite
def model_texts(draw):
    """The text of a small pure model with up to two edits: a line
    dropped, duplicated or replaced by junk."""
    lines = print_model(draw(pure_models())).splitlines()
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("drop", "duplicate", "junk")))
        if edit == "drop":
            del lines[j]
        elif edit == "duplicate":
            lines.insert(j, lines[j])
        else:
            lines[j] = draw(st.text(max_size=12))
        if not lines:
            break
    return "\n".join(lines) + "\n"


COMMANDS = st.sampled_from((["validate"], ["cohomology"], ["bigraded"], ["toomer"],
                            ["wang"], ["gysin"], ["verify", "all"]))


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.sul"


@SETTINGS
@given(model_texts(), COMMANDS)
def test_fuzzed_model_text_exits_with_a_documented_code(model_path, text, command):
    model_path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(command + ["--model", str(model_path)])
    assert code in (0, 2, 3, 4, 5)



SUBCOMMANDS = ("validate", "cohomology", "bigraded", "toomer", "wang", "gysin",
               "verify", "gap-scan", "library")
# small library models, and names that do not parse or do not exist
LIB_NAMES = ("sphere:2", "sphere:3", "cp:2", "heisenberg", "cpl-sphere:2,1", "mixed:1",
             "cp:0", "sphere:x", "cpl-sphere:1", "nope", "")
# stray options and words; none is a prefix of --out, so no file is written
JUNK = st.sampled_from(("--bogus", "-q", "--ungraded", "--lib", "--count", "--format",
                        "yaml", "7", "--")) | st.text(max_size=6).filter(
                            lambda t: not t.startswith("-"))


@st.composite
def argvs(draw):
    """A subcommand with a random selection of its options, gap-scan kept
    to at most two small models, and sometimes one junk token inserted
    anywhere after the subcommand."""
    command = draw(st.sampled_from(SUBCOMMANDS))
    argv = [command]
    if command == "verify":
        argv.append(draw(st.sampled_from(sorted(ALL_THEOREMS) + ["all", "theorem9"])))
    if command not in ("gap-scan", "library") and draw(st.integers(0, 3)):
        argv += ["--lib", draw(st.sampled_from(LIB_NAMES))]
    if command == "library" and draw(st.booleans()):
        argv += ["--emit", draw(st.sampled_from(LIB_NAMES))]
    if command in ("wang", "gysin") and draw(st.booleans()):
        argv.append("--ungraded")
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(("json", "text")))]
    if draw(st.booleans()):
        argv.append("--no-timestamp")
    if command == "gap-scan":
        argv += ["--count", str(draw(st.integers(-1, 2)))]
        for flag, low, high in (("--evens", 0, 2), ("--odds", 0, 3), ("--length", 1, 3),
                                ("--seed", 0, 9)):
            if draw(st.booleans()):
                argv += [flag, str(draw(st.integers(low, high)))]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(1, len(argv))), draw(JUNK))
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@SETTINGS
@given(argvs())
def test_fuzzed_argv_exits_with_a_documented_code(workdir, argv):
    with contextlib.chdir(workdir), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5), argv
