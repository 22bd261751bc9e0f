import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from sullivan.cli import main
from sullivan.library import library
from sullivan.model import (
    ModelValidationError,
    RandomModelParams,
    make_model,
    random_elliptic_model,
)
from sullivan.parser import ModelSyntaxError, parse_model, print_model

S2_TEXT = "gen x 2\ngen y 3\nd y = x^2\n"

FIVE_GEN_TEXT = """\
# the coformal five-generator example
gen x1 2
gen x2 2
gen y1 3
gen y2 3
gen y3 3
d y1 = x1^2
d y2 = x1*x2
d y3 = x2^2
"""


def test_parse_even_sphere():
    m = parse_model(S2_TEXT)
    assert [(g.name, g.degree) for g in m.generators] == [("x", 2), ("y", 3)]
    assert m.d_of(1) == {(2, 0): Fraction(1)}
    assert m.validated and m.simply_connected


def test_parse_five_generator_example():
    m = parse_model(FIVE_GEN_TEXT)
    assert m.n_gens == 5
    assert m.d_of(2) == {(2, 0, 0, 0, 0): Fraction(1)}
    assert m.d_of(3) == {(1, 1, 0, 0, 0): Fraction(1)}
    assert m.d_of(4) == {(0, 2, 0, 0, 0): Fraction(1)}


def test_parse_degree_mismatch_reports_line():
    text = "gen x 2\ngen y 3\nd y = x\n"
    with pytest.raises(ModelValidationError) as err:
        parse_model(text)
    assert [(v.condition, v.line) for v in err.value.violations] == [
        ("degree-shift", 3), ("decomposable", 3)]
    assert "line 3: y: degree-shift: term of degree 2, expected 4" in str(err.value)
    # a constant term is a monomial with every exponent 0
    with pytest.raises(ModelValidationError) as err:
        parse_model("gen x 2\ngen y 3\nd y = 2")
    assert [(v.condition, v.line) for v in err.value.violations] == [
        ("degree-shift", 3), ("decomposable", 3)]
    # a monomial whose sum reaches zero leaves the polynomial, so the 2
    # comes back after u and check_model names u first
    with pytest.raises(ModelValidationError) as err:
        parse_model("gen x 2\ngen u 3\ngen y 3\nd y = 0 + u + 2\n")
    assert "line 4: y: degree-shift: term of degree 3, expected 4: u;" in str(err.value)


def test_parse_unknown_generator():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("gen x 2\nd x = z^2\n")
    assert "unknown generator 'z'" in str(err.value)
    assert err.value.line == 2


def test_parse_non_triangular_reference():
    text = "gen y 3\ngen x 2\nd y = x^2\n"
    with pytest.raises(ModelValidationError) as err:
        parse_model(text)
    assert [(v.condition, v.line) for v in err.value.violations] == [("triangular", 3)]


def test_parse_bad_character_has_column():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("gen x 2\ngen y 3\nd y = x@2\n")
    assert err.value.line == 3 and err.value.column == 8


@pytest.mark.parametrize("line, column, fragment", [
    ("d y = x +", 10, "empty term"),  # one past the last token
    ("d y = 2 x", 9, "after a coefficient, found 'x'"),
    ("d y = 2*3", 9, "expected a generator name"),
    ("d y = 2*", 9, "expected a generator name"),
    ("d y = x^a", 9, "expected an integer exponent after '^'"),
    ("d y = x y", 9, "expected '*', '+' or '-', found 'y'"),
    ("gen z", 1, "expected: gen <name> <degree>"),
    ("gen z 3/2", 7, "degree must be an integer"),
    ("d y x^2", 1, "expected: d <name> = <polynomial>"),
    ("d z = x^2", 3, "unknown generator 'z'"),
    ("foo y 3", 1, "expected 'gen' or 'd', found 'foo'"),
])
def test_parse_error_names_line_column_and_fault(line, column, fragment):
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(f"gen x 2\ngen y 3\n{line}\n")
    assert (err.value.line, err.value.column) == (3, column)
    assert fragment in str(err.value)


def test_parse_redeclaration():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("gen x 2\ngen x 4\n")
    assert "redeclared" in str(err.value)


def test_parse_odd_square_rejected():
    with pytest.raises(ModelValidationError) as err:
        parse_model("gen u 3\ngen x 2\ngen w 7\nd w = u^2*x\n")
    assert [(v.condition, v.line) for v in err.value.violations] == [("monomial", 4)]
    assert "squares the odd generator u" in str(err.value)


# One file per structural fault: check_model reports it once, on the
# defining line (the `gen` line for a degree, the `d` line otherwise).
STRUCTURAL_FAULTS = [
    pytest.param("gen x 2\ngen y 3\ngen z 0\n", "degree", 3, id="degree"),
    pytest.param("gen x 2\ngen y 3\nd y = x^3\n", "degree-shift", 3, id="degree-shift"),
    pytest.param("gen y 3\ngen x 2\n\nd y = x^2\n", "triangular", 4, id="triangular"),
    pytest.param("gen u 3\ngen x 2\ngen w 7\n# u^2 = 0\nd w = u^2*x\n", "monomial", 5,
                 id="odd-square"),
]


@pytest.mark.parametrize("text, condition, line", STRUCTURAL_FAULTS)
def test_structural_fault_is_one_violation_on_its_line(text, condition, line, tmp_path, capsys):
    with pytest.raises(ModelValidationError) as err:
        parse_model(text)
    assert [(v.condition, v.line) for v in err.value.violations] == [(condition, line)]
    assert str(err.value).startswith(f"line {line}: ")
    path = tmp_path / "fault.sul"
    path.write_text(text, encoding="utf-8")
    code = main(["validate", "--model", str(path), "--format", "json", "--no-timestamp"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3 and payload["valid"] is False
    assert [(v["condition"], v["line"]) for v in payload["violations"]] == [(condition, line)]


def test_two_faulty_d_lines_report_both():
    text = "gen x 2\ngen y 3\ngen z 3\nd z = x^3\ngen w 7\nd w = x*y^2\n"
    with pytest.raises(ModelValidationError) as err:
        parse_model(text)
    assert [(v.generator, v.condition, v.line) for v in err.value.violations] == [
        ("z", "degree-shift", 4), ("w", "monomial", 6)]
    # the parser adds the line to a copy of each violation of the model itself
    with pytest.raises(ModelValidationError) as unparsed:
        make_model([("x", 2), ("y", 3), ("z", 3), ("w", 7)],
                   {"z": {(3, 0, 0, 0): 1}, "w": {(1, 2, 0, 0): 1}})
    assert [v.line for v in unparsed.value.violations] == [None, None]
    assert [(v.generator, v.condition, v.message) for v in err.value.violations] == [
        (v.generator, v.condition, v.message) for v in unparsed.value.violations]


def test_parse_double_definition():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("gen x 2\ngen y 3\nd y = x^2\nd y = x^2\n")
    assert "defined twice" in str(err.value)


def test_parse_rational_coefficients():
    m = parse_model("gen x 2\ngen y 3\nd y = 1/2*x^2\n")
    assert m.d_of(1) == {(2, 0): Fraction(1, 2)}


def test_parse_signs_and_sums():
    m = parse_model("gen x1 2\ngen x2 2\ngen y 3\nd y = -x1^2 + 2*x1*x2 - x2^2\n")
    assert m.d_of(2) == {
        (2, 0, 0): Fraction(-1),
        (1, 1, 0): Fraction(2),
        (0, 2, 0): Fraction(-1),
    }
    # equal monomials sum, and a sum of zero drops the monomial
    assert parse_model("gen x 2\ngen y 3\nd y = x^2 - x^2\n").d_of(1) == {}
    assert parse_model("gen x 2\ngen y 3\nd y = x^2 + 2 - 2\n").d_of(1) == {(2, 0): 1}
    assert parse_model("gen x 2\ngen y 3\nd y = -3/2*x^2 + x*x\n").d_of(1) == {
        (2, 0): Fraction(-1, 2)}


def test_parse_comments_and_blank_lines():
    text = "# heading\n\ngen x 2  # inline\n\ngen y 3\nd y = x^2 # trailing\n"
    m = parse_model(text)
    assert m.n_gens == 2


def test_parse_empty_model_rejected():
    with pytest.raises(ModelSyntaxError):
        parse_model("# nothing here\n")


def test_roundtrip_library():
    for m in library():
        again = parse_model(print_model(m), name=m.name)
        assert again == m, m.name


def test_roundtrip_random_models():
    shapes = [
        RandomModelParams(1, 2, 2),
        RandomModelParams(2, 2, 2),
        RandomModelParams(2, 3, 2),
        RandomModelParams(1, 2, 3, leading_odd_sphere=True),
    ]
    for seed in range(12):
        m = random_elliptic_model(seed, shapes[seed % len(shapes)])
        assert parse_model(print_model(m), name=m.name) == m


def test_roundtrip_fuzzed_coefficients():
    rng = random.Random(55)
    for _ in range(30):
        c1 = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        c2 = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        op = "-" if c2 < 0 else "+"
        text = (
            "gen x1 2\ngen x2 2\ngen y 3\n"
            f"d y = {c1}*x1^2 {op} {abs(c2)}*x1*x2\n"
        )
        m = parse_model(text)
        assert parse_model(print_model(m)) == m
        assert m.d_of(2)[(1, 1, 0)] == c2


def test_gen_line_after_d_lines(tmp_path):
    # a generator declared after a `d` line widens the monomials above it
    late = parse_model("gen x 2\ngen y 3\nd y = x^2\ngen u 3\n")
    assert late == parse_model("gen x 2\ngen y 3\ngen u 3\nd y = x^2\n")
    assert late.d_of(1) == {(2, 0, 0): Fraction(1)}
    path = tmp_path / "late.sul"
    path.write_text("gen x 2\ngen y 3\nd y = x^2\ngen u 3\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["cohomology", "--model", str(path)]) == 0
