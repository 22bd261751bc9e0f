import random
from fractions import Fraction

import pytest

from sullivan.algebra import apply_derivation, multiply
from sullivan.library import get_model, library
from sullivan.model import (
    GenerationBudgetError,
    ModelValidationError,
    QuotientError,
    RandomModelParams,
    check_model,
    length_profile,
    make_model,
    quotient_model,
    random_elliptic_model,
    validate,
)
from conftest import poly_add, random_polynomial
from les_controls import wang_derivation


def test_validate_even_sphere():
    m = make_model([("x", 2), ("y", 3)], {"y": {(2, 0): Fraction(1)}})
    assert m.validated


def test_validate_two_violations_for_dy_equals_y():
    from sullivan.algebra import Derivation, Generator
    from sullivan.model import SullivanModel

    gens = (Generator(0, "x", 2), Generator(1, "y", 3))
    bad = SullivanModel(gens, Derivation(1, ({}, {(0, 1): Fraction(1)})))
    violations = check_model(bad)
    assert len(violations) == 2
    assert {v.condition for v in violations} == {"degree-shift", "decomposable"}
    with pytest.raises(ModelValidationError):
        validate(bad)


@pytest.mark.parametrize("spec, diffs, fault", [
    ([("u", 3), ("w", 5)], {"w": {(2, 0): 1}}, "squares the odd generator u"),
    ([("x", 2), ("y", 3)], {"y": {(2,): 1}}, "has 1 exponents for 2 generators"),
    ([("x", 2), ("y", 3), ("z", 3)], {"z": {(2, 0, 0, 0): 1}}, "has 4 exponents"),
    ([("x", 2), ("y", 3)], {"y": {(3, -1): 1}}, "negative exponent"),
])
def test_validate_rejects_terms_that_are_no_monomial(spec, diffs, fault):
    # each used to validate and then fail inside the engine
    with pytest.raises(ModelValidationError) as err:
        make_model(spec, diffs)
    first = err.value.violations[0]
    assert first.condition == "monomial" and fault in first.message


def test_violation_names_the_term_in_the_file_notation():
    # a well-formed term is rendered as in a model file; a tuple that names
    # no term (a negative exponent) is kept as it is
    with pytest.raises(ModelValidationError) as err:
        make_model([("x", 2), ("y", 3), ("w", 7)], {"w": {(1, 2, 0): 1}})
    assert "w: monomial: term x*y^2 squares the odd generator y" in str(err.value)
    with pytest.raises(ModelValidationError) as err:
        make_model([("x", 2), ("y", 3)], {"y": {(3, 0): 1}})
    assert "y: degree-shift: term of degree 6, expected 4: x^3" in str(err.value)
    with pytest.raises(ModelValidationError) as err:
        make_model([("x", 2), ("y", 3)], {"y": {(3, -1): 1}})
    assert "term (3, -1) has a negative exponent" in str(err.value)
    assert "term of degree 3, expected 4: (3, -1)" in str(err.value)


def test_simple_connectivity_is_read_off_the_degrees():
    m = make_model(
        [("a", 1), ("b", 1), ("c", 1)],
        {"c": {(1, 1, 0): Fraction(1)}},
    )
    assert not m.simply_connected
    circle_times_s2 = make_model([("t", 1), ("x", 2), ("y", 3)], {"y": {(0, 2, 0): 1}})
    assert not circle_times_s2.simply_connected
    assert quotient_model(circle_times_s2, circle_times_s2.generators[0]).simply_connected


def test_validate_rejects_broken_d_squared():
    # dw = x^2, dy = x*w gives d^2(y) = x^3 != 0
    with pytest.raises(ModelValidationError) as err:
        make_model(
            [("x", 2), ("w", 4), ("y", 5)],
            {
                "w": {(2, 0, 0): Fraction(1)},
                "y": {(1, 1, 0): Fraction(1)},
            },
        )
    assert any(v.condition == "d-squared" for v in err.value.violations)


def test_validate_rejects_mutated_library_differentials():
    # degree-shift break: move one differential term to a wrong degree,
    # for every library model that has a differential at all
    for model in library():
        gens = model.generators
        target = next((g for g in gens if model.d_of(g.index)), None)
        if target is None:
            continue
        name = model.name
        dv = dict(model.d_of(target.index))
        mono = next(iter(dv))
        # tack an extra factor of the first generator onto one term
        broken_mono = tuple(e + (1 if i == 0 else 0) for i, e in enumerate(mono))
        dv[broken_mono] = dv.pop(mono)
        from sullivan.algebra import Derivation
        from sullivan.model import SullivanModel

        values = list(model.differential.values)
        values[target.index] = dv
        broken = SullivanModel(gens, Derivation(1, tuple(values)))
        violations = check_model(broken)
        assert violations, f"mutated {name} was accepted"


def test_length_profile_homogeneous_2():
    assert length_profile(get_model("sphere:2")).kind == "homogeneous"
    assert length_profile(get_model("sphere:2")).l == 2


def test_length_profile_cp3():
    prof = length_profile(get_model("cp:3"))
    assert prof.kind == "homogeneous" and prof.l == 4


def test_length_profile_mixed():
    m = make_model(
        [("x", 2), ("y1", 3), ("y2", 5)],
        {"y1": {(2, 0, 0): Fraction(1)}, "y2": {(3, 0, 0): Fraction(1)}},
    )
    prof = length_profile(m)
    assert prof.kind == "bounded_below" and prof.l == 2


def test_length_profile_zero_differential_is_coformal():
    m = make_model([("u", 3), ("v", 5)])
    prof = length_profile(m)
    assert prof.is_homogeneous and prof.l == 2


def test_quotient_of_zero_differential_model():
    m = make_model([("u", 3), ("v", 3), ("w", 3)])
    q = quotient_model(m, m.generators[0])
    assert [g.name for g in q.generators] == ["v", "w"]
    assert all(not q.d_of(i) for i in range(2))


def test_quotient_heisenberg():
    m = get_model("heisenberg")
    q = quotient_model(m, m.generators[0])
    assert [g.name for g in q.generators] == ["b", "c"]
    assert q.d_of(1) == {}  # dbar c = 0 once a-terms are deleted


def generator_named(model, name):
    return next(g for g in model.generators if g.name == name)


def test_quotient_requires_first_cocycle():
    m = get_model("example-5gen")
    with pytest.raises(QuotientError):
        quotient_model(m, generator_named(m, "y1"))  # not first
    bad_first = get_model("heisenberg")
    with pytest.raises(QuotientError):
        # c is not the first generator either
        quotient_model(bad_first, generator_named(bad_first, "c"))


def test_quotient_preserves_homogeneous_length():
    for name in ["cp:3", "example-5gen", "cpl-sphere:3,1", "nil5"]:
        m = get_model(name)
        prof = length_profile(m)
        q = quotient_model(m, m.generators[0])
        qprof = length_profile(q)
        if any(q.d_of(i) for i in range(q.n_gens)):
            assert qprof.kind == "homogeneous" and qprof.l == prof.l


def test_wang_derivation_heisenberg():
    m = get_model("heisenberg")
    theta = wang_derivation(m, m.generators[0])
    assert theta.degree_shift == 0
    assert theta.values[0] == {}  # theta(b)
    assert theta.values[1] == {(1, 0): Fraction(1)}  # theta(c) = b


def test_wang_derivation_zero_when_x1_absent():
    m = get_model("cpl-sphere:3,1")
    theta = wang_derivation(m, m.generators[0])
    assert all(theta.values[i] == {} for i in range(m.n_gens - 1))


def test_wang_derivation_rejects_even_or_noncocycle():
    with pytest.raises(QuotientError):
        wang_derivation(get_model("cp:2"), get_model("cp:2").generators[0])


def test_wang_split_reconstructs_differential():
    # d(v) = dbar(v) + x1 * theta(v), exactly, for every generator of W
    for name in ["heisenberg", "nil4", "nil5"]:
        m = get_model(name)
        x1 = m.generators[0]
        q = quotient_model(m, x1)
        theta = wang_derivation(m, x1)
        for g in m.generators[1:]:
            dv = m.d_of(g.index)
            dbar = {(0,) + mono: c for mono, c in q.d_of(g.index - 1).items()}
            th = {(0,) + mono: c for mono, c in theta.values[g.index - 1].items()}
            x1_mono = (1,) + (0,) * (m.n_gens - 1)
            rebuilt = poly_add(dbar, multiply(m.generators, {x1_mono: Fraction(1)}, th))
            assert rebuilt == dv, name


def test_wang_derivation_commutes_with_dbar():
    # dbar theta = theta dbar, brute force on a 3-generator case and others
    cases = [
        make_model([("u", 3), ("x", 2), ("w", 4)], {"w": {(1, 1, 0): Fraction(1)}}),
        get_model("heisenberg"),
        get_model("nil4"),
        get_model("nil5"),
    ]
    rng = random.Random(37)
    for m in cases:
        q = quotient_model(m, m.generators[0])
        theta = wang_derivation(m, m.generators[0])
        gens_w = q.generators
        for _ in range(40):
            p = random_polynomial(rng, gens_w)
            left = apply_derivation(gens_w, q.differential, apply_derivation(gens_w, theta, p))
            right = apply_derivation(gens_w, theta, apply_derivation(gens_w, q.differential, p))
            assert left == right


def test_wang_derivation_is_even_derivation():
    # theta(ab) = theta(a) b + a theta(b): even shift, no sign
    m = get_model("nil5")
    q = quotient_model(m, m.generators[0])
    theta = wang_derivation(m, m.generators[0])
    gens_w = q.generators
    rng = random.Random(41)
    for _ in range(60):
        a = random_polynomial(rng, gens_w)
        b = random_polynomial(rng, gens_w)
        left = apply_derivation(gens_w, theta, multiply(gens_w, a, b))
        right = poly_add(
            multiply(gens_w, apply_derivation(gens_w, theta, a), b),
            multiply(gens_w, a, apply_derivation(gens_w, theta, b)),
        )
        assert left == right


def test_random_model_forced_sphere_shape():
    m = random_elliptic_model(5, RandomModelParams(n_even=1, n_odd=1, l=2))
    assert [g.degree for g in m.generators] == [2, 3]
    dy = m.d_of(1)
    assert list(dy.keys()) == [(2, 0)]


def test_random_model_without_evens_is_free_odd_spheres():
    from sullivan.toomer import e0_spectrum

    for seed in range(3):
        m = random_elliptic_model(seed, RandomModelParams(n_even=0, n_odd=3))
        assert [g.name for g in m.generators] == ["y1", "y2", "y3"]
        assert all(g.degree in (3, 5, 7) for g in m.generators)
        assert not any(m.d_of(i) for i in range(m.n_gens))
        assert e0_spectrum(m).spectrum == (1, 3, 3, 1)


def test_random_model_deterministic_per_seed():
    params = RandomModelParams(n_even=2, n_odd=3, l=2)
    assert random_elliptic_model(9, params) == random_elliptic_model(9, params)


def test_random_model_family_of_5gen_example():
    from sullivan.cohomology import certify_elliptic

    m = random_elliptic_model(3, RandomModelParams(n_even=2, n_odd=3, l=2))
    assert certify_elliptic(m).ok
    assert len(m.even_generators) == 2 and len(m.odd_generators) == 3


def test_random_model_infeasible_params():
    # gap-scan prints these messages as usage errors
    for params, message in [
        ({"n_even": -1, "n_odd": 1}, "the number of even generators must be >= 0"),
        ({"n_even": 3, "n_odd": 1}, "infeasible parameters: a pure model needs at least "
                                    "as many odd generators as even ones to be elliptic"),
        ({"l": 1}, "differential length must be >= 2"),
    ]:
        with pytest.raises(ValueError) as err:
            random_elliptic_model(0, RandomModelParams(**params))
        assert str(err.value) == message


def test_random_model_params_repr():
    assert repr(RandomModelParams(1, leading_odd_sphere=True)) == (
        "RandomModelParams(n_even=1, n_odd=2, l=2, max_even_degree=2, "
        "leading_odd_sphere=True, max_attempts=64)")


def test_random_model_budget_error_is_explicit():
    # a 1-attempt budget with an unluckily-hard shape either succeeds or
    # raises the explicit budget error; never returns an uncertified model
    from sullivan.cohomology import certify_elliptic

    params = RandomModelParams(n_even=3, n_odd=3, l=2, max_attempts=1)
    for seed in range(6):
        try:
            m = random_elliptic_model(seed, params)
        except GenerationBudgetError:
            continue
        assert certify_elliptic(m).ok
    # seed 59 is the first whose single attempt fails
    with pytest.raises(GenerationBudgetError) as err:
        random_elliptic_model(59, params)
    assert str(err.value) == "no elliptic model found in 1 attempts (seed 59)"
