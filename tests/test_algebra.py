import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import cycle
from math import gcd
from pathlib import Path

import pytest

from sullivan.algebra import (
    BasisTable,
    Derivation,
    Generator,
    LeibnizTable,
    WorkBudgetError,
    apply_derivation,
    koszul_sign,
    monomial_basis,
    multiply,
    poly_str,
    word_length,
)
from sullivan.cohomology import _TAG, engine_for
from sullivan.library import library
from sullivan.linalg import reduce_rows
from sullivan.model import make_model
from conftest import (
    d_mono,
    model_pool,
    poly_add,
    poly_degree,
    poly_scale,
    pow_model,
    random_polynomial,
    theta_corpus,
)


def gens_of(*specs):
    return tuple(Generator(i, n, d) for i, (n, d) in enumerate(specs))


XY = gens_of(("x", 2), ("y", 3))
ABC = gens_of(("a", 1), ("b", 1), ("c", 1))


def test_odd_past_even_is_positive():
    # y (odd, degree 3) times x (even): no odd-odd transposition
    gens = XY
    p = multiply(gens, {(0, 1): Fraction(1)}, {(1, 0): Fraction(1)})
    assert p == {(1, 1): Fraction(1)}


def test_odd_square_vanishes():
    gens = XY
    assert multiply(gens, {(0, 1): Fraction(1)}, {(0, 1): Fraction(1)}) == {}


def test_degree_one_anticommute():
    gens = ABC
    b = {(0, 1, 0): Fraction(1)}
    a = {(1, 0, 0): Fraction(1)}
    assert multiply(gens, b, a) == {(1, 1, 0): Fraction(-1)}


def test_koszul_even_square():
    gens = XY
    assert koszul_sign(gens, (1, 0), (1, 0)) == 1


def test_koszul_odd_swap():
    gens = gens_of(("u", 3), ("v", 5))
    assert koszul_sign(gens, (0, 1), (1, 0)) == -1


def test_koszul_shared_odd_is_zero():
    gens = gens_of(("u", 3),)
    assert koszul_sign(gens, (1,), (1,)) == 0


def test_monomial_basis_degree4():
    assert monomial_basis(gens_of(("x", 2), ("y", 5)), 4) == [(2, 0)]


def test_monomial_basis_degree7():
    assert monomial_basis(gens_of(("x", 2), ("y", 5)), 7) == [(1, 1)]


def test_monomial_basis_degree0():
    assert monomial_basis(XY, 0) == [(0, 0)]


def test_monomial_basis_respects_max_length():
    gens = gens_of(("x", 2),)
    assert monomial_basis(gens, 6) == [(3,)]


def test_monomial_basis_lex_order():
    gens = gens_of(("a", 1), ("b", 1), ("c", 1), ("e", 1))
    basis = monomial_basis(gens, 2)
    assert basis == sorted(basis)


def test_monomial_basis_order_is_frozen_contract():
    # ascending lexicographic exponent order: stable representatives and
    # reproducible reports depend on this exact enumeration
    gens = gens_of(("a", 1), ("b", 1), ("x", 2))
    assert monomial_basis(gens, 2) == [(0, 0, 1), (1, 1, 0)]
    assert monomial_basis(gens, 3) == [(0, 1, 1), (1, 0, 1)]
    assert monomial_basis(gens, 4) == [(0, 0, 2), (1, 1, 1)]


def reference_monomial_basis(gens, degree):
    """The recursive enumerator `monomial_basis` used before the basis
    table, one level per generator, kept as the order reference."""
    if degree < 0:
        return []
    n = len(gens)
    out = []

    def rec(idx, remaining, prefix):
        if remaining == 0:
            out.append(tuple(prefix + [0] * (n - idx)))
            return
        if idx == n:
            return
        g = gens[idx]
        cap = remaining // g.degree
        if g.is_odd:
            cap = min(cap, 1)
        for e in range(cap + 1):
            prefix.append(e)
            rec(idx + 1, remaining - e * g.degree, prefix)
            prefix.pop()

    rec(0, degree, [])
    return out


def test_basis_table_matches_recursive_reference():
    # one table per generator list, grown in shuffled degree order, and the
    # one-off `monomial_basis`, against the recursion, monomial for monomial
    rng = random.Random(13)
    cases = 0
    for trial in range(250):
        n = 0 if trial == 0 else rng.randint(0, 7)
        gens = tuple(Generator(i, f"g{i}", rng.randint(1, 9)) for i in range(n))
        table = BasisTable(gens)
        degrees = list(range(-1, 20))
        rng.shuffle(degrees)
        for degree in degrees:
            expected = reference_monomial_basis(gens, degree)
            assert table.basis(degree) == expected, (gens, degree)
            assert monomial_basis(gens, degree) == expected, (gens, degree)
            cases += 1
    assert cases == 250 * 21
    assert BasisTable(()).basis(0) == [()] and BasisTable(()).basis(3) == []


def test_basis_table_needs_no_recursion():
    # 1,200 generators, with the recursion limit below the generator count
    code = (
        "import sys\n"
        "from sullivan.algebra import BasisTable, Generator, monomial_basis\n"
        "sys.setrecursionlimit(1000)\n"
        "gens = [Generator(0, 'x', 2)] + [Generator(i, f'y{i}', 5) for i in range(1, 1200)]\n"
        "table = BasisTable(gens)\n"
        "zero = (0,) * 1199\n"
        "for degree, lead in ((0, 0), (2, 1), (4, 2)):\n"
        "    assert table.basis(degree) == [(lead,) + zero], degree\n"
        "    assert monomial_basis(gens, degree) == [(lead,) + zero], degree\n"
        "assert table.basis(1) == table.basis(3) == []\n"
        "print('ok')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


@pytest.mark.parametrize("degree, off_step", [(3, 2), (2, 1)], ids=["odd", "even"])
def test_basis_table_refuses_past_the_work_budget(degree, off_step):
    # 1,200 generators of one degree, odd or even: that degree alone needs
    # about 5.8 * 10^8 cells; the refusal comes from counting, before any
    # list of that degree is stored, and a smaller request still works
    gens = [Generator(i, f"y{i}", degree) for i in range(1200)]
    table = BasisTable(gens)
    assert table.basis(0) == [(0,) * 1200]
    cells = table.cells
    start = time.perf_counter()
    with pytest.raises(WorkBudgetError,
                       match=rf"degree {degree} needs a table of 577440800 cells"):
        table.basis(degree)
    assert time.perf_counter() - start < 5
    assert table.cells == cells
    assert table.basis(0) == [(0,) * 1200] and table.basis(off_step) == []


def test_basis_table_grows_linearly_in_the_degree():
    # each degree reads at most two held lists per level, so the work to
    # grow a table to degree N is linear in N, even on an even generator
    # of degree 2 that fills 20,000 degrees of its level
    table = BasisTable((Generator(0, "u", 3), Generator(1, "x", 2), Generator(2, "y", 80001)))
    start = time.perf_counter()
    assert table.basis(40000) == [(0, 20000, 0)]
    assert table.basis(39999) == [(1, 19998, 0)]
    assert time.perf_counter() - start < 5


def test_engine_basis_is_one_table_read():
    for m in library():
        engine = engine_for(m)
        top = max(engine.formal_dimension_formula(), 0) + 2
        for i in range(top, -1, -1):  # highest first: lower degrees come from the table
            basis = engine.basis(i)
            assert basis == monomial_basis(m.generators, i), (m.name, i)
            # an empty degree off the table's degree step is a fresh list
            assert engine.basis(i) is basis or basis == []


def test_derivation_leibniz_even_head():
    # model Lambda(x:2, y:3), dy = x^2: d(x y) = x * x^2 = x^3
    gens = XY
    d = Derivation(1, ({}, {(2, 0): Fraction(1)}))
    out = apply_derivation(gens, d, {(1, 1): Fraction(1)})
    assert out == {(3, 0): Fraction(1)}


def test_derivation_heisenberg_cancellation():
    # d(a c) = (da) c - a (dc) = -a*a*b = 0
    gens = ABC
    d = Derivation(1, ({}, {}, {(1, 1, 0): Fraction(1)}))
    assert apply_derivation(gens, d, {(1, 0, 1): Fraction(1)}) == {}


def test_derivation_kills_unit():
    gens = XY
    d = Derivation(1, ({}, {(2, 0): Fraction(1)}))
    assert apply_derivation(gens, d, {(0, 0): Fraction(1)}) == {}


def test_poly_degree_homogeneous_only():
    gens = XY
    assert poly_degree(gens, {(1, 0): Fraction(1)}) == 2
    assert poly_degree(gens, {}) is None
    with pytest.raises(ValueError):
        poly_degree(gens, {(1, 0): Fraction(1), (0, 1): Fraction(1)})


def test_poly_str_roundtrips_signs():
    gens = XY
    p = {(2, 0): Fraction(-1), (1, 1): Fraction(1, 2)}
    assert poly_str(gens, p) == "1/2*x*y - x^2"


def _koszul_bruteforce(gens, m1, m2):
    """Independent oracle: expand both monomials into generator words,
    concatenate, and bubble-sort with the sign (-1)^(|g||h|) per adjacent
    swap; 0 when an odd generator repeats."""
    word = []
    for m in (m1, m2):
        for i, e in enumerate(m):
            word.extend([i] * e)
    odd = [i for i in word if gens[i].is_odd]
    if len(odd) != len(set(odd)):
        return 0
    sign = 1
    changed = True
    while changed:
        changed = False
        for pos in range(len(word) - 1):
            if word[pos] > word[pos + 1]:
                a, b = word[pos], word[pos + 1]
                if gens[a].is_odd and gens[b].is_odd:
                    sign = -sign
                word[pos], word[pos + 1] = b, a
                changed = True
    return sign


def test_koszul_sign_matches_bruteforce_sort():
    rng = random.Random(211)
    pools = [XY, ABC, gens_of(("u", 3), ("x", 2), ("v", 5), ("w", 4))]
    for _ in range(600):
        gens = pools[rng.randrange(len(pools))]
        def rand_mono():
            return tuple(
                rng.randint(0, 1) if g.is_odd else rng.randint(0, 3) for g in gens
            )
        m1, m2 = rand_mono(), rand_mono()
        assert koszul_sign(gens, m1, m2) == _koszul_bruteforce(gens, m1, m2)


# -- property suites (seeded; the full 10^4-case run lives in acceptance) --


def _pool_contexts():
    return [(m.generators, m.differential) for m in model_pool()]


def test_graded_commutativity_random():
    rng = random.Random(101)
    contexts = _pool_contexts()
    for _ in range(400):
        gens, _ = contexts[rng.randrange(len(contexts))]
        a = random_polynomial(rng, gens, homogeneous=True)
        b = random_polynomial(rng, gens, homogeneous=True)
        da, db = poly_degree(gens, a), poly_degree(gens, b)
        if da is None or db is None:
            continue
        sign = -1 if (da * db) % 2 else 1
        assert multiply(gens, a, b) == poly_scale(multiply(gens, b, a), sign)


def test_associativity_random():
    rng = random.Random(103)
    contexts = _pool_contexts()
    for _ in range(400):
        gens, _ = contexts[rng.randrange(len(contexts))]
        a = random_polynomial(rng, gens)
        b = random_polynomial(rng, gens)
        c = random_polynomial(rng, gens)
        left = multiply(gens, multiply(gens, a, b), c)
        right = multiply(gens, a, multiply(gens, b, c))
        assert left == right


def test_word_length_additive():
    rng = random.Random(107)
    contexts = _pool_contexts()
    for _ in range(400):
        gens, _ = contexts[rng.randrange(len(contexts))]
        a = random_polynomial(rng, gens, n_terms=1)
        b = random_polynomial(rng, gens, n_terms=1)
        if not a or not b:
            continue
        (ma,), (mb,) = a.keys(), b.keys()
        prod = multiply(gens, a, b)
        if prod:
            (mp,) = prod.keys()
            assert word_length(mp) == word_length(ma) + word_length(mb)


def test_leibniz_random():
    rng = random.Random(109)
    for m in model_pool():
        gens, d = m.generators, m.differential
        for _ in range(60):
            a = random_polynomial(rng, gens, homogeneous=True)
            b = random_polynomial(rng, gens)
            da = poly_degree(gens, a)
            if da is None:
                continue
            left = apply_derivation(gens, d, multiply(gens, a, b))
            sign = -1 if (d.degree_shift * da) % 2 else 1
            right = poly_add(
                multiply(gens, apply_derivation(gens, d, a), b),
                poly_scale(multiply(gens, a, apply_derivation(gens, d, b)), sign),
            )
            assert left == right


def test_d_squared_zero_random():
    rng = random.Random(113)
    for m in model_pool():
        gens, d = m.generators, m.differential
        for _ in range(60):
            p = random_polynomial(rng, gens)
            assert apply_derivation(gens, d, apply_derivation(gens, d, p)) == {}


# -- cross-check: the closed-form Leibniz rule against the recursive one --


def _recursive_derive_monomial(gens, deriv, m):
    """Reference Leibniz expansion: peel v^e off the front of m,
    D(m) = D(v^e) rest + (-1)^(shift*e*|v|) v^e D(rest), with every product
    sorted by `multiply`."""
    support = [i for i, e in enumerate(m) if e]
    if not support:
        return {}
    i = support[0]
    e = m[i]
    rest = tuple(0 if j == i else x for j, x in enumerate(m))
    head_only = tuple(e if j == i else 0 for j in range(len(m)))
    out = {}
    dv = deriv.values[i]
    if dv:
        head_less = tuple(e - 1 if j == i else 0 for j in range(len(m)))
        lead = multiply(gens, multiply(gens, {head_less: Fraction(e)}, dv), {rest: Fraction(1)})
        out = poly_add(out, lead)
    if any(rest):
        tail = _recursive_derive_monomial(gens, deriv, rest)
        if tail:
            sign = -1 if (deriv.degree_shift * e * gens[i].degree) % 2 else 1
            out = poly_add(out, multiply(gens, {head_only: Fraction(sign)}, tail))
    return out


def _recursive_apply(gens, deriv, p):
    out = {}
    for m, c in p.items():
        out = poly_add(out, {k: c * v for k, v in _recursive_derive_monomial(gens, deriv, m).items()})
    return out


def _random_derivation(rng, gens):
    """Values on every generator are random polynomials of any degree
    (not triangular, not homogeneous), with rational coefficients; the
    shift is odd or even, negative ones included (the Wang theta)."""
    shift = rng.choice((1, 1, -1, -2, -3, 0, 2))
    values = []
    for _ in gens:
        if rng.random() < 0.2:
            values.append({})
        else:
            values.append(random_polynomial(rng, gens, n_terms=rng.randint(1, 4)))
    return Derivation(shift, tuple(values))


def test_closed_form_leibniz_matches_recursive_reference():
    rng = random.Random(127)
    odd_squares = 0
    for _ in range(600):
        specs = [(f"g{j}", rng.choice((1, 2, 3, 3, 4, 5))) for j in range(rng.randint(1, 6))]
        gens = gens_of(*specs)
        deriv = _random_derivation(rng, gens)
        p = random_polynomial(rng, gens, n_terms=rng.randint(1, 4))
        got = apply_derivation(gens, deriv, p)
        assert got == _recursive_apply(gens, deriv, p), (specs, deriv, p)
        table = LeibnizTable(gens, deriv)
        for m in p:
            assert table.image(m) == _recursive_derive_monomial(gens, deriv, m), (specs, deriv, m)
        # count the terms the odd-square rule dropped: a value sharing an
        # odd generator with the rest of its monomial
        for m in p:
            for i, e in enumerate(m):
                if e:
                    rest = tuple(x - (j == i) for j, x in enumerate(m))
                    odd_squares += any(
                        rest[j] and u[j] and gens[j].degree % 2
                        for u in deriv.values[i] for j in range(len(m))
                    )
    assert odd_squares > 100


def _rescaled(model):
    """The pure model with d(y) scaled by 1/2 and -2/3 in turn over its odd
    generators y: still d^2 = 0, now with non-integer coefficients."""
    scales = cycle((Fraction(1, 2), Fraction(-2, 3)))
    diffs = {y.name: {m: c * next(scales) for m, c in model.d_of(y.index).items()}
             for y in model.odd_generators}
    return make_model([(g.name, g.degree) for g in model.generators], diffs,
                      name=f"{model.name}-rescaled")


def test_engine_images_match_model_d_and_recursive_reference(random_corpus):
    # the engine's integer rows d(m) on every basis monomial of degrees
    # 0..N+1: equal to the Fraction polynomial of model.d and to the
    # recursive Leibniz reference, ints unless a coefficient is not integral
    models = (library() + random_corpus + theta_corpus() + [pow_model(3, 3)]
              + [_rescaled(m) for m in random_corpus[:12]])
    rational_rows = 0
    for model in models:
        gens, d = model.generators, model.differential
        engine = engine_for(model)
        integral = all(c.denominator == 1 for value in d.values for c in value.values())
        for i in range(max(engine.formal_dimension_formula(), 0) + 2):
            for m in engine.basis(i):
                row = engine.d_row(m)
                assert row == model.d({m: 1}) == _recursive_derive_monomial(gens, d, m), (
                    model.name, m)
                assert d_mono(engine, m) == row
                assert all(type(c) is Fraction for c in d_mono(engine, m).values())
                whole = all(type(c) is int for c in row.values())
                assert whole or not integral, (model.name, m)
                rational_rows += not whole
    assert rational_rows > 100


def test_image_relations_are_primitive_with_a_positive_own_coefficient(random_corpus):
    # reduce_rows over the images d(m) of a degree, tagged as the engine
    # tags them: each relation sum_t c_t d(m_t) = 0 holds, has integer
    # coefficients with content 1, and its own (last) tag has c > 0
    models = (library() + random_corpus + theta_corpus()
              + [_rescaled(m) for m in random_corpus[:12]])
    relations_seen = 0
    for model in models:
        engine = engine_for(model)
        for i in range(max(engine.formal_dimension_formula(), 0) + 1):
            basis = engine.basis(i)
            rows = [engine.d_row(m) for m in basis]
            _, relations = reduce_rows(rows, [(_TAG, j) for j in range(len(basis))])
            for rel in relations:
                own = max(rel)
                assert rel[own] > 0, (model.name, i, rel)
                assert all(type(c) is int for c in rel.values())
                assert gcd(*rel.values()) == 1, (model.name, i, rel)
                total = {}
                for (_, j), c in rel.items():
                    for m2, v in rows[j].items():
                        total[m2] = total.get(m2, 0) + c * v
                assert not any(total.values()), (model.name, i, rel)
            relations_seen += len(relations)
    assert relations_seen > 1000
