import functools
import random
from fractions import Fraction

import pytest

from sullivan.algebra import BasisTable, monomial_degree
from sullivan.library import get_model, library
from sullivan.model import RandomModelParams, length_profile, make_model, random_elliptic_model

# parameter shapes for the seeded random corpus; mixes sizes, lengths and
# leading odd-sphere factors (so the Wang sequence gets random coverage)
CORPUS_SHAPES = [
    RandomModelParams(n_even=1, n_odd=1, l=2),
    RandomModelParams(n_even=1, n_odd=2, l=2),
    RandomModelParams(n_even=2, n_odd=2, l=2),
    RandomModelParams(n_even=2, n_odd=3, l=2),
    RandomModelParams(n_even=3, n_odd=3, l=2),
    RandomModelParams(n_even=1, n_odd=1, l=3),
    RandomModelParams(n_even=1, n_odd=2, l=3),
    RandomModelParams(n_even=2, n_odd=2, l=3),
    RandomModelParams(n_even=1, n_odd=2, l=2, leading_odd_sphere=True),
    RandomModelParams(n_even=2, n_odd=2, l=2, leading_odd_sphere=True),
    RandomModelParams(n_even=1, n_odd=1, l=3, leading_odd_sphere=True),
    RandomModelParams(n_even=1, n_odd=1, l=4),
]


def build_random_corpus(count: int, base_seed: int = 1000):
    models = []
    for idx in range(count):
        params = CORPUS_SHAPES[idx % len(CORPUS_SHAPES)]
        models.append(random_elliptic_model(base_seed + idx, params))
    return models


def pow_model(n: int, k: int):
    """pow(n, k): generators x_i of degree 2 and y_i with d y_i = x_i^k,
    i = 1..n; H = Q[x]/(x_1^k, ..., x_n^k) and N = 2n(k - 1)."""
    gens = [(f"x{i}", 2) for i in range(1, n + 1)] + [(f"y{i}", 2 * k - 1) for i in range(1, n + 1)]
    diffs = {f"y{i}": {tuple(k if j == i - 1 else 0 for j in range(2 * n)): 1}
             for i in range(1, n + 1)}
    return make_model(gens, diffs, name=f"pow({n},{k})")


def d_mono(engine, m):
    """d(m) as a polynomial: a Fraction copy of the engine's `d_row`."""
    return {m2: Fraction(c) for m2, c in engine.d_row(m).items()}


def theta_model(seed: int, params: RandomModelParams):
    """A random model with a nonzero Wang connecting map theta*.

    The pure elliptic model `random_elliptic_model(seed, params)` (its
    first generator even, of degree 2) gets an odd cocycle u of degree 3
    in front, two free odd cocycles a1, a2 of degree 3 and an odd b with
    d b = u*a, a = x^(l-2) (c1 a1 + c2 a2) for a random even generator x
    of the base and c1, c2 in {-2, -1, 1, 2}.  Then d^2 = 0, the model is
    homogeneous of length l and elliptic (d b has no pure term, so the
    associated pure model keeps the base's relations), and theta(b) = a
    with [x^(l-2) a1], [x^(l-2) a2] independent, so theta* mixes two
    classes.  With an empty base, l = 2 and c1 = c2 = 1 this is
    Lambda(u, a, c, b), d b = u a + u c."""
    assert not params.leading_odd_sphere
    base = random_elliptic_model(seed, params)
    rng = random.Random(seed)
    evens = [g for g in base.generators if not g.is_odd]
    x = rng.choice(evens)
    c1, c2 = (rng.choice((-2, -1, 1, 2)) for _ in range(2))

    def lift(m, u=0, a1=0, a2=0):
        return (u,) + m + (a1, a2, 0)

    power = tuple(params.l - 2 if g.index == x.index else 0 for g in base.generators)
    gens = ([("u", 3)] + [(g.name, g.degree) for g in base.generators]
            + [("a1", 3), ("a2", 3), ("b", 5 + x.degree * (params.l - 2))])
    diffs = {g.name: {lift(m): c for m, c in base.d_of(g.index).items()}
             for g in base.generators}
    diffs["b"] = {lift(power, u=1, a1=1): c1, lift(power, u=1, a2=1): c2}
    return make_model(gens, diffs, name=f"theta({seed},{params.n_even},{params.n_odd},{params.l})")


THETA_SHAPES = [
    RandomModelParams(n_even=1, n_odd=1, l=2),
    RandomModelParams(n_even=1, n_odd=2, l=2),
    RandomModelParams(n_even=2, n_odd=2, l=2),
    RandomModelParams(n_even=1, n_odd=1, l=3),
    RandomModelParams(n_even=1, n_odd=2, l=3),
]


def theta_corpus():
    """One `theta_model` per shape in THETA_SHAPES."""
    return [theta_model(2000 + j, params) for j, params in enumerate(THETA_SHAPES)]


@pytest.fixture(scope="session")
def random_corpus():
    """50 seeded random pure homogeneous elliptic models (criteria 2/3/4/6)."""
    return build_random_corpus(50)


@pytest.fixture(scope="session")
def library_models():
    return library()


@pytest.fixture(scope="session")
def homogeneous_library(library_models):
    return [m for m in library_models if length_profile(m).is_homogeneous]


@functools.cache
def basis_table(gens) -> BasisTable:
    """One basis table per generator tuple for the random helpers below."""
    return BasisTable(gens)


def random_monomial(rng: random.Random, gens, max_degree: int = 12):
    """A random valid monomial (odd exponents <= 1)."""
    degree = rng.randint(0, max_degree)
    options = basis_table(gens).basis(degree)
    attempts = 0
    while not options and attempts < 8:
        degree = rng.randint(0, max_degree)
        options = basis_table(gens).basis(degree)
        attempts += 1
    if not options:
        return (0,) * len(gens)
    return options[rng.randrange(len(options))]


def random_polynomial(rng: random.Random, gens, n_terms: int = 3, homogeneous=False):
    """Random polynomial; homogeneous=True keeps all terms in one degree."""
    coeff_pool = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
    terms = {}
    if homogeneous:
        first = random_monomial(rng, gens)
        degree = sum(e * g.degree for e, g in zip(first, gens))
        options = basis_table(gens).basis(degree)
        for _ in range(n_terms):
            m = options[rng.randrange(len(options))]
            terms[m] = Fraction(coeff_pool[rng.randrange(len(coeff_pool))])
    else:
        for _ in range(n_terms):
            m = random_monomial(rng, gens)
            terms[m] = Fraction(coeff_pool[rng.randrange(len(coeff_pool))])
    return {m: c for m, c in terms.items() if c}


def poly_scale(p, c):
    """c * p, with no zero coefficients stored."""
    c = Fraction(c)
    return {m: v * c for m, v in p.items()} if c else {}


def poly_add(p, q):
    """p + q, with no zero coefficients stored."""
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def poly_degree(gens, p):
    """Common degree of all terms; None for the zero polynomial.

    Raises ValueError when terms mix degrees (degree queries are only
    well-defined on homogeneous polynomials).
    """
    degs = {monomial_degree(gens, m) for m in p}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError(f"inhomogeneous polynomial, degrees {sorted(degs)}")
    return degs.pop()


def model_pool():
    """Validated models whose algebras host the property suites."""
    return [
        get_model("sphere:2"),
        get_model("cp:3"),
        get_model("heisenberg"),
        get_model("example-5gen"),
        get_model("nil5"),
        get_model("mixed:3"),
        get_model("cpl-sphere:3,1"),
    ]
