"""Acceptance suite: one test per criterion, each printing a PASS line.

The paper's results are theorems, so acceptance is exact reproduction of
stated values plus property suites -- no tolerances anywhere.
"""

import json
import random
from pathlib import Path

import pytest

from sullivan.algebra import (
    apply_derivation,
    koszul_sign,
    monomial_basis,
    multiply,
)
from sullivan.cohomology import engine_for, bigraded_profile, cohomology_table, fundamental_class
from sullivan.library import get_model, library
from sullivan.model import length_profile
from sullivan.sequences import (
    build_gysin,
    build_wang,
    check_exactness,
    formal_dimension_relation,
)
from sullivan.toomer import (
    e0_spectrum,
    toomer_of_algebra,
    toomer_of_class,
)
from conftest import model_pool, poly_add, poly_degree, poly_scale, random_polynomial, theta_corpus
from les_controls import corrupt_connecting_sign

FIXTURES = Path(__file__).parent / "fixtures"


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS -- {text}")


def e_formula(model, l):
    return len(model.odd_generators) + (l - 2) * len(model.even_generators)


@pytest.fixture(scope="module")
def sweep_models(random_corpus):
    """Criterion 2's corpus: X_l family, CP^n, spheres, 50 random."""
    models = []
    for l in range(2, 7):
        for r in (1, 2, 3):
            models.append(get_model(f"cpl-sphere:{l},{r}"))
    for n in range(1, 7):
        models.append(get_model(f"cp:{n}"))
    for n in range(2, 8):
        models.append(get_model(f"sphere:{n}"))
    models.extend(random_corpus)
    return models


def test_criterion_1_five_generator_example():
    m = get_model("example-5gen")
    rep = e0_spectrum(m)
    assert rep.e0_algebra == 3
    assert rep.cat0 == 3
    table = bigraded_profile(m)
    assert table.length_dims() == (1, 2, 2, 1)
    total = cohomology_table(m).total_dimension
    assert total == 6 == 2 * rep.e0_algebra
    assert table.formal_dimension == 7
    report(1, "five-generator model: e0 = cat0 = 3, dims by length (1,2,2,1), "
              "dim H = 6 = 2*e0, N = 7")


def test_criterion_2_theorem2A_sweep(sweep_models, random_corpus):
    assert len(random_corpus) >= 50
    checked = 0
    for m in sweep_models:
        prof = length_profile(m)
        assert prof.is_homogeneous, m.name
        expected = e_formula(m, prof.l)
        assert toomer_of_algebra(m) == expected, m.name
        checked += 1
    report(2, f"toomer_of_algebra = dim V_odd + (l-2) dim V_even on all "
              f"{checked} sweep models (incl. {len(random_corpus)} random)")


def test_criterion_3_no_gap_suite(sweep_models):
    for m in sweep_models:
        rep = e0_spectrum(m)
        assert rep.gaps == (), m.name
        assert len(rep.spectrum) == rep.e0_algebra + 1
        assert all(mu > 0 for mu in rep.spectrum), m.name
    report(3, f"mu_k > 0 for every k = 0..e0, zero gaps, on all "
              f"{len(sweep_models)} sweep models")


def test_criterion_4_ladder_and_duality(sweep_models):
    for m in sweep_models:
        table = bigraded_profile(m)
        e, n = table.e_top, table.formal_dimension
        p = m.min_degree
        n_k, N_k = table.n_k, table.N_k
        if e >= 1:
            assert n_k[1] == p, m.name
            for k in range(1, e):
                assert n_k[k + 1] >= n_k[k] + p, (m.name, k)
            for k in range(0, e - 1):
                assert N_k[k + 1] >= N_k[k] + p, (m.name, k)
            assert N_k[e] == N_k[e - 1] + p, m.name
        for k in range(1, e):
            assert n_k[k] == n - N_k[e - k], (m.name, k)
    report(4, f"n_1 = p, n_(k+1) >= n_k + p, N_e = N_(e-1) + p and "
              f"n_k = N - N_(e-k) exact on all {len(sweep_models)} models")


def test_criterion_5_toomer_consistency(sweep_models):
    mixed = [get_model(f"mixed:{i}") for i in range(1, 6)]
    assert len(mixed) >= 5
    assert all(length_profile(m).kind == "bounded_below" for m in mixed)
    models = sweep_models + mixed + [get_model(n) for n in
                                     ("heisenberg", "nil4", "nil5", "example-5gen")]
    for m in models:
        rep = e0_spectrum(m)
        e0 = rep.e0_algebra
        assert toomer_of_class(m, fundamental_class(m)) == e0, m.name
        max_class = max((max(v) for v in rep.per_class if v), default=0)
        assert max_class == e0, m.name
    # e0(x) = k iff x in H_k, on full bigraded class bases
    class_checks = 0
    for m in models:
        if not length_profile(m).is_homogeneous:
            continue
        engine = engine_for(m)
        table = engine.bigraded_profile()
        for i in range(1, table.formal_dimension + 1):
            for k in range(table.e_top + 1):
                for cls in engine.classes(i, k):
                    assert toomer_of_class(m, cls) == k, (m.name, i, k)
                    class_checks += 1
    report(5, f"algebra = fundamental-class = max class value on "
              f"{len(models)} models (5 mixed-length); e0(x) = k iff "
              f"x in H_k on {class_checks} bigraded classes")


def test_criterion_6_wang_gysin_exactness(random_corpus):
    models = [m for m in library() if length_profile(m).is_homogeneous]
    models += random_corpus + theta_corpus()  # theta_corpus: nonzero theta*
    nodes_total = 0
    for m in models:
        builder = build_wang if m.generators[0].is_odd else build_gysin
        les = builder(m)
        rep = check_exactness(les)
        assert rep.all_exact, m.name
        nodes_total += rep.nodes_checked
        rel = formal_dimension_relation(m)
        assert rel.holds, m.name
        x1 = m.generators[0]
        if x1.is_odd:
            assert rel.n_total == rel.m_quotient + x1.degree
        else:
            assert rel.n_total == rel.m_quotient - x1.degree + 1
    # negative control: a sign-corrupted theta* must fail exactness
    les = build_wang(get_model("nil4"))
    bad = corrupt_connecting_sign(les)
    bad_report = check_exactness(bad)
    assert not bad_report.all_exact
    assert bad_report.failures[0].witness is not None
    # ... and so must one on each random model with a nonzero theta*
    for m in theta_corpus():
        bad_report = check_exactness(corrupt_connecting_sign(build_wang(m)))
        assert not bad_report.all_exact, m.name
        assert bad_report.failures[0].witness is not None, m.name
    report(6, f"bigraded exactness at {nodes_total} nodes across "
              f"{len(models)} models, dimension relations exact, "
              f"corrupted theta* fails with witness")


def test_criterion_7_nilmanifolds():
    cases = {"heisenberg": 3, "nil4": 4, "nil5": 5}
    for name, n in cases.items():
        m = get_model(name)
        table = cohomology_table(m)
        for i in range(1, n):
            assert table.betti[i] >= 2, (name, i)
        assert table.total_dimension >= 2 * n, name
        assert toomer_of_algebra(m) == n, name
    assert cohomology_table(get_model("heisenberg")).total_dimension == 6  # sharp
    report(7, "Heisenberg, nil4, nil5: b_i >= 2 for middle i, "
              "dim H >= 2 dim X (sharp for Heisenberg), e0 = dim X")


def test_criterion_8_remark2_bound():
    checked = 0
    for i in range(1, 6):
        m = get_model(f"mixed:{i}")
        prof = length_profile(m)
        assert prof.kind == "bounded_below"
        bound = e_formula(m, prof.l)
        assert toomer_of_algebra(m) >= bound, m.name
        checked += 1
    assert checked >= 5
    report(8, f"e0 >= dim V_odd + (l-2) dim V_even on {checked} "
              f"bounded-below mixed models")


def test_criterion_9_algebra_property_suite():
    rng = random.Random(20260808)
    contexts = [(m.generators, m.differential) for m in model_pool()]
    cases = 0

    for _ in range(2500):  # graded commutativity
        gens, _ = contexts[rng.randrange(len(contexts))]
        a = random_polynomial(rng, gens, homogeneous=True)
        b = random_polynomial(rng, gens, homogeneous=True)
        da, db = poly_degree(gens, a), poly_degree(gens, b)
        if da is None or db is None:
            da = db = 0
        sign = -1 if (da * db) % 2 else 1
        assert multiply(gens, a, b) == poly_scale(multiply(gens, b, a), sign)
        cases += 1

    for _ in range(2500):  # associativity
        gens, _ = contexts[rng.randrange(len(contexts))]
        a, b, c = (random_polynomial(rng, gens) for _ in range(3))
        assert multiply(gens, multiply(gens, a, b), c) == multiply(gens, a, multiply(gens, b, c))
        cases += 1

    for _ in range(2500):  # Leibniz for the model differential
        gens, d = contexts[rng.randrange(len(contexts))]
        a = random_polynomial(rng, gens, homogeneous=True)
        b = random_polynomial(rng, gens)
        da = poly_degree(gens, a)
        if da is None:
            da = 0
        sign = -1 if (d.degree_shift * da) % 2 else 1
        left = apply_derivation(gens, d, multiply(gens, a, b))
        right = poly_add(
            multiply(gens, apply_derivation(gens, d, a), b),
            poly_scale(multiply(gens, a, apply_derivation(gens, d, b)), sign),
        )
        assert left == right
        cases += 1

    for _ in range(1500):  # d squared = 0
        gens, d = contexts[rng.randrange(len(contexts))]
        p = random_polynomial(rng, gens)
        assert apply_derivation(gens, d, apply_derivation(gens, d, p)) == {}
        cases += 1

    for _ in range(1000):  # Koszul-sign unit behaviour
        gens, _ = contexts[rng.randrange(len(contexts))]
        degree = rng.randint(0, 8)
        options = monomial_basis(gens, degree)
        if not options:
            options = [(0,) * len(gens)]
        m1 = options[rng.randrange(len(options))]
        m2 = options[rng.randrange(len(options))]
        s12, s21 = koszul_sign(gens, m1, m2), koszul_sign(gens, m2, m1)
        assert s12 in (-1, 0, 1)
        # both orders vanish together; otherwise signs obey commutativity
        assert (s12 == 0) == (s21 == 0)
        if s12:
            d1 = sum(e * g.degree for e, g in zip(m1, gens))
            d2 = sum(e * g.degree for e, g in zip(m2, gens))
            assert s12 * s21 == (-1) ** (d1 * d2)
        shared_odd = any(
            e1 and e2 and g.is_odd for e1, e2, g in zip(m1, m2, gens)
        )
        assert (s12 == 0) == shared_odd
        cases += 1

    assert cases >= 10_000
    report(9, f"graded commutativity, associativity, Leibniz, d^2 = 0 and "
              f"Koszul-sign behaviour over {cases} random cases, zero failures")


def test_criterion_10_oracle_equivalence():
    data = json.loads((FIXTURES / "betti_tables.json").read_text())
    data.pop("_comment", None)
    checked = 0
    for name, expected in data.items():
        m = get_model(name)
        assert m.n_gens <= 3
        engine = engine_for(m)
        top = engine.require_certificate().formal_dimension
        computed = {str(i): engine.betti(i) for i in range(top + 1) if engine.betti(i)}
        assert computed == expected, name
        checked += 1
    # the fixture covers every <= 3-generator library member
    small = [m.name for m in library() if m.n_gens <= 3]
    assert set(small) <= set(data)
    report(10, f"computed Betti tables match the hand-derived fixture on "
               f"{checked} small library models")
