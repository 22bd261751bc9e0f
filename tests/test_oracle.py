"""The engine's cohomology against `oracle.reference`, dense Gauss-Jordan
that shares no code with `sullivan.linalg`: representatives, Betti
numbers, the pivots of B^i and the relations of d, degree by degree, and
on a certified model every Poincare-duality pairing against
`oracle.pairing`."""

import pytest

from sullivan.cohomology import CohomologyEngine
from sullivan.library import library
from sullivan.linalg import kernel_basis
from conftest import pow_model, theta_corpus
from oracle import pairing, reference
from test_toomer import les_style_model

# the oracle's dense matrices stay small on models whose largest basis
# through degree N + 2 (the oracle reads C^0..C^(N+2)) has at most this many
# monomials
MAX_BASIS = 60


def check_against_oracle(model):
    engine = CohomologyEngine(model)
    top = max(engine.formal_dimension_formula(), 0) + 1
    refs = reference(engine, top)
    for i, ref in enumerate(refs):
        whole = engine.full(i)
        where = (model.name, i)
        assert whole.reps == ref.reps, where
        assert engine.betti(i) == len(ref.reps), where
        assert [p for p, _, label in whole.echelon.rows if label is None] == \
            ref.boundary_pivots, where
        assert kernel_basis(engine.d_matrix(i)) == ref.relations, where
    if engine.certify().ok:
        n = top - 1
        for i in range(n + 1):
            mat, ok = engine.pd_pairing(i)
            columns, nondegenerate = pairing(engine, refs[:n + 1], i)
            assert mat.rows == len(refs[i].reps), (model.name, i)
            assert [mat.column(t) for t in range(mat.cols)] == columns, (model.name, i)
            assert ok == nondegenerate, (model.name, i)


def largest_basis(model) -> int:
    engine = CohomologyEngine(model)
    top = max(engine.formal_dimension_formula(), 0) + 2
    return max(len(engine.basis(i)) for i in range(top + 1))


@pytest.mark.parametrize("model", library(), ids=lambda m: m.name)
def test_library_matches_oracle(model):
    check_against_oracle(model)


@pytest.mark.parametrize(
    "model",
    [pow_model(3, 3)] + [les_style_model(seed, seed % 2 == 0, k)
                         for k in (2, 3) for seed in range(3)],
    ids=lambda m: m.name)
def test_pow_and_les_style_models_match_oracle(model):
    check_against_oracle(model)


@pytest.mark.parametrize(
    "model", [m for m in theta_corpus() if largest_basis(m) <= MAX_BASIS],
    ids=lambda m: m.name)
def test_theta_corpus_matches_oracle(model):
    check_against_oracle(model)


def test_corpus_matches_oracle(random_corpus):
    checked = 0
    for model in random_corpus:
        if largest_basis(model) <= MAX_BASIS:
            check_against_oracle(model)
            checked += 1
    assert checked  # the filter left models to check
