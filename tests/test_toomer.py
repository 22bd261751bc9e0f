import random
from fractions import Fraction

import pytest

from sullivan.algebra import word_length
from sullivan.cohomology import (
    CohomologyClass,
    engine_for,
    fundamental_class,
    bigraded_profile,
)
from sullivan.library import get_model, library
from sullivan.linalg import RatMatrix, matmul
from sullivan.model import length_profile
from sullivan.toomer import (
    e0_spectrum,
    gap_scan,
    quotient_complex,
    toomer_of_algebra,
    toomer_of_class,
    toomer_via_fundamental_class,
)
from conftest import poly_add


def test_odd_sphere_fundamental_class():
    m = get_model("sphere:7")
    assert toomer_of_class(m, fundamental_class(m)) == 1


def test_cp_powers():
    m = get_model("cp:4")
    engine = engine_for(m)
    # [x^k] lives in degree 2k and has e0 = k
    for k in range(1, 5):
        (cls,) = engine.classes(2 * k)
        assert toomer_of_class(m, cls) == k


def test_homogeneous_class_length_equals_e0():
    # e0(x) = k iff x in H^*_k, on the full bigraded class bases
    for name in ["example-5gen", "cpl-sphere:3,1", "heisenberg", "nil4", "cp:3"]:
        m = get_model(name)
        engine = engine_for(m)
        table = engine.bigraded_profile()
        for i in range(table.formal_dimension + 1):
            for k in range(table.e_top + 1):
                for cls in engine.classes(i, k):
                    if i == 0:
                        continue
                    assert toomer_of_class(m, cls) == k, (name, i, k)


def test_zero_class_rejected():
    m = get_model("sphere:2")
    with pytest.raises(ValueError):
        toomer_of_class(m, CohomologyClass(2, {}))


def test_algebra_even_sphere():
    assert toomer_of_algebra(get_model("sphere:4")) == 1


def test_algebra_5gen():
    assert toomer_of_algebra(get_model("example-5gen")) == 3


def test_algebra_coformal_is_odd_count(random_corpus):
    for m in random_corpus:
        prof = length_profile(m)
        if prof.l != 2:
            continue
        assert toomer_of_algebra(m) == len(m.odd_generators), m.name


def test_via_fundamental_class_examples():
    assert toomer_via_fundamental_class(get_model("cp:3")) == 3
    assert toomer_via_fundamental_class(get_model("heisenberg")) == 3
    assert toomer_via_fundamental_class(get_model("example-5gen")) == 3


def test_spectrum_5gen():
    report = e0_spectrum(get_model("example-5gen"))
    assert report.spectrum == (1, 2, 2, 1)
    assert report.gaps == ()
    assert report.e0_algebra == report.cat0 == 3


def test_spectrum_heisenberg():
    report = e0_spectrum(get_model("heisenberg"))
    assert report.spectrum == (1, 2, 2, 1)
    assert report.gaps == ()


def test_spectrum_mass_is_h_plus():
    for name in ["cp:2", "example-5gen", "nil5", "mixed:1", "mixed:5"]:
        report = e0_spectrum(get_model(name))
        assert sum(report.spectrum[1:]) == report.total_h_plus


def test_filtration_monotone():
    for name in ["example-5gen", "nil5", "cpl-sphere:4,2", "mixed:3"]:
        report = e0_spectrum(get_model(name))
        filt = report.filtration
        for row in filt.dims:
            assert all(row[j] >= row[j + 1] for j in range(len(row) - 1))
        assert filt.total(0) == report.total_h_plus  # K_0 = H^+


def test_consistency_three_ways():
    # toomer_of_algebra = via fundamental class = max per-class value
    for name in ["sphere:3", "cp:4", "example-5gen", "heisenberg", "nil4",
                 "mixed:1", "mixed:2", "mixed:3", "mixed:4", "mixed:5"]:
        m = get_model(name)
        report = e0_spectrum(m)
        e0 = report.e0_algebra
        assert toomer_via_fundamental_class(m) == e0, name
        max_class = max(max(vals) for vals in report.per_class if vals)
        assert max_class == e0, name


def test_representative_independence():
    # e0 is unchanged when the representative moves by a coboundary
    rng = random.Random(91)
    for name in ["example-5gen", "heisenberg", "mixed:5"]:
        m = get_model(name)
        engine = engine_for(m)
        n = engine.require_certificate().formal_dimension
        for i in range(1, n + 1):
            prev = engine.basis(i - 1)
            for cls in engine.classes(i):
                base = toomer_of_class(m, cls)
                for _ in range(3):
                    if not prev:
                        continue
                    mono = prev[rng.randrange(len(prev))]
                    cob = m.d({mono: Fraction(rng.randint(1, 3))})
                    moved = CohomologyClass(i, poly_add(cls.representative, cob))
                    if not moved.representative:
                        continue
                    assert toomer_of_class(m, moved) == base, (name, i)


def test_mu_matches_bigraded_dims(random_corpus):
    # for homogeneous models the filtration drop equals the length grading
    models = [m for m in library() if length_profile(m).is_homogeneous]
    models += random_corpus[:10]
    for m in models:
        report = e0_spectrum(m)
        table = bigraded_profile(m)
        dims = table.length_dims()
        assert len(report.spectrum) == len(dims)
        assert report.spectrum == dims, m.name


def test_remark2_bound_on_mixed_library():
    for i in range(1, 6):
        m = get_model(f"mixed:{i}")
        prof = length_profile(m)
        assert prof.kind == "bounded_below"
        bound = len(m.odd_generators) + (prof.l - 2) * len(m.even_generators)
        assert toomer_of_algebra(m) >= bound, m.name


def quotient_d_matrix(qc, i):
    """Induced differential of a quotient complex out of degree i (long
    terms deleted)."""
    basis = [m for m in qc.engine.basis(i) if word_length(m) <= qc.cutoff]
    basis_next = [m for m in qc.engine.basis(i + 1) if word_length(m) <= qc.cutoff]
    index_next = {m: r for r, m in enumerate(basis_next)}
    entries = {}
    for col, mono in enumerate(basis):
        for m2, c in qc.engine.d_mono(mono).items():
            r = index_next.get(m2)
            if r is not None:
                entries[(r, col)] = c
    return RatMatrix(len(basis_next), len(basis), entries)


def test_quotient_complex_induced_d_squared_zero():
    for name in ["example-5gen", "heisenberg", "mixed:3"]:
        m = get_model(name)
        engine = engine_for(m)
        n = engine.require_certificate().formal_dimension
        for cutoff in range(1, 4):
            qc = quotient_complex(m, cutoff)
            for i in range(n):
                d1 = quotient_d_matrix(qc, i)
                d2 = quotient_d_matrix(qc, i + 1)
                assert matmul(d2, d1).is_zero(), (name, cutoff, i)


def test_projection_is_chain_map():
    # truncate(d(m)) = d_quotient(truncate(m)) on every basis monomial
    for name in ["example-5gen", "mixed:3", "nil4"]:
        m = get_model(name)
        engine = engine_for(m)
        n = engine.require_certificate().formal_dimension
        for cutoff in (1, 2, 3):
            qc = quotient_complex(m, cutoff)
            for i in range(n + 1):
                for mono in engine.basis(i):
                    truncated_d = {
                        mm: c for mm, c in engine.d_mono(mono).items()
                        if word_length(mm) <= cutoff
                    }
                    if word_length(mono) > cutoff:
                        # m dies under p_n, so its image must too
                        # (d raises length, so this holds automatically)
                        assert not truncated_d
                        continue
                    assert qc.project(engine.d_mono(mono)) == truncated_d


def test_gap_scan_empty_corpus():
    assert gap_scan([]) == []


def test_gap_scan_library_no_gaps():
    corpus = [(m, None) for m in library()]
    records = gap_scan(corpus)
    assert len(records) == len(corpus)
    assert all(not r.gaps for r in records)
    assert all(r.verdict == "no-gaps" for r in records)
    names = [r.model_name for r in records]
    assert names == sorted(names)
