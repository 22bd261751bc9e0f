import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sullivan.algebra import word_length
from sullivan.cohomology import (
    CohomologyClass,
    InternalInvariantError,
    engine_for,
    fundamental_class,
    bigraded_profile,
)
from sullivan.library import get_model, library
from sullivan.linalg import Echelon, RatMatrix, matmul, reduce_rows
from sullivan.model import length_profile, make_model
from sullivan.parser import parse_model, print_model
from sullivan.toomer import (
    QuotientComplex,
    _by_length,
    e0_spectrum,
    gap_scan,
    toomer_of_algebra,
    toomer_of_class,
)
from conftest import d_mono, poly_add, pow_model, theta_corpus


def test_odd_sphere_fundamental_class():
    m = get_model("sphere:7")
    assert toomer_of_class(m, fundamental_class(m)) == 1


def test_cp_powers():
    m = get_model("cp:4")
    engine = engine_for(m)
    # [x^k] lives in degree 2k and has e0 = k, the unit [1] included
    for k in range(5):
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


def test_coboundary_class_rejected():
    # a nonzero coboundary is the zero class: no cutoff keeps it alive,
    # on a homogeneous model (read from H^i) and on a mixed one
    for name in ("example-5gen", "mixed:3"):
        m = get_model(name)
        engine = engine_for(m)
        assert length_profile(m).is_homogeneous == (name == "example-5gen")
        for i in range(1, engine.require_certificate().formal_dimension + 1):
            for mono in engine.basis(i - 1):
                cob = m.d({mono: Fraction(1)})
                if cob:
                    with pytest.raises(InternalInvariantError, match="died in every quotient"):
                        toomer_of_class(m, CohomologyClass(i, cob))


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
    for name in ("cp:3", "heisenberg", "example-5gen"):
        m = get_model(name)
        assert toomer_of_class(m, fundamental_class(m)) == 3, name


def test_spectrum_5gen():
    report = e0_spectrum(get_model("example-5gen"))
    assert report.spectrum == (1, 2, 2, 1)
    assert report.gaps == ()
    assert report.e0_algebra == report.cat0 == 3


def test_spectrum_heisenberg():
    report = e0_spectrum(get_model("heisenberg"))
    assert report.spectrum == (1, 2, 2, 1)
    assert report.gaps == ()


def test_per_class_is_computed_on_first_read_only(monkeypatch):
    import sullivan.toomer as toomer

    calls = []
    monkeypatch.setattr(toomer, "toomer_of_class",
                        lambda model, cls: calls.append(cls) or cls.degree)
    report = e0_spectrum(parse_model(print_model(get_model("example-5gen"))))
    assert calls == []
    first = report.per_class
    n_classes = len(calls)
    assert n_classes == sum(len(v) for v in first) > 0
    assert report.per_class is first and len(calls) == n_classes


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
        # K_n lives in degrees 1..N only
        assert filt.dim(0, 0) == filt.dim(filt.formal_dimension + 1, 0) == 0


WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _les_models():
    """The benchmark's generated mixed-length models (`les_pool` of
    `bench/workloads.py`, loaded read-only from its path): 64 models."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return [parse_model(model.text, name=f"les-{seed}-{i}-{model.kind}")
            for seed in (1, 2)
            for i, pair in enumerate(workloads.les_pool(seed, 16))
            for model in pair]


def test_consistency_three_ways():
    # toomer_of_algebra = via fundamental class = max per-class value
    models = [get_model(name) for name in [
        "sphere:3", "cp:4", "example-5gen", "heisenberg", "nil4",
        "mixed:1", "mixed:2", "mixed:3", "mixed:4", "mixed:5"]]
    les = _les_models()
    assert len(les) == 64 and not any(length_profile(m).is_homogeneous for m in les)
    for m in models + les:
        report = e0_spectrum(m)
        e0 = report.e0_algebra
        assert toomer_of_class(m, fundamental_class(m)) == e0, m.name
        max_class = max(max(vals) for vals in report.per_class if vals)
        assert max_class == e0, m.name


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


# -- test-only reference: one quotient complex, and one coboundary echelon,
# per cutoff; each class re-reduced once per cutoff ---------------------


class ReferenceQuotient:
    """The DG quotient by monomials of word length > cutoff.

    A cochain of the quotient is a polynomial with no term longer than
    the cutoff; the projection p_n and the induced differential just
    delete the long terms.
    """

    def __init__(self, engine, cutoff):
        self.engine = engine
        self.cutoff = cutoff
        self._deg = {}

    def project(self, p):
        return {m: c for m, c in p.items() if word_length(m) <= self.cutoff}

    def degree_data(self, i):
        got = self._deg.get(i)
        if got is None:
            got = Echelon()
            if i >= 1:
                for m in self.engine.basis(i - 1):
                    if word_length(m) <= self.cutoff:
                        boundary = self.project(d_mono(self.engine, m))
                        if boundary:
                            got.add(boundary)
            self._deg[i] = got
        return got

    def projects_to_boundary(self, i, p):
        return self.degree_data(i).contains(self.project(p))

    def kernel_dim(self, i):
        dc = self.engine.full(i)
        if dc.dim == 0:
            return 0
        probe = self.degree_data(i).clone()
        surviving = sum(probe.add(self.project(rep)) is not None for rep in dc.reps)
        return dc.dim - surviving


class ReferenceToomer:
    """The Toomer filtration, spectrum and per-class values of one engine
    from one `ReferenceQuotient` per cutoff."""

    def __init__(self, engine):
        self.engine = engine
        self._quotients = {}

    def quotient(self, cutoff):
        if cutoff not in self._quotients:
            self._quotients[cutoff] = ReferenceQuotient(self.engine, cutoff)
        return self._quotients[cutoff]

    def kernel_dims(self, i):
        """dim K_n^i for n = 0, 1, ... until it reaches zero."""
        dims = [self.engine.betti(i)]
        n = 1
        while dims[-1] > 0:
            dims.append(self.quotient(n).kernel_dim(i))
            n += 1
            if n > i + 1:
                if dims[-1] > 0:
                    raise InternalInvariantError(f"filtration in degree {i} did not reach zero")
                break
        return tuple(dims)

    def of_class(self, cls):
        if cls.degree == 0:
            return 0
        for n in range(1, cls.degree + 1):
            if not self.quotient(n).projects_to_boundary(cls.degree, cls.representative):
                return n
        raise InternalInvariantError(f"class in degree {cls.degree} died in every quotient")

    def report(self):
        """(dims, spectrum, per_class, e0) as `e0_spectrum` reports them."""
        n_top = self.engine.require_certificate().formal_dimension
        dims = tuple(self.kernel_dims(i) for i in range(1, n_top + 1))
        e0 = max((len(row) - 1 for row in dims), default=0)

        def total(n):
            return sum(row[n] if n < len(row) else 0 for row in dims)

        spectrum = (1,) + tuple(total(k - 1) - total(k) for k in range(1, e0 + 1))
        per_class = tuple(
            tuple(self.of_class(cls) for cls in self.engine.classes(i))
            for i in range(1, n_top + 1)
        )
        return dims, spectrum, per_class, e0


def les_style_model(seed, sphere_first, k):
    """A triangular pure model as in the les-mixed benchmark: d y1 = x1^2,
    d y2 = x2^k + a x1^(2k) + b x1^2 x2^(k-1), and an extra odd w with
    d w = c x1^3 + e x1 x2, plus a free odd sphere u first or last.  For
    k = 3, reduced modulo coboundaries in monomial order, the classes of
    the top two degrees keep a term one shorter than their e0."""
    rng = random.Random(seed)
    a, b, c, e = (rng.choice((-2, -1, 1, 2)) for _ in range(4))
    gens = [("x1", 2), ("x2", 4), ("y1", 3), ("y2", 4 * k - 1), ("w", 5)]
    gens = [("u", 3)] + gens if sphere_first else gens + [("u", 3)]
    names = [g for g, _ in gens]

    def mono(**exps):
        return tuple(exps.get(g, 0) for g in names)

    diffs = {
        "y1": {mono(x1=2): 1},
        "y2": {mono(x2=k): 1, mono(x1=2 * k): a, mono(x1=2, x2=k - 1): b},
        "w": {mono(x1=3): c, mono(x1=1, x2=1): e},
    }
    return make_model(gens, diffs, name=f"les-style({seed},{sphere_first},{k})")


# a pure model with two representatives in H^8 whose residuals modulo B^8
# share their shortest term: reduced by the earlier one, the later one gets
# longer than its e0, which must be read from its own residual
SHARED_SHORTEST_TERM = """\
gen x 2
gen z 2
gen y1 3
gen y2 5
gen y3 5
gen y4 7
d y1 = x*z + 2*x^2
d y2 = 2*x^3 + x*z^2 + 2*x^2*z
d y3 = -z^3 - 2*x^3 + x*z^2 + 2*x^2*z
d y4 = x*z^3 + 4*x^2*z^2 + 4*x^3*z
"""


def cross_check_models(random_corpus):
    return (library() + random_corpus
            + [pow_model(3, 3), pow_model(4, 3), pow_model(3, 4)]
            + [les_style_model(seed, seed % 2 == 0, k) for k in (2, 3) for seed in range(3)]
            + [parse_model(SHARED_SHORTEST_TERM, name="shared-shortest-term")])


def test_filtered_reduction_matches_per_cutoff_reference(random_corpus):
    for m in cross_check_models(random_corpus):
        engine = engine_for(m)
        ref = ReferenceToomer(engine)
        dims, spectrum, per_class, e0 = ref.report()
        report = e0_spectrum(m)
        assert report.filtration.dims == dims, m.name
        assert report.spectrum == spectrum, m.name
        assert report.per_class == per_class, m.name
        assert report.e0_algebra == e0 == toomer_of_algebra(m), m.name
        # the predicate p_n^*[x] = 0 on each class, for cutoffs up to e0(x)
        qc = QuotientComplex(engine)
        for i, values in enumerate(per_class, start=1):
            for cls, value in zip(engine.classes(i), values):
                assert toomer_of_class(m, cls) == value, (m.name, i)
                for n in range(1, value + 1):
                    assert (qc.projects_to_boundary(i, cls.representative, n)
                            == ref.quotient(n).projects_to_boundary(i, cls.representative)
                            == (n < value)), (m.name, i, n)
        # the length-keyed echelon spans d(Lambda V^(i-1)): its pivots are those
        # of the images of basis(i-1), keyed the same way and reduced afresh
        if not length_profile(m).is_homogeneous:
            for i in range(report.filtration.formal_dimension + 2):
                images = [_by_length(d_mono(engine, mono)) for mono in engine.basis(i - 1)]
                assert qc.degree_data(i).pivots == reduce_rows(images)[0].pivots, (m.name, i)


def test_strand_read_spectrum_matches_filtered_reduction(random_corpus):
    # on a homogeneous model e0_spectrum reads the filtration off the strands;
    # the filtered reduction of QuotientComplex.kernel_dim is the reference
    models = library() + random_corpus + theta_corpus() + [pow_model(3, 3), pow_model(4, 3)]
    checked = 0
    for model in models:
        if not length_profile(model).is_homogeneous:
            continue
        m = parse_model(print_model(model), name=model.name)  # an engine of its own
        engine = engine_for(m)
        if not engine.certify().ok:
            continue
        report = e0_spectrum(m)
        per_class = report.per_class
        for i in range(1, report.filtration.formal_dimension + 1):
            for cls in engine.classes(i):
                assert toomer_of_class(m, cls) == cls.word_length, (m.name, i)
        # no second elimination of B^i behind the strand reading or the class values
        assert not hasattr(engine, "_toomer_quotients"), m.name
        n_top = report.filtration.formal_dimension
        qc = QuotientComplex(engine)
        dims = tuple(qc.kernel_dim(i) for i in range(1, n_top + 1))
        e0 = max(len(row) - 1 for row in dims)

        def total(n):
            return sum(row[n] if n < len(row) else 0 for row in dims)

        spectrum = (1,) + tuple(total(k - 1) - total(k) for k in range(1, e0 + 1))
        assert report.filtration.dims == dims, m.name
        assert report.e0_algebra == report.filtration.e0 == e0, m.name
        assert report.spectrum == spectrum, m.name
        assert report.gaps == tuple(k for k, mu in enumerate(spectrum) if not mu), m.name
        # a class of H^i_k has e0 = k
        assert per_class == tuple(
            tuple(cls.word_length for cls in engine.classes(i)) for i in range(1, n_top + 1)
        ), m.name
        checked += 1
    assert checked >= 60


def test_toomer_layer_applies_no_differential(monkeypatch):
    # once certification has built H^0..H^N, e0, the spectrum and every class
    # value of a mixed-length model come from the engine's B^i, re-keyed
    for model in (get_model("mixed:3"), les_style_model(1, False, 3)):
        m = parse_model(print_model(model), name=model.name)  # an engine of its own
        assert not length_profile(m).is_homogeneous, m.name
        engine = engine_for(m)
        assert engine.certify().ok, m.name
        calls = []
        d_row = engine.d_row
        monkeypatch.setattr(engine, "d_row", lambda mono: calls.append(mono) or d_row(mono))
        per_class = e0_spectrum(m).per_class
        assert sum(map(len, per_class)) == e0_spectrum(m).total_h_plus > 0, m.name
        assert calls == [], m.name


def quotient_d_matrix(qc, i):
    """Induced differential of a quotient complex out of degree i (long
    terms deleted)."""
    basis = [m for m in qc.engine.basis(i) if word_length(m) <= qc.cutoff]
    basis_next = [m for m in qc.engine.basis(i + 1) if word_length(m) <= qc.cutoff]
    index_next = {m: r for r, m in enumerate(basis_next)}
    return RatMatrix(len(basis_next), [
        {index_next[m2]: c for m2, c in d_mono(qc.engine, mono).items() if m2 in index_next}
        for mono in basis])


def test_quotient_complex_induced_d_squared_zero():
    for name in ["example-5gen", "heisenberg", "mixed:3"]:
        m = get_model(name)
        engine = engine_for(m)
        n = engine.require_certificate().formal_dimension
        for cutoff in range(1, 4):
            qc = ReferenceQuotient(engine, cutoff)
            for i in range(n):
                d1 = quotient_d_matrix(qc, i)
                d2 = quotient_d_matrix(qc, i + 1)
                assert matmul(d2, d1).is_zero(), (name, cutoff, i)


def test_projection_is_chain_map():
    # truncate(d(m)) = d_quotient(truncate(m)) on every basis monomial,
    # and d(m) itself, a coboundary, projects to a coboundary at every cutoff
    for name in ["example-5gen", "mixed:3", "nil4"]:
        m = get_model(name)
        engine = engine_for(m)
        qc = QuotientComplex(engine)
        n = engine.require_certificate().formal_dimension
        for cutoff in (1, 2, 3):
            ref = ReferenceQuotient(engine, cutoff)
            for i in range(n + 1):
                for mono in engine.basis(i):
                    truncated_d = {
                        mm: c for mm, c in d_mono(engine, mono).items()
                        if word_length(mm) <= cutoff
                    }
                    assert qc.projects_to_boundary(i + 1, d_mono(engine, mono), cutoff)
                    if word_length(mono) > cutoff:
                        # m dies under p_n, so its image must too
                        # (d raises length, so this holds automatically)
                        assert not truncated_d
                        continue
                    assert ref.project(d_mono(engine, mono)) == truncated_d


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
