import importlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sullivan.algebra import multiply, word_length
from sullivan.cohomology import (
    CohomologyEngine,
    InternalInvariantError,
    NotEllipticError,
    NotHomogeneousError,
    _DegreeCohomology,
    bigraded_cohomology,
    bigraded_profile,
    certify_elliptic,
    cohomology,
    cohomology_table,
    engine_for,
    formal_dimension_formula,
    fundamental_class,
    pd_pairing,
)
from sullivan.library import get_model, library
from sullivan.linalg import Echelon, RatMatrix, kernel_basis, matmul, rank
from sullivan.model import (
    RandomModelParams,
    length_profile,
    make_model,
    quotient_model,
    random_elliptic_model,
)
from sullivan.parser import parse_model

from conftest import d_mono, pow_model, theta_corpus
from test_cli_golden import MIXED_MODELS

FIXTURES = Path(__file__).parent / "fixtures"

# the package re-exports a function named `cohomology` over the submodule
cohomology_module = importlib.import_module("sullivan.cohomology")

# degrees above the formal dimension checked for vanishing cohomology
VANISHING_DEPTH = 8

# hand-written controls for the ellipticity decision, pure and not pure
CERTIFICATE_CONTROLS = {
    "free-even": ("gen x 2\n", False),  # N < 0
    "pure-infinite": (
        "gen x1 2\ngen x2 2\ngen y1 3\ngen y2 3\n"
        "d y1 = x1^2\nd y2 = x1*x2\n", False),  # N = 4, x2^k survives
    "even-with-d": (
        "gen a 3\ngen b 3\ngen c 3\ngen x 8\nd x = a*b*c\n", False),
    "not-pure-elliptic": (
        "gen x 2\ngen a 3\ngen b 3\ngen y 5\nd y = x^3 + a*b\n", True),
}


# sampler shapes that reject some attempts: two quadrics in two degree-2
# evens share a factor now and then, and evens of degrees 2 and 4 often do
SAMPLED_SHAPES = [
    RandomModelParams(n_even=2, n_odd=2, l=2),
    RandomModelParams(n_even=2, n_odd=2, l=2, max_even_degree=4),
]


def window_certificate_verdict(engine) -> str:
    """The vanishing-window scan that certified ellipticity before the
    exact decision, kept as a cross-check reference.

    'refutation' when H is nonzero in some degree N+1..N+w, with
    w = max(N, largest generator degree, 1), or when H^N is not
    one-dimensional or a Poincare pairing degenerates; 'inconclusive' when
    N < 0 and the window shows nothing; else 'certificate'."""
    n = engine.formal_dimension_formula()
    base = max(n, 0)
    w = max(base, max((g.degree for g in engine.gens), default=1), 1)
    if any(engine.betti(i) for i in range(base + 1, base + w + 1)):
        return "refutation"
    if n < 0:
        return "inconclusive"
    if engine.betti(n) != 1:
        return "refutation"
    if not all(engine.pd_pairing(i)[1] for i in range(n + 1)):
        return "refutation"
    return "certificate"


def load_betti_fixture():
    data = json.loads((FIXTURES / "betti_tables.json").read_text())
    data.pop("_comment", None)
    return {name: {int(k): v for k, v in table.items()} for name, table in data.items()}


def test_betti_numbers_match_hand_derived_tables():
    """Criterion 10: exhaustive-enumeration oracle vs the engine, for
    every library model with <= 3 generators."""
    tables = load_betti_fixture()
    for name, expected in tables.items():
        model = get_model(name)
        assert model.n_gens <= 3, f"{name} has too many generators for this fixture"
        engine = engine_for(model)
        cert = engine.require_certificate()
        top = cert.formal_dimension
        computed = {i: engine.betti(i) for i in range(top + 1) if engine.betti(i)}
        assert computed == expected, name


def test_all_small_library_models_are_covered_by_fixture():
    tables = load_betti_fixture()
    for model in library():
        if model.n_gens <= 3:
            assert model.name in tables, f"{model.name} missing from the oracle fixture"


def test_cohomology_odd_sphere():
    m = get_model("sphere:3")
    dim, classes = cohomology(m, 3)
    assert dim == 1
    assert classes[0].representative == {(1,): Fraction(1)}


def test_cohomology_cp2_dims():
    m = get_model("cp:2")
    dims = [cohomology(m, i)[0] for i in range(5)]
    assert dims == [1, 0, 1, 0, 1]
    assert cohomology(m, 5)[0] == 0 and cohomology(m, 6)[0] == 0


def test_cohomology_5gen_total():
    m = get_model("example-5gen")
    assert cohomology_table(m).total_dimension == 6


def test_bigraded_h00_is_unit():
    for name in ["sphere:2", "cp:3", "example-5gen", "heisenberg"]:
        m = get_model(name)
        dim, classes = bigraded_cohomology(m, 0, 0)
        assert dim == 1
        assert classes[0].representative == {(0,) * m.n_gens: Fraction(1)}
        assert bigraded_cohomology(m, 1, 0)[0] == 0


def test_bigraded_even_sphere_strands():
    m = get_model("sphere:2")
    assert bigraded_cohomology(m, 2, 1)[0] == 1
    for i in range(0, 9):
        assert bigraded_cohomology(m, i, 2)[0] == 0


def test_strand_coordinates_refuse_other_lengths():
    # Lambda(u, x, y, a), dy = x^2: [u a] spans H^6 = H^6_2, and x^3 = d(x y)
    # is a coboundary of length 3 in the same degree
    m = make_model([("u", 3), ("x", 2), ("y", 3), ("a", 3)], {"y": {(0, 2, 0, 0): Fraction(1)}})
    engine = engine_for(m)
    ua, x3 = (1, 0, 0, 1), (0, 3, 0, 0)
    strand = engine.strand(6, 2)
    assert strand.reps == [{ua: 1}] and engine.full(6).reps == [{ua: 1}]
    assert strand.coordinates({ua: Fraction(3)}) == (3,)
    moved = {ua: Fraction(3), x3: Fraction(1)}
    assert engine.full(6).coordinates(moved) == (3,)  # the shared echelon accepts it
    assert engine.strand(6, 3).coordinates({x3: Fraction(2)}) == ()
    for k, cochain in ((2, moved), (2, {x3: Fraction(1)}), (3, {ua: Fraction(1)})):
        with pytest.raises(InternalInvariantError, match="not a cocycle modulo boundaries"):
            engine.strand(6, k).coordinates(cochain)


def rep_length(rep):
    """The one word length of a representative, None when it mixes lengths."""
    lengths = {word_length(m) for m in rep}
    return lengths.pop() if len(lengths) == 1 else None


def test_class_word_lengths_on_mixed_models():
    # on a mixed model a representative may mix lengths: its class says None
    models = [m for m in library() if not length_profile(m).is_homogeneous]
    models += [parse_model(text, name=name) for name, text in MIXED_MODELS.items()]
    seen = set()
    for m in models:
        engine = engine_for(m)
        for i in range(engine.formal_dimension_formula() + 1):
            got = [cls.word_length for cls in engine.classes(i)]
            assert got == [rep_length(rep) for rep in engine.full(i).reps], (m.name, i)
            seen.update(x is None for x in got)
    assert seen == {True, False}


def test_strands_are_label_slices_of_h_i(homogeneous_library, random_corpus):
    # every strand shares H^i's one echelon and names its reps by H^i labels
    for m in homogeneous_library + random_corpus[:12]:
        engine = engine_for(m)
        for i in range(max(engine.formal_dimension_formula(), 0) + 2):
            whole = engine.full(i)
            labels = []
            for k in range(max(whole.lengths, default=0) + 2):  # the last one is empty
                part = engine.strand(i, k)
                assert part.echelon is whole.echelon, (m.name, i, k)
                assert part.reps == [whole.reps[s] for s in part.labels], (m.name, i, k)
                labels += part.labels
            assert part.dim == 0, (m.name, i)
            assert sorted(labels) == list(range(whole.dim)), (m.name, i)


def test_bigraded_5gen_length_dims():
    table = bigraded_profile(get_model("example-5gen"))
    assert table.length_dims() == (1, 2, 2, 1)


def test_bigraded_rejects_mixed_models():
    with pytest.raises(NotHomogeneousError):
        bigraded_cohomology(get_model("mixed:2"), 2, 1)


def test_formal_dimension_formula_examples():
    assert formal_dimension_formula(get_model("sphere:3")) == 3
    assert formal_dimension_formula(get_model("sphere:5")) == 5
    assert formal_dimension_formula(get_model("cp:3")) == 6
    assert formal_dimension_formula(get_model("example-5gen")) == 7


def test_certify_s3():
    assert certify_elliptic(get_model("sphere:3")).ok


def test_certify_refutes_free_polynomial_algebra():
    m = make_model([("x", 2)])
    cert = certify_elliptic(m)
    assert cert.verdict == "refutation"
    assert "negative formal dimension -1" in cert.witness


def test_refutation_witness_names_degree_and_monomial():
    text, _ = CERTIFICATE_CONTROLS["pure-infinite"]
    cert = certify_elliptic(parse_model(text))
    assert cert.verdict == "refutation" and cert.formal_dimension == 4
    assert "degree 6" in cert.witness and "x2^3" in cert.witness


def test_certify_all_library_models():
    for m in library():
        cert = certify_elliptic(m)
        assert cert.ok, f"{m.name}: {cert.verdict} {cert.witness}"
        assert cert.witness is None


def test_certificate_records_formal_dimension():
    cert = certify_elliptic(get_model("cp:2"))
    assert (cert.verdict, cert.formal_dimension, cert.witness) == ("certificate", 4, None)


def test_certificate_agrees_with_window_scan(monkeypatch, random_corpus):
    """The exact decision and the old window scan agree on the library,
    the 50-model corpus, the controls and every model the sampler drew
    for two small shapes, rejected attempts included."""
    drawn = []
    decide = cohomology_module.certify_elliptic

    def recording(model):
        drawn.append(model)
        return decide(model)

    monkeypatch.setattr(cohomology_module, "certify_elliptic", recording)
    for params in SAMPLED_SHAPES:
        for seed in range(60):
            random_elliptic_model(seed, params)
    monkeypatch.undo()
    assert any(not certify_elliptic(m).ok for m in drawn)
    controls = [parse_model(text, name=name)
                for name, (text, _) in CERTIFICATE_CONTROLS.items()]
    for m in library() + random_corpus + drawn + controls:
        cert = certify_elliptic(m)
        reference = window_certificate_verdict(engine_for(m))
        assert cert.ok == (reference == "certificate"), (m.name, cert, reference)
    for m, (_, elliptic) in zip(controls, CERTIFICATE_CONTROLS.values()):
        assert certify_elliptic(m).ok == elliptic, m.name


def test_certifier_basis_table_keeps_witnesses(monkeypatch, random_corpus):
    """The pure-quotient witness read off the certifier's basis table is
    the one the recursive enumerator gives, on the library, the corpus,
    the controls and rejected sampler attempts."""
    from test_algebra import reference_monomial_basis

    drawn = []
    decide = cohomology_module.certify_elliptic

    def recording(model):
        drawn.append(model)
        return decide(model)

    monkeypatch.setattr(cohomology_module, "certify_elliptic", recording)
    for seed in range(20):
        random_elliptic_model(seed, SAMPLED_SHAPES[1])
    monkeypatch.undo()
    controls = [parse_model(text, name=name) for name, (text, _) in CERTIFICATE_CONTROLS.items()]
    models = library() + random_corpus + drawn + controls
    witnesses = []
    for m in models:
        n_form = formal_dimension_formula(m)
        witnesses.append(CohomologyEngine(m)._pure_quotient_witness(n_form) if n_form >= 0 else None)
    assert sum(w is not None for w in witnesses) >= 3

    class RecursiveBases:
        def __init__(self, gens):
            self.gens = gens

        def basis(self, degree):
            return reference_monomial_basis(self.gens, degree)

    monkeypatch.setattr(cohomology_module, "BasisTable", RecursiveBases)
    for m, witness in zip(models, witnesses):
        n_form = formal_dimension_formula(m)
        if n_form >= 0:
            assert CohomologyEngine(m)._pure_quotient_witness(n_form) == witness, m.name


def test_fundamental_class_odd_sphere():
    cls = fundamental_class(get_model("sphere:5"))
    assert cls.representative == {(1,): Fraction(1)}


def test_fundamental_class_cp_n():
    m = get_model("cp:2")
    cls = fundamental_class(m)
    assert cls.representative == {(2, 0): Fraction(1)}  # [x^2]


def test_fundamental_class_heisenberg():
    m = get_model("heisenberg")
    cls = fundamental_class(m)
    assert cls.representative == {(1, 1, 1): Fraction(1)}  # [abc]
    assert cls.degree == 3


def test_fundamental_class_normalization():
    # first nonzero coefficient (in monomial order) is 1
    for name in ["example-5gen", "nil4", "cpl-sphere:3,1", "mixed:3"]:
        cls = fundamental_class(get_model(name))
        first = min(cls.representative)
        assert cls.representative[first] == 1


def test_fundamental_class_requires_certificate():
    with pytest.raises(NotEllipticError):
        fundamental_class(make_model([("x", 2)]))


def test_pd_pairing_degree_zero():
    mat, ok = pd_pairing(get_model("sphere:2"), 0)
    assert ok and mat.rows == 1 and mat.columns == [{0: 1}]


def test_pd_pairing_top_degree():
    mat, ok = pd_pairing(get_model("sphere:2"), 2)
    assert ok and mat.columns == [{0: 1}]


def test_pd_pairing_5gen_middle():
    mat, ok = pd_pairing(get_model("example-5gen"), 2)
    assert ok and mat.rows == 2 and mat.cols == 2


def test_pd_pairing_nondegenerate_everywhere(random_corpus):
    """Every pairing is nondegenerate, and pd_pairing(N - i) is
    (-1)^(i(N-i)) times the transpose of pd_pairing(i) (graded
    commutativity), which lets certification check i <= N/2 only."""
    names = ["heisenberg", "example-5gen", "cp:3", "cpl-sphere:3,1", "mixed:1"]
    for m in [get_model(name) for name in names] + random_corpus:
        n = engine_for(m).require_certificate().formal_dimension
        for i in range(n + 1):
            mat, ok = pd_pairing(m, i)
            assert ok, f"{m.name} degree {i}"
            dual, _ = pd_pairing(m, n - i)
            sign = -1 if i * (n - i) % 2 else 1
            assert dual == RatMatrix(mat.cols, [
                {t: sign * col[s] for t, col in enumerate(mat.columns) if s in col}
                for s in range(mat.rows)]), f"{m.name} degree {i}"


def reference_pd_pairing(engine, i):
    """The per-product pairing that the integration functional replaced,
    kept as a cross-check reference: multiply every pair of
    representatives and read the fundamental-class coordinate of the
    product off a reduction against the whole top-degree echelon."""
    n = engine.formal_dimension_formula()
    top = engine.full(n)
    left, right = engine.full(i).reps, engine.full(n - i).reps
    mat = RatMatrix(len(left), [
        {s: top.coordinates(multiply(engine.gens, a, b))[0] for s, a in enumerate(left)}
        for b in right])
    return mat, mat.rows == mat.cols and rank(mat) == mat.rows


def test_pd_pairing_matches_per_product_reference(random_corpus):
    """The dual-vector pairing equals the per-product one, matrix and
    flag, in every degree 0..N of every certified model here, the model
    with no generators (its monomials are empty tuples) included."""
    models = (library() + random_corpus + theta_corpus() + [make_model([])]
              + [pow_model(3, 3), pow_model(4, 3), pow_model(3, 4)])
    compared = 0
    for m in models:
        engine = engine_for(m)
        if not engine.certify().ok:
            continue
        n = engine.formal_dimension_formula()
        for i in range(n + 1):
            assert engine.pd_pairing(i) == reference_pd_pairing(engine, i), (m.name, i)
            compared += 1
    assert compared == 661


def test_corrupted_integration_functional_is_an_internal_error(monkeypatch):
    """phi is checked once on every top-degree row: a phi that misses a
    support monomial, or is shifted at a coboundary's pivot, raises."""
    functional = Echelon.functional
    model = get_model("example-5gen")
    n = formal_dimension_formula(model)
    boundary_pivot = next(p for p, _, label in engine_for(model).full(n).echelon.items()
                          if label is None)
    corruptions = [
        lambda phi: dict(list(phi.items())[1:]),
        lambda phi: {**phi, boundary_pivot: phi.get(boundary_pivot, 0) + 1},
    ]
    for corrupt in corruptions:
        monkeypatch.setattr(Echelon, "functional", lambda self, label: corrupt(functional(self, label)))
        with pytest.raises(InternalInvariantError, match=r"phi\(B\^7\) != 0 or phi\(omega\) != 1"):
            certify_elliptic(get_model("example-5gen"))


def test_bigraded_profile_5gen_extremes():
    table = bigraded_profile(get_model("example-5gen"))
    assert table.n_k == (0, 2, 5, 7)
    assert table.N_k == (0, 2, 5, 7)
    assert table.e_top == 3


def test_bigraded_profile_cpl_family():
    # dim H_k = 2 for k = 1..l-1 and 1 at the ends (computed grid, which
    # follows the category formula rather than the printed l+1)
    for l, r in [(2, 1), (3, 1), (4, 2)]:
        table = bigraded_profile(get_model(f"cpl-sphere:{l},{r}"))
        dims = table.length_dims()
        assert dims[0] == 1 and dims[-1] == 1
        assert all(d == 2 for d in dims[1:-1])
        assert table.e_top == l


def test_nilmanifold_bigrading_sits_on_the_diagonal():
    # degree-1 generators make word length equal topological degree
    for name in ["heisenberg", "nil4", "nil5"]:
        table = bigraded_profile(get_model(name))
        for i in range(table.formal_dimension + 1):
            for k in range(table.e_top + 1):
                if table.h[i][k]:
                    assert i == k, (name, i, k)


def test_bigraded_top_corner_is_one_dimensional():
    for name in ["sphere:3", "cp:2", "example-5gen", "heisenberg", "nil4", "nil5"]:
        table = bigraded_profile(get_model(name))
        assert table.h[table.formal_dimension][table.e_top] == 1
        for i in range(table.formal_dimension):
            assert table.h[i][table.e_top] == 0


def test_d_squared_zero_at_matrix_level(random_corpus):
    for m in library() + random_corpus[:8]:
        engine = engine_for(m)
        top = engine.require_certificate().formal_dimension
        for i in range(top + 1):
            a = engine.d_matrix(i)
            b = engine.d_matrix(i + 1)
            assert matmul(b, a).is_zero(), f"{m.name} degree {i}"


def test_length_splitting_refines_betti():
    for m in library():
        if not length_profile(m).is_homogeneous:
            continue
        engine = engine_for(m)
        table = engine.bigraded_profile()
        for i in range(table.formal_dimension + 1):
            assert sum(table.h[i]) == engine.betti(i), f"{m.name} degree {i}"


def test_poincare_duality_betti_symmetry(random_corpus):
    for m in library() + random_corpus:
        engine = engine_for(m)
        n = engine.require_certificate().formal_dimension
        for i in range(n + 1):
            assert engine.betti(i) == engine.betti(n - i), m.name


def test_bigraded_duality_identity():
    # n_k = N - N_(e-k) for middle k
    for m in library():
        if not length_profile(m).is_homogeneous:
            continue
        table = bigraded_profile(m)
        e, n = table.e_top, table.formal_dimension
        for k in range(1, e):
            assert table.n_k[k] == n - table.N_k[e - k], f"{m.name} k={k}"


def test_formula_matches_computed_top_degree():
    for m in library():
        engine = engine_for(m)
        n = engine.require_certificate().formal_dimension
        assert engine.betti(n) > 0
        for i in range(n + 1, n + VANISHING_DEPTH + 1):
            assert engine.betti(i) == 0


def test_euler_characteristic_elliptic_facts():
    # chi >= 0; chi > 0 iff dim V^even = dim V^odd, chi = 0 otherwise
    for m in library():
        engine = engine_for(m)
        n = engine.require_certificate().formal_dimension
        chi = sum((-1) ** i * engine.betti(i) for i in range(n + 1))
        assert chi >= 0, m.name
        if len(m.even_generators) == len(m.odd_generators):
            assert chi > 0, m.name
        else:
            assert chi == 0, m.name


def test_euler_characteristic_vanishes_with_more_odd_generators(random_corpus):
    """Halperin 1977: an elliptic model with dim V^odd > dim V^even has
    chi = sum (-1)^i b_i = 0.  Read from the Betti numbers and the
    generator counts only, on every such library and corpus model."""
    models = [m for m in library() + random_corpus
              if len(m.odd_generators) > len(m.even_generators)]
    assert len(models) == 37
    for m in models:
        betti = cohomology_table(m).betti
        assert sum((-1) ** i * b for i, b in enumerate(betti)) == 0, m.name


def test_representatives_are_cocycles_and_canonical():
    rng = random.Random(77)
    for name in ["example-5gen", "nil5", "cp:3", "mixed:4"]:
        m = get_model(name)
        engine = engine_for(m)
        n = engine.require_certificate().formal_dimension
        for i in range(n + 1):
            for cls in engine.classes(i):
                assert m.d(cls.representative) == {}
                # coordinates of the representative are a unit vector
                coords = engine.class_coordinates(i, cls.representative)
                assert sum(1 for c in coords if c) == 1


def test_memoization_returns_same_objects():
    m = get_model("cp:2")
    engine = engine_for(m)
    assert engine.full(2) is engine.full(2)
    assert engine_for(m) is engine


def classes_equal(engine, i, p, q):
    """Class equality: the difference is a coboundary."""
    return engine.class_coordinates(i, p) == engine.class_coordinates(i, q)


def test_class_equality_is_coboundary_equivalence():
    m = get_model("example-5gen")
    engine = engine_for(m)
    # [x1^2 y3 - x1 x2 y2] = [x2^2 y1 - x1 x2 y2] (differ by d(y1 y3))
    a = {(2, 0, 0, 0, 1): Fraction(1), (1, 1, 0, 1, 0): Fraction(-1)}
    b = {(0, 2, 1, 0, 0): Fraction(1), (1, 1, 0, 1, 0): Fraction(-1)}
    assert m.d(a) == {} and m.d(b) == {}
    assert classes_equal(engine, 7, a, b)
    # but the two degree-5 classes are different
    c1 = {(1, 0, 0, 1, 0): Fraction(1), (0, 1, 1, 0, 0): Fraction(-1)}
    c2 = {(1, 0, 0, 0, 1): Fraction(1), (0, 1, 0, 1, 0): Fraction(-1)}
    assert not classes_equal(engine, 5, c1, c2)


def reference_build(engine, i, k=None):
    """H^i (or H^i_k) by the two eliminations the one-pass build replaced,
    kept as a cross-check reference: Z^i from the kernel of the
    differential matrix, B^i from an `Echelon` of the images of the degree
    (or strand) below."""
    basis = engine.basis(i) if k is None else engine.strand_basis(i, k)
    ech = Echelon()
    if i >= 1:
        if k is None:
            prev = engine.basis(i - 1)
        else:
            kk = k - (length_profile(engine.model).l - 1)
            prev = engine.strand_basis(i - 1, kk) if kk >= 0 else []
        for m in prev:
            ech.add(d_mono(engine, m))
    reps = []
    for vec in kernel_basis(engine.d_matrix(i, k)):
        row = ech.add({basis[j]: c for j, c in enumerate(vec) if c}, label=len(reps))
        if row is not None:
            reps.append(row)
    return _DegreeCohomology(i, basis, reps, ech, [rep_length(rep) for rep in reps])


def assert_same_cohomology(model, got, ref, where):
    assert got.basis == ref.basis, where
    assert got.reps == ref.reps, where
    assert got.lengths == ref.lengths, where
    for rep in ref.reps:
        assert not model.d(rep), where
        assert got.coordinates(rep) == ref.coordinates(rep), where


def strand_range(engine):
    """Engines and the (i_max, k_max) of the strands a Wang or Gysin build
    reads on the model (both the model and its quotient, ranges as in
    `sequences._build`); the model's strands up to N otherwise."""
    m = engine.model
    n = engine.formal_dimension_formula()
    if not m.generators or m.d_of(0):
        return [engine], n, engine.max_length()
    x1 = m.generators[0]
    quotient = engine_for(quotient_model(m, x1))
    i_max = max(n, quotient.formal_dimension_formula()) + x1.degree + 1
    k_max = max(engine.max_length(), quotient.max_length()) + length_profile(m).l
    return [engine, quotient], i_max, k_max


def test_one_pass_build_matches_two_eliminations(random_corpus):
    """Reps, dims and class coordinates of the one-pass build agree with
    the reference in every degree up to N + 1, and in every strand of the
    homogeneous models that their Wang or Gysin sequence reads."""
    for m in library() + random_corpus + [pow_model(3, 3), pow_model(4, 3)]:
        engine = engine_for(m)
        n = engine.formal_dimension_formula()
        for i in range(n + 2):
            ref = reference_build(engine, i)
            assert engine.full(i).echelon.rank == ref.echelon.rank, (m.name, i)
            assert_same_cohomology(m, engine.full(i), ref, (m.name, i))
        if length_profile(m).is_homogeneous:
            engines, i_max, k_max = strand_range(engine)
            for eng in engines:
                for i in range(i_max + 1):
                    for k in range(k_max + 1):
                        assert_same_cohomology(eng.model, eng.strand(i, k),
                                               reference_build(eng, i, k), (eng.model.name, i, k))


def poincare_series_betti(model, top):
    """Betti numbers b_0..b_top of a positively elliptic pure model from its
    Poincare series prod(1 - t^(|y_j| + 1)) / prod(1 - t^|x_i|) (Halperin
    1977), in integer arithmetic."""
    series = [1] + [0] * top
    for y in model.odd_generators:
        a = y.degree + 1
        series = [c - (series[t - a] if t >= a else 0) for t, c in enumerate(series)]
    for x in model.even_generators:
        for t in range(x.degree, top + 1):
            series[t] += series[t - x.degree]
    return series


def test_betti_numbers_match_poincare_series(random_corpus):
    """Every b_i, N and dim H of the certified pure models with as many
    even as odd generators against the oracle, which shares no code with
    the engine."""
    pure = [m for m in random_corpus
            if len(m.even_generators) == len(m.odd_generators)
            and not any(m.d_of(g.index) for g in m.even_generators)
            and not any(mono[g.index] for y in m.odd_generators
                        for mono in m.d_of(y.index) for g in m.odd_generators)]
    assert len(pure) == 25
    for m in pure + [pow_model(3, 3), pow_model(4, 3), pow_model(3, 4)]:
        engine = engine_for(m)
        n = sum(y.degree for y in m.odd_generators) - sum(x.degree - 1 for x in m.even_generators)
        series = poincare_series_betti(m, 2 * n + 2)
        assert series[n] == 1 and not any(series[n + 1:]), m.name
        assert [engine.betti(i) for i in range(n + 1)] == series[: n + 1], m.name
        assert engine.require_certificate().formal_dimension == n, m.name
        assert engine.cohomology_table().total_dimension == sum(series), m.name
