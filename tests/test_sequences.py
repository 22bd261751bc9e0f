from fractions import Fraction

import pytest

from conftest import theta_corpus
from les_controls import assert_corrupted_witness, corrupt_connecting_sign, wang_derivation
from test_cli_golden import MIXED_MODELS

from sullivan.algebra import Derivation, Generator, apply_derivation, multiply
from sullivan.cli import main
from sullivan.cohomology import CohomologyEngine, InternalInvariantError, engine_for
from sullivan.library import get_model, library
from sullivan.linalg import RatMatrix, matmul, rank
from sullivan.model import (
    QuotientError,
    RandomModelParams,
    SullivanModel,
    length_profile,
    make_model,
    quotient_model,
    random_elliptic_model,
)
from sullivan.parser import parse_model
from sullivan.sequences import (
    LesData,
    LesMap,
    NodeVerdict,
    _cycle,
    _exactness_witness,
    _node_checks,
    _position_label,
    build_gysin,
    build_wang,
    check_exactness,
    formal_dimension_relation,
)


def map_from(les, kind, i, k):
    """The LES map of this kind out of node (i, k), or None."""
    return les.maps.get((kind, i, k))


def test_wang_trivial_quotient_forces_sphere_cohomology():
    # Lambda(u) with W = Lambda(): the sequence leaves H = Q + Q u
    m = get_model("sphere:3")
    les = build_wang(m)
    report = check_exactness(les)
    assert report.all_exact
    assert les.dim(("V", 0, 0)) == 1
    assert les.dim(("V", 3, 1)) == 1
    total_v = sum(d for (g, i, k), d in les.dims.items() if g == "V")
    assert total_v == 2


def test_wang_heisenberg_theta_star_maps_c_class_to_b_class():
    m = get_model("heisenberg")
    les = build_wang(m)
    assert check_exactness(les).all_exact
    # H^1_1(LW) has basis classes [e-order by monomial]: find theta* there
    lmap = map_from(les, "theta", 1, 1)
    assert lmap is not None
    eng_w = engine_for(les.quotient)
    classes = eng_w.classes(1, 1)
    reps = [c.representative for c in classes]
    b_mono = (1, 0)
    c_mono = (0, 1)
    c_col = next(s for s, r in enumerate(reps) if r == {c_mono: Fraction(1)})
    b_row = next(s for s, r in enumerate(reps) if r == {b_mono: Fraction(1)})
    assert lmap.matrix.columns[c_col].get(b_row) == 1
    # theta*([b]) = 0
    b_col = next(s for s, r in enumerate(reps) if r == {b_mono: Fraction(1)})
    assert lmap.matrix.columns[b_col] == {}


def test_wang_splits_when_x1_absent():
    # product with an odd sphere: theta* = 0 and b_i(V) = b_i(W) + b_(i-|u|)(W)
    for name in ["cpl-sphere:2,1", "cpl-sphere:3,1", "cpl-sphere:4,2"]:
        m = get_model(name)
        les = build_wang(m)
        assert check_exactness(les).all_exact
        for key, lmap in les.maps.items():
            if key[0] == "theta":
                assert lmap.matrix.is_zero(), (name, key)
        eng_v = engine_for(m)
        eng_w = engine_for(les.quotient)
        deg = m.generators[0].degree
        n = eng_v.require_certificate().formal_dimension
        for i in range(n + 1):
            expected = eng_w.betti(i) + (eng_w.betti(i - deg) if i >= deg else 0)
            assert eng_v.betti(i) == expected, (name, i)


def test_wang_all_library_odd_first_models():
    for name in ["heisenberg", "nil4", "nil5", "cpl-sphere:2,1", "cpl-sphere:4,2"]:
        report = check_exactness(build_wang(get_model(name)))
        assert report.all_exact, name


def test_wang_eq4_isomorphism_nodes():
    # j*: H^M_k(LW) = H^(M+2r+1)_(k+1)(LV) at the quotient's top degree
    for name in ["heisenberg", "nil5", "cpl-sphere:3,1"]:
        m = get_model(name)
        les = build_wang(m)
        eng_w = engine_for(les.quotient)
        m_top = eng_w.require_certificate().formal_dimension
        deg = les.x1_degree
        for k in range(0, (les.k_max or 0) + 1):
            lmap = map_from(les, "j", m_top, k)
            if lmap is None:
                continue
            src = les.dim(("W", m_top, k))
            dst = les.dim(("V", m_top + deg, k + 1))
            assert src == dst, (name, k)
            assert rank(lmap.matrix) == src, (name, k)


def test_wang_short_exact_sequence_dimension_count():
    # Eq (5): dim H^i_k(V) = dim coker(theta* into W(i-2r-1, k-1))
    #                       + dim ker(theta* out of W(i,k))
    for name in ["heisenberg", "nil4", "nil5", "cpl-sphere:3,1"]:
        m = get_model(name)
        les = build_wang(m)
        deg = les.x1_degree
        l = les.l
        for i in range(les.i_max + 1):
            for k in range((les.k_max or 0) + 1):
                v_dim = les.dim(("V", i, k))
                into = map_from(les, "theta", i - 1, k - 1 - (l - 2))
                target_dim = les.dim(("W", i - deg, k - 1))
                rank_into = rank(into.matrix) if into else 0
                coker = target_dim - rank_into
                out = map_from(les, "theta", i, k)
                rank_out = rank(out.matrix) if out else 0
                kernel = les.dim(("W", i, k)) - rank_out
                assert v_dim == coker + kernel, (name, i, k)


def test_gysin_cp_models():
    for n in (2, 3, 4):
        les = build_gysin(get_model(f"cp:{n}"))
        assert check_exactness(les).all_exact, n


def test_gysin_even_sphere_connecting_map():
    # S^(2n): W = Lambda(y), partial*[y] spans, sequence exact
    m = get_model("sphere:2")
    les = build_gysin(m)
    assert check_exactness(les).all_exact
    lmap = map_from(les, "partial", 3, 1)  # [y] in H^3_1(LW)
    assert lmap is not None and not lmap.matrix.is_zero()


def test_gysin_5gen_exact():
    assert check_exactness(build_gysin(get_model("example-5gen"))).all_exact


def test_gysin_top_degree_isomorphism():
    # partial*: H^M_k(LW) -> H^(M-2r+1)_(k+l-2)(LV) is an isomorphism
    for name in ["cp:2", "cp:4", "example-5gen", "sphere:4"]:
        m = get_model(name)
        les = build_gysin(m)
        eng_w = engine_for(les.quotient)
        m_top = eng_w.require_certificate().formal_dimension
        for k in range(0, (les.k_max or 0) + 1):
            lmap = map_from(les, "partial", m_top, k)
            if lmap is None:
                continue
            src = les.dim(("W", m_top, k))
            dst = les.dim(("V", m_top - les.x1_degree + 1, k + les.l - 2))
            assert src == dst, (name, k)
            assert rank(lmap.matrix) == src, (name, k)


def test_gysin_splits_when_x1_absent():
    # non-elliptic: Lambda(x,u,v,w), dw = u v has no x in any differential,
    # so H(Lambda V) = Q[x] (x) H(Lambda W) and b_i(V) = b_i(W) + b_(i-2)(V)
    m = make_model(
        [("x", 2), ("u", 3), ("v", 5), ("w", 7)],
        {"w": {(0, 1, 1, 0): Fraction(1)}},
    )
    eng_v = engine_for(m)
    eng_w = engine_for(quotient_model(m, m.generators[0]))
    for i in range(10):
        expected = eng_w.betti(i) + (eng_v.betti(i - 2) if i >= 2 else 0)
        assert eng_v.betti(i) == expected, i


def test_parity_preconditions():
    # triangularity already forces d(v1) = 0 on any validated model, so
    # the stripping preconditions reduce to the parity of the first generator
    with pytest.raises(QuotientError):
        build_wang(get_model("cp:2"))
    with pytest.raises(QuotientError):
        build_gysin(get_model("heisenberg"))


@pytest.mark.parametrize("build, name, message", [
    (build_wang, "cp:2", "Wang sequence needs an odd first generator, x is even"),
    (build_gysin, "heisenberg", "Gysin sequence needs an even first generator, a is odd"),
])
def test_parity_refusals_keep_their_text(build, name, message):
    # the CLI prints these refusals with exit code 3
    with pytest.raises(QuotientError) as refusal:
        build(get_model(name))
    assert str(refusal.value) == message


@pytest.mark.parametrize("call", [build_wang, build_gysin, formal_dimension_relation])
def test_a_model_with_no_generators_is_refused(call):
    # the reader refuses a text without a `gen` line, so only the library
    # API can reach this; it is a QuotientError, not an IndexError
    with pytest.raises(QuotientError, match="^the model has no first generator$"):
        call(make_model([]))


def test_non_cocycle_first_generator_is_refused_by_the_quotient():
    # only a model built without `validate` can lead with a non-cocycle;
    # quotient_model is the one place that refuses it, for the sequences too
    gens = (Generator(0, "y", 3), Generator(1, "x", 2))
    bad = SullivanModel(gens, Derivation(1, ({(0, 2): Fraction(1)}, {})))
    with pytest.raises(QuotientError, match=r"d\(y\) != 0"):
        quotient_model(bad, gens[0])
    with pytest.raises(QuotientError, match=r"d\(y\) != 0"):
        formal_dimension_relation(bad)


def test_ungraded_sequences_work_on_mixed_models():
    # Remark-2-style usage: the ungraded Gysin on a mixed-length model
    m = get_model("mixed:1")
    les = build_gysin(m)
    report = check_exactness(les)
    assert not report.bigraded
    assert report.all_exact
    assert build_gysin(m, ungraded=True).maps == les.maps


def test_ungraded_wang_on_homogeneous_model_too():
    les = build_wang(get_model("nil5"), ungraded=True)
    assert check_exactness(les).all_exact


def test_sequences_build_no_degree_above_the_formal_dimension(monkeypatch, tmp_path, capsys):
    # H^i of a certified group is zero outside degrees 0..N, so no source
    # or target there needs an elimination or a class lookup, graded or
    # ungraded
    built, targets = [], []
    build, lookup = CohomologyEngine._build, CohomologyEngine.cohomology_at
    monkeypatch.setattr(CohomologyEngine, "_build",
                        lambda engine, i: built.append((engine, i)) or build(engine, i))
    monkeypatch.setattr(CohomologyEngine, "cohomology_at",
                        lambda engine, i, k=None: targets.append((engine, i))
                        or lookup(engine, i, k))
    for fname, text in MIXED_MODELS.items():
        (tmp_path / fname).write_text(text)
    sources = ([["--lib", m.name] for m in library()]
               + [["--model", str(tmp_path / fname)] for fname in MIXED_MODELS])
    codes = [main([kind, *flags, *source]) for kind in ("wang", "gysin")
             for flags in ([], ["--ungraded"]) for source in sources]
    capsys.readouterr()
    monkeypatch.undo()
    assert set(codes) == {0, 3} and codes.count(0) > 40
    assert len(built) > 500 and len(targets) > 300
    above = [(engine.model.name, i) for engine, i in built
             if i > engine.certify().formal_dimension]
    assert above == []
    outside = [(engine.model.name, i) for engine, i in targets
               if not 0 <= i <= engine.certify().formal_dimension]
    assert outside == []


# simply connected, with theta*[b] = [a] + [c]: a theta column mixing two
# classes, so a corrupted sign is visible
THETA_MIXING_MODEL = "gen u 3\ngen a 3\ngen c 3\ngen b 5\nd b = u*a + u*c\n"


def test_corrupted_theta_fails_exactness():
    models = [get_model("nil4"), parse_model(THETA_MIXING_MODEL, name="theta-mixing")]
    for model in models:
        for ungraded in (False, True):
            les = build_wang(model, ungraded=ungraded)
            assert check_exactness(les).all_exact
            maps = dict(les.maps)
            columns = {key: [dict(col) for col in m.matrix.columns] for key, m in maps.items()}
            bad = corrupt_connecting_sign(les)
            # the input is left as it was
            assert les.maps == maps
            assert {key: m.matrix.columns for key, m in les.maps.items()} == columns
            report = check_exactness(bad)
            assert not report.all_exact, (model.name, ungraded)
            assert_corrupted_witness(report, model.name, ungraded)
            assert "LW" in report.failures[0].position


def test_check_exactness_refuses_a_map_of_the_wrong_shape():
    # negative control for the shape check: a map whose matrix has one row
    # more than its target node's dimension is an internal fault, named by
    # the map's key, before its rank is taken
    les = build_wang(get_model("heisenberg"))
    assert check_exactness(les).all_exact
    key = ("j", 1, 1)
    lmap = les.maps[key]
    taller = RatMatrix(lmap.matrix.rows + 1, lmap.matrix.columns)
    bad = les._replace(maps={**les.maps, key: lmap._replace(matrix=taller)})
    with pytest.raises(InternalInvariantError) as fault:
        check_exactness(bad)
    assert str(fault.value) == f"map {key} is 3x2 between nodes of dimension 2 -> 2"


@pytest.mark.parametrize("in_mat, out_mat, witness", [
    # a 1-dimensional node whose incoming and outgoing maps are the identity
    (RatMatrix(1, [{0: 1}]), RatMatrix(1, [{0: 1}]), (1,)),
    # in = id on Q^2, out = the second coordinate: only column 1 survives
    (RatMatrix(2, [{0: 1}, {1: 1}]), RatMatrix(1, [{}, {0: 1}]), (0, 1)),
])
def test_witness_falls_back_to_a_surviving_image_column(in_mat, out_mat, witness):
    """ker(out) lies in im(in) but out * in != 0: the witness is the first
    image column that the outgoing map does not kill."""
    composite = matmul(out_mat, in_mat)
    assert not composite.is_zero()
    got = _exactness_witness(in_mat, out_mat, composite)
    assert got == witness and all(type(x) is Fraction for x in got)


def test_corruption_helper_refuses_invisible_flips():
    # every cp:n Gysin connecting matrix is monomial (one entry per
    # column), so a sign flip would just rescale a basis vector and leave
    # every kernel and image unchanged; the helper must refuse
    les = build_gysin(get_model("cp:3"))
    with pytest.raises(ValueError):
        corrupt_connecting_sign(les)


def test_degree_shift_bookkeeping():
    # every stored map connects nodes with exactly the displayed shifts
    for name, builder in [("heisenberg", build_wang), ("cp:2", build_gysin)]:
        les = builder(get_model(name))
        deg = les.x1_degree
        l = les.l
        for (kind, i, k), lmap in les.maps.items():
            gs, si, sk = lmap.source
            gt, ti, tk = lmap.target
            assert (si, sk) == (i, k)
            if kind == "p":
                assert (ti - si, tk - sk) == (0, 0)
            elif kind == "j":
                assert (ti - si, tk - sk) == (deg, 1)
            elif kind == "theta":
                assert (ti - si, tk - sk) == (-(deg - 1), l - 2)
            elif kind == "partial":
                assert (ti - si, tk - sk) == (-deg + 1, l - 2)


def test_formal_dimension_relations():
    assert formal_dimension_relation(get_model("heisenberg")).holds
    assert formal_dimension_relation(get_model("cp:3")).holds
    rel = formal_dimension_relation(get_model("cpl-sphere:3,1"))
    assert rel.parity == "odd" and rel.holds
    rel = formal_dimension_relation(get_model("example-5gen"))
    assert rel.parity == "even" and rel.holds
    assert rel.n_total == 7 and rel.m_quotient == 8


def test_random_theta_models_exercise_the_connecting_map():
    # theta*[b] = c1 [x^(l-2) a1] + c2 [x^(l-2) a2]: a nonzero connecting map
    # whose column mixes two classes, so a flipped sign breaks exactness
    for model in theta_corpus():
        for ungraded in (False, True):
            les = build_wang(model, ungraded=ungraded)
            assert check_exactness(les).all_exact, (model.name, ungraded)
            assert any(not lmap.matrix.is_zero() for (kind, _, _), lmap in les.maps.items()
                       if kind == "theta"), (model.name, ungraded)
            report = check_exactness(corrupt_connecting_sign(les))
            assert not report.all_exact, (model.name, ungraded)
            assert_corrupted_witness(report, model.name, ungraded)


# -- cross-check against the two-branch, full-grid construction ------------
#
# A test-only copy of the construction the three-map table replaced: one
# hand-written branch per sequence for the maps and for the node checks,
# over every node of the grid, zero nodes included.  The sparse table must
# reproduce its nonzero part map for map and node for node.


def _reference_reps(engine, i, k):
    return [c.representative for c in engine.classes(i, k)]


def _reference_classes_matrix(images, target_engine, dst_i, dst_k):
    dst = target_engine.full(dst_i) if dst_k is None else target_engine.strand(dst_i, dst_k)
    return RatMatrix(dst.dim, [dict(enumerate(dst.coordinates(img))) if img else {}
                               for img in images])


def _reference_lift(p):
    return {(0,) + m: c for m, c in p.items()}


def _reference_drop_x1(p):
    return {m[1:]: c for m, c in p.items() if m[0] == 0}


def _reference_divide_x1(p):
    assert all(m[0] >= 1 for m in p)
    return {(m[0] - 1,) + m[1:]: c for m, c in p.items()}


def reference_build(model, kind, ungraded=False):
    """The two-branch construction of the maps and node dimensions."""
    profile = length_profile(model)
    bigraded = profile.is_homogeneous and not ungraded
    x1 = model.generators[0]
    eng_v = engine_for(model)
    quotient = quotient_model(model, x1)
    eng_w = engine_for(quotient)
    l = profile.l
    i_max = (max(eng_v.require_certificate().formal_dimension,
                 eng_w.require_certificate().formal_dimension) + x1.degree + 1)
    max_len = max(eng_v.max_length(), eng_w.max_length())
    k_max = max_len + l if bigraded else None
    ks = list(range(0, k_max + 1)) if bigraded else [None]

    dims = {}
    for label, eng in (("V", eng_v), ("W", eng_w)):
        for i in range(0, i_max + 1):
            for k in ks:
                dims[(label, i, k)] = eng.betti(i) if k is None else eng.strand(i, k).dim

    theta = wang_derivation(model, x1) if kind == "wang" else None
    gens_v = model.generators
    gens_w = quotient.generators
    x1_mono = (1,) + (0,) * (len(gens_v) - 1)
    maps = {}
    for i in range(0, i_max + 1):
        for k in ks:
            kj = None if k is None else k + 1
            kth = None if k is None else k + l - 2
            ti = i + x1.degree
            reps_v = _reference_reps(eng_v, i, k)
            reps_w = _reference_reps(eng_w, i, k)
            maps[("p", i, k)] = LesMap(
                "p", ("V", i, k), ("W", i, k),
                _reference_classes_matrix([_reference_drop_x1(p) for p in reps_v],
                                          eng_w, i, k),
            )
            if kind == "wang":
                # j: W(i,k) -> V(i + |x1|, k+1), chi -> (-1)^i x1 chi
                sign = Fraction(-1 if i % 2 else 1)
                imgs = [multiply(gens_v, {x1_mono: sign}, _reference_lift(p)) for p in reps_w]
                if ti <= i_max:
                    maps[("j", i, k)] = LesMap(
                        "j", ("W", i, k), ("V", ti, kj),
                        _reference_classes_matrix(imgs, eng_v, ti, kj),
                    )
                # theta: W(i,k) -> W(i - (|x1|-1), k + l - 2)
                imgs = [apply_derivation(gens_w, theta, p) for p in reps_w]
                maps[("theta", i, k)] = LesMap(
                    "theta", ("W", i, k), ("W", i - (x1.degree - 1), kth),
                    _reference_classes_matrix(imgs, eng_w, i - (x1.degree - 1), kth),
                )
            else:
                # j: V(i,k) -> V(i + |x1|, k+1), chi -> x1 chi
                imgs = [multiply(gens_v, {x1_mono: Fraction(1)}, p) for p in reps_v]
                if ti <= i_max:
                    maps[("j", i, k)] = LesMap(
                        "j", ("V", i, k), ("V", ti, kj),
                        _reference_classes_matrix(imgs, eng_v, ti, kj),
                    )
                # partial: W(i,k) -> V(i - |x1| + 1, k + l - 2): lift, d, divide
                imgs = []
                for p in reps_w:
                    dv = model.d(_reference_lift(p))
                    imgs.append(_reference_divide_x1(dv) if dv else {})
                maps[("partial", i, k)] = LesMap(
                    "partial", ("W", i, k), ("V", i - x1.degree + 1, kth),
                    _reference_classes_matrix(imgs, eng_v, i - x1.degree + 1, kth),
                )
    return LesData(kind=kind, bigraded=bigraded, model=model, quotient=quotient,
                   x1_degree=x1.degree, l=l, i_max=i_max, k_max=k_max,
                   dims=dims, maps=maps)


def reference_node_checks(les):
    """The two-branch walk over (node, role, incoming key, outgoing key)."""
    deg = les.x1_degree
    l = les.l
    ks = list(range(0, (les.k_max or 0) + 1)) if les.bigraded else [None]
    for i in range(0, les.i_max + 1):
        for k in ks:
            km1 = None if k is None else k - 1
            kml = None if k is None else k - (l - 2)
            if les.kind == "wang":
                yield (("V", i, k), "j->p", ("j", i - deg, km1), ("p", i, k))
                yield (("W", i, k), "p->theta", ("p", i, k), ("theta", i, k))
                yield (("W", i, k), "theta->j", ("theta", i + deg - 1, kml), ("j", i, k))
            else:
                yield (("V", i, k), "j->p", ("j", i - deg, km1), ("p", i, k))
                yield (("W", i, k), "p->partial", ("p", i, k), ("partial", i, k))
                yield (("V", i, k), "partial->j", ("partial", i + deg - 1, kml), ("j", i, k))


def reference_check_exactness(les):
    """The full-grid exactness check: a verdict at every node of the grid,
    in (degree, length, role) order, zero nodes included."""
    verdicts = []
    for node, role, in_key, out_key in reference_node_checks(les):
        dim = les.dim(node)
        in_map = les.maps.get(in_key)
        out_map = les.maps.get(out_key)
        in_mat = in_map.matrix if in_map is not None else RatMatrix(dim)
        out_mat = out_map.matrix if out_map is not None else RatMatrix(0, [{}] * dim)
        assert (in_mat.rows, out_mat.cols) == (dim, dim), node
        rank_in = rank(in_mat)
        kernel_out = dim - rank(out_mat)
        composite = matmul(out_mat, in_mat)
        composite_ok = composite.is_zero()
        exact = composite_ok and rank_in == kernel_out
        verdicts.append(NodeVerdict(
            position=_position_label(les, node), node=node, role=role, dim=dim,
            rank_in=rank_in, kernel_out=kernel_out, composite_zero=composite_ok,
            exact=exact, witness=None if exact else _exactness_witness(in_mat, out_mat, composite),
        ))
    return verdicts


def _assert_sparse_report_matches(got, want, where):
    """check_exactness on the sparse data against the full-grid check on
    the reference data: the same verdicts at the nonzero nodes, in order,
    every zero-node verdict exact, and the grid size as nodes_checked."""
    report = check_exactness(got)
    full = reference_check_exactness(want)
    assert report.nodes == tuple(v for v in full if v.dim), where
    assert all(v.exact for v in full if not v.dim), where
    assert report.nodes_checked == len(full), where
    assert report.all_exact == all(v.exact for v in full), where
    return report


def _cross_check_corrupted(got, want, where):
    try:
        bad = corrupt_connecting_sign(got)
    except ValueError:  # no connecting column mixes classes
        with pytest.raises(ValueError):
            corrupt_connecting_sign(want)
        return
    report = _assert_sparse_report_matches(bad, corrupt_connecting_sign(want), where)
    assert not report.all_exact, where


def _cross_check_models():
    models = list(library())
    models += [random_elliptic_model(seed, RandomModelParams(
        n_even=1 + seed % 2, n_odd=2, l=2, leading_odd_sphere=True)) for seed in range(6)]
    models += [random_elliptic_model(seed, RandomModelParams(
        n_even=1 + seed % 2, n_odd=2, l=3)) for seed in range(6)]
    models += [parse_model(text, name=name) for name, text in MIXED_MODELS.items()]
    models.append(parse_model(THETA_MIXING_MODEL, name="theta-mixing"))
    return models + theta_corpus()


def test_three_map_table_matches_two_branch_construction():
    compared = 0
    for model in _cross_check_models():
        if model.d_of(0) or not engine_for(model).certify().ok:
            continue
        kind = "wang" if model.generators[0].is_odd else "gysin"
        build = build_wang if kind == "wang" else build_gysin
        for ungraded in (False, True):
            if not ungraded and not length_profile(model).is_homogeneous:
                continue
            got = build(model, ungraded=ungraded)
            want = reference_build(model, kind, ungraded)
            where = (model.name, kind, ungraded)
            assert (got.bigraded, got.i_max, got.k_max) == (
                want.bigraded, want.i_max, want.k_max), where
            assert got.dims == {node: d for node, d in want.dims.items() if d}, where
            assert got.maps == {key: lmap for key, lmap in want.maps.items()
                                if lmap.matrix.cols}, where
            assert all(lmap.matrix.cols == 0 for key, lmap in want.maps.items()
                       if key not in got.maps), where
            assert list(_node_checks(got)) == [
                check for check in reference_node_checks(want) if want.dim(check[0])], where
            report = _assert_sparse_report_matches(got, want, where)
            assert report.all_exact, where
            _cross_check_corrupted(got, want, where)
            compared += 1
    assert compared >= 50


def test_connecting_map_is_theta_on_every_representative():
    # the Wang connecting map (lift, d, divide by x1) is the derivation
    # theta of d = dbar + x1 theta on each cocycle of Lambda W, as a
    # polynomial and not only up to class coordinates
    models = reps = nonzero = 0
    for model in _cross_check_models():
        x1 = model.generators[0]
        if not x1.is_odd:
            continue
        quotient = quotient_model(model, x1)
        certificate = engine_for(quotient).certify()
        if not certificate.ok:
            continue
        theta = wang_derivation(model, x1)
        connecting = _cycle("wang", model, length_profile(model).l)[2].image
        for i in range(certificate.formal_dimension + 1):
            for c in engine_for(quotient).classes(i):
                want = apply_derivation(quotient.generators, theta, c.representative)
                assert connecting(c.representative, i) == want, (model.name, i)
                reps += 1
                nonzero += bool(want)
        models += 1
    assert models >= 20 and reps >= 200 and nonzero >= 50, (models, reps, nonzero)
