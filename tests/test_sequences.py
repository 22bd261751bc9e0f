from fractions import Fraction

import pytest

from sullivan.cohomology import engine_for
from sullivan.library import get_model
from sullivan.linalg import rank
from sullivan.model import QuotientError, make_model
from sullivan.sequences import (
    build_gysin,
    build_wang,
    check_exactness,
    corrupt_connecting_sign,
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
    assert lmap.matrix.entry(b_row, c_col) == 1
    # theta*([b]) = 0
    b_col = next(s for s, r in enumerate(reps) if r == {b_mono: Fraction(1)})
    assert all(lmap.matrix.entry(r, b_col) == 0 for r in range(lmap.matrix.rows))


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
    # non-elliptic: Lambda(x,u,v,w), dw = u v has no x in any differential;
    # checked on an explicit finite window, partial* = 0 and j* injects
    m = make_model(
        [("x", 2), ("u", 3), ("v", 5), ("w", 7)],
        {"w": {(0, 1, 1, 0): Fraction(1)}},
    )
    les = build_gysin(m, i_max=12)
    # without ellipticity nothing vanishes at the window edge, so check
    # the interior nodes (all three maps materialized)
    report = check_exactness(les, node_filter=lambda n: n[1] <= les.i_max - 2)
    assert report.all_exact
    for key, lmap in les.maps.items():
        if key[0] == "partial":
            assert lmap.matrix.is_zero()
    eng_v = engine_for(m)
    eng_w = engine_for(les.quotient)
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


def test_ungraded_sequences_work_on_mixed_models():
    # Remark-2-style usage: the ungraded Gysin on a mixed-length model
    m = get_model("mixed:1")
    les = build_gysin(m, bigraded=False)
    report = check_exactness(les)
    assert not report.bigraded
    assert report.all_exact
    with pytest.raises(QuotientError):
        build_gysin(m, bigraded=True)


def test_ungraded_wang_on_homogeneous_model_too():
    les = build_wang(get_model("nil5"), bigraded=False)
    assert check_exactness(les).all_exact


def test_corrupted_theta_fails_exactness():
    les = build_wang(get_model("nil4"))
    assert check_exactness(les).all_exact
    bad = corrupt_connecting_sign(les)
    report = check_exactness(bad)
    assert not report.all_exact
    failure = report.failures[0]
    assert failure.witness is not None
    assert "LW" in failure.position


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
