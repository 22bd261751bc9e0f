"""The bigraded Wang and Gysin long exact sequences.

Stripping the first generator x1 off a model gives one short exact
sequence of cochain complexes, 0 -> x1 K -> Lambda V -> Lambda W -> 0,
with K = Lambda W for odd x1 and K = Lambda V for even x1.  Its long
exact cohomology sequence is the Wang (x1 odd) or the Gysin (x1 even)
sequence, cycling through three maps described once by `_cycle` as
(name, source group, target group, degree shift, length shift) and the
image of a representative, with V = Lambda V and W the quotient Lambda W:

    j                K -> V  chi -> x1 chi, (-1)^i x1 chi for Wang  (|x1|, 1)
    p                V -> W  drop the x1 terms                      (0, 0)
    theta / partial  W -> K  lift, d, divide by x1                  (1 - |x1|, l - 2)

The connecting map is theta for Wang (the derivation theta* of the split
d = dbar + x1 theta) and partial for Gysin.  x1 leads the canonical
order, so x1 m is m with its x1 exponent raised and no Koszul sign.  The
projection V -> W is `model.project_to_quotient`, the one that also
builds the quotient's differential.  One loop builds every map from the
table; exactness is checked where consecutive maps meet.  The grid is
degrees 0..i_max by word lengths 0..k_max; above the formal dimensions
every group vanishes for elliptic models, so exactness up to there is a
complete verification.  Only
nonzero groups and the maps out of them are stored, and verdicts are
given at nonzero nodes only: at a zero node the incoming rank and the
outgoing kernel are 0 and every composite through it vanishes, so it is
exact by dimension.  `nodes_checked` counts the (node, role) checks of
the whole grid.
"""

from typing import Callable, NamedTuple

from .algebra import Generator, Polynomial
from .cohomology import InternalInvariantError, engine_for
from .linalg import RatMatrix, kernel_basis, matmul, rank, solve_membership
from .model import QuotientError, SullivanModel, project_to_quotient, quotient_model

NodeKey = tuple[str, int, int | None]  # (group 'V'|'W', upper degree, lower degree)


class LesMap(NamedTuple):
    kind: str  # 'j' | 'p' | 'theta' | 'partial'
    source: NodeKey
    target: NodeKey
    matrix: RatMatrix  # target-class coordinates of each source class


class LesData(NamedTuple):
    kind: str  # 'wang' | 'gysin'
    bigraded: bool
    model: SullivanModel
    quotient: SullivanModel
    x1_degree: int
    l: int
    i_max: int
    k_max: int | None
    dims: dict[NodeKey, int]
    maps: dict[tuple[str, int, int | None], LesMap]  # keyed by (kind, source i, source k)

    def dim(self, key: NodeKey) -> int:
        return self.dims.get(key, 0)


class NodeVerdict(NamedTuple):
    position: str
    node: NodeKey
    role: str  # which map pair meets here
    dim: int
    rank_in: int
    kernel_out: int
    composite_zero: bool
    exact: bool
    witness: tuple | None = None  # class vector in ker(out) \ im(in)


class DimensionRelationVerdict(NamedTuple):
    parity: str  # 'odd' | 'even'
    n_total: int
    m_quotient: int
    expected: int
    holds: bool


class LesReport(NamedTuple):
    kind: str
    bigraded: bool
    nodes: tuple[NodeVerdict, ...]  # the nonzero nodes
    nodes_checked: int  # grid checks, zero nodes (exact by dimension) included
    all_exact: bool
    dimension_relation: DimensionRelationVerdict

    @property
    def failures(self) -> tuple[NodeVerdict, ...]:
        return tuple(n for n in self.nodes if not n.exact)


def _lift_poly(p: Polynomial) -> Polynomial:
    return {(0,) + m: c for m, c in p.items()}


def _divide_x1(p: Polynomial) -> Polynomial:
    """Exact division by the first generator."""
    out: Polynomial = {}
    for m, c in p.items():
        if m[0] < 1:
            raise InternalInvariantError(
                "connecting map: differential of a lift is not divisible by x1"
            )
        out[(m[0] - 1,) + m[1:]] = c
    return out


def _classes_matrix(images, target_engine, dst_i, dst_k) -> RatMatrix:
    """Matrix whose column s is the target-class coordinates of images[s]."""
    dst = target_engine.cohomology_at(dst_i, dst_k)
    return RatMatrix(dst.dim, [dict(enumerate(dst.coordinates(img))) if img else {}
                               for img in images])


class _Arrow(NamedTuple):
    """One of the three maps of the sequence, out of node (i, k) into
    (i + shift, k + length_shift); image(chi, i) is the cochain of the
    target group that the map sends a representative chi of degree i to."""
    name: str
    source: str  # group 'V' | 'W'
    target: str
    shift: int
    length_shift: int
    image: Callable[[Polynomial, int], Polynomial]


def _cycle(kind: str, model: SullivanModel, l: int) -> tuple[_Arrow, _Arrow, _Arrow]:
    """The maps j, p and the connecting map of the `kind` sequence of
    model, in the order the sequence runs; each map's target group is the
    next one's source.  This is the one place the kind picks a map: only
    K and the Wang sign depend on it.  For Wang, K = Lambda W enters
    Lambda V by the lift and a connecting image leaves its x1 slot by the
    projection; for Gysin, K = Lambda V."""
    wang = kind == "wang"
    k_group = "W" if wang else "V"
    into_v = _lift_poly if wang else dict
    from_v = project_to_quotient if wang else dict

    def j(chi, i):
        sign = -1 if wang and i % 2 else 1
        return {(m[0] + 1,) + m[1:]: sign * c for m, c in into_v(chi).items()}

    def connecting(chi, i):
        return from_v(_divide_x1(model.d(_lift_poly(chi))))

    x1_degree = model.generators[0].degree
    return (
        _Arrow("j", k_group, "V", x1_degree, 1, j),
        _Arrow("p", "V", "W", 0, 0, lambda chi, i: project_to_quotient(chi)),
        _Arrow("theta" if wang else "partial", "W", k_group, 1 - x1_degree, l - 2, connecting),
    )


def _nonzero_parts(engine, i: int, k_max: int | None) -> dict:
    """{k: H^i_k} for the lengths k <= k_max where it is nonzero, in
    length order; {None: H^i} ungraded, when nonzero."""
    if k_max is None:
        return {None: engine.full(i)} if engine.full(i).dim else {}
    return {k: engine.strand(i, k) for k in sorted(set(engine.full(i).lengths)) if k <= k_max}


def _first_generator(model: SullivanModel) -> Generator:
    """x1, the generator that both sequences strip off; QuotientError on a
    model without generators."""
    if not model.generators:
        raise QuotientError("the model has no first generator")
    return model.generators[0]


def build_wang(model: SullivanModel, ungraded: bool = False) -> LesData:
    """Wang sequence data for an odd cocycle first generator, bigraded
    when the differential has homogeneous length unless `ungraded`.

    The model and its quotient must certify elliptic, which makes the
    exactness check complete."""
    return _build(model, "wang", ungraded)


def build_gysin(model: SullivanModel, ungraded: bool = False) -> LesData:
    """Gysin sequence data for an even cocycle first generator."""
    return _build(model, "gysin", ungraded)


def _build(model: SullivanModel, kind: str, ungraded: bool) -> LesData:
    x1 = _first_generator(model)
    need, have = ("odd" if kind == "wang" else "even"), ("odd" if x1.is_odd else "even")
    if need != have:
        raise QuotientError(
            f"{kind.title()} sequence needs an {need} first generator, {x1.name} is {have}")
    eng_v = engine_for(model)
    quotient = quotient_model(model, x1)
    eng_w = engine_for(quotient)

    bigraded = eng_v.profile.is_homogeneous and not ungraded
    l = eng_v.profile.l
    # the certificates make H^i of each group zero above its formal dimension;
    # no arrow shifts a degree by more than |x1|, so every target is <= i_max
    top = {"V": eng_v.require_certificate().formal_dimension,
           "W": eng_w.require_certificate().formal_dimension}
    i_max = max(top.values()) + x1.degree + 1
    k_max = max(eng_v.max_length(), eng_w.max_length()) + l if bigraded else None

    engines = {"V": eng_v, "W": eng_w}
    cycle = _cycle(kind, model, l)
    dims: dict[NodeKey, int] = {}
    maps: dict[tuple[str, int, int | None], LesMap] = {}
    for i in range(0, i_max + 1):
        parts = {group: _nonzero_parts(eng, i, k_max) if i <= top[group] else {}
                 for group, eng in engines.items()}
        dims.update(((group, i, k), part.dim) for group in parts for k, part in parts[group].items())
        for arrow in cycle:
            ti = i + arrow.shift
            for k, part in parts[arrow.source].items():
                tk = None if k is None else k + arrow.length_shift
                if not 0 <= ti <= top[arrow.target]:  # H^ti of the target group is zero
                    matrix = RatMatrix(0, [{}] * part.dim)
                else:
                    matrix = _classes_matrix([arrow.image(chi, i) for chi in part.reps],
                                             engines[arrow.target], ti, tk)
                maps[(arrow.name, i, k)] = LesMap(
                    arrow.name, (arrow.source, i, k), (arrow.target, ti, tk), matrix)

    return LesData(
        kind=kind,
        bigraded=bigraded,
        model=model,
        quotient=quotient,
        x1_degree=x1.degree,
        l=l,
        i_max=i_max,
        k_max=k_max,
        dims=dims,
        maps=maps,
    )


def _node_checks(les: LesData):
    """Yield (node, role, incoming map key, outgoing map key) at every
    nonzero node, in (degree, length, role) order.

    The node between two consecutive maps of the cycle is the target of
    the first and the source of the second; every node of every chain of
    the LES family appears exactly once per role.  Map keys are
    (kind, source i, source k)."""
    cycle = _cycle(les.kind, les.model, les.l)
    pairs = tuple(zip(cycle, cycle[1:] + cycle[:1]))
    for i, k in sorted({(i, k) for (_, i, k), dim in les.dims.items() if dim}):
        for into, out in pairs:
            node = (out.source, i, k)
            if les.dim(node):
                in_k = None if k is None else k - into.length_shift
                yield (node, f"{into.name}->{out.name}",
                       (into.name, i - into.shift, in_k), (out.name, i, k))


def _position_label(les: LesData, node: NodeKey) -> str:
    group, i, k = node
    alg = "LV" if group == "V" else "LW"
    return f"H^{i}_{k}({alg})" if k is not None else f"H^{i}({alg})"


def check_exactness(les: LesData) -> LesReport:
    """Exactness at every nonzero node (zero nodes are exact by
    dimension): rank(incoming) = dim ker(outgoing) and the composite
    vanishes; failures carry a witness class vector from ker(outgoing)
    not reached by the incoming map.  Each map's rank is computed once,
    for its source and target nodes.  A nonzero node always has its
    outgoing map; an incoming map from a zero node is the zero map."""
    ranks = {}
    for key, lmap in les.maps.items():
        mat = lmap.matrix
        if (mat.rows, mat.cols) != (les.dim(lmap.target), les.dim(lmap.source)):
            raise InternalInvariantError(
                f"map {key} is {mat.rows}x{mat.cols} between nodes of dimension "
                f"{les.dim(lmap.source)} -> {les.dim(lmap.target)}"
            )
        ranks[key] = rank(mat)
    verdicts = []
    for node, role, in_key, out_key in _node_checks(les):
        dim = les.dim(node)
        in_mat = les.maps[in_key].matrix if in_key in les.maps else RatMatrix(dim)
        out_mat = les.maps[out_key].matrix
        rank_in = ranks.get(in_key, 0)
        kernel_out = dim - ranks[out_key]
        composite = matmul(out_mat, in_mat)
        composite_ok = composite.is_zero()
        exact = composite_ok and rank_in == kernel_out
        verdicts.append(NodeVerdict(
            _position_label(les, node), node, role, dim, rank_in, kernel_out, composite_ok,
            exact, witness=None if exact else _exactness_witness(in_mat, out_mat, composite)))
    return LesReport(
        kind=les.kind,
        bigraded=les.bigraded,
        nodes=tuple(verdicts),
        nodes_checked=3 * (les.i_max + 1) * (1 if les.k_max is None else les.k_max + 1),
        all_exact=all(v.exact for v in verdicts),
        dimension_relation=_dimension_relation(les.model, les.quotient),
    )


def _exactness_witness(in_mat: RatMatrix, out_mat: RatMatrix, composite: RatMatrix):
    """A vector exhibiting the failure at an inexact node: in ker(out) but
    not im(in), or else the first image column that the outgoing map does
    not kill, read off composite = out * in (nonzero here: with a zero
    composite, rank(in) < dim ker(out) and the kernel loop returns)."""
    for kvec in kernel_basis(out_mat):
        if solve_membership(in_mat, kvec) is None:
            return kvec
    return in_mat.column(next(c for c, col in enumerate(composite.columns) if col))


def _dimension_relation(model: SullivanModel, quotient: SullivanModel) -> DimensionRelationVerdict:
    """Raises NotEllipticError unless the model and its quotient certify."""
    x1_degree = model.generators[0].degree
    n_total = engine_for(model).require_certificate().formal_dimension
    m_quot = engine_for(quotient).require_certificate().formal_dimension
    if x1_degree % 2:
        return DimensionRelationVerdict(
            "odd", n_total, m_quot, m_quot + x1_degree, n_total == m_quot + x1_degree
        )
    expected = m_quot - x1_degree + 1
    return DimensionRelationVerdict("even", n_total, m_quot, expected, n_total == expected)


def formal_dimension_relation(model: SullivanModel) -> DimensionRelationVerdict:
    """N = M + 2r + 1 for odd |x1| = 2r+1; N = M - 2r + 1 for even 2r."""
    return _dimension_relation(model, quotient_model(model, _first_generator(model)))
