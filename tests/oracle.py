"""An exact reference for the cohomology of a Sullivan model, built with
nothing from `sullivan.linalg`: dense textbook Gauss-Jordan over
`Fraction`.

Degree i of a model has the basis monomials m_0 < m_1 < ... of
`engine.basis(i)` and the images d(m_j), read from `engine.d_row`.  The
image matrix has one column d(m_j) per basis monomial and one row per
monomial of degree i + 1.  Its reduced row echelon form is unique, so
it gives, with no choice left:

- the relations: for each free column j, in column order, the kernel
  vector with 1 at j and minus column j of the reduced form at the
  pivot columns, scaled to integers with content 1 (positive at j);
- the pivots of B^(i+1): the reduced rows of the images themselves, in
  ascending monomial order, each begin at the smallest monomial any
  nonzero coboundary can lead with;
- the representatives of H^i: each relation's cocycle reduced modulo
  the span of B^i and the representatives before it, to the one vector
  of its coset that is zero at every pivot of that span, made monic at
  its smallest monomial, skipped when it is zero, taken until
  dim H^i = (number of relations) - dim B^i are found.

These are the quantities `CohomologyEngine` derives by its own sparse
elimination, so the tests compare them item for item.

`pairing` is the Poincare-duality pairing H^i x H^(N-i) -> Q on these
representatives: each product a*b is multiplied out term by term, with the
sign of sorting its odd factors counted by hand, and its coordinate on the
fundamental class omega is read by reducing it, like omega, modulo the
reduced rows of B^N: what is left is that coordinate times omega.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple


class DegreeReference(NamedTuple):
    boundary_pivots: list  # the leading monomials of B^i, ascending
    boundaries: list  # B^i as its reduced rows, dense over basis(i)
    relations: list  # kernel vectors of d on C^i, as tuples of Fractions
    reps: list  # representatives of H^i, {monomial: Fraction}


def rref(rows: list, width: int) -> tuple[list, list]:
    """The reduced row echelon form of a dense matrix, given as rows of
    `width` Fractions: (its nonzero rows, the pivot column of each)."""
    m = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(width):
        r = len(pivots)
        src = next((k for k in range(r, len(m)) if m[k][col]), None)
        if src is None:
            continue
        m[r], m[src] = m[src], m[r]
        lead = m[r][col]
        m[r] = [x / lead for x in m[r]]
        for k in range(len(m)):
            if k != r and m[k][col]:
                f = m[k][col]
                m[k] = [a - f * b for a, b in zip(m[k], m[r])]
        pivots.append(col)
    return m[:len(pivots)], pivots


def _primitive(v: list) -> tuple:
    """v scaled to integers with content 1, as Fractions."""
    den = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints)
    return tuple(Fraction(x // g) for x in ints)


def _residual(v: list, rows: list) -> list:
    """v minus the combination of `rows` that clears v at every pivot
    of their span."""
    reduced, pivots = rref(rows, len(v))
    out = list(v)
    for row, p in zip(reduced, pivots):
        if out[p]:
            f = out[p]
            out = [a - f * b for a, b in zip(out, row)]
    return out


def reference(engine, top: int) -> list[DegreeReference]:
    """DegreeReference for each degree 0..top of the engine's model."""
    out = []
    boundaries: list = []  # B^i as dense rows over basis(i)
    for i in range(top + 1):
        basis, target = engine.basis(i), engine.basis(i + 1)
        index = {m: r for r, m in enumerate(target)}
        images = []
        for m in basis:
            row = [Fraction(0)] * len(target)
            for m2, c in engine.d_row(m).items():
                row[index[m2]] = Fraction(c)
            images.append(row)
        # the image matrix: column j is d(m_j)
        columns = [[images[j][r] for j in range(len(basis))] for r in range(len(target))]
        reduced, pivot_cols = rref(columns, len(basis))
        relations = []
        for j in range(len(basis)):
            if j in pivot_cols:
                continue
            v = [Fraction(0)] * len(basis)
            v[j] = Fraction(1)
            for row, p in zip(reduced, pivot_cols):
                v[p] = -row[j]
            relations.append(_primitive(v))
        dim = len(relations) - len(boundaries)
        span, reps = list(boundaries), []
        for rel in relations:
            if len(reps) == dim:
                break
            res = _residual(list(rel), span)
            lead = next((x for x in res if x), None)
            if lead is not None:
                res = [x / lead for x in res]
                span.append(res)
                reps.append({basis[j]: x for j, x in enumerate(res) if x})
        leading = [basis[p] for p in rref(boundaries, len(basis))[1]]
        out.append(DegreeReference(leading, boundaries, relations, reps))
        boundaries = rref(images, len(target))[0]
    return out


def _product(gens, a: dict, b: dict) -> dict:
    """a*b for polynomials {monomial: coefficient}: a term is the sign of
    sorting the odd factors of m, then those of m2, into generator order,
    times the coefficients; a shared odd factor kills it."""
    out: dict = {}
    for m, c in a.items():
        for m2, e in b.items():
            odd = [k for k, x in enumerate(m) if x and gens[k].is_odd]
            odd2 = [k for k, x in enumerate(m2) if x and gens[k].is_odd]
            if set(odd) & set(odd2):
                continue
            seq = odd + odd2
            swaps = sum(1 for x in range(len(seq)) for y in range(x + 1, len(seq))
                        if seq[x] > seq[y])
            t = tuple(x + y for x, y in zip(m, m2))
            out[t] = out.get(t, 0) + (-1) ** swaps * c * e
    return {t: v for t, v in out.items() if v}


def pairing(engine, refs: list, i: int) -> tuple[list, bool]:
    """(columns, nondegenerate) of H^i x H^(N-i) -> Q, N = len(refs) - 1, on
    the representatives of `refs` (`reference(engine, N)`): column t holds
    phi(a_s b_t) for each class a_s of H^i, phi the coordinate on the
    fundamental class."""
    n = len(refs) - 1
    basis = engine.basis(n)
    index = {m: r for r, m in enumerate(basis)}
    rows = [(next(k for k, x in enumerate(row) if x), row) for row in refs[n].boundaries]

    def reduced(p: dict) -> list:
        v = [Fraction(0)] * len(basis)
        for m, c in p.items():
            v[index[m]] = Fraction(c)
        for k, row in rows:  # reduced rows: each clears its pivot alone
            if v[k]:
                f = v[k]
                v = [x - f * y for x, y in zip(v, row)]
        return v

    [top] = refs[n].reps
    omega = reduced(top)
    q = next(k for k, x in enumerate(omega) if x)
    left, right = refs[i].reps, refs[n - i].reps
    columns = []
    for b in right:
        column = []
        for a in left:
            v = reduced(_product(engine.gens, a, b))
            c = v[q] / omega[q]
            assert v == [c * x for x in omega], "a product is not a multiple of omega mod B^N"
            column.append(c)
        columns.append(tuple(column))
    square = [list(col) for col in zip(*columns)]  # row s: the entries of class a_s
    nondegenerate = len(left) == len(right) and len(rref(square, len(right))[1]) == len(left)
    return columns, nondegenerate
