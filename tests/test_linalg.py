import random
from fractions import Fraction
from math import gcd

import pytest

from sullivan.linalg import (
    DimensionMismatchError,
    Echelon,
    RatMatrix,
    kernel_basis,
    matmul,
    rank,
    solve_membership,
)


def F(x):
    return Fraction(x)


def from_rows(data) -> RatMatrix:
    """The matrix with the given dense rows."""
    return RatMatrix(len(data), [dict(enumerate(col)) for col in zip(*data)])


def transpose(m: RatMatrix) -> RatMatrix:
    return RatMatrix(m.cols, [{c: col[r] for c, col in enumerate(m.columns) if r in col}
                              for r in range(m.rows)])


def apply(m: RatMatrix, vec) -> tuple:
    """m times a column vector, summed densely: the reference for matmul."""
    return tuple(sum((m.columns[c].get(r, 0) * x for c, x in enumerate(vec)), Fraction(0))
                 for r in range(m.rows))


def dense_rows(m: RatMatrix) -> list[list[Fraction]]:
    return [[col.get(r, Fraction(0)) for col in m.columns] for r in range(m.rows)]


def quotient_dimension(ambient_dim, subspace):
    """dim(ambient / span(subspace))."""
    vectors = [tuple(v) for v in subspace]
    for v in vectors:
        if len(v) != ambient_dim:
            raise DimensionMismatchError("subspace vector length != ambient dimension")
    if not vectors:
        return ambient_dim
    return ambient_dim - rank(from_rows(vectors))


def test_rank_identity():
    assert rank(from_rows([[1, 0], [0, 1]])) == 2


def test_rank_zero_matrix():
    assert rank(RatMatrix(3, [{}] * 4)) == 0


def test_rank_dependent_rows():
    assert rank(from_rows([[1, 2], [2, 4]])) == 1


def test_kernel_of_identity_is_empty():
    assert kernel_basis(from_rows([[1, 0], [0, 1]])) == []


def test_kernel_of_zero_matrix_is_standard_basis():
    basis = kernel_basis(RatMatrix(2, [{}] * 3))
    assert basis == [
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
    ]


def test_kernel_single_relation():
    basis = kernel_basis(from_rows([[1, 1, 0]]))
    assert basis == [(F(-1), F(1), F(0)), (F(0), F(0), F(1))]


def test_kernel_vectors_are_integral_content_one():
    m = from_rows([[Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]])
    for v in kernel_basis(m):
        assert all(x.denominator == 1 for x in v)
        from math import gcd

        g = 0
        for x in v:
            g = gcd(g, abs(x.numerator))
        assert g == 1


def test_solve_membership_identity():
    m = from_rows([[1, 0], [0, 1]])
    assert solve_membership(m, (3, 5)) == (F(3), F(5))


def test_solve_membership_not_in_span():
    assert solve_membership(RatMatrix(2, [{}] * 2), (1, 0)) is None


def test_solve_membership_scaling():
    m = from_rows([[2], [4]])
    assert solve_membership(m, (1, 2)) == (Fraction(1, 2),)


def test_solve_membership_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        solve_membership(RatMatrix(2, [{}] * 2), (1, 0, 0))


def test_quotient_dimension_empty_subspace():
    assert quotient_dimension(4, []) == 4


def test_quotient_dimension_full():
    assert quotient_dimension(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 0


def test_quotient_dimension_dependent():
    assert quotient_dimension(3, [(1, 0, 0), (2, 0, 0)]) == 2


def _random_matrix(rng, rows, cols, density=0.6):
    pool = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(2, 3), Fraction(-5, 4)]
    columns = [{} for _ in range(cols)]
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = pool[rng.randrange(len(pool))]
                if v:
                    columns[c][r] = Fraction(v)
    return RatMatrix(rows, columns)


def test_rank_equals_rank_of_transpose():
    rng = random.Random(7)
    for _ in range(150):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(m) == rank(transpose(m))


def test_kernel_vectors_annihilate():
    rng = random.Random(11)
    for _ in range(150):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        for v in kernel_basis(m):
            assert all(x == 0 for x in apply(m, v))


def test_rank_nullity():
    rng = random.Random(13)
    for _ in range(150):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(m) + len(kernel_basis(m)) == m.cols


def test_rank_invariant_under_row_permutation():
    rng = random.Random(17)
    for _ in range(100):
        rows = rng.randint(2, 6)
        m = _random_matrix(rng, rows, rng.randint(1, 6))
        perm = list(range(rows))
        rng.shuffle(perm)
        permuted = RatMatrix(m.rows, [{perm[r]: v for r, v in col.items()} for col in m.columns])
        assert rank(m) == rank(permuted)


def test_solve_membership_roundtrip():
    rng = random.Random(19)
    for _ in range(100):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(m.cols)]
        v = [Fraction(0)] * m.rows
        for c, coeff in enumerate(coeffs):
            col = m.column(c)
            for r in range(m.rows):
                v[r] += coeff * col[r]
        sol = solve_membership(m, v)
        assert sol is not None
        rebuilt = [Fraction(0)] * m.rows
        for c, coeff in enumerate(sol):
            col = m.column(c)
            for r in range(m.rows):
                rebuilt[r] += coeff * col[r]
        assert rebuilt == v


def test_matmul_against_apply():
    rng = random.Random(23)
    for _ in range(50):
        a = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        b = _random_matrix(rng, a.cols, rng.randint(1, 4))
        prod = matmul(a, b)
        for c in range(b.cols):
            assert prod.column(c) == apply(a, b.column(c))


def test_ratmatrix_keeps_fractions_wraps_ints_drops_zeros():
    third = Fraction(1, 3)
    m = RatMatrix(3, [{0: third, 2: 0}, {}, {1: 2}])
    assert m.columns[0][0] is third
    assert m.columns == [{0: third}, {}, {1: Fraction(2)}]
    assert type(m.columns[2][1]) is Fraction
    assert (m.rows, m.cols) == (3, 3)
    assert m.column(2) == (0, 2, 0) and not m.is_zero() and RatMatrix(3, [{}] * 3).is_zero()


@pytest.mark.parametrize("refused", [
    lambda: RatMatrix(2, [{0: 1}, {2: 1}]),
    lambda: RatMatrix(2, [{-1: 1}]),
    lambda: RatMatrix(-1),
    lambda: matmul(RatMatrix(2, [{}] * 3), RatMatrix(2, [{0: 1}])),
], ids=["row-key-past-the-last-row", "negative-row-key", "negative-rows",
        "matmul-shapes"])
def test_matrix_guards_refuse_mismatched_dimensions(refused):
    with pytest.raises(DimensionMismatchError):
        refused()


def test_echelon_membership_and_coords():
    ech = Echelon()
    ech.add({0: 1, 1: 1})
    ech.add({2: 2}, label="z")
    assert ech.rank == 2
    assert ech.contains({0: 2, 1: 2, 2: 6})
    assert not ech.contains({0: 1})
    residual, coeffs = ech.reduce_with_coeffs({0: 3, 1: 3, 2: 4})
    assert not residual
    assert coeffs == {"z": Fraction(4)}


def test_echelon_pivot_is_the_smallest_key():
    # monomial keys: (0, 2) < (1, 0), whatever order the row lists them in
    ech = Echelon()
    assert ech.add({(1, 0): 4, (0, 2): 2}) == {(0, 2): 1, (1, 0): 2}
    assert ech.residual({(1, 0): 1, (0, 2): 1}) == {(1, 0): Fraction(-1)}
    assert ech.add({(0, 2): 0}) is None  # zero entries are absent entries


def test_echelon_rows_are_kept_in_pivot_order():
    # (pivot, primitive integer row, label), ascending by pivot whatever
    # order the rows arrive in; labels ride along with their rows
    ech = Echelon()
    ech.add({3: 2, 4: 4}, label="c")
    ech.add({1: 1, 3: 1})  # enters reduced by the row of pivot 3
    ech.add({2: 3}, label="b")
    assert ech.rows == [(1, {1: 1, 4: -2}, None), (2, {2: 1}, "b"), (3, {3: 1, 4: 2}, "c")]
    assert ech.pivots == [1, 2, 3]


def test_echelon_clone_is_independent():
    ech = Echelon()
    ech.add({0: 1})
    dup = ech.clone()
    dup.add({1: 1})
    assert ech.rank == 1 and dup.rank == 2


# -- cross-checks: the integer kernels against Fraction references --------


def _fraction_rref(m):
    """Reference: dense Fraction Gauss-Jordan, pivoting on the first row
    in current order with a nonzero entry in the column."""
    rows = dense_rows(m)
    pivots = []
    piv_r = 0
    for c in range(m.cols):
        sel = next((r for r in range(piv_r, m.rows) if rows[r][c]), None)
        if sel is None:
            continue
        rows[piv_r], rows[sel] = rows[sel], rows[piv_r]
        pv = rows[piv_r][c]
        rows[piv_r] = [x / pv for x in rows[piv_r]]
        for r in range(m.rows):
            f = rows[r][c]
            if r != piv_r and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[piv_r])]
        pivots.append(c)
        piv_r += 1
        if piv_r == m.rows:
            break
    return rows, pivots


def _fraction_kernel_basis(m):
    rows, pivots = _fraction_rref(m)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][f]
        mult = 1
        for x in v:
            mult = mult * x.denominator // gcd(mult, x.denominator)
        ints = [x * mult for x in v]
        g = 0
        for x in ints:
            g = gcd(g, x.numerator)
        basis.append(tuple(x / g for x in ints))
    return basis


def _rational_matrix(rng, rows, cols, density):
    """Random rational matrix whose later rows are often combinations of
    earlier ones."""
    m = _random_matrix(rng, rows, cols, density)
    data = dense_rows(m)
    for r in range(1, rows):
        if rng.random() < 0.4:
            a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-2, 2))
            src = data[rng.randrange(r)]
            other = data[rng.randrange(r)]
            data[r] = [a * x + b * y for x, y in zip(src, other)]
    return from_rows(data)


def _elimination_inputs(rng):
    for _ in range(150):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        for density in (0.15, 0.45, 0.9):
            yield _rational_matrix(rng, rows, cols, density)
    # no rows, no columns, and some columns entirely zero
    yield from (RatMatrix(0), RatMatrix(0, [{}] * 4), RatMatrix(3))
    for _ in range(30):
        m = _rational_matrix(rng, rng.randint(1, 6), rng.randint(2, 7), 0.6)
        zero = set(rng.sample(range(m.cols), rng.randint(1, m.cols - 1)))
        yield RatMatrix(m.rows, [{} if c in zero else col for c, col in enumerate(m.columns)])


def test_integer_elimination_matches_fraction_gauss_jordan():
    rng = random.Random(29)
    ranks = set()
    for m in _elimination_inputs(rng):
        ref_pivots = _fraction_rref(m)[1]
        assert rank(m) == len(ref_pivots)
        ranks.add((len(ref_pivots), m.rows))
        assert kernel_basis(m) == _fraction_kernel_basis(m)
        if m.cols and rng.random() < 0.5:
            target = m.column(rng.randrange(m.cols))
        else:
            target = tuple(
                Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(m.rows))
        ref = _fraction_rref(RatMatrix(m.rows, [*m.columns, dict(enumerate(target))]))
        if m.cols in ref[1]:
            assert solve_membership(m, target) is None
        else:
            coeffs = [Fraction(0)] * m.cols
            for r, pc in enumerate(ref[1]):
                coeffs[pc] = ref[0][r][m.cols]
            assert solve_membership(m, target) == tuple(coeffs)
    # rank-deficient matrices were drawn
    assert any(r < n for r, n in ranks)


class _FractionEchelon:
    """Reference: the incremental echelon kept as dense monic Fraction
    rows, indexed by column position."""

    def __init__(self, dim):
        self.dim = dim
        self.rows, self.pivots, self.labels = [], [], []

    def clone(self):
        dup = _FractionEchelon(self.dim)
        dup.rows = [r[:] for r in self.rows]
        dup.pivots, dup.labels = self.pivots[:], self.labels[:]
        return dup

    def reduce(self, vec, coeffs=None):
        vec = [Fraction(x) for x in vec]
        for row, p, label in zip(self.rows, self.pivots, self.labels):
            f = vec[p]
            if f:
                vec = [x - f * y for x, y in zip(vec, row)]
                if coeffs is not None and label is not None:
                    coeffs[label] = f
        return vec

    def add(self, vec, label=None):
        red = self.reduce(vec)
        pivot = next((j for j, x in enumerate(red) if x), None)
        if pivot is None:
            return None
        red = [x / red[pivot] for x in red]
        pos = sum(1 for p in self.pivots if p < pivot)
        self.rows.insert(pos, red)
        self.pivots.insert(pos, pivot)
        self.labels.insert(pos, label)
        return tuple(red)


def test_integer_echelon_matches_fraction_echelon():
    rng = random.Random(31)
    labelled = 0
    for _ in range(60):
        dim = rng.randint(1, 9)
        # ascending monomial-like column keys; the sparse rows given to
        # Echelon list every key, zero entries included
        keys = sorted((j % 3, j // 3) for j in range(dim))

        def row(vec):
            return {keys[j]: x for j, x in enumerate(vec)}

        def sparse(vec):
            return {keys[j]: x for j, x in enumerate(vec) if x}

        pairs = [(Echelon(), _FractionEchelon(dim))]
        added = []
        for step in range(rng.randint(5, 25)):
            ech, ref = pairs[rng.randrange(len(pairs))]
            if added and rng.random() < 0.4:
                # a combination of earlier vectors plus, sometimes, noise
                vec = [Fraction(0)] * dim
                for old in rng.sample(added, min(len(added), 3)):
                    c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                    vec = [x + c * y for x, y in zip(vec, old)]
                if rng.random() < 0.3:
                    vec[rng.randrange(dim)] += Fraction(rng.randint(-5, 5), 7)
            else:
                vec = [Fraction(rng.choice((0, 0, 1, -1, 2, -3)), rng.choice((1, 1, 2, 3)))
                       for _ in range(dim)]
            op = rng.choice(("add", "add", "add", "residual", "contains", "coeffs", "clone"))
            if op == "add":
                label = step if rng.random() < 0.5 else None
                labelled += label is not None
                want = ref.add(vec, label=label)
                got = ech.add(row(vec), label=label)
                assert got == (None if want is None else sparse(want))
                added.append(vec)
            elif op == "residual":
                assert ech.residual(row(vec)) == sparse(ref.reduce(vec))
            elif op == "contains":
                assert ech.contains(row(vec)) == (not any(ref.reduce(vec)))
            elif op == "coeffs":
                coeffs = {}
                red = ref.reduce(vec, coeffs)
                assert ech.reduce_with_coeffs(row(vec)) == (sparse(red), coeffs)
            else:
                pairs.append((ech.clone(), ref.clone()))
            assert ech.rank == len(ref.rows)
    assert labelled > 100
