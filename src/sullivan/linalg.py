"""Exact linear algebra over the rationals.

Everything here works with `fractions.Fraction` (arbitrary-precision,
always in lowest terms) -- no floating point anywhere.  Elimination uses
deterministic pivoting (first nonzero row in column order) so that every
downstream basis, representative cocycle and report is reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionMismatchError(ValueError):
    """Raised when vector/matrix dimensions are inconsistent."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class RatMatrix:
    """Immutable rational matrix with sparse entry storage.

    Entries are kept in a dict keyed by (row, col); zero entries are never
    stored.  Elimination routines densify row-by-row when fill-in makes
    that cheaper (monomial differentials are sparse, elimination is not).
    """

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        if rows < 0 or cols < 0:
            raise DimensionMismatchError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        clean: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise DimensionMismatchError(
                        f"entry ({r},{c}) outside {rows}x{cols} matrix"
                    )
                v = _as_fraction(v)
                if v != 0:
                    clean[(r, c)] = v
        self._entries = clean

    @classmethod
    def from_rows(cls, data) -> "RatMatrix":
        data = [list(row) for row in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise DimensionMismatchError("ragged rows")
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = _as_fraction(v)
        return cls(rows, cols, entries)

    def entry(self, r: int, c: int) -> Fraction:
        return self._entries.get((r, c), ZERO)

    def column(self, c: int) -> Vector:
        return tuple(self._entries.get((r, c), ZERO) for r in range(self.rows))

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            self.cols, self.rows, {(c, r): v for (r, c), v in self._entries.items()}
        )

    def density(self) -> float:
        if self.rows * self.cols == 0:
            return 0.0
        return len(self._entries) / (self.rows * self.cols)

    def apply(self, vec) -> Vector:
        """Matrix times column vector."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise DimensionMismatchError(
                f"vector length {len(vec)} != column count {self.cols}"
            )
        out = [ZERO] * self.rows
        for (r, c), v in self._entries.items():
            if vec[c]:
                out[r] += v * vec[c]
        return tuple(out)

    def is_zero(self) -> bool:
        return not self._entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols}, {len(self._entries)} entries)"

    def _row_lists(self) -> list[list[Fraction]]:
        data = [[ZERO] * self.cols for _ in range(self.rows)]
        for (r, c), v in self._entries.items():
            data[r][c] = v
        return data

    def _row_dicts(self) -> list[dict[int, Fraction]]:
        data: list[dict[int, Fraction]] = [{} for _ in range(self.rows)]
        for (r, c), v in self._entries.items():
            data[r][c] = v
        return data


_FILL_IN_LIMIT = 0.5


def _rref_dense(rows: list[list[Fraction]], cols: int, pivots: list[int],
                piv_r: int, start_col: int):
    n_rows = len(rows)
    for c in range(start_col, cols):
        sel = None
        for r in range(piv_r, n_rows):
            if rows[r][c]:
                sel = r
                break
        if sel is None:
            continue
        if sel != piv_r:
            rows[piv_r], rows[sel] = rows[sel], rows[piv_r]
        pv = rows[piv_r][c]
        if pv != 1:
            inv = ONE / pv
            row = rows[piv_r]
            for j in range(c, cols):
                if row[j]:
                    row[j] *= inv
        src = rows[piv_r]
        for r in range(n_rows):
            if r == piv_r:
                continue
            f = rows[r][c]
            if f:
                dst = rows[r]
                for j in range(c, cols):
                    if src[j]:
                        dst[j] -= f * src[j]
        pivots.append(c)
        piv_r += 1
        if piv_r == n_rows:
            break
    return rows, pivots


def _rref(m: RatMatrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of m: (dense rows, pivot columns).

    Runs sparse (dict rows) while the matrix stays sparse, and densifies
    once fill-in exceeds 50%: monomial differentials are sparse, but
    elimination is not.  Pivot choice is the first row in current order
    with a nonzero entry in the column -- deterministic either way.
    """
    cols = m.cols
    if m.rows == 0 or cols == 0:
        return m._row_lists(), []
    if m.density() > _FILL_IN_LIMIT:
        return _rref_dense(m._row_lists(), cols, [], 0, 0)
    rows = m._row_dicts()
    n_rows = len(rows)
    cells = n_rows * cols
    nnz = sum(len(r) for r in rows)
    pivots: list[int] = []
    piv_r = 0
    for c in range(cols):
        if nnz > _FILL_IN_LIMIT * cells:
            dense = [[row.get(j, ZERO) for j in range(cols)] for row in rows]
            return _rref_dense(dense, cols, pivots, piv_r, c)
        sel = None
        for r in range(piv_r, n_rows):
            if rows[r].get(c):
                sel = r
                break
        if sel is None:
            continue
        if sel != piv_r:
            rows[piv_r], rows[sel] = rows[sel], rows[piv_r]
        src = rows[piv_r]
        pv = src[c]
        if pv != 1:
            inv = ONE / pv
            for j in list(src):
                src[j] *= inv
        for r in range(n_rows):
            if r == piv_r:
                continue
            dst = rows[r]
            f = dst.get(c)
            if f:
                nnz -= len(dst)
                for j, v in src.items():
                    cur = dst.get(j, ZERO) - f * v
                    if cur:
                        dst[j] = cur
                    else:
                        dst.pop(j, None)
                nnz += len(dst)
        pivots.append(c)
        piv_r += 1
        if piv_r == n_rows:
            break
    dense = [[row.get(j, ZERO) for j in range(cols)] for row in rows]
    return dense, pivots


def rank(m: RatMatrix) -> int:
    """Rank over Q via exact elimination."""
    if m.rows == 0 or m.cols == 0 or m.is_zero():
        return 0
    _, pivots = _rref(m)
    return len(pivots)


def _normalize_integral(vec: list[Fraction]) -> Vector:
    """Scale a rational vector to integer entries with content 1."""
    denoms = [v.denominator for v in vec if v]
    if not denoms:
        return tuple(vec)
    mult = lcm(*denoms) if len(denoms) > 1 else denoms[0]
    ints = [v * mult for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v.numerator))
    if g > 1:
        ints = [v / g for v in ints]
    return tuple(ints)


def kernel_basis(m: RatMatrix) -> list[Vector]:
    """Basis of the null space of m.

    Vectors come out in reduced-echelon free-variable order, scaled to
    integer entries with content 1 (the free coordinate stays positive).
    """
    if m.cols == 0:
        return []
    if m.rows == 0 or m.is_zero():
        basis = []
        for c in range(m.cols):
            v = [ZERO] * m.cols
            v[c] = ONE
            basis.append(tuple(v))
        return basis
    rows, pivots = _rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, pc in enumerate(pivots):
            if rows[r][f]:
                v[pc] = -rows[r][f]
        basis.append(_normalize_integral(v))
    return basis


def solve_membership(m: RatMatrix, v) -> Vector | None:
    """Coefficients expressing v in the column span of m, or None.

    Raises DimensionMismatchError when len(v) != m.rows (never silently
    truncates).
    """
    v = tuple(_as_fraction(x) for x in v)
    if len(v) != m.rows:
        raise DimensionMismatchError(
            f"vector length {len(v)} != row count {m.rows}"
        )
    if m.cols == 0:
        return () if all(x == 0 for x in v) else None
    # eliminate the augmented system [m | v]
    entries = dict(m._entries)
    for r, x in enumerate(v):
        if x:
            entries[(r, m.cols)] = x
    rows, pivots = _rref(RatMatrix(m.rows, m.cols + 1, entries))
    if m.cols in pivots:
        return None
    coeffs = [ZERO] * m.cols
    for r, pc in enumerate(pivots):
        coeffs[pc] = rows[r][m.cols]
    return tuple(coeffs)


def matmul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    if a.cols != b.rows:
        raise DimensionMismatchError(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    by_col: dict[int, list[tuple[int, Fraction]]] = {}
    for (r, c), v in b._entries.items():
        by_col.setdefault(c, []).append((r, v))
    by_row: dict[int, list[tuple[int, Fraction]]] = {}
    for (r, c), v in a._entries.items():
        by_row.setdefault(c, []).append((r, v))
    entries: dict[tuple[int, int], Fraction] = {}
    for c, col in by_col.items():
        for k, bv in col:
            for r, av in by_row.get(k, ()):
                key = (r, c)
                s = entries.get(key, ZERO) + av * bv
                if s:
                    entries[key] = s
                else:
                    entries.pop(key, None)
    return RatMatrix(a.rows, b.cols, entries)


def quotient_dimension(ambient_dim: int, subspace) -> int:
    """dim(ambient / span(subspace))."""
    vectors = [tuple(v) for v in subspace]
    for v in vectors:
        if len(v) != ambient_dim:
            raise DimensionMismatchError("subspace vector length != ambient dimension")
    if not vectors:
        return ambient_dim
    return ambient_dim - rank(RatMatrix.from_rows(vectors))


class Echelon:
    """Incremental row-echelon accumulator used for span membership,
    quotient bases and coordinate extraction.

    Rows are kept monic at their pivot.  Each row can carry a label;
    reduce_with_coeffs reports the coefficient used on every labelled row,
    which is how cohomology classes get coordinates in a chosen basis.
    """

    __slots__ = ("dim", "_rows", "_pivots", "_labels")

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: list[list[Fraction]] = []
        self._pivots: list[int] = []
        self._labels: list[object] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def clone(self) -> "Echelon":
        dup = Echelon(self.dim)
        dup._rows = [row[:] for row in self._rows]
        dup._pivots = self._pivots[:]
        dup._labels = self._labels[:]
        return dup

    def _reduce(self, vec: list[Fraction], coeffs: dict | None = None) -> list[Fraction]:
        for idx, (row, p) in enumerate(zip(self._rows, self._pivots)):
            f = vec[p]
            if f:
                for j in range(p, self.dim):
                    if row[j]:
                        vec[j] -= f * row[j]
                if coeffs is not None and self._labels[idx] is not None:
                    coeffs[self._labels[idx]] = f
        return vec

    def residual(self, vec) -> Vector:
        return tuple(self._reduce([_as_fraction(x) for x in vec]))

    def contains(self, vec) -> bool:
        return not any(self.residual(vec))

    def reduce_with_coeffs(self, vec) -> tuple[Vector, dict]:
        coeffs: dict = {}
        red = self._reduce([_as_fraction(x) for x in vec], coeffs)
        return tuple(red), coeffs

    def add(self, vec, label=None) -> Vector | None:
        """Reduce vec against the accumulated rows; if independent, insert
        it (monic) and return the inserted row, else return None."""
        red = self._reduce([_as_fraction(x) for x in vec])
        pivot = next((j for j, x in enumerate(red) if x), None)
        if pivot is None:
            return None
        lead = red[pivot]
        if lead != 1:
            red = [x / lead for x in red]
        pos = 0
        while pos < len(self._pivots) and self._pivots[pos] < pivot:
            pos += 1
        self._rows.insert(pos, red)
        self._pivots.insert(pos, pivot)
        self._labels.insert(pos, label)
        return tuple(red)
