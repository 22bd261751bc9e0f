"""Exact linear algebra over the rationals.

`fractions.Fraction` is the coefficient type at the boundary: matrices
hold Fraction entries, vectors are Fraction tuples indexed by column,
and `Echelon` takes and hands out sparse rows: mappings from totally
ordered column keys (for cochains, the monomials themselves) to
rationals.
Inside, elimination is fraction-free: each row is scaled to a primitive
integer row (denominators cleared, content divided out), rows are
combined by cross-multiplication and made primitive again, and only the
final pivot rows are divided by their pivots.  No floating point and no
modular arithmetic anywhere.  Elimination uses deterministic pivoting
(first nonzero row in column order) so that every downstream basis,
representative cocycle and report is reproducible; the reduced echelon
form is unique, so the scaling never changes a result.
"""

from __future__ import annotations

from bisect import bisect_left
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

    Entries are Fractions kept in a dict keyed by (row, col); zero entries
    are never stored.  Elimination works on sparse primitive integer rows
    built from them (see `_rref`).
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

    def _int_rows(self) -> list[dict[int, int]]:
        rows: list[dict[int, Fraction]] = [{} for _ in range(self.rows)]
        for (r, c), v in self._entries.items():
            rows[r][c] = v
        return [_primitive(row) for row in rows]


def _primitive(row: dict) -> dict:
    """The primitive integer row proportional to a sparse rational (or
    integer) row: denominators cleared, zeros dropped, content divided
    out."""
    den = lcm(*[v.denominator for v in row.values()])
    ints = {j: v.numerator * (den // v.denominator) for j, v in row.items() if v}
    if not ints:
        return {}
    g = gcd(*ints.values())
    return {j: v // g for j, v in ints.items()} if g != 1 else ints


def _combine(dst: dict, src: dict, col) -> tuple[dict, int, int]:
    """Cancel dst's entry at col with src: the primitive integer row
    (a*dst - b*src) / h, where b/a = dst[col]/src[col] in lowest terms
    with a > 0 and h is the content.  Returns (row, a, h); dst itself may
    be reused for the row."""
    a, b = src[col], dst[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a < 0:
        a, b = -a, -b
    out = {j: a * v for j, v in dst.items()} if a != 1 else dst
    for j, v in src.items():
        x = out.get(j, 0) - b * v
        if x:
            out[j] = x
        else:
            del out[j]
    h = gcd(*out.values()) if out else 1
    if h != 1:
        out = {j: v // h for j, v in out.items()}
    return out, a, h


def _rref(m: RatMatrix) -> tuple[list[dict[int, int]], list[int]]:
    """Integer Gauss-Jordan elimination of m: (pivot rows, pivot columns).

    Pivot row r is a sparse primitive integer row whose entry at
    pivots[r] is its pivot; dividing it by that pivot gives row r of the
    reduced row echelon form.  Every row starts primitive and stays
    primitive after each cross-multiplication.  Pivot choice is the first
    row in current order with a nonzero entry in the column.
    """
    if m.is_zero():
        return [], []
    rows = m._int_rows()
    n_rows = len(rows)
    pivots: list[int] = []
    piv_r = 0
    for c in range(m.cols):
        if piv_r == n_rows:
            break
        sel = next((r for r in range(piv_r, n_rows) if c in rows[r]), None)
        if sel is None:
            continue
        if sel != piv_r:
            rows[piv_r], rows[sel] = rows[sel], rows[piv_r]
        src = rows[piv_r]
        for r in range(n_rows):
            if r != piv_r and c in rows[r]:
                rows[r] = _combine(rows[r], src, c)[0]
        pivots.append(c)
        piv_r += 1
    return rows[:piv_r], pivots


def rank(m: RatMatrix) -> int:
    """Rank over Q via exact elimination."""
    return len(_rref(m)[1])


def kernel_basis(m: RatMatrix) -> list[Vector]:
    """Basis of the null space of m.

    Vectors come out in reduced-echelon free-variable order, scaled to
    integer entries with content 1 (the free coordinate stays positive).
    """
    rows, pivots = _rref(m)
    # the pivot-column entries of each free column's vector, -row[f]/row[pc]
    by_free: dict[int, list[tuple[int, int, int]]] = {}
    for row, pc in zip(rows, pivots):
        p = row[pc]
        for f, q in row.items():
            if f != pc:
                by_free.setdefault(f, []).append((pc, -q, p))
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        # scaling by the lcm of the reduced denominators gives integers
        # with content 1: a prime power dividing the lcm exactly divides
        # some denominator, and so not that entry's scaled numerator
        entries = by_free.get(f, ())
        scale = lcm(*[p // gcd(q, p) for _, q, p in entries])
        v = [ZERO] * m.cols
        v[f] = Fraction(scale)
        for pc, q, p in entries:
            v[pc] = Fraction(q * scale // p)
        basis.append(tuple(v))
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
    for row, pc in zip(rows, pivots):
        if m.cols in row:
            coeffs[pc] = Fraction(row[m.cols], row[pc])
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


class Echelon:
    """Incremental row-echelon accumulator used for span membership,
    quotient bases and coordinate extraction.

    A row is a sparse mapping from totally ordered column keys (for
    cochains, monomials) to rationals; absent keys are zero and a row's
    pivot is its smallest key.  Rows are stored as primitive integer rows;
    the row handed out by `add`, and the row every coefficient refers to,
    is the stored row divided by its pivot entry (monic).  Each row can
    carry a label; reduce_with_coeffs reports the coefficient used on
    every labelled row, which is how cohomology classes get coordinates
    in a chosen basis.
    """

    __slots__ = ("_rows", "_pivots", "_labels")

    def __init__(self):
        self._rows: list[dict] = []
        self._pivots: list = []
        self._labels: list[object] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def clone(self) -> "Echelon":
        # stored rows are never mutated, so the copy can share them
        dup = Echelon()
        dup._rows = self._rows[:]
        dup._pivots = self._pivots[:]
        dup._labels = self._labels[:]
        return dup

    def _reduce(self, row, coeffs: dict | None = None) -> tuple[dict, Fraction]:
        """(num, scale) with num a primitive integer row and num * scale
        the reduction of row against the stored rows, taken in pivot
        order."""
        num = _primitive(row)
        lead = next(iter(num), None)
        scale = ONE if lead is None else Fraction(row[lead], num[lead])
        for stored, p, label in zip(self._rows, self._pivots, self._labels):
            f = num.get(p)
            if f:
                if coeffs is not None and label is not None:
                    coeffs[label] = scale * f
                num, a, h = _combine(num, stored, p)
                if not num:
                    break
                if a != 1 or h != 1:
                    scale = scale * h / a
        return num, scale

    def residual(self, row) -> dict:
        num, scale = self._reduce(row)
        return {j: scale * x for j, x in num.items()}

    def contains(self, row) -> bool:
        return not self._reduce(row)[0]

    def reduce_with_coeffs(self, row) -> tuple[dict, dict]:
        coeffs: dict = {}
        num, scale = self._reduce(row, coeffs)
        return {j: scale * x for j, x in num.items()}, coeffs

    def add(self, row, label=None) -> dict | None:
        """Reduce row against the stored rows; if independent, insert it
        and return the inserted row made monic, else return None."""
        num, _ = self._reduce(row)
        if not num:
            return None
        pivot = min(num)
        pos = bisect_left(self._pivots, pivot)
        self._rows.insert(pos, num)
        self._pivots.insert(pos, pivot)
        self._labels.insert(pos, label)
        p = num[pivot]
        return {j: Fraction(x, p) for j, x in num.items()}
