"""Exact linear algebra over the rationals.

`fractions.Fraction` is the coefficient type at the boundary: a matrix
is its list of sparse Fraction columns keyed by row index, vectors are
Fraction tuples, and `Echelon` takes and hands out sparse rows: mappings
from totally ordered column keys (for cochains, the monomials
themselves) to rationals.
There is one elimination, `Echelon`'s: each row is reduced against the
stored rows in pivot order, a row's pivot being its smallest key.  An
echelon is one list of (pivot, row, label) triples kept in that order,
which its readers walk as it is.
`reduce_rows` runs it once over a sequence of rows and, with tags,
also returns the relations among them; `rank`, `kernel_basis` and
`solve_membership` are that reduction over a matrix's columns.
Inside, elimination is fraction-free: each row is scaled to a primitive
integer row (denominators cleared, content divided out; a row given in
ints, as the cochain layer gives its images d(m), has no denominators
to clear and enters with no Fraction built), rows are
combined by cross-multiplication and made primitive again, and only the
rows handed out are divided by their pivots.  No floating point and no
modular arithmetic anywhere.  Rows are reduced in the order given, so
every downstream basis, representative cocycle and report is
reproducible; relations and monic rows are unique, so the scaling never
changes a result.
"""

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)


class DimensionMismatchError(ValueError):
    """Raised when vector/matrix dimensions are inconsistent."""


class RatMatrix:
    """Immutable rational matrix stored as its columns.

    Column c is a sparse row {row index: Fraction} with no zeros, the form
    that elimination reduces (see `reduce_rows`); ints are wrapped in
    Fractions and zero entries dropped.
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, columns=()):
        if rows < 0:
            raise DimensionMismatchError("negative matrix dimensions")
        self.rows = rows
        self.columns = []
        for c, col in enumerate(columns):
            if col and (min(col) < 0 or max(col) >= rows):
                raise DimensionMismatchError(
                    f"column {c} has a row index outside 0..{rows - 1}")
            self.columns.append({r: v if isinstance(v, Fraction) else Fraction(v)
                                 for r, v in col.items() if v})
        self.cols = len(self.columns)

    def column(self, c: int) -> Vector:
        col = self.columns[c]
        return tuple(col.get(r, ZERO) for r in range(self.rows))

    def is_zero(self) -> bool:
        return not any(self.columns)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.columns == other.columns
        )

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols}, {sum(map(len, self.columns))} entries)"


def _primitive(row: dict) -> dict:
    """The primitive integer row proportional to a sparse rational (or
    integer) row: denominators cleared, zeros dropped, content divided
    out.  A row of ints has no denominators to clear."""
    vals = row.values()
    if set(map(type, vals)) <= {int}:
        ints = dict(row) if 0 not in vals else {j: v for j, v in row.items() if v}
    else:
        den = lcm(*[v.denominator for v in vals])
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


def rank(m: RatMatrix) -> int:
    """Rank over Q via exact elimination."""
    return reduce_rows(m.columns)[0].rank


def kernel_basis(m: RatMatrix) -> list[Vector]:
    """Basis of the null space of m.

    One vector per column that depends on the earlier columns, in column
    order: the relation of `reduce_rows`, so its last nonzero entry is
    that column's, positive, and the entries are integers with content 1.
    This is the reduced-echelon free-variable basis.
    """
    _, relations = reduce_rows(m.columns, range(m.rows, m.rows + m.cols))
    basis = []
    for rel in relations:
        v = [ZERO] * m.cols
        for t, c in rel.items():
            v[t - m.rows] = Fraction(c)
        basis.append(tuple(v))
    return basis


def solve_membership(m: RatMatrix, v) -> Vector | None:
    """Coefficients expressing v in the column span of m, or None.

    The coefficients sit on the columns independent of the earlier ones,
    where they are unique; every other coefficient is zero.  Raises
    DimensionMismatchError when len(v) != m.rows (never silently
    truncates).
    """
    v = tuple(v)
    if len(v) != m.rows:
        raise DimensionMismatchError(
            f"vector length {len(v)} != row count {m.rows}"
        )
    rows = [*m.columns, {r: x for r, x in enumerate(v) if x}]
    last = m.rows + m.cols
    _, relations = reduce_rows(rows, range(m.rows, last + 1))
    if not relations or last not in relations[-1]:
        return None
    rel = relations[-1]
    a = rel.pop(last)
    coeffs = [ZERO] * m.cols
    for t, c in rel.items():
        coeffs[t - m.rows] = Fraction(-c, a)
    return tuple(coeffs)


def matmul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """a * b: each column of b pushed through the columns of a."""
    if a.cols != b.rows:
        raise DimensionMismatchError(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    product = []
    for col in b.columns:
        out: dict[int, Fraction] = {}
        for k, bv in col.items():
            for r, av in a.columns[k].items():
                out[r] = out.get(r, ZERO) + av * bv
        product.append(out)
    return RatMatrix(a.rows, product)


class Echelon:
    """Incremental row-echelon accumulator used for span membership,
    quotient bases and coordinate extraction.

    A row is a sparse mapping from totally ordered column keys (for
    cochains, monomials) to rationals; absent keys are zero and a row's
    pivot is its smallest key.  The echelon is one list, `rows`, of
    (pivot, primitive integer row, label) triples in ascending pivot
    order; the row handed out by `add`, and the row every coefficient
    refers to, is the stored row divided by its pivot entry (monic).
    Stored rows are never mutated.  A label is None or a caller's key;
    reduce_with_coeffs reports the coefficient used on every labelled
    row, which is how cohomology classes get coordinates in a chosen
    basis.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: list[tuple] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> list:
        """The stored rows' pivots, ascending."""
        return [p for p, _, _ in self.rows]

    def clone(self) -> "Echelon":
        dup = Echelon()
        dup.rows = self.rows[:]
        return dup

    def functional(self, label) -> dict:
        """{pivot: f(pivot)} for the linear f(row) = the coefficient reducing row
        collects on the row labelled `label`, zero off these keys: back from the
        last pivot, f(p) = [R labelled] - sum_(k != p) R[k] f(k), R monic.  The
        values are kept as integers over one denominator, which each stored
        row's pivot entry extends as needed, and made Fractions at the end."""
        f, den = {}, 1  # f = num / den, in integers
        for p, row, lab in reversed(self.rows):
            v = (lab == label) * row[p] * den - sum(row[k] * c for k, c in f.items() if k in row)
            if v:
                g = gcd(v, row[p])
                if row[p] != g:  # f(p) = v / (row[p] den) needs den * row[p] / g
                    f = {k: c * (row[p] // g) for k, c in f.items()}
                    den *= row[p] // g
                f[p] = v // g
        return {k: Fraction(c, den) for k, c in f.items()}

    def _reduce(self, num: dict, scale: Fraction | None = None,
                coeffs: dict | None = None) -> tuple[dict, Fraction | None]:
        """Reduce the primitive integer row num against the stored rows,
        taken in pivot order: (num', scale') with num' primitive.  When
        num * scale is the row being reduced, num' * scale' is its exact
        residual, and coeffs (which needs the scale) collects the
        coefficient used on every labelled stored row."""
        for p, stored, label in self.rows:
            f = num.get(p)
            if f:
                if coeffs is not None and label is not None:
                    coeffs[label] = scale * f
                num, a, h = _combine(num, stored, p)
                if not num:
                    break
                if scale is not None and (a != 1 or h != 1):
                    scale = scale * h / a
        return num, scale

    def _insert(self, num: dict, pivot, label=None) -> None:
        # pivots are distinct, so the probe (pivot,) never compares rows
        self.rows.insert(bisect_left(self.rows, (pivot,)), (pivot, num, label))

    def _exact(self, row, coeffs: dict | None = None) -> dict:
        """The exact residual of row reduced against the stored rows; coeffs,
        when given, collects the coefficient used on every labelled row."""
        num = _primitive(row)
        if not num:
            return {}
        lead = next(iter(num))
        num, scale = self._reduce(num, Fraction(row[lead], num[lead]), coeffs)
        return {j: scale * x for j, x in num.items()}

    def residual(self, row) -> dict:
        return self._exact(row)

    def contains(self, row) -> bool:
        return not self._reduce(_primitive(row))[0]

    def reduce_with_coeffs(self, row) -> tuple[dict, dict]:
        coeffs: dict = {}
        return self._exact(row, coeffs), coeffs

    def add(self, row, label=None) -> dict | None:
        """Reduce row against the stored rows; if independent, insert it
        and return the inserted row made monic, else return None."""
        num = self._reduce(_primitive(row))[0]
        if not num:
            return None
        pivot = min(num)
        self._insert(num, pivot, label)
        p = num[pivot]
        return {j: Fraction(x, p) for j, x in num.items()}


def reduce_rows(rows, tags=None, full_rank=None) -> tuple[Echelon, list[dict]]:
    """One pass of elimination over a sequence of sparse rows, in order:
    (span, relations), span an unlabelled `Echelon` of the rows' span.

    full_rank, when given without tags, is the dimension of the space the
    rows lie in: once the span has that many rows, every later row is
    dependent, so the pass stops there and reads no more of `rows`.

    With tags (one key per row, ascending, each sorting after every key
    of every row), row j enters as row_j + tags[j], so the tags of a
    stored row record which combination of input rows it is.  A row whose
    own keys cancel leaves only tags: the relation sum_t c_t row_t = 0,
    returned as {tag: c_t} in integers with content 1 and c_j > 0.  Its
    support is row j and earlier rows independent of their predecessors,
    so it is unique: for a matrix's columns, the reduced-echelon kernel
    vector of free column j.  The surviving rows are stored with their
    tags stripped.  This is the column reduction of persistence
    computations (Zomorodian-Carlsson 2005): one pass gives both the
    cycles and the boundaries of a differential.
    """
    span = Echelon()
    relations: list[dict] = []
    for j, row in enumerate(rows):
        if tags is not None:
            row = {**row, tags[j]: 1}
        num = span._reduce(_primitive(row))[0]
        if not num:
            continue
        pivot = min(num)
        if tags is None or pivot < tags[0]:
            span._insert(num, pivot)
            if span.rank == full_rank:
                break
        else:  # num[tags[j]] > 0: no stored row carries tags[j]
            relations.append(num)
    if tags is not None and span.rank:
        first = tags[0]
        span.rows = [(p, _primitive({x: c for x, c in row.items() if x < first}), label)
                     for p, row, label in span.rows]
    return span, relations
