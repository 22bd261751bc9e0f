"""Free graded-commutative algebra on a fixed generator list.

Monomials are exponent tuples in generator-index order (the canonical
form); polynomials are dicts mapping monomial -> Fraction with zero
coefficients never stored.  All Koszul signs are computed at
normalization time, never stored.

Monomial bases come from a `BasisTable`: suffix lists per generator and
degree, each built from two lists the table already holds, so no
enumeration recurses per generator and a table to degree N costs O(N)
lists per generator.  The table counts what it stores and refuses, with
`WorkBudgetError`, to grow past a fixed cell budget.
"""

from fractions import Fraction
from math import gcd
from operator import add
from typing import NamedTuple

Monomial = tuple[int, ...]
Polynomial = dict[Monomial, Fraction]


class Generator(NamedTuple):
    """A graded generator: position in the fixed list, name, degree."""

    index: int
    name: str
    degree: int

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1

    def __str__(self) -> str:
        return f"{self.name}:{self.degree}"


class Derivation(NamedTuple):
    """A derivation given by its values on generators, extended by the
    graded Leibniz rule D(ab) = D(a)b + (-1)^(shift*|a|) a D(b)."""

    degree_shift: int
    values: tuple[Polynomial, ...]


def monomial_degree(gens, m: Monomial) -> int:
    return sum(e * g.degree for e, g in zip(m, gens))


def word_length(m: Monomial) -> int:
    return sum(m)


def koszul_sign(gens, m1: Monomial, m2: Monomial) -> int:
    """Sign of sorting the concatenation m1·m2 into canonical order.

    Returns 0 when the product vanishes (a shared odd generator), else
    (-1)^t where t counts odd-odd transpositions.  Even generators
    commute freely and contribute nothing.
    """
    odds1 = [i for i, e in enumerate(m1) if e and gens[i].is_odd]
    if not odds1:
        return 1
    odds2 = [i for i, e in enumerate(m2) if e and gens[i].is_odd]
    if not odds2:
        return 1
    set1 = set(odds1)
    transpositions = 0
    for j in odds2:
        if j in set1:
            return 0
        transpositions += sum(1 for i in odds1 if i > j)
    return -1 if transpositions % 2 else 1


def poly(terms=None) -> Polynomial:
    """Build a polynomial, dropping zero coefficients."""
    out: Polynomial = {}
    if terms:
        for m, c in dict(terms).items():
            c = c if isinstance(c, Fraction) else Fraction(c)
            if c != 0:
                out[m] = c
    return out


def multiply(gens, p: Polynomial, q: Polynomial) -> Polynomial:
    """Bilinear Koszul-signed product."""
    out: Polynomial = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            sign = koszul_sign(gens, m1, m2)
            if sign == 0:
                continue
            m = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(m, 0) + sign * c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def apply_derivation(gens, deriv: Derivation, p: Polynomial) -> Polynomial:
    if not p:
        return {}
    table = LeibnizTable(gens, deriv)
    out: dict[Monomial, int | Fraction] = {}
    for m, c in p.items():
        for key, v in table.image(m).items():
            out[key] = out.get(key, 0) + c * v
    return {key: Fraction(v) for key, v in out.items() if v}


class LeibnizTable:
    """A derivation D on monomials, from its values read once: the parity
    of each generator and, for each generator x_i, the terms c*u of D(x_i)
    with the odd positions of u (gathered on first use).  `image(m)` is
    the Leibniz expansion in closed form:

        D(x^a) = sum_i (-1)^(shift*|x_1^a_1...x_(i-1)^a_(i-1)|) a_i x^(a-e_i) D(x_i)

    where each product is put in canonical order.  For a term u of D(x_i)
    the sign of moving it into place is (-1)^(|u|*|L|) times the Koszul
    sign of u*x^(a-e_i), with L = x_1^a_1...x_i^(a_i-1) the factors that
    stood before it; the Koszul sign counts the odd-odd inversions
    between u and x^(a-e_i), and a shared odd generator kills the term.
    Signs and multiplicities are integers, and coefficients stay ints
    where D's are integers: an image holds a Fraction only where some
    value of D has a non-integer coefficient.
    """

    __slots__ = ("_odd", "_shift", "_values", "_terms")

    def __init__(self, gens, deriv: Derivation):
        self._odd = [g.degree & 1 for g in gens]
        self._shift = deriv.degree_shift & 1
        self._values = deriv.values
        self._terms: list[list | None] = [None] * len(deriv.values)

    def _terms_of(self, i: int) -> list:
        """(u, odd positions of u, how many lie after an odd x_i, c) per
        term c*u of D(x_i)."""
        odd = self._odd
        terms = []
        for u, c in self._values[i].items():
            odds = [p for p, e in enumerate(u) if e and odd[p]]
            after = sum(p > i for p in odds) if odd[i] else 0
            terms.append((u, odds, after, c.numerator if c.denominator == 1 else c))
        self._terms[i] = terms
        return terms

    def image(self, m: Monomial) -> dict[Monomial, int | Fraction]:
        """D(m) as a sparse row with no zero entries."""
        odd, values = self._odd, self._values
        # below[p]: odd generators of m with index < p
        below = [0] * (len(m) + 1)
        for p, e in enumerate(m):
            below[p + 1] = below[p] + (1 if e and odd[p] else 0)
        out: dict[Monomial, int | Fraction] = {}
        for i, a in enumerate(m):
            if not (a and values[i]):
                continue
            before = below[i]  # odd factors of x_1^a_1...x_(i-1)^a_(i-1)
            lead = before + (1 if a > 1 and odd[i] else 0)
            base = self._shift * before
            w = list(m)
            w[i] -= 1
            for u, odds, after, c in self._terms[i] or self._terms_of(i):
                flips = base - after
                for p in odds:
                    if w[p]:  # u shares an odd generator with x^(a-e_i)
                        break
                    flips += below[p]
                else:
                    flips += len(odds) * lead
                    key = tuple(map(add, w, u))
                    out[key] = out.get(key, 0) + (-a * c if flips & 1 else a * c)
        return {key: c for key, c in out.items() if c}


# The cells a `BasisTable` may hold: about four times the 2.4 * 10^6 that
# pow(6,3) (generators x_i of degree 2 and y_i with d y_i = x_i^3,
# i = 1..6) needs through degree N + 2, and about 120 MB of tuples at the
# 12 bytes a cell that table takes.
BASIS_CELL_BUDGET = 10_000_000


class WorkBudgetError(RuntimeError):
    """Raised before a computation would grow past its fixed work budget."""


class BasisTable:
    """The monomial bases of one generator list, with no recursion.  Level
    j, degree r holds the exponent tuples of generators j.. of total
    degree r, in ascending lexicographic order, and level 0 is the basis.
    With d the degree of generator j, level j, degree r is

    - level j+1, degree r, with exponent 0 put in front, then
    - the tuples with generator j's exponent at least 1: level j, degree
      r - d, with that exponent raised by one when generator j is even, or
      level j+1, degree r - d, with exponent 1 in front when it is odd
      (none below d),

    and each part keeps the order of the list it came from, so the whole
    list is ascending.  The table grows upward on demand, one degree at a
    time across every level; a degree reads at most two held lists per
    level.

    A tuple of level j has n - j cells.  Each list is counted before it is
    built, and a degree that would take the table past
    `BASIS_CELL_BUDGET` cells raises `WorkBudgetError` before any of its
    lists is stored, so a refused degree leaves the table as it was.
    """

    __slots__ = ("_step", "_degrees", "_odd", "_levels", "cells")

    def __init__(self, gens):
        # every degree is a multiple of _step, and the table is kept in units
        # of it (on even generators alone, odd degrees cost nothing)
        self._step = gcd(*(g.degree for g in gens)) or 1
        self._degrees = [g.degree // self._step for g in gens]
        self._odd = [g.is_odd for g in gens]
        self._levels: list[list] = [[] for _ in range(len(gens) + 1)]
        self.cells = 0

    def basis(self, degree: int) -> list[Monomial]:
        """All canonical monomials of the given total degree, ascending;
        the same list object on every call of a degree that has any."""
        degree, rest = divmod(degree, self._step)
        if degree < 0 or rest:
            return []
        first = self._levels[0]
        while len(first) <= degree:
            self._grow(len(first))
        return first[degree]

    def _grow(self, r: int):
        levels, degrees, odd = self._levels, self._degrees, self._odd
        n = len(levels) - 1
        cells, got = self.cells, [()] if r == 0 else []
        made = [got]  # degree r, from level n up

        def raised(j: int):
            # the held list that level j, degree r takes with generator j's
            # exponent raised by one (`odd[j]` picks level j + 1 when odd)
            d = degrees[j]
            return levels[j + odd[j]][r - d] if r >= d else ()

        for j in range(n - 1, -1, -1):
            more = raised(j)
            count = len(got) + len(more)
            cells += count * (n - j)
            if cells > BASIS_CELL_BUDGET:
                for k in range(j - 1, -1, -1):  # the rest of degree r, counted only
                    count += len(raised(k))
                    cells += count * (n - k)
                raise WorkBudgetError(
                    f"the monomial basis of degree {r * self._step} needs a table of "
                    f"{cells} cells, over the work budget of {BASIS_CELL_BUDGET}"
                )
            if count:
                got = [(0,) + m for m in got]
                if odd[j]:
                    got += [(1,) + m for m in more]
                else:
                    got += [(m[0] + 1,) + m[1:] for m in more]
            else:
                # an empty slot below level 0 shares the empty tuple: with many
                # generators most slots are empty, and a list would cost 56 bytes
                got = () if j else []
            made.append(got)
        for level, got in zip(reversed(levels), made):
            level.append(got)
        self.cells = cells


def monomial_basis(gens, degree: int) -> list[Monomial]:
    """All canonical monomials of the given total degree, in ascending
    lexicographic exponent order, as a fresh list (from a one-off
    `BasisTable`).

    The enumeration order is part of the public contract: stable
    representative cocycles depend on it.
    """
    return BasisTable(gens).basis(degree)


def poly_str(gens, p: Polynomial) -> str:
    """Render a polynomial in the model-file syntax (also used by repr)."""
    if not p:
        return "0"
    parts = []
    for m in sorted(p):
        c = p[m]
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(gens[i].name)
            elif e > 1:
                factors.append(f"{gens[i].name}^{e}")
        body = "*".join(factors) if factors else "1"
        if c == 1 and factors:
            term = body
        elif c == -1 and factors:
            term = f"-{body}"
        else:
            coeff = str(c)
            term = f"{coeff}*{body}" if factors else coeff
        parts.append(term)
    text = parts[0]
    for term in parts[1:]:
        text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return text
