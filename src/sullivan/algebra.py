"""Free graded-commutative algebra on a fixed generator list.

Monomials are exponent tuples in generator-index order (the canonical
form); polynomials are dicts mapping monomial -> Fraction with zero
coefficients never stored.  All Koszul signs are computed at
normalization time, never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

Monomial = tuple[int, ...]
Polynomial = dict[Monomial, Fraction]


@dataclass(frozen=True)
class Generator:
    """A graded generator: position in the fixed list, name, degree."""

    index: int
    name: str
    degree: int

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1

    def __str__(self) -> str:
        return f"{self.name}:{self.degree}"


@dataclass(frozen=True)
class Derivation:
    """A derivation given by its values on generators, extended by the
    graded Leibniz rule D(ab) = D(a)b + (-1)^(shift*|a|) a D(b)."""

    degree_shift: int
    values: tuple[Polynomial, ...]

    def value_on(self, index: int) -> Polynomial:
        return self.values[index]


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


def multiply_monomials(gens, m1: Monomial, m2: Monomial) -> tuple[Monomial, int]:
    sign = koszul_sign(gens, m1, m2)
    if sign == 0:
        return m1, 0
    return tuple(a + b for a, b in zip(m1, m2)), sign


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
            m, sign = multiply_monomials(gens, m1, m2)
            if sign == 0:
                continue
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


def monomial_basis(gens, degree: int) -> list[Monomial]:
    """All canonical monomials of the given total degree, in ascending
    lexicographic exponent order.

    The enumeration order is part of the public contract: stable
    representative cocycles depend on it.
    """
    if degree < 0:
        return []
    n = len(gens)
    out: list[Monomial] = []

    def rec(idx: int, remaining: int, prefix: list[int]):
        if remaining == 0:
            out.append(tuple(prefix + [0] * (n - idx)))
            return
        if idx == n:
            return
        g = gens[idx]
        cap = remaining // g.degree
        if g.is_odd:
            cap = min(cap, 1)
        for e in range(cap + 1):
            prefix.append(e)
            rec(idx + 1, remaining - e * g.degree, prefix)
            prefix.pop()

    rec(0, degree, [])
    return out


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
