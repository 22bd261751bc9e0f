"""Free graded-commutative algebra on a fixed generator list.

Monomials are exponent tuples in generator-index order (the canonical
form); polynomials are dicts mapping monomial -> Fraction with zero
coefficients never stored.  All Koszul signs are computed at
normalization time, never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    if len(p) == 1 and 1 in p.values():  # one monomial, as the differential matrices ask
        return _derive_monomial(gens, deriv, next(iter(p)))
    out: Polynomial = {}
    for m, c in p.items():
        for m_out, c_out in _derive_monomial(gens, deriv, m).items():
            s = out.get(m_out, 0) + c * c_out
            if s:
                out[m_out] = s
            else:
                out.pop(m_out, None)
    return out


def _derive_monomial(gens, deriv: Derivation, m: Monomial) -> Polynomial:
    """Leibniz expansion of D on one canonical monomial, in closed form:

        D(x^a) = sum_i (-1)^(shift*|x_1^a_1...x_(i-1)^a_(i-1)|) a_i x^(a-e_i) D(x_i)

    where each product is put in canonical order.  For a term u of D(x_i)
    the sign of moving it into place is (-1)^(|u|*|L|) times the Koszul
    sign of u*x^(a-e_i), with L = x_1^a_1...x_i^(a_i-1) the factors that
    stood before it; the Koszul sign counts the odd-odd inversions
    between u and x^(a-e_i), and a shared odd generator kills the term.
    Signs and multiplicities are integers, applied once per term, and
    integer coefficients are summed as integers.
    """
    odd = [g.degree & 1 for g in gens]
    shift = deriv.degree_shift & 1
    # below[p]: odd generators of m with index < p
    below = [0] * (len(m) + 1)
    for p, e in enumerate(m):
        below[p + 1] = below[p] + (1 if e and odd[p] else 0)
    out: dict[Monomial, int | Fraction] = {}
    for i, a in enumerate(m):
        dv = deriv.values[i] if a else None
        if not dv:
            continue
        before = below[i]  # odd factors of x_1^a_1...x_(i-1)^a_(i-1)
        drop_odd = odd[i]  # x^(a-e_i) loses the odd generator x_i
        w = list(m)
        w[i] -= 1
        for u, c in dv.items():
            flips = shift * before
            u_odd = 0
            for p, e in enumerate(u):
                if e and odd[p]:
                    if w[p]:
                        break
                    u_odd += 1
                    flips += below[p] - (drop_odd and i < p)
            else:
                flips += u_odd * (before + (1 if a > 1 and odd[i] else 0))
                key = tuple(x + y for x, y in zip(w, u))
                k = -a if flips & 1 else a
                out[key] = out.get(key, 0) + k * (c.numerator if c.denominator == 1 else c)
    return {key: Fraction(c) for key, c in out.items() if c}


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
