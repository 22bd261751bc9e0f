"""Cohomology of a validated Sullivan model: ungraded H^i, the
word-length bigraded H^i_k for homogeneous models, formal dimension,
the exact ellipticity decision, fundamental class and the
Poincare-duality pairing.

Bases and the cohomology of each degree are memoized on a per-model
engine.  The bases are level 0 of one `BasisTable`, grown upward as
degrees are asked for; the certifier enumerates Q[V^even] from a table
of its own.  The engine reads the differential once into a
`LeibnizTable`, which gives each image d(m) as a sparse row of ints
(Fractions only where the model has a non-integer coefficient) that goes
into elimination as it is; a build reads each image once, so none is
kept.  Degrees are built upward, each by one `reduce_rows` pass over the
images d(m) of its basis monomials in basis order: the relations among
the images are the cocycles, and their span is the next degree's
boundaries.  Each relation is the unique one between an image and the
earlier independent images, so the cocycles are the reduced-echelon
kernel basis of the differential.  H^i takes cocycles only until it
holds dim Z^i - dim B^i representatives; every later one would come back
dependent.  H^i's echelon holds B^i as its unlabelled rows and the
representatives on top, labelled 0, 1, ...; it is the one store of B^i,
which the Toomer layer re-keys by word length rather than applying d
again.

H^i records the word length of each representative once, as it is
built (`lengths`, None for a representative that mixes lengths).  On a
homogeneous model none does: each image d(m) has word length
wl(m) + l - 1 and a row is only combined with stored rows whose pivot
lies in its support, so every row of H^i's echelon is homogeneous, and a
length-k cochain meets exactly the length-k rows, in the order a
strand-only pass would store them.  So a strand H^i_k is a label slice
of H^i, made on demand and not a build of its own: the basis monomials
of length k, the representatives of length k with their H^i labels, and
H^i's one echelon; its coordinates refuse a term of another length
before reducing.  The bigraded table counts `lengths`, and the Toomer
values of a homogeneous model are read from them too (see `toomer`).

The pairing reads one functional phi on C^N, the fundamental-class
coordinate of reduction against the top echelon (0 on B^N, 1 on omega),
built by back-substitution and checked on every top row once.  A class b
of H^(N-i) gives psi(m) = phi(m b); each entry is one dot product with psi.

Cochains are polynomials keyed by monomial everywhere: boundaries,
cocycles and representatives go into `Echelon` as sparse rows with the
monomials as column keys.  Since a basis lists its monomials in
ascending order, a row's smallest monomial is its pivot, the same one
dense elimination over the basis would pick.
"""

from fractions import Fraction
from operator import sub
from typing import NamedTuple

from .algebra import (
    BasisTable,
    LeibnizTable,
    Monomial,
    Polynomial,
    WorkBudgetError,
    koszul_sign,
    poly_str,
    word_length,
)
from .linalg import Echelon, RatMatrix, Vector, rank, reduce_rows
from .model import SullivanModel, length_profile

_TAG = float("inf")  # a tag (_TAG, j) sorts after every monomial of integers

# Every report lists each degree 0..N and certification builds them all,
# so a formal dimension N past this is refused before any degree is built.
DEGREE_BUDGET = 100_000


class NotEllipticError(RuntimeError):
    """Raised when an operation requires an ellipticity certificate the
    model does not have."""


class NotHomogeneousError(RuntimeError):
    """Raised when a bigraded operation is asked of a mixed-length model;
    use the ungraded cohomology instead."""


class InternalInvariantError(RuntimeError):
    """A computed quantity contradicts an invariant the certificate
    guaranteed; always a bug, never user error."""


class CohomologyClass(NamedTuple):
    degree: int
    representative: Polynomial
    word_length: int | None = None

    def pretty(self, gens) -> str:
        return poly_str(gens, self.representative)


class CohomologyTable(NamedTuple):
    betti: tuple[int, ...]  # degrees 0..formal_dimension
    formal_dimension: int
    total_dimension: int
    classes: tuple[tuple[CohomologyClass, ...], ...]


class BigradedTable(NamedTuple):
    """Dimensions h[i][k] of H^i_k plus the n_k / N_k extremes.

    n_k[k] / N_k[k] are None when H^*_k = 0 (cannot happen for k <= e on
    certified homogeneous models, by the no-gap theorem this package
    exists to check).
    """

    h: tuple[tuple[int, ...], ...]  # h[i][k], i = 0..N, k = 0..e_top
    n_k: tuple[int | None, ...]
    N_k: tuple[int | None, ...]
    e_top: int
    formal_dimension: int

    def length_dims(self) -> tuple[int, ...]:
        """Total dimension of H^*_k per k."""
        return tuple(
            sum(self.h[i][k] for i in range(len(self.h)))
            for k in range(self.e_top + 1)
        )


class EllipticityCertificate(NamedTuple):
    verdict: str  # 'certificate' | 'refutation'
    formal_dimension: int
    witness: str | None = None  # why a refutation refutes

    @property
    def ok(self) -> bool:
        return self.verdict == "certificate"


class _DegreeCohomology:
    """H at one degree, or one word-length strand of it: canonical
    representatives and the echelon structure used to put arbitrary
    cocycles into class coordinates.  `lengths` gives each
    representative's word length, None where it mixes lengths.  A strand
    shares the echelon of H^i; `labels` are the H^i labels of its
    representatives."""

    __slots__ = ("degree", "basis", "reps", "echelon", "lengths", "labels", "length")

    def __init__(self, degree, basis, reps, echelon, lengths, labels=None, length=None):
        self.degree = degree
        self.basis = basis  # cochain monomials, ascending
        self.reps = reps  # representative cocycles, one polynomial per class
        self.echelon = echelon  # boundaries (unlabelled) + reps of H^i (labelled 0..)
        self.lengths = lengths
        self.labels = range(len(reps)) if labels is None else labels
        self.length = length  # the strand's word length; None for all of H^i

    @property
    def dim(self) -> int:
        return len(self.reps)

    def coordinates(self, p: Polynomial) -> Vector:
        # a strand refuses a term of another length before reducing
        if self.length is None or all(word_length(m) == self.length for m in p):
            residual, coeffs = self.echelon.reduce_with_coeffs(p)
            if not residual:
                return tuple(coeffs.get(s, Fraction(0)) for s in self.labels)
        raise InternalInvariantError(
            f"cochain in degree {self.degree} is not a cocycle modulo boundaries"
        )


class CohomologyEngine:
    """Per-model memo of bases and cohomology."""

    def __init__(self, model: SullivanModel):
        if not model.validated:
            raise ValueError("model must be validated first")
        self.model = model
        self.gens = model.generators
        self._bases = BasisTable(self.gens)
        self._leibniz = LeibnizTable(self.gens, model.differential)
        self._full: dict[int, _DegreeCohomology] = {}
        self._strand: dict[tuple[int, int], _DegreeCohomology] = {}
        # B^i left by the build below, until H^i is built
        self._boundaries: dict[int, Echelon] = {}
        self._certificate: EllipticityCertificate | None = None
        self._phi: dict[Monomial, Fraction] | None = None
        # the length profile every layer reads: bigraded tables, Toomer,
        # Wang/Gysin and the theorem checkers
        self.profile = length_profile(model)

    # -- bases and matrices ---------------------------------------------

    def basis(self, i: int) -> list[Monomial]:
        return self._bases.basis(i)

    def strand_basis(self, i: int, k: int) -> list[Monomial]:
        return [m for m in self.basis(i) if word_length(m) == k]

    def d_row(self, m: Monomial) -> dict:
        """d(m) as a sparse row of ints (Fractions only where the model has
        a non-integer coefficient), computed afresh on every call."""
        return self._leibniz.image(m)

    def d_matrix(self, i: int, k: int | None = None) -> RatMatrix:
        """Differential matrix out of degree i (word-length-k strand when
        k is given; homogeneous models only)."""
        if k is None:
            src = self.basis(i)
            dst = self.basis(i + 1)
        else:
            src = self.strand_basis(i, k)
            dst = self.strand_basis(i + 1, k + self.profile.l - 1)
        dst_index = {m: r for r, m in enumerate(dst)}
        return RatMatrix(len(dst), [{dst_index[m2]: c for m2, c in self.d_row(m).items()}
                                    for m in src])

    def _require_homogeneous(self):
        if not self.profile.is_homogeneous:
            raise NotHomogeneousError(
                "the differential mixes word lengths; the bigraded tables are "
                "undefined -- use the ungraded cohomology"
            )

    # -- cohomology -----------------------------------------------------

    def _build(self, i: int) -> _DegreeCohomology:
        """H^i from one reduction of the images d(m), m in the basis: its
        relations are the cocycles, and its span is B^(i+1), left in
        `_boundaries` for the next build."""
        basis = self.basis(i)
        ech = self._boundaries.pop(i, None) or Echelon()  # none below degree 0
        image, relations = reduce_rows(
            [self.d_row(m) for m in basis], [(_TAG, j) for j in range(len(basis))]
        )
        self._boundaries[i + 1] = image
        dim = len(relations) - ech.rank  # dim Z^i - dim B^i
        reps, lengths = [], []
        for rel in relations:
            if len(reps) == dim:
                break  # H^i is complete: every later cocycle is dependent
            cocycle = {basis[j]: c for (_, j), c in rel.items()}
            row = ech.add(cocycle, label=len(reps))
            if row is not None:
                reps.append(row)
                ks = {word_length(m) for m in row}
                lengths.append(ks.pop() if len(ks) == 1 else None)
        return _DegreeCohomology(i, basis, reps, ech, lengths)

    def full(self, i: int) -> _DegreeCohomology:
        """H^i; the missing degrees below it are built first, lowest first."""
        if i < 0:
            return _DegreeCohomology(i, [], [], Echelon(), [])
        got = self._full.get(i)
        if got is None:
            for j in range(len(self._full), i + 1):  # _full holds 0..len-1
                got = self._full[j] = self._build(j)
        return got

    def strand(self, i: int, k: int) -> _DegreeCohomology:
        """H^i_k: the representatives of H^i of word length k, with their
        H^i labels, on H^i's echelon (see the module docstring)."""
        self._require_homogeneous()
        got = self._strand.get((i, k))
        if got is None:
            whole = self.full(i)
            labels = [s for s, wl in enumerate(whole.lengths) if wl == k]
            got = self._strand[(i, k)] = _DegreeCohomology(
                i, self.strand_basis(i, k), [whole.reps[s] for s in labels],
                whole.echelon, [k] * len(labels), labels, k)
        return got

    def cohomology_at(self, i: int, k: int | None = None) -> _DegreeCohomology:
        """H^i, or the strand H^i_k when k is given."""
        return self.full(i) if k is None else self.strand(i, k)

    def classes(self, i: int, k: int | None = None) -> list[CohomologyClass]:
        part = self.cohomology_at(i, k)
        return [CohomologyClass(i, rep, wl) for rep, wl in zip(part.reps, part.lengths)]

    def betti(self, i: int, k: int | None = None) -> int:
        return self.cohomology_at(i, k).dim

    def class_coordinates(self, i: int, p: Polynomial, k: int | None = None) -> Vector:
        """Coordinates of a cocycle's class in the canonical basis of
        H^i (or H^i_k)."""
        return self.cohomology_at(i, k).coordinates(p)

    # -- ellipticity ----------------------------------------------------

    def formal_dimension_formula(self) -> int:
        odd = sum(g.degree for g in self.model.odd_generators)
        even = sum(g.degree - 1 for g in self.model.even_generators)
        return odd - even

    def certify(self) -> EllipticityCertificate:
        if self._certificate is None:
            self._certificate = self._certify()
        return self._certificate

    def _certify(self) -> EllipticityCertificate:
        """Decide ellipticity exactly.

        Lambda V is elliptic iff its associated pure model is
        (Felix-Halperin-Thomas, GTM 205, Prop. 32.16); that model keeps,
        for each odd y, the terms of dy with no odd factor.  A pure model
        is elliptic iff A = Q[V^even]/(d_sigma V^odd) is finite-dimensional
        (Halperin, Finiteness in the minimal models of Sullivan, 1977).
        A is H_0 of the pure model, so on an elliptic model it vanishes
        above the formal dimension N.  Vanishing in degrees
        N+1..N+max|x_even| forces vanishing in every higher degree, since
        a monomial there is some x_j times a monomial of degree > N.

        Pairings, read off one functional on C^N (module docstring), are
        checked for i <= N/2: pd_pairing(N - i) = (-1)^(i(N-i)) pd_pairing(i)^T.
        An N over `DEGREE_BUDGET` raises `WorkBudgetError` before any
        degree, of either algebra, is built.
        """
        n_form = self.formal_dimension_formula()
        if n_form < 0:
            return EllipticityCertificate(
                "refutation", n_form,
                f"the formula gives a negative formal dimension {n_form}",
            )
        if n_form > DEGREE_BUDGET:
            raise WorkBudgetError(
                f"the formal dimension {n_form} is over the degree budget of {DEGREE_BUDGET}")
        witness = self._pure_quotient_witness(n_form)
        if witness:
            return EllipticityCertificate("refutation", n_form, witness)
        for i in range(n_form // 2 + 1):
            mat, ok = self.pd_pairing(i)
            if not ok:
                raise InternalInvariantError(
                    f"Poincare pairing H^{i} x H^{n_form - i} is degenerate "
                    f"({mat.rows}x{mat.cols}) on an elliptic model"
                )
        return EllipticityCertificate("certificate", n_form)

    def _pure_quotient_witness(self, n_form: int) -> str | None:
        """A degree in N+1..N+max|x_even| where Q[V^even]/(d_sigma V^odd)
        is nonzero, with a monomial outside the ideal; None when the
        quotient vanishes there (always, without even generators)."""
        evens = self.model.even_generators
        odds = self.model.odd_generators
        relations = []
        for y in odds:
            rel = {
                tuple(m[g.index] for g in evens): c
                for m, c in self.model.d_of(y.index).items()
                if not any(m[g.index] for g in odds)
            }
            if rel:
                relations.append((y.degree + 1, rel))
        top = max((g.degree for g in evens), default=0)
        bases = BasisTable(evens)
        for n in range(n_form + 1, n_form + top + 1):
            span, _ = reduce_rows([
                {tuple(a + b for a, b in zip(mult, m)): c for m, c in rel.items()}
                for degree, rel in relations for mult in bases.basis(n - degree)
            ])
            pivots = set(span.pivots)
            # a monomial that is no row's pivot is outside the ideal's span
            outside = next((m for m in bases.basis(n) if m not in pivots), None)
            if outside is not None:
                return (
                    f"Q[V^even]/(d_sigma V^odd) != 0 in degree {n} > N = {n_form}: "
                    f"{poly_str(evens, {outside: 1})} is outside the ideal"
                )
        return None

    def require_certificate(self) -> EllipticityCertificate:
        cert = self.certify()
        if not cert.ok:
            raise NotEllipticError(
                f"model is not certified elliptic ({cert.verdict}): {cert.witness}"
            )
        return cert

    def fundamental_class(self) -> CohomologyClass:
        cert = self.require_certificate()
        n = cert.formal_dimension
        classes = self.classes(n)
        if len(classes) != 1:
            raise InternalInvariantError(
                f"dim H^{n} = {len(classes)} != 1 contradicts the certificate"
            )
        return classes[0]

    def pd_pairing(self, i: int) -> tuple[RatMatrix, bool]:
        """Matrix of H^i x H^(N-i) -> H^N = Q and its nondegeneracy flag:
        entry (s, t) is phi(a_s b_t), a dual vector of b_t dotted with a_s.

        Used inside certification, so it must not require a certificate;
        it does require dim H^N = 1, which ellipticity guarantees."""
        n = self.formal_dimension_formula()
        top = self.full(n)
        if top.dim != 1:
            raise InternalInvariantError(
                f"dim H^{n} = {top.dim} != 1 at the formal dimension, pairing undefined")
        if self._phi is None:
            phi = top.echelon.functional(0)
            for p, row, label in top.echelon.rows:
                if sum(c * row[t] for t, c in phi.items() if t in row) != (label == 0) * row[p]:
                    raise InternalInvariantError(
                        f"integration on H^{n}: phi(B^{n}) != 0 or phi(omega) != 1")
            self._phi = phi
        duals = []
        for b in self.full(n - i).reps:
            psi: Polynomial = {}
            for m2, c in b.items():
                for t, f in self._phi.items():
                    m = tuple(map(sub, t, m2))  # m * m2 = +-t
                    if min(m, default=0) >= 0 and (sign := koszul_sign(self.gens, m, m2)):
                        psi[m] = psi.get(m, 0) + (c * f if sign > 0 else -c * f)
            duals.append(psi)
        left = self.full(i).reps
        mat = RatMatrix(len(left), [
            {s: sum(c * psi[m] for m, c in a.items() if m in psi) for s, a in enumerate(left)}
            for psi in duals])
        return mat, mat.rows == mat.cols and rank(mat) == mat.rows

    # -- tables ----------------------------------------------------------

    def cohomology_table(self) -> CohomologyTable:
        cert = self.require_certificate()
        n = cert.formal_dimension
        betti = tuple(self.betti(i) for i in range(n + 1))
        classes = tuple(tuple(self.classes(i)) for i in range(n + 1))
        return CohomologyTable(betti, n, sum(betti), classes)

    def max_length(self) -> int:
        if not self.gens:
            return 0
        n = self.formal_dimension_formula()
        return max(n, 0) // self.model.min_degree

    def bigraded_profile(self) -> BigradedTable:
        self._require_homogeneous()
        cert = self.require_certificate()
        n = cert.formal_dimension
        lengths = [self.full(i).lengths for i in range(n + 1)]
        e_top = max((k for ks in lengths for k in ks), default=0)
        h = tuple(tuple(ks.count(k) for k in range(e_top + 1)) for ks in lengths)
        hits = [[i for i in range(n + 1) if h[i][k]] for k in range(e_top + 1)]
        return BigradedTable(h, tuple(hit[0] if hit else None for hit in hits),
                             tuple(hit[-1] if hit else None for hit in hits), e_top, n)


def engine_for(model: SullivanModel) -> CohomologyEngine:
    eng = getattr(model, "_engine", None)
    if eng is None:
        eng = CohomologyEngine(model)
        model._engine = eng
    return eng


# -- module-level operations (the spec surface) --------------------------


def cohomology(model: SullivanModel, i: int) -> tuple[int, list[CohomologyClass]]:
    eng = engine_for(model)
    return eng.betti(i), eng.classes(i)


def bigraded_cohomology(model: SullivanModel, i: int, k: int) -> tuple[int, list[CohomologyClass]]:
    eng = engine_for(model)
    return eng.strand(i, k).dim, eng.classes(i, k)


def formal_dimension_formula(model: SullivanModel) -> int:
    return engine_for(model).formal_dimension_formula()


def certify_elliptic(model: SullivanModel) -> EllipticityCertificate:
    return engine_for(model).certify()


def fundamental_class(model: SullivanModel) -> CohomologyClass:
    return engine_for(model).fundamental_class()


def pd_pairing(model: SullivanModel, i: int) -> tuple[RatMatrix, bool]:
    eng = engine_for(model)
    eng.require_certificate()
    return eng.pd_pairing(i)


def bigraded_profile(model: SullivanModel) -> BigradedTable:
    return engine_for(model).bigraded_profile()


def cohomology_table(model: SullivanModel) -> CohomologyTable:
    return engine_for(model).cohomology_table()
