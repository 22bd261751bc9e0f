"""The rational Toomer invariant.

Quotient complexes Lambda V / Lambda^(>n) V, the kernel filtration of
the induced projections on cohomology, e0 of classes and of the algebra,
the realized-value spectrum and gap detection.

Realized values are detected through the kernel-dimension drop
mu_k = dim K_(k-1) - dim K_k: "some class has e0 = k" is not a subspace
condition, but the drop characterization is equivalent and exact, and it
counts independent witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Polynomial, word_length
from .cohomology import (
    CohomologyClass,
    CohomologyEngine,
    InternalInvariantError,
    engine_for,
)
from .linalg import Echelon
from .model import SullivanModel


class QuotientComplex:
    """The DG quotient by monomials of word length > cutoff.

    Bases are shared with the main engine's monomial enumerations; the
    induced differential just deletes long terms (the ideal is d-stable
    because d raises word length).
    """

    def __init__(self, engine: CohomologyEngine, cutoff: int):
        self.engine = engine
        self.cutoff = cutoff
        self._deg: dict[int, tuple] = {}

    def degree_data(self, i: int):
        """(basis, index, boundary echelon) for one degree, cached."""
        got = self._deg.get(i)
        if got is None:
            basis = [m for m in self.engine.basis(i) if word_length(m) <= self.cutoff]
            index = {m: r for r, m in enumerate(basis)}
            ech = Echelon(len(basis))
            if i >= 1:
                for m in self.engine.basis(i - 1):
                    if word_length(m) > self.cutoff:
                        continue
                    vec = self._truncate(self.engine.d_mono(m), index)
                    if any(vec):
                        ech.add(vec)
            got = (basis, index, ech)
            self._deg[i] = got
        return got

    def _truncate(self, p: Polynomial, index) -> list:
        vec = [Fraction(0)] * len(index)
        for m, c in p.items():
            r = index.get(m)
            if r is not None:
                vec[r] = c
        return vec

    def d_matrix(self, i: int):
        """Induced differential out of degree i (long terms deleted)."""
        from .linalg import RatMatrix

        basis, _, _ = self.degree_data(i)
        _, index_next, _ = self.degree_data(i + 1)
        entries = {}
        for col, mono in enumerate(basis):
            for m2, c in self.engine.d_mono(mono).items():
                r = index_next.get(m2)
                if r is not None:
                    entries[(r, col)] = c
        return RatMatrix(len(index_next), len(basis), entries)

    def projects_to_boundary(self, i: int, p: Polynomial) -> bool:
        """Is p_n(p) a coboundary (possibly zero) in the quotient?"""
        _, index, ech = self.degree_data(i)
        return ech.contains(self._truncate(p, index))

    def kernel_dim(self, i: int) -> int:
        """dim ker(p_n^* on H^i)."""
        dc = self.engine.full(i)
        if dc.dim == 0:
            return 0
        _, index, ech = self.degree_data(i)
        probe = ech.clone()
        surviving = 0
        for vec in dc.reps:
            rep = {dc.basis[j]: c for j, c in enumerate(vec) if c}
            if probe.add(self._truncate(rep, index)) is not None:
                surviving += 1
        return dc.dim - surviving


def _quotient(engine: CohomologyEngine, cutoff: int) -> QuotientComplex:
    table = getattr(engine, "_quotients", None)
    if table is None:
        table = {}
        engine._quotients = table
    qc = table.get(cutoff)
    if qc is None:
        qc = QuotientComplex(engine, cutoff)
        table[cutoff] = qc
    return qc


def quotient_complex(model: SullivanModel, cutoff: int) -> QuotientComplex:
    return _quotient(engine_for(model), cutoff)


@dataclass(frozen=True)
class ToomerFiltration:
    """dim K_n per (degree, cutoff); K_n as computed on H^i for
    i = 1..formal dimension, cutoffs 0..e0."""

    dims: tuple[tuple[int, ...], ...]  # dims[i][n]
    formal_dimension: int

    def dim(self, degree: int, cutoff: int) -> int:
        if 1 <= degree <= self.formal_dimension:
            row = self.dims[degree - 1]
            return row[cutoff] if cutoff < len(row) else 0
        return 0

    def total(self, cutoff: int) -> int:
        return sum(self.dim(i, cutoff) for i in range(1, self.formal_dimension + 1))


@dataclass(frozen=True)
class ToomerReport:
    e0_algebra: int
    cat0: int  # = e0 under the ellipticity certificate
    spectrum: tuple[int, ...]  # mu_k, k = 0..e0
    gaps: tuple[int, ...]
    per_class: tuple[tuple[int, ...], ...]  # e0 of each class, per degree 1..N
    filtration: ToomerFiltration
    total_h_plus: int


def toomer_of_class(model: SullivanModel, x: CohomologyClass) -> int:
    """Smallest n with p_n^*(x) != 0.  Undefined (ValueError) for x = 0."""
    if not x.representative:
        raise ValueError("e0 of the zero class is undefined")
    engine = engine_for(model)
    if x.degree == 0:
        return 0
    for n in range(1, x.degree + 1):
        if not _quotient(engine, n).projects_to_boundary(x.degree, x.representative):
            return n
    raise InternalInvariantError(
        f"class in degree {x.degree} died in every quotient up to its degree; "
        f"is it really nonzero in cohomology?"
    )


def _degree_kernel_dims(engine: CohomologyEngine, i: int) -> list[int]:
    """dim K_n^i for n = 0, 1, ... until it reaches zero."""
    b = engine.betti(i)
    dims = [b]
    n = 1
    while dims[-1] > 0:
        dims.append(_quotient(engine, n).kernel_dim(i))
        n += 1
        if n > i + 1:
            if dims[-1] > 0:
                raise InternalInvariantError(
                    f"kernel filtration in degree {i} did not reach zero"
                )
            break
    return dims


def _filtration(model: SullivanModel) -> ToomerFiltration:
    engine = engine_for(model)
    cert = engine.require_certificate()
    n_top = cert.formal_dimension
    rows = [tuple(_degree_kernel_dims(engine, i)) for i in range(1, n_top + 1)]
    return ToomerFiltration(tuple(rows), n_top)


def toomer_of_algebra(model: SullivanModel) -> int:
    """Smallest n such that p_n^* is injective in every degree <= N."""
    filt = _filtration(model)
    e0 = 0
    for row in filt.dims:
        e0 = max(e0, len(row) - 1)  # row ends at the first zero
    return e0


def toomer_via_fundamental_class(model: SullivanModel) -> int:
    engine = engine_for(model)
    return toomer_of_class(model, engine.fundamental_class())


def e0_spectrum(model: SullivanModel) -> ToomerReport:
    engine = engine_for(model)
    cert = engine.require_certificate()
    filt = _filtration(model)
    e0 = max((len(row) - 1 for row in filt.dims), default=0)
    spectrum = [1]  # mu_0: the unit class
    for k in range(1, e0 + 1):
        spectrum.append(filt.total(k - 1) - filt.total(k))
    gaps = tuple(k for k in range(1, e0 + 1) if spectrum[k] == 0)
    per_class = []
    for i in range(1, cert.formal_dimension + 1):
        per_class.append(
            tuple(toomer_of_class(model, cls) for cls in engine.classes(i))
        )
    total_h_plus = sum(engine.betti(i) for i in range(1, cert.formal_dimension + 1))
    if sum(spectrum[1:]) != total_h_plus:
        raise InternalInvariantError(
            f"spectrum mass {sum(spectrum[1:])} != dim H^+ = {total_h_plus}"
        )
    return ToomerReport(
        e0_algebra=e0,
        cat0=e0,
        spectrum=tuple(spectrum),
        gaps=gaps,
        per_class=tuple(per_class),
        filtration=filt,
        total_h_plus=total_h_plus,
    )


@dataclass(frozen=True)
class GapScanRecord:
    model_name: str
    model_text: str
    seed: int | None
    e0: int
    spectrum: tuple[int, ...]
    gaps: tuple[int, ...]

    @property
    def verdict(self) -> str:
        return "GAP FOUND" if self.gaps else "no-gaps"


def gap_scan(corpus) -> list[GapScanRecord]:
    """Spectrum + gap verdict for every (model, seed) pair in the corpus.

    corpus: iterable of (model, seed-or-None).  Results come back sorted
    by model name.
    """
    from .parser import print_model

    records = []
    for model, seed in corpus:
        report = e0_spectrum(model)
        records.append(GapScanRecord(
            model_name=model.name or "anonymous",
            model_text=print_model(model),
            seed=seed,
            e0=report.e0_algebra,
            spectrum=report.spectrum,
            gaps=report.gaps,
        ))
    records.sort(key=lambda r: r.model_name)
    return records
