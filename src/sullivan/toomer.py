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

    A cochain of the quotient is a polynomial with no term longer than
    the cutoff; the projection p_n and the induced differential just
    delete the long terms (the ideal is d-stable because d raises word
    length).
    """

    def __init__(self, engine: CohomologyEngine, cutoff: int):
        self.engine = engine
        self.cutoff = cutoff
        self._deg: dict[int, Echelon] = {}

    def project(self, p: Polynomial) -> Polynomial:
        """p_n(p): the terms of word length <= cutoff."""
        return {m: c for m, c in p.items() if word_length(m) <= self.cutoff}

    def degree_data(self, i: int) -> Echelon:
        """The echelon of the quotient's coboundaries in degree i, cached."""
        got = self._deg.get(i)
        if got is None:
            got = Echelon()
            if i >= 1:
                for m in self.engine.basis(i - 1):
                    if word_length(m) <= self.cutoff:
                        boundary = self.project(self.engine.d_mono(m))
                        if boundary:
                            got.add(boundary)
            self._deg[i] = got
        return got

    def projects_to_boundary(self, i: int, p: Polynomial) -> bool:
        """Is p_n(p) a coboundary (possibly zero) in the quotient?"""
        return self.degree_data(i).contains(self.project(p))

    def kernel_dim(self, i: int) -> int:
        """dim ker(p_n^* on H^i)."""
        dc = self.engine.full(i)
        if dc.dim == 0:
            return 0
        probe = self.degree_data(i).clone()
        surviving = 0
        for rep in dc.reps:
            if probe.add(self.project(rep)) is not None:
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

    @property
    def e0(self) -> int:
        """Smallest n with every K_n = 0: each row ends at its first zero."""
        return max((len(row) - 1 for row in self.dims), default=0)


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


def _filtration(engine: CohomologyEngine) -> ToomerFiltration:
    filt = getattr(engine, "_toomer_filtration", None)
    if filt is None:
        n_top = engine.require_certificate().formal_dimension
        rows = [tuple(_degree_kernel_dims(engine, i)) for i in range(1, n_top + 1)]
        filt = ToomerFiltration(tuple(rows), n_top)
        engine._toomer_filtration = filt
    return filt


def toomer_of_algebra(model: SullivanModel) -> int:
    """Smallest n such that p_n^* is injective in every degree <= N."""
    return _filtration(engine_for(model)).e0


def toomer_via_fundamental_class(model: SullivanModel) -> int:
    engine = engine_for(model)
    return toomer_of_class(model, engine.fundamental_class())


def e0_spectrum(model: SullivanModel) -> ToomerReport:
    engine = engine_for(model)
    cert = engine.require_certificate()
    filt = _filtration(engine)
    e0 = filt.e0
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
