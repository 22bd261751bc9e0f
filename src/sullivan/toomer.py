"""The rational Toomer invariant.

The projection p_n: Lambda V -> Lambda V / Lambda^(>n) V is a DG map (d
raises word length), and K_n = ker p_n^* on cohomology is the Toomer
filtration H^+ = K_0 >= K_1 >= ...  e0(x), the largest m such that x has
a representative in Lambda^(>=m) V, is the smallest n with
p_n^*(x) != 0, and e0 of the algebra is the smallest n with K_n = 0.
Realized values are detected through the drop mu_k = dim K_(k-1) -
dim K_k: "some class has e0 = k" is not a subspace condition, but the
drop is equivalent and exact, and it counts independent witnesses.

A cocycle x has p_n^*[x] = 0 iff x lies in B^i + Lambda^(>n) V.  One
`Echelon` of B^i per degree, its columns keyed (word length, monomial)
so that a row's pivot is its shortest term, decides this for every n:
reducing a cochain with no term of length <= n only subtracts rows
longer than n, so the residual of x is longer than n iff x lies in
B^i + Lambda^(>n) V, and e0(x) is the shortest word length in it.  Added
on top of that echelon, H^i's representatives complete it to an echelon
of Z^i, so dim K_n^i = dim(Z^i cap Lambda^(>n) V) - dim(B^i cap
Lambda^(>n) V) is the number of added rows whose pivot is longer than n.
This is the persistence reduction for the filtration by word length
(Edelsbrunner-Letscher-Zomorodian 2002; Zomorodian-Carlsson 2005): one
elimination per degree, not one per (degree, cutoff).  The echelon
applies no differential: it is the engine's B^i (the unlabelled rows of
H^i's echelon) re-keyed and reduced once more, so its first use in
degree i builds H^0..H^i.  The pivots of a span and every residual
against it depend only on the subspace and the column order, so the
rows it starts from change nothing it reports.

On a homogeneous model, the paper's setting, the filtration needs no
elimination at all: it is read off the word-length strands.  Let d have
length l and x be a nonzero class of H^i_k.  If x = z + dw with z in
Lambda^(>k) V, the length-k part gives x = d(w_(k-l+1)), so x = 0 in
H_k, a contradiction; hence e0(x) = k.  The same argument on its
shortest strand gives e0 of any class, so K_n^i is the sum of the
H^i_k with k > n.  So on a homogeneous model the filtration is read
from the word lengths H^i records for its representatives
(`lengths`): `e0_spectrum` counts them, and `toomer_of_class` gives
the least of them over the representatives on which the class has a
nonzero coordinate in H^i.  The length-keyed echelon serves
mixed-length models only.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .algebra import Polynomial, word_length
from .cohomology import (
    CohomologyClass,
    CohomologyEngine,
    InternalInvariantError,
    engine_for,
)
from .linalg import Echelon, reduce_rows
from .model import SullivanModel
from .parser import print_model


def _by_length(p: Polynomial) -> dict:
    """p as a row keyed (word length, monomial): its pivot is its
    shortest term."""
    return {(word_length(m), m): c for m, c in p.items()}


class QuotientComplex:
    """Every quotient Lambda V / Lambda^(>n) V of one engine at once,
    through one length-keyed echelon of B^i per degree (see the module
    docstring); `toomer` builds it for mixed-length models only."""

    def __init__(self, engine: CohomologyEngine):
        self.engine = engine
        self._deg: dict[int, Echelon] = {}

    def degree_data(self, i: int) -> Echelon:
        """The echelon of B^i, columns keyed (word length, monomial), cached:
        the engine's B^i (the unlabelled rows of H^i's echelon) re-keyed, so
        a first call builds H^0..H^i."""
        got = self._deg.get(i)
        if got is None:
            got = self._deg[i] = reduce_rows(
                [_by_length(row) for _, row, label in self.engine.full(i).echelon.items()
                 if label is None])[0]
        return got

    def level(self, i: int, p: Polynomial) -> int | None:
        """The shortest word length in p's residual modulo B^i (None when p
        is a coboundary): p_n^*[p] = 0 iff n is below it."""
        residual = self.degree_data(i).residual(_by_length(p))
        return min(residual)[0] if residual else None

    def projects_to_boundary(self, i: int, p: Polynomial, n: int) -> bool:
        """Is p_n(p) a coboundary (possibly zero) in the quotient by
        Lambda^(>n) V?"""
        level = self.level(i, p)
        return level is None or level > n

    def kernel_dim(self, i: int) -> tuple[int, ...]:
        """dim ker(p_n^* on H^i) for n = 0, 1, ..., ending at its first 0."""
        reps = self.engine.full(i).reps
        if not reps:
            return (0,)
        probe = self.degree_data(i).clone()
        return _dims_above([min(probe.add(_by_length(rep)))[0] for rep in reps])


def _dims_above(lengths: list[int]) -> tuple[int, ...]:
    """dim K_n^i = #{e0 > n} for n = 0, 1, ..., ending at its first 0,
    from the e0 values of a basis of H^i."""
    return tuple(sum(k > n for k in lengths) for n in range(max(lengths, default=-1) + 1)) or (0,)


def _quotients(engine: CohomologyEngine) -> QuotientComplex:
    qc = getattr(engine, "_toomer_quotients", None)
    if qc is None:
        qc = engine._toomer_quotients = QuotientComplex(engine)
    return qc


class ToomerFiltration(NamedTuple):
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


class ToomerReport:
    def __init__(self, e0_algebra: int, cat0: int, spectrum: tuple[int, ...],
                 gaps: tuple[int, ...], filtration: ToomerFiltration,
                 total_h_plus: int, model: SullivanModel):
        self.e0_algebra = e0_algebra
        self.cat0 = cat0  # = e0 under the ellipticity certificate
        self.spectrum = spectrum  # mu_k, k = 0..e0
        self.gaps = gaps
        self.filtration = filtration
        self.total_h_plus = total_h_plus
        self.model = model

    def __repr__(self) -> str:
        return (f"ToomerReport(e0_algebra={self.e0_algebra!r}, cat0={self.cat0!r}, "
                f"spectrum={self.spectrum!r}, gaps={self.gaps!r}, "
                f"filtration={self.filtration!r}, total_h_plus={self.total_h_plus!r})")

    @cached_property
    def per_class(self) -> tuple[tuple[int, ...], ...]:
        """e0 of each class, per degree 1..N, computed on first read."""
        classes = engine_for(self.model).classes
        return tuple(tuple(toomer_of_class(self.model, cls) for cls in classes(i))
                     for i in range(1, self.filtration.formal_dimension + 1))


def toomer_of_class(model: SullivanModel, x: CohomologyClass) -> int:
    """Smallest n with p_n^*(x) != 0.  Undefined (ValueError) for x = 0."""
    if not x.representative:
        raise ValueError("e0 of the zero class is undefined")
    engine = engine_for(model)
    if x.degree == 0:
        return 0
    if engine.profile.is_homogeneous:
        whole = engine.full(x.degree)
        coords = whole.coordinates(x.representative)
        level = min((k for k, c in zip(whole.lengths, coords) if c), default=None)
    else:
        level = _quotients(engine).level(x.degree, x.representative)
    if level is None:
        raise InternalInvariantError(
            f"class in degree {x.degree} died in every quotient up to its degree; "
            f"is it really nonzero in cohomology?"
        )
    return level


def e0_spectrum(model: SullivanModel) -> ToomerReport:
    """The Toomer report of the model, computed once per engine."""
    engine = engine_for(model)
    report = getattr(engine, "_toomer_report", None)
    if report is not None:
        return report
    n_top = engine.require_certificate().formal_dimension
    if engine.profile.is_homogeneous:
        dims = (_dims_above(engine.full(i).lengths) for i in range(1, n_top + 1))
    else:
        dims = map(_quotients(engine).kernel_dim, range(1, n_top + 1))
    filt = ToomerFiltration(tuple(dims), n_top)
    e0 = filt.e0
    spectrum = [1]  # mu_0: the unit class
    for k in range(1, e0 + 1):
        spectrum.append(filt.total(k - 1) - filt.total(k))
    gaps = tuple(k for k in range(1, e0 + 1) if spectrum[k] == 0)
    total_h_plus = sum(engine.betti(i) for i in range(1, n_top + 1))
    if sum(spectrum[1:]) != total_h_plus:
        raise InternalInvariantError(
            f"spectrum mass {sum(spectrum[1:])} != dim H^+ = {total_h_plus}"
        )
    report = engine._toomer_report = ToomerReport(
        e0_algebra=e0,
        cat0=e0,
        spectrum=tuple(spectrum),
        gaps=gaps,
        filtration=filt,
        total_h_plus=total_h_plus,
        model=model,
    )
    return report


def toomer_of_algebra(model: SullivanModel) -> int:
    """Smallest n such that p_n^* is injective in every degree <= N."""
    return e0_spectrum(model).e0_algebra


class GapScanRecord(NamedTuple):
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
