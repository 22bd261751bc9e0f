"""Theorem-level checkers.

Published theorems serve as test oracles for the implementation, not the
other way round: a fail verdict on a certified model means an
implementation bug until the model and the computation survive an audit.
Reports carry every derived quantity needed to re-check a verdict from
the serialized model text alone.

A verdict is read off the witnesses: each failing condition records one,
and the verdict is pass exactly when no condition left a witness.  A
not-applicable report carries the unmet hypothesis as its `reason`.
"""

from typing import NamedTuple

from .algebra import multiply
from .cohomology import NotEllipticError, NotHomogeneousError, engine_for
from .linalg import reduce_rows
from .model import SullivanModel, quotient_model
from .toomer import e0_spectrum, toomer_of_algebra

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


class VerificationReport:
    def __init__(self, theorem_id: str, model_id: str, verdict: str,
                 witnesses: dict | None = None, derived: dict | None = None):
        self.theorem_id = theorem_id
        self.model_id = model_id
        self.verdict = verdict
        self.witnesses = {} if witnesses is None else witnesses
        self.derived = {} if derived is None else derived

    def __repr__(self) -> str:
        return (f"VerificationReport(theorem_id={self.theorem_id!r}, "
                f"model_id={self.model_id!r}, verdict={self.verdict!r}, "
                f"witnesses={self.witnesses!r}, derived={self.derived!r})")

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


def _model_id(model: SullivanModel) -> str:
    return model.name or "anonymous"


def _not_applicable(theorem_id, model, reason, derived=None) -> VerificationReport:
    return VerificationReport(
        theorem_id, _model_id(model), NOT_APPLICABLE, {"reason": reason}, derived
    )


def _report(theorem_id, model, witnesses, derived) -> VerificationReport:
    return VerificationReport(
        theorem_id, _model_id(model), FAIL if witnesses else PASS, witnesses, derived
    )


def _hypotheses(model: SullivanModel):
    """Common hypothesis screen: returns (profile, reason), reason None
    when the model is homogeneous and certified elliptic."""
    engine = engine_for(model)
    profile = engine.profile
    if not profile.is_homogeneous:
        return profile, "differential is not of homogeneous length"
    cert = engine.certify()
    if not cert.ok:
        return profile, f"no ellipticity certificate ({cert.verdict}: {cert.witness})"
    return profile, None


def _e_formula(model: SullivanModel, l: int) -> int:
    return len(model.odd_generators) + (l - 2) * len(model.even_generators)


def verify_theorem2(model: SullivanModel) -> VerificationReport:
    """Category formula, no gaps, and the location conditions:
    (A) e0 = dim V^odd + (l-2) dim V^even, (B) every length 0..e0 is
    realized, (C) the n_k/N_k ladder climbs by at least the connectivity."""
    profile, reason = _hypotheses(model)
    if reason:
        return _not_applicable("theorem2", model, reason)
    l = profile.l
    e = _e_formula(model, l)
    report = e0_spectrum(model)
    table = engine_for(model).bigraded_profile()
    p = model.min_degree

    derived = {
        "e": e, "l": l, "p": p,
        "e0": report.e0_algebra,
        "mu": list(report.spectrum),
        "n_k": list(table.n_k),
        "N_k": list(table.N_k),
    }
    derived.update(_quotient_ladder(model))
    witnesses = {}
    if report.e0_algebra != e:
        witnesses["A"] = f"toomer_of_algebra = {report.e0_algebra} != e = {e}"
    if not (len(report.spectrum) == e + 1 and all(m > 0 for m in report.spectrum)):
        witnesses["B"] = f"spectrum {list(report.spectrum)} has a gap below e = {e}"
    c_witness = _condition_c(table, p, e)
    if c_witness:
        witnesses["C"] = c_witness
    return _report("theorem2", model, witnesses, derived)


def _quotient_ladder(model: SullivanModel) -> dict:
    """The quotient model's own e/n_k/N_k (the induction bookkeeping):
    f = e(Lambda W), m_k/M_k its extremes, when W is homogeneous and
    certified."""
    if not model.generators:
        return {}
    try:
        quotient = quotient_model(model, model.generators[0])
        if not quotient.generators:
            return {"f": 0, "m_k": [0], "M_k": [0]}
        table = engine_for(quotient).bigraded_profile()
    except (NotEllipticError, NotHomogeneousError):
        return {}
    return {"f": table.e_top, "m_k": list(table.n_k), "M_k": list(table.N_k)}


def _condition_c(table, p: int, e: int) -> str | None:
    """The first failure of Theorem 2 (C), both ladders, or None."""
    if e == 0:
        return None
    if len(table.n_k) <= e or any(v is None for v in table.n_k[: e + 1]):
        return "some H_k vanishes, the ladder is undefined"
    return _ladder_a(table.n_k, p, e) or _ladder_b(table.N_k, p, e)


def verify_lemma1(model: SullivanModel) -> VerificationReport:
    """Bigraded Poincare-duality bookkeeping: n_k = N - N_(e-k) and the
    equivalence of the two ladder conditions."""
    _, reason = _hypotheses(model)
    if reason:
        return _not_applicable("lemma1", model, reason)
    table = engine_for(model).bigraded_profile()
    e = table.e_top
    n = table.formal_dimension
    dims = table.length_dims()
    if any(dims[k] == 0 for k in range(1, e)):
        return _not_applicable(
            "lemma1", model, "H_k = 0 for some middle k; lemma hypotheses unmet"
        )
    p = model.min_degree
    derived = {
        "e": e, "N": n, "p": p,
        "n_k": list(table.n_k), "N_k": list(table.N_k),
    }
    witnesses = {}
    for k in range(1, e):
        if table.n_k[k] != n - table.N_k[e - k]:
            witnesses[f"duality k={k}"] = (
                f"n_{k} = {table.n_k[k]} != N - N_(e-{k}) = {n - table.N_k[e - k]}"
            )
    cond_a = _ladder_a(table.n_k, p, e) is None
    cond_b = _ladder_b(table.N_k, p, e) is None
    derived["condition_a"] = cond_a
    derived["condition_b"] = cond_b
    if cond_a != cond_b:
        witnesses["equivalence"] = f"(a) = {cond_a} but (b) = {cond_b}"
    return _report("lemma1", model, witnesses, derived)


def _ladder_a(n_k, p: int, e: int) -> str | None:
    """The first failure of n_1 = p and n_(k+1) >= n_k + p (k = 1..e-1),
    or None."""
    if e == 0:
        return None
    if n_k[1] != p:
        return f"n_1 = {n_k[1]} != p = {p}"
    for k in range(1, e):
        if n_k[k + 1] < n_k[k] + p:
            return f"n_{k + 1} = {n_k[k + 1]} < n_{k} + p = {n_k[k] + p}"
    return None


def _ladder_b(N_k, p: int, e: int) -> str | None:
    """The first failure of N_(k+1) >= N_k + p (k = 0..e-2) and
    N_e = N_(e-1) + p, or None."""
    if e == 0:
        return None
    for k in range(0, e - 1):
        if N_k[k + 1] < N_k[k] + p:
            return f"N_{k + 1} = {N_k[k + 1]} < N_{k} + p = {N_k[k] + p}"
    if N_k[e] != N_k[e - 1] + p:
        return f"N_e = {N_k[e]} != N_(e-1) + p = {N_k[e - 1] + p}"
    return None


def odd_cocycle_kernel_dimension(model: SullivanModel) -> int:
    """dim ker(d restricted to the span of odd-degree generators),
    computed per degree so cocycles hiding behind a basis change of V are
    detected."""
    total = 0
    degrees = {g.degree for g in model.odd_generators}
    for j in sorted(degrees):
        cols = [g for g in model.odd_generators if g.degree == j]
        total += len(cols) - reduce_rows([model.d_of(g.index) for g in cols])[0].rank
    return total


def _odd_kernel_unmet(theorem_id, model, derived) -> VerificationReport | None:
    """Records dim ker(d: V^odd -> Lambda V) in `derived`; the
    not-applicable report when it is 0, else None."""
    kernel_dim = odd_cocycle_kernel_dimension(model)
    derived["odd_cocycle_kernel"] = kernel_dim
    if kernel_dim == 0:
        return _not_applicable(
            theorem_id, model, "ker(d: V^odd -> Lambda V) = 0; hypothesis unmet", derived,
        )
    return None


def verify_theorem3(model: SullivanModel) -> VerificationReport:
    """With an odd spherical generator, every middle length is realized
    at least twice."""
    profile, reason = _hypotheses(model)
    if reason:
        return _not_applicable("theorem3", model, reason)
    l = profile.l
    e = _e_formula(model, l)
    report = e0_spectrum(model)
    derived = {"e": e, "l": l, "mu": list(report.spectrum)}
    unmet = _odd_kernel_unmet("theorem3", model, derived)
    if unmet:
        return unmet
    # a spectrum that stops below e (e0 < e) leaves mu_k = 0 past its end
    mu = report.spectrum + (0,) * (e - len(report.spectrum))
    witnesses = {f"k={k}": f"dim H_{k} = {mu[k]} < 2" for k in range(1, e) if mu[k] < 2}
    return _report("theorem3", model, witnesses, derived)


def verify_corollary4(model: SullivanModel) -> VerificationReport:
    """dim H >= 2 e0, sharp cases flagged."""
    _, reason = _hypotheses(model)
    if reason:
        return _not_applicable("corollary4", model, reason)
    total = engine_for(model).cohomology_table().total_dimension
    e0 = toomer_of_algebra(model)
    derived = {"total_dim_H": total, "e0": e0, "sharp": total == 2 * e0}
    unmet = _odd_kernel_unmet("corollary4", model, derived)
    if unmet:
        return unmet
    witnesses = {} if total >= 2 * e0 else {"bound": f"dim H = {total} < 2 e0 = {2 * e0}"}
    return _report("corollary4", model, witnesses, derived)


def verify_remark2(model: SullivanModel) -> VerificationReport:
    """Lower bound e0 >= dim V^odd + (l-2) dim V^even for differentials
    of length at least l (homogeneity not required)."""
    engine = engine_for(model)
    cert = engine.certify()
    if not cert.ok:
        return _not_applicable(
            "remark2", model, f"no ellipticity certificate ({cert.verdict})"
        )
    l = engine.profile.l
    bound = _e_formula(model, l)
    e0 = toomer_of_algebra(model)
    derived = {"l": l, "bound": bound, "e0": e0, "profile": engine.profile.kind}
    witnesses = {} if e0 >= bound else {"bound": f"e0 = {e0} < {bound}"}
    return _report("remark2", model, witnesses, derived)


def verify_nilmanifold(model: SullivanModel) -> VerificationReport:
    """Dixmier-type bounds for nilmanifold models (all generators in
    degree 1): b_i >= 2 for middle i, dim H >= 2 dim X, e0 = dim X."""
    if any(g.degree != 1 for g in model.generators):
        return _not_applicable(
            "nilmanifold", model, "not a nilmanifold model (generators above degree 1)"
        )
    # with every generator odd, certify() finds a certificate (or raises)
    engine = engine_for(model)
    n = len(model.generators)
    table = engine.cohomology_table()
    e0 = toomer_of_algebra(model)
    derived = {
        "dim_manifold": n,
        "betti": list(table.betti),
        "total_dim_H": table.total_dimension,
        "e0": e0,
    }
    witnesses = {}
    for i in range(1, n):
        if table.betti[i] < 2:
            witnesses[f"b_{i}"] = f"b_{i} = {table.betti[i]} < 2"
    if table.total_dimension < 2 * n:
        witnesses["total"] = f"dim H = {table.total_dimension} < 2 dim X = {2 * n}"
    if e0 != n:
        witnesses["e0"] = f"e0 = {e0} != dim X = {n}"
    return _report("nilmanifold", model, witnesses, derived)


class Conjecture5Record(NamedTuple):
    model_id: str
    branch: str  # 'two-dimensional' | 'truncated-polynomial' | 'counterexample'
    e: int
    mu: tuple[int, ...]
    detail: str


def classify_conjecture5(model: SullivanModel) -> Conjecture5Record:
    """Branch (i): dim H_k >= 2 for all middle k.  Branch (ii): H is a
    truncated polynomial algebra on one generator, detected by the Betti
    pattern plus cup-power spanning.  Anything else is branch (iii), a
    counterexample to the conjecture."""
    _, reason = _hypotheses(model)
    if reason:
        raise ValueError(f"conjecture 5 scan needs homogeneous certified models: {reason}")
    engine = engine_for(model)
    report = e0_spectrum(model)
    e = report.e0_algebra
    mu = report.spectrum
    if all(mu[k] >= 2 for k in range(1, e)):
        return Conjecture5Record(
            _model_id(model), "two-dimensional", e, mu,
            "dim H_k >= 2 for k = 1..e-1",
        )
    if _is_truncated_polynomial(engine):
        return Conjecture5Record(
            _model_id(model), "truncated-polynomial", e, mu,
            "H is a truncated polynomial algebra on one generator",
        )
    return Conjecture5Record(
        _model_id(model), "counterexample", e, mu,
        "neither branch holds -- a research-grade finding if the model is audited",
    )


def _is_truncated_polynomial(engine) -> bool:
    table = engine.cohomology_table()
    n = table.formal_dimension
    if any(b not in (0, 1) for b in table.betti):
        return False
    nonzero = [i for i in range(1, n + 1) if table.betti[i]]
    if not nonzero:
        return n == 0
    p = nonzero[0]
    if n % p != 0:
        return False
    t = n // p
    if nonzero != [p * j for j in range(1, t + 1)]:
        return False
    # cup powers of the bottom class must span every step
    z = engine.classes(p)[0].representative
    power = dict(z)
    for j in range(2, t + 1):
        power = multiply(engine.gens, power, z)
        coords = engine.class_coordinates(p * j, power)
        if not any(coords):
            return False
    return True


def scan_conjecture5(corpus) -> list[Conjecture5Record]:
    records = [classify_conjecture5(m) for m in corpus]
    records.sort(key=lambda r: r.model_id)
    return records


def verify_conjecture5(model: SullivanModel) -> VerificationReport:
    """Single-model view of the conjecture scan: pass on either branch,
    fail only on a counterexample (which the scan preserves loudly)."""
    _, reason = _hypotheses(model)
    if reason:
        return _not_applicable("conjecture5", model, reason)
    record = classify_conjecture5(model)
    derived = {"branch": record.branch, "e": record.e, "mu": list(record.mu)}
    witnesses = {"counterexample": record.detail} if record.branch == "counterexample" else {}
    return _report("conjecture5", model, witnesses, derived)


ALL_THEOREMS = {
    "theorem2": verify_theorem2,
    "lemma1": verify_lemma1,
    "theorem3": verify_theorem3,
    "corollary4": verify_corollary4,
    "remark2": verify_remark2,
    "nilmanifold": verify_nilmanifold,
    "conjecture5": verify_conjecture5,
}


def verify_all(model: SullivanModel) -> list[VerificationReport]:
    return [check(model) for check in ALL_THEOREMS.values()]
