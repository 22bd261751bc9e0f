"""Sullivan models: construction, validation, length profiles, quotients
and seeded random elliptic models."""

from __future__ import annotations

import random
from typing import NamedTuple

from .algebra import (
    BasisTable,
    Derivation,
    Generator,
    Monomial,
    Polynomial,
    apply_derivation,
    monomial_degree,
    poly,
    poly_str,
    word_length,
)


class Violation(NamedTuple):
    """One failed validation condition, pinned to a generator and, for a
    parsed model, to the line that defines it."""

    generator: str
    condition: str
    message: str
    line: int | None = None

    def __str__(self) -> str:
        where = f"line {self.line}: " if self.line is not None else ""
        return f"{where}{self.generator}: {self.condition}: {self.message}"


class ModelValidationError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class SullivanModel:
    """A minimal Sullivan algebra (Lambda V, d).

    Immutable after validation by convention; generator order is the
    declaration order and fixes the canonical monomial form, the
    triangularity requirement and quotient semantics.
    """

    def __init__(self, generators, differential: Derivation, name: str | None = None):
        self.generators = tuple(generators)
        self.differential = differential
        self.name = name
        self.validated = False
        self._engine = None

    # -- convenience ---------------------------------------------------

    @property
    def n_gens(self) -> int:
        return len(self.generators)

    @property
    def odd_generators(self) -> list[Generator]:
        return [g for g in self.generators if g.is_odd]

    @property
    def even_generators(self) -> list[Generator]:
        return [g for g in self.generators if not g.is_odd]

    @property
    def simply_connected(self) -> bool:
        return all(g.degree >= 2 for g in self.generators)

    @property
    def min_degree(self) -> int:
        return min(g.degree for g in self.generators)

    def d_of(self, index: int) -> Polynomial:
        return self.differential.values[index]

    def d(self, p: Polynomial) -> Polynomial:
        return apply_derivation(self.generators, self.differential, p)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SullivanModel)
            and self.generators == other.generators
            and self.differential.values == other.differential.values
        )

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return f"SullivanModel({self.name or 'anonymous'}: {gens})"


def make_model(spec_gens, diffs=None, name=None) -> SullivanModel:
    """Convenience constructor: spec_gens = [(name, degree), ...],
    diffs = {gen_name: Polynomial}."""
    gens = tuple(Generator(i, n, d) for i, (n, d) in enumerate(spec_gens))
    diffs = diffs or {}
    unknown = set(diffs) - {g.name for g in gens}
    if unknown:
        raise KeyError(f"differentials for undeclared generators: {sorted(unknown)}")
    values = [poly(diffs.get(g.name, {})) for g in gens]
    model = SullivanModel(gens, Derivation(1, tuple(values)), name)
    return validate(model)


def check_model(model: SullivanModel) -> list[Violation]:
    """All validation violations, in staged order per generator.

    Stage 1 checks the shape of each d(v): every term a monomial of the
    generators (one exponent per generator, none negative, none above 1
    on an odd generator), degree shift +1 and decomposability.
    Triangularity and d^2 = 0 are only meaningful for a well-shaped
    differential, so they run as stage 2 for generators that passed
    stage 1.
    """
    gens = model.generators
    violations: list[Violation] = []
    shape_ok: list[bool] = []

    for g in gens:
        ok = True
        if g.degree < 1:
            violations.append(Violation(g.name, "degree", "generator degree must be >= 1"))
            ok = False
        dv = model.d_of(g.index)
        for m in dv:
            fault = _monomial_fault(gens, m)
            if fault:
                violations.append(Violation(g.name, "monomial", fault))
                ok = False
                break
        for m in dv:
            deg = monomial_degree(gens, m)
            if deg != g.degree + 1:
                violations.append(
                    Violation(g.name, "degree-shift", f"term of degree {deg}, expected "
                              f"{g.degree + 1}: {_term_str(gens, m)}")
                )
                ok = False
                break
        for m in dv:
            if word_length(m) < 2:
                violations.append(
                    Violation(g.name, "decomposable",
                              "differential has a term of word length < 2")
                )
                ok = False
                break
        shape_ok.append(ok)

    for g in gens:
        if not shape_ok[g.index]:
            continue
        dv = model.d_of(g.index)
        for m in dv:
            if any(e and i >= g.index for i, e in enumerate(m)):
                violations.append(
                    Violation(g.name, "triangular",
                              "differential references this generator or a later one")
                )
                break
        dd = model.d(dv)
        if dd:
            violations.append(
                Violation(g.name, "d-squared", f"d(d({g.name})) = {poly_str(gens, dd)}")
            )
    return violations


def _monomial_fault(gens, m: Monomial) -> str | None:
    """Why the exponent tuple m is no monomial of gens, or None."""
    if len(m) != len(gens):
        return f"term {m} has {len(m)} exponents for {len(gens)} generators"
    for h, e in zip(gens, m):
        if e < 0:
            return f"term {m} has a negative exponent"
        if e > 1 and h.is_odd:
            return f"term {_term_str(gens, m)} squares the odd generator {h.name} (it vanishes)"
    return None


def _term_str(gens, m: Monomial) -> str:
    """m in the model-file notation; a tuple that names no term (the wrong
    length, a negative exponent) as it is."""
    named = len(m) == len(gens) and min(m, default=0) >= 0
    return poly_str(gens, {m: 1}) if named else str(m)


def validate(model: SullivanModel) -> SullivanModel:
    """Return the model with its validated flag set, or raise
    ModelValidationError listing every violation."""
    violations = check_model(model)
    if violations:
        raise ModelValidationError(violations)
    model.validated = True
    return model


# -- length profile ----------------------------------------------------


class LengthProfile(NamedTuple):
    """Word-length profile of the differential.

    kind 'homogeneous': every d(v) term has length exactly l.
    kind 'bounded_below': every term has length >= l, l maximal; reported
    as the mixed case of Remark-2 type models.
    A zero differential counts as homogeneous of length 2 (coformal).
    """

    kind: str  # 'homogeneous' | 'bounded_below'
    l: int

    @property
    def is_homogeneous(self) -> bool:
        return self.kind == "homogeneous"


def length_profile(model: SullivanModel) -> LengthProfile:
    lengths = set()
    for g in model.generators:
        for m in model.d_of(g.index):
            lengths.add(word_length(m))
    if not lengths:
        return LengthProfile("homogeneous", 2)
    if len(lengths) == 1:
        return LengthProfile("homogeneous", lengths.pop())
    return LengthProfile("bounded_below", min(lengths))


# -- quotient by the first generator ------------------------------------


class QuotientError(ValueError):
    pass


def quotient_model(model: SullivanModel, gen: Generator) -> SullivanModel:
    """Lambda W = Lambda(v2, ..., vn) with dbar = d minus every term
    containing the stripped generator.  Requires gen to be the first
    generator and a cocycle."""
    if gen.index != 0:
        raise QuotientError(f"{gen.name} is not the first generator")
    if model.d_of(0):
        raise QuotientError(f"d({gen.name}) != 0; cannot factor out a non-cocycle")
    new_gens = tuple(
        Generator(g.index - 1, g.name, g.degree) for g in model.generators[1:]
    )
    values = []
    for g in model.generators[1:]:
        dv = model.d_of(g.index)
        stripped = {m[1:]: c for m, c in dv.items() if m[0] == 0}
        values.append(poly(stripped))
    quotient = SullivanModel(
        new_gens,
        Derivation(1, tuple(values)),
        name=f"{model.name}/{gen.name}" if model.name else None,
    )
    return validate(quotient)


# -- random elliptic models ---------------------------------------------


class RandomModelParams:
    """Shape parameters for random pure (two-stage) models: n_even even
    cocycle generators, n_odd odd generators with homogeneous length-l
    differentials in the evens.  leading_odd_sphere prepends one odd
    cocycle generator so the Wang sequence applies."""

    def __init__(self, n_even: int = 2, n_odd: int = 2, l: int = 2,
                 max_even_degree: int = 2, leading_odd_sphere: bool = False,
                 max_attempts: int = 64):
        if n_even < 0:
            raise ValueError("the number of even generators must be >= 0")
        if n_odd < n_even:
            raise ValueError(
                "infeasible parameters: a pure model needs at least as many odd "
                "generators as even ones to be elliptic"
            )
        if l < 2:
            raise ValueError("differential length must be >= 2")
        self.n_even = n_even
        self.n_odd = n_odd
        self.l = l
        self.max_even_degree = max_even_degree
        self.leading_odd_sphere = leading_odd_sphere
        self.max_attempts = max_attempts

    def __repr__(self) -> str:
        return (f"RandomModelParams(n_even={self.n_even!r}, n_odd={self.n_odd!r}, "
                f"l={self.l!r}, max_even_degree={self.max_even_degree!r}, "
                f"leading_odd_sphere={self.leading_odd_sphere!r}, "
                f"max_attempts={self.max_attempts!r})")


class GenerationBudgetError(RuntimeError):
    pass


def random_elliptic_model(seed: int, params: RandomModelParams) -> SullivanModel:
    """Seeded pure-model sampler, rejection-checked against the
    ellipticity certificate.  Raises GenerationBudgetError rather than
    ever returning an uncertified model."""
    from .cohomology import certify_elliptic  # deferred: engine depends on model

    rng = random.Random(seed)
    for attempt in range(params.max_attempts):
        model = _sample_pure(rng, params, seed, attempt)
        cert = certify_elliptic(model)
        if cert.verdict == "certificate":
            return model
    raise GenerationBudgetError(
        f"no elliptic model found in {params.max_attempts} attempts (seed {seed})"
    )


def _sample_pure(rng, params: RandomModelParams, seed: int, attempt: int) -> SullivanModel:
    even_degrees = [
        rng.randrange(2, params.max_even_degree + 1, 2)
        for _ in range(params.n_even)
    ]
    spec_gens = []
    head = ()  # the exponent of the optional leading odd sphere u
    if params.leading_odd_sphere:
        spec_gens.append(("u", 1 + 2 * rng.randint(1, 2)))
        head = (0,)
    spec_gens += [(f"x{i + 1}", even_degrees[i]) for i in range(params.n_even)]
    tail = (0,) * params.n_odd

    bases = BasisTable([Generator(i, f"x{i + 1}", d) for i, d in enumerate(even_degrees)])
    diffs = {}
    for j in range(params.n_odd):
        name = f"y{j + 1}"
        if params.n_even == 0:
            # no evens to hit: a free odd generator (an odd-sphere factor)
            spec_gens.append((name, 1 + 2 * rng.randint(1, 3)))
            continue
        # target degree: a random length-l monomial in the evens fixes it
        picks = [rng.randrange(params.n_even) for _ in range(params.l)]
        target = sum(even_degrees[i] for i in picks)
        candidates = [m for m in bases.basis(target) if word_length(m) == params.l]
        dy = {head + mono + tail: rng.randint(-2, 2) for mono in candidates}
        if not any(dy.values()):  # make_model drops the zero terms
            dy[head + candidates[rng.randrange(len(candidates))] + tail] = 1
        spec_gens.append((name, target - 1))
        diffs[name] = dy
    label = f"random(seed={seed},attempt={attempt})"
    return make_model(spec_gens, diffs, name=label)
