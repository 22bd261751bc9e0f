"""Built-in model library.

Names are either fixed (`heisenberg`, `example-5gen`, ...) or
parameterized families resolved on demand: `sphere:n`, `cp:n`,
`cpl-sphere:l,r` (the CP^(l-1) x S^(2r+1) family, generated from its
parameters so parameter sweeps stay cheap), and `mixed:i`.
"""

from __future__ import annotations

from .model import SullivanModel
from .parser import parse_model

# fixed models, as model text so the parser is exercised on every load
_FIXED: dict[str, str] = {
    # the coformal 5-generator example with e0 = 3 and dim H = 6
    "example-5gen": """\
gen x1 2
gen x2 2
gen y1 3
gen y2 3
gen y3 3
d y1 = x1^2
d y2 = x1*x2
d y3 = x2^2
""",
    # 3-dimensional Heisenberg nilmanifold
    "heisenberg": """\
gen a 1
gen b 1
gen c 1
d c = a*b
""",
    # 4-dimensional nilmanifold with a two-term differential; its Wang
    # derivation has a genuinely mixing matrix (used as negative control)
    "nil4": """\
gen a 1
gen b 1
gen c 1
gen e 1
d e = a*b + a*c
""",
    # 5-dimensional nilmanifold (two-step filtration)
    "nil5": """\
gen a 1
gen b 1
gen c 1
gen e 1
gen f 1
d c = a*b
d e = a*c
d f = b*c
""",
    # mixed-length models for the Remark-2 bound (bounded_below profiles)
    "mixed:1": """\
gen x1 2
gen x2 2
gen y1 3
gen y2 5
d y1 = x1^2
d y2 = x2^3
""",
    "mixed:2": """\
gen x 2
gen y1 3
gen y2 7
d y1 = x^2
d y2 = x^4
""",
    "mixed:3": """\
gen x1 2
gen x2 4
gen y1 3
gen y2 7
d y1 = x1^2
d y2 = x2^2 + x1^4
""",
    "mixed:4": """\
gen x1 2
gen x2 2
gen x3 2
gen y1 3
gen y2 3
gen y3 5
d y1 = x1^2
d y2 = x2^2 - x1*x3
d y3 = x3^3 + x1*x2*x3
""",
    # bounded_below(3): the Remark-2 bound is 3, strictly above dim V^odd
    "mixed:5": """\
gen x 2
gen y1 5
gen y2 7
d y1 = x^3
d y2 = x^4
""",
}


class UnknownModelError(LookupError):
    pass


def _sphere(n: int) -> str:
    if n < 1:
        raise UnknownModelError(f"sphere:{n}: dimension must be >= 1")
    if n % 2 == 1:
        return f"gen u {n}\n"
    return f"gen x {n}\ngen y {2 * n - 1}\nd y = x^2\n"


def _cp(n: int) -> str:
    if n < 1:
        raise UnknownModelError(f"cp:{n}: n must be >= 1")
    return f"gen x 2\ngen y {2 * n + 1}\nd y = x^{n + 1}\n"


def _cpl_sphere(l: int, r: int) -> str:
    # CP^(l-1) x S^(2r+1); the odd sphere generator comes first so the
    # Wang sequence applies to this family
    if l < 2 or r < 1:
        raise UnknownModelError(f"cpl-sphere:{l},{r}: need l >= 2, r >= 1")
    return (
        f"gen u {2 * r + 1}\n"
        f"gen x 2\n"
        f"gen y {2 * l - 1}\n"
        f"d y = x^{l}\n"
    )


def library_names() -> list[str]:
    """Every fixed name plus one representative of each family."""
    fixed = sorted(_FIXED)
    families = ["sphere:<n>", "cp:<n>", "cpl-sphere:<l>,<r>"]
    return fixed + families


def model_text(name: str) -> str:
    if name in _FIXED:
        return _FIXED[name]
    if ":" in name:
        family, _, args = name.partition(":")
        try:
            params = [int(a) for a in args.split(",")] if args else []
        except ValueError:
            raise UnknownModelError(f"bad parameters in {name!r}") from None
        if family == "sphere" and len(params) == 1:
            return _sphere(params[0])
        if family == "cp" and len(params) == 1:
            return _cp(params[0])
        if family == "cpl-sphere" and len(params) == 2:
            return _cpl_sphere(*params)
    raise UnknownModelError(
        f"unknown library model {name!r}; available: {', '.join(library_names())}"
    )


def get_model(name: str) -> SullivanModel:
    return parse_model(model_text(name), name=name)


def library() -> list[SullivanModel]:
    """Every fixed model plus small members of each family."""
    names = sorted(_FIXED)
    names += [f"sphere:{n}" for n in (2, 3, 4, 5, 7)]
    names += [f"cp:{n}" for n in (2, 3, 4)]
    names += ["cpl-sphere:2,1", "cpl-sphere:3,1", "cpl-sphere:4,2"]
    return [get_model(n) for n in names]
