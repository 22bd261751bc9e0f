"""Test tools for the Wang and Gysin sequences.

- `wang_derivation` is the tests' independent reference for the Wang
  connecting map: it splits d = dbar + x1 theta on the generators,
  which the sequence layer never does.
- `corrupt_connecting_sign` is the negative control: a copy of a built
  sequence with one connecting-map entry's sign flipped, which the
  exactness check must reject.
"""

from sullivan.algebra import Derivation, Generator, poly
from sullivan.linalg import RatMatrix
from sullivan.model import QuotientError, SullivanModel
from sullivan.sequences import LesData, _cycle


def wang_derivation(model: SullivanModel, gen: Generator) -> Derivation:
    """The derivation theta on Lambda W defined by splitting
    d(chi) = dbar(chi) + x1 * theta(chi) for an odd cocycle first
    generator x1; theta has degree shift -(|x1| - 1)."""
    if gen.index != 0:
        raise QuotientError(f"{gen.name} is not the first generator")
    if not gen.is_odd:
        raise QuotientError(f"{gen.name} has even degree; the Wang split needs an odd generator")
    if model.d_of(0):
        raise QuotientError(f"d({gen.name}) != 0")
    values = []
    for g in model.generators[1:]:
        dv = model.d_of(g.index)
        # x1 is leftmost in canonical order, so each x1-term is exactly
        # x1 * (monomial with the exponent dropped) -- no sign appears.
        part = {m[1:]: c for m, c in dv.items() if m[0] == 1}
        values.append(poly(part))
    return Derivation(-(gen.degree - 1), tuple(values))


def corrupt_connecting_sign(les: LesData) -> LesData:
    """Flip the sign of one entry of a connecting-map matrix, inside a
    column with >= 2 nonzero entries (a plain rescaling of a basis vector
    would leave every kernel and image unchanged).  Raises when no
    connecting column mixes classes."""
    connecting = _cycle(les.kind, les.x1_degree, les.l)[2].name
    # the first in (degree, length) order; k is None on every key or on none
    for key in sorted(key for key in les.maps if key[0] == connecting):
        lmap = les.maps[key]
        mat = lmap.matrix
        for c in range(mat.cols):
            rows = [r for r in range(mat.rows) if mat.entry(r, c)]
            if len(rows) >= 2:
                entries = dict(mat._entries)
                entries[(rows[0], c)] = -entries[(rows[0], c)]
                new_map = lmap._replace(matrix=RatMatrix(mat.rows, mat.cols, entries))
                return les._replace(maps={**les.maps, key: new_map})
    raise ValueError(
        "no connecting-map column mixes two classes; sign corruption would be invisible"
    )
