"""Line-oriented model description parser and printer.

Grammar (one statement per line, `#` starts a comment):

    gen <name> <degree>
    d <name> = <polynomial>

and the polynomial on the right of a `d` line is

    polynomial  := ['+' | '-'] term (('+' | '-') term)*
    term        := coefficient | [coefficient '*'] power ('*' power)*
    power       := name ['^' integer]
    coefficient := integer ['/' integer]

The coefficients of equal monomials add up, and a monomial whose sum
reaches zero leaves the polynomial until a later term brings it back.
Declaration order fixes the generator order, hence the canonical
monomial form and the triangularity requirement.  parse(print(model))
round-trips exactly.
"""

import re
from fractions import Fraction

from .algebra import Polynomial, poly_str
from .model import ModelValidationError, SullivanModel, make_model


class ModelSyntaxError(ValueError):
    """Text that cannot become a model, with line and column."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:/\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*^=])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _tokenize(text: str, line_no: int):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ModelSyntaxError(line_no, m.start() + 1, f"unexpected character {m.group()!r}")
        tokens.append((kind, m.group(), m.start() + 1))
    return tokens


def _polynomial(tokens, line_no: int, gen_index: dict[str, int], n: int) -> Polynomial:
    """The polynomial that `tokens`, the right-hand side of one `d` line,
    spell in the n generators declared so far."""
    last = tokens[-1]
    # the end token stands one past the last, where end-of-line errors point
    tokens = [*tokens, ("end", "", last[2] + len(last[1]))]
    if tokens[0][1] not in ("+", "-"):
        tokens.insert(0, ("op", "+", 0))  # the first term's sign, when it has none
    pos = 0

    def fail(message):
        raise ModelSyntaxError(line_no, tokens[pos][2], message)

    out: Polynomial = {}
    while tokens[pos][0] != "end":  # a sign, then a term
        sign = -1 if tokens[pos][1] == "-" else 1
        pos += 1
        if tokens[pos][0] == "end":
            fail("empty term")
        # `after` names the last item for the error text; None before the first
        coeff, expo, after = Fraction(1), [0] * n, None
        while True:  # a coefficient or a power, then what follows it
            kind, text, col = tokens[pos]
            if after is None and kind == "number":
                try:
                    coeff = Fraction(text)
                except ZeroDivisionError:
                    raise ModelSyntaxError(
                        line_no, col, f"zero denominator in coefficient {text!r}") from None
                after = " after a coefficient"
            else:
                if kind != "name":
                    fail("expected a generator name")
                if text not in gen_index:
                    fail(f"unknown generator {text!r}")
                power = 1
                if tokens[pos + 1][1] == "^":
                    pos += 2
                    if tokens[pos][0] != "number" or "/" in tokens[pos][1]:
                        fail("expected an integer exponent after '^'")
                    power = int(tokens[pos][1])
                expo[gen_index[text]] += power
                after = ""
            pos += 1
            if tokens[pos][0] == "end" or tokens[pos][1] in ("+", "-"):
                break
            if tokens[pos][1] != "*":
                fail(f"expected '*', '+' or '-'{after}, found {tokens[pos][1]!r}")
            pos += 1
        mono = tuple(expo)
        out[mono] = out.get(mono, 0) + sign * coeff
        if not out[mono]:  # a later term of mono then comes last, as check_model reads it
            del out[mono]
    return out


def parse_model(text: str, name: str | None = None) -> SullivanModel:
    """Parse a model description and validate it.

    Raises ModelSyntaxError, with line and column, for text that cannot
    become a model; ModelValidationError, from `check_model`, for every
    structural fault, each violation naming its `gen` line (a degree) or
    its `d` line (every other condition).
    """
    gen_specs: list[tuple[str, int]] = []
    gen_index: dict[str, int] = {}
    diffs: dict[str, Polynomial] = {}
    gen_lines: dict[str, int] = {}
    d_lines: dict[str, int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = _tokenize(line, line_no)
        head = tokens[0]
        if head[0] == "name" and head[1] == "gen":
            if len(tokens) != 3 or tokens[1][0] != "name" or tokens[2][0] != "number":
                raise ModelSyntaxError(line_no, head[2], "expected: gen <name> <degree>")
            gname = tokens[1][1]
            if "/" in tokens[2][1]:
                raise ModelSyntaxError(line_no, tokens[2][2], "degree must be an integer")
            if gname in gen_index:
                raise ModelSyntaxError(line_no, tokens[1][2], f"generator {gname!r} redeclared")
            gen_index[gname] = len(gen_specs)
            gen_specs.append((gname, int(tokens[2][1])))
            gen_lines[gname] = line_no
        elif head[0] == "name" and head[1] == "d":
            if len(tokens) < 4 or tokens[1][0] != "name" or tokens[2][1] != "=":
                raise ModelSyntaxError(line_no, head[2], "expected: d <name> = <polynomial>")
            target = tokens[1][1]
            if target not in gen_index:
                raise ModelSyntaxError(line_no, tokens[1][2], f"unknown generator {target!r}")
            if target in diffs:
                raise ModelSyntaxError(line_no, tokens[1][2], f"d {target} defined twice")
            diffs[target] = _polynomial(tokens[3:], line_no, gen_index, len(gen_specs))
            d_lines[target] = line_no
        else:
            raise ModelSyntaxError(
                line_no, head[2], f"expected 'gen' or 'd', found {head[1]!r}"
            )

    if not gen_specs:
        raise ModelSyntaxError(1, 1, "empty model: no generators declared")
    # a `d` line has one exponent per generator declared above it; pad to all
    n = len(gen_specs)
    diffs = {t: {m + (0,) * (n - len(m)): c for m, c in rhs.items()} for t, rhs in diffs.items()}
    try:
        return make_model(gen_specs, diffs, name=name)
    except ModelValidationError as err:
        raise ModelValidationError(
            v._replace(line=(gen_lines if v.condition == "degree" else d_lines)[v.generator])
            for v in err.violations
        ) from None


def print_model(model: SullivanModel) -> str:
    """Model text in the grammar above; parse(print(m)) == m."""
    lines = [f"gen {g.name} {g.degree}" for g in model.generators]
    for g in model.generators:
        dv = model.d_of(g.index)
        if dv:
            lines.append(f"d {g.name} = {poly_str(model.generators, dv)}")
    return "\n".join(lines) + "\n"
