"""Line-oriented model description parser and printer.

Grammar (one statement per line, `#` starts a comment):

    gen <name> <degree>
    d <name> = <polynomial>

Polynomials are sums of terms; a term is an optional rational
coefficient and `*`-separated powers `name^exp`.  Declaration order fixes
the generator order, hence the canonical monomial form and the
triangularity requirement.  parse(print(model)) round-trips exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import Monomial, Polynomial, poly_str
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


class _TermParser:
    """Recursive-descent parser for one polynomial right-hand side."""

    def __init__(self, tokens, line_no, gen_index, gen_count):
        self.tokens = tokens
        self.pos = 0
        self.line = line_no
        self.gen_index = gen_index
        self.n = gen_count

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        """Step past the token the last peek() saw."""
        self.pos += 1

    def fail(self, message):
        """Raise at the current token, or one past the last at the end of the line."""
        tok = self.peek()
        col = tok[2] if tok else self.tokens[-1][2] + len(self.tokens[-1][1])
        raise ModelSyntaxError(self.line, col, message)

    def parse(self) -> Polynomial:
        out: Polynomial = {}
        sign = 1
        tok = self.peek()
        if tok and tok[1] in "+-":
            self.take()
            sign = -1 if tok[1] == "-" else 1
        while True:
            mono, coeff = self.term()
            coeff *= sign
            cur = out.get(mono, 0) + coeff
            if cur:
                out[mono] = cur
            else:
                out.pop(mono, None)
            tok = self.peek()  # term() stops at the end of the line or at '+'/'-'
            if tok is None:
                return out
            self.take()
            sign = -1 if tok[1] == "-" else 1

    def term(self) -> tuple[Monomial, Fraction]:
        coeff = Fraction(1)
        expo = [0] * self.n
        tok = self.peek()
        if tok is None:
            self.fail("empty term")
        if tok[0] == "number":
            try:
                coeff = Fraction(tok[1])
            except ZeroDivisionError:
                raise ModelSyntaxError(
                    self.line, tok[2], f"zero denominator in coefficient {tok[1]!r}"
                ) from None
            self.take()
            nxt = self.peek()
            if nxt is None or nxt[1] in "+-":
                return tuple(expo), coeff  # constant term
            if nxt[1] != "*":
                self.fail(f"expected '*', '+' or '-' after a coefficient, found {nxt[1]!r}")
            self.take()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "name":
                self.fail("expected a generator name")
            name = tok[1]
            if name not in self.gen_index:
                raise ModelSyntaxError(self.line, tok[2], f"unknown generator {name!r}")
            self.take()
            power = 1
            nxt = self.peek()
            if nxt and nxt[1] == "^":
                self.take()
                ptok = self.peek()
                if ptok is None or ptok[0] != "number" or "/" in ptok[1]:
                    self.fail("expected an integer exponent after '^'")
                power = int(ptok[1])
                self.take()
            expo[self.gen_index[name]] += power
            nxt = self.peek()
            if nxt is None or nxt[1] in "+-":
                return tuple(expo), coeff
            if nxt[1] != "*":
                self.fail(f"expected '*', '+' or '-', found {nxt[1]!r}")
            self.take()


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
            parser = _TermParser(tokens[3:], line_no, gen_index, len(gen_specs))
            diffs[target] = parser.parse()
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
