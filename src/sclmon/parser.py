"""Concrete text syntax for formulas: parse and pretty-print.

Grammar (whitespace insensitive, ``#`` starts a comment in formula files)::

    phi    := impl
    impl   := or ( "->" impl )?                 right associative
    or     := and ( "|" and )*
    and    := unary ( "&" unary )*
    unary  := "!" unary
            | "G[" num "," num "]" unary
            | "F[" num "," num "]" unary
            | "<" kernel "[" num "," num "]" "," num ">" ("*")? unary
            | "(" phi ")" | "true" | "false" | atom
    atom   := ident cmp num          cmp := ">=" | "<=" | ">" | "<"
    kernel := "flat" | "exp(" num ")" | "gauss(" num "," num ")"

``G``/``F`` are parsed straight into their flat-kernel convolution forms.
Time numbers are raw (unitless) and must match the trace time unit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, SclError
from .formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    Const,
    Conv,
    ConvDual,
    Formula,
    Implies,
    Not,
    Or,
    eventually,
    globally,
)
from .kernels import BoundedKernel, ExponentialKernel, FlatKernel, GaussianKernel

_KEYWORDS = {"true", "false", "flat", "exp", "gauss"}

# Longest alternatives first so '->', '>=' and '<=' win over the bare chars.
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<arrow>->)"
    r"|(?P<ge>>=)"
    r"|(?P<le><=)"
    r"|(?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[!|&<>\[\](),*])"
)


@dataclass(frozen=True)
class _Token:
    kind: str   # arrow, ge, le, number, ident, one of "!|&<>[](),*", eof
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        kind = m.lastgroup or "op"
        if kind == "op":
            kind = lexeme
        if kind != "ws":
            tokens.append(_Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, offset: int = 0) -> _Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            expected = what or f"{kind!r}"
            raise ParseError(f"expected {expected}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.column)
        return tok

    def fail(self, message: str, tok: _Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.column)

    # -- grammar ----------------------------------------------------------
    def formula(self) -> Formula:
        f = self.implication()
        tok = self.peek()
        if tok.kind != "eof":
            raise self.fail(f"unexpected trailing input {tok.text!r}")
        return f

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek().kind == "arrow":
            self.next()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek().kind == "|":
            self.next()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek().kind == "&":
            self.next()
            f = And(f, self.unary())
        return f

    def number(self, what: str = "number") -> float:
        tok = self.expect("number", what)
        return float(tok.text)

    def window(self) -> tuple[float, float, _Token]:
        open_tok = self.expect("[", "'[' opening a time window")
        lo = self.number("window start")
        self.expect(",", "',' in time window")
        hi = self.number("window end")
        self.expect("]", "']' closing the time window")
        if lo < 0:
            raise ParseError(f"window start must be non-negative, got {lo}",
                             open_tok.line, open_tok.column)
        if lo >= hi:
            raise ParseError(f"window must satisfy start < end, got [{lo}, {hi}]",
                             open_tok.line, open_tok.column)
        return lo, hi, open_tok

    def kernel(self) -> tuple[str, tuple[float, ...]]:
        tok = self.next()
        if tok.kind != "ident" or tok.text not in ("flat", "exp", "gauss"):
            raise ParseError(
                f"expected kernel (flat, exp(a) or gauss(m,s)), found {tok.text!r}",
                tok.line, tok.column)
        if tok.text == "flat":
            return "flat", ()
        self.expect("(", f"'(' after {tok.text}")
        first = self.number("kernel parameter")
        if tok.text == "exp":
            self.expect(")", "')' closing exp parameters")
            return "exp", (first,)
        self.expect(",", "',' between gauss parameters")
        second = self.number("kernel parameter")
        self.expect(")", "')' closing gauss parameters")
        return "gauss", (first, second)

    def _build_kernel(self, name: str, params: tuple[float, ...],
                      lo: float, hi: float, tok: _Token) -> BoundedKernel:
        try:
            if name == "flat":
                return FlatKernel(lo, hi)
            if name == "exp":
                return ExponentialKernel(params[0], lo, hi)
            return GaussianKernel(params[0], params[1], lo, hi)
        except SclError as exc:
            raise ParseError(str(exc), tok.line, tok.column) from None

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "!":
            self.next()
            return Not(self.unary())
        if tok.kind == "ident" and tok.text in ("G", "F") and self.peek(1).kind == "[":
            self.next()
            lo, hi, wtok = self.window()
            child = self.unary()
            make = globally if tok.text == "G" else eventually
            try:
                return make(lo, hi, child)
            except SclError as exc:
                raise ParseError(str(exc), wtok.line, wtok.column) from None
        if tok.kind == "<":
            self.next()
            name, params = self.kernel()
            lo, hi, wtok = self.window()
            kernel = self._build_kernel(name, params, lo, hi, wtok)
            self.expect(",", "',' before the threshold")
            ptok = self.peek()
            threshold = self.number("threshold")
            self.expect(">", "'>' closing the convolution operator")
            dual = False
            if self.peek().kind == "*":
                self.next()
                dual = True
            child = self.unary()
            try:
                return (ConvDual if dual else Conv)(kernel, threshold, child)
            except SclError as exc:
                raise ParseError(str(exc), ptok.line, ptok.column) from None
        if tok.kind == "(":
            self.next()
            f = self.implication()
            self.expect(")", "')'")
            return f
        if tok.kind == "ident":
            if tok.text == "true":
                self.next()
                return TRUE
            if tok.text == "false":
                self.next()
                return FALSE
            if tok.text in _KEYWORDS:
                raise self.fail(f"{tok.text!r} is reserved and cannot name a variable")
            self.next()
            cmp_tok = self.next()
            if cmp_tok.kind not in ("ge", "le", ">", "<"):
                raise ParseError(
                    f"expected comparison after variable {tok.text!r}, "
                    f"found {cmp_tok.text or 'end of input'!r}",
                    cmp_tok.line, cmp_tok.column)
            op = {"ge": ">=", "le": "<="}.get(cmp_tok.kind, cmp_tok.kind)
            ttok = self.peek()
            threshold = self.number("atom threshold")
            try:
                return Atom(tok.text, op, threshold)
            except SclError as exc:
                raise ParseError(str(exc), ttok.line, ttok.column) from None
        raise self.fail(f"expected a formula, found {tok.text or 'end of input'!r}")


def parse(text: str) -> Formula:
    """Parse a single formula; raises :class:`ParseError` with line/column."""
    return _Parser(_tokenize(text)).formula()


def parse_formula_file(text: str) -> list[tuple[int, str, Formula]]:
    """Parse a formula file: one formula per line, ``#`` comments, blanks ignored.

    Returns ``(line_number, source_text, formula)`` triples.
    """
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            out.append((lineno, stripped, parse(stripped)))
        except ParseError as exc:
            raise ParseError(f"(formula file line {lineno}) {exc}") from None
    return out


def _num(x: float) -> str:
    return repr(float(x))


def _kernel_text(kernel: BoundedKernel) -> str:
    window = f"[{_num(kernel.lower)},{_num(kernel.upper)}]"
    if isinstance(kernel, FlatKernel):
        return f"flat{window}"
    if isinstance(kernel, ExponentialKernel):
        return f"exp({_num(kernel.rate)}){window}"
    if isinstance(kernel, GaussianKernel):
        return f"gauss({_num(kernel.center)},{_num(kernel.spread)}){window}"
    raise SclError(f"kernel {kernel!r} has no concrete syntax")


def _wrap(f: Formula) -> str:
    """Parenthesize binary children; prefix operators bind tightest as-is."""
    if isinstance(f, (Or, And, Implies)):
        return f"({pretty_print(f)})"
    return pretty_print(f)


def pretty_print(f: Formula) -> str:
    """Render a formula so that ``parse(pretty_print(f))`` is structurally ``f``."""
    match f:
        case Const(value):
            return "true" if value else "false"
        case Atom(variable, op, threshold):
            return f"{variable} {op} {_num(threshold)}"
        case Not(child):
            return f"!{_wrap(child)}"
        case And(left, right):
            return f"{_wrap(left)} & {_wrap(right)}"
        case Or(left, right):
            return f"{_wrap(left)} | {_wrap(right)}"
        case Implies(left, right):
            return f"{_wrap(left)} -> {_wrap(right)}"
        case Conv(kernel, threshold, child):
            return f"<{_kernel_text(kernel)}, {_num(threshold)}> {_wrap(child)}"
        case ConvDual(kernel, threshold, child):
            return f"<{_kernel_text(kernel)}, {_num(threshold)}>* {_wrap(child)}"
    raise SclError(f"not a formula: {f!r}")
