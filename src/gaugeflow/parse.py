"""Infix grammar for expressions: parsing and canonical rendering.

The grammar covers exactly what the kernel can represent::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+')* power
    power  := atom ('^' ('-')? INT)?
    atom   := INT | var | '(' expr ')'
    var    := 'p_' core            momentum conjugate to the core variable
            | core '\''*           coordinate, or jet for each prime
    core   := IDENT ('[' INT (',' INT)* ']')?

The identifier ``lam`` is reserved for constraint multipliers, and a
leading ``p_`` always means a momentum, so coordinate names may use
neither.  ``render_expression`` emits numerator terms in descending
monomial order; ``parse_expression(render_expression(e)) == e`` for
every expression.
"""

from __future__ import annotations

import re
from bisect import bisect_left

from .errors import ExpressionSyntaxError
from .expr import (
    Expression,
    Kind,
    VarRef,
    _mono_sort_key,
    esum,
)

_SPACE = re.compile(r"\s*")
_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z0-9_]*)|('+)|([()\[\],+\-*/^])")

MULTIPLIER_BASE = "lam"
MOMENTUM_PREFIX = "p_"


def reserved_base_reason(base):
    """Why a coordinate may not use this base name, or None if it may."""
    if base == MULTIPLIER_BASE:
        return f"'{MULTIPLIER_BASE}' is reserved for constraint multipliers"
    if base.startswith(MOMENTUM_PREFIX):
        return f"names starting with '{MOMENTUM_PREFIX}' are reserved for momenta"
    if base.endswith("dot"):
        return "names ending in 'dot' collide with the velocity suffix"
    return None


def default_resolver(base, indices, jet_order, is_momentum, pos):
    """Turn a parsed variable mention into a VarRef, with no declarations."""
    line, col = pos
    if is_momentum:
        if jet_order:
            raise ExpressionSyntaxError("momenta carry no primes", line, col)
        return VarRef(base, indices, Kind.MOMENTUM, 0)
    if base == MULTIPLIER_BASE:
        if jet_order:
            raise ExpressionSyntaxError("multipliers carry no primes", line, col)
        return VarRef(base, indices, Kind.MULTIPLIER, 0)
    if jet_order:
        return VarRef(base, indices, Kind.JET, jet_order)
    return VarRef(base, indices, Kind.COORDINATE, 0)


class _Tokens:
    def __init__(self, text, line_offset=0):
        self.text = text
        self.pos = 0
        self.peeked = None
        self.line_offset = line_offset
        self.newlines = [m.start() for m in re.finditer("\n", text)]

    def location(self, at=None):
        at = self.pos if at is None else at
        line = bisect_left(self.newlines, at)  # newlines before ``at``
        line_start = self.newlines[line - 1] + 1 if line else 0
        return line + 1 + self.line_offset, at - line_start + 1

    def peek(self):
        """The next token, lexed once: ``next`` hands the same one over."""
        if self.peeked is None:
            self.peeked = self._lex()
        return self.peeked

    def next(self):
        tok = self.peeked
        if tok is None:
            return self._lex()
        self.peeked = None
        return tok

    def _lex(self):
        self.pos = _SPACE.match(self.text, self.pos).end()
        if self.pos >= len(self.text):
            return ("end", None, self.pos)
        m = _TOKEN.match(self.text, self.pos)
        if not m:
            line, col = self.location()
            raise ExpressionSyntaxError(
                f"unexpected character {self.text[self.pos]!r}", line, col)
        start = self.pos
        self.pos = m.end()
        number, ident, primes, sym = m.groups()
        if number is not None:
            return ("int", int(number), start)
        if ident is not None:
            return ("ident", ident, start)
        if primes is not None:
            return ("primes", len(primes), start)
        return (sym, sym, start)


class _Parser:
    def __init__(self, tokens, resolver):
        self.toks = tokens
        self.resolver = resolver

    def fail(self, message, at):
        line, col = self.toks.location(at)
        raise ExpressionSyntaxError(message, line, col)

    def expect(self, kind):
        tok = self.toks.next()
        if tok[0] != kind:
            self.fail(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        e = self.expr()
        tok = self.toks.next()
        if tok[0] != "end":
            self.fail(f"trailing input starting at {tok[1]!r}", tok[2])
        return e

    def expr(self):
        terms = [self.term()]
        while True:
            tok = self.toks.peek()
            if tok[0] not in ("+", "-"):
                return esum(terms) if len(terms) > 1 else terms[0]
            self.toks.next()
            term = self.term()
            terms.append(term if tok[0] == "+" else -term)

    def term(self):
        e = self.unary()
        while True:
            tok = self.toks.peek()
            if tok[0] == "*":
                self.toks.next()
                e = e * self.unary()
            elif tok[0] == "/":
                self.toks.next()
                e = e / self.unary()
            else:
                return e

    def unary(self):
        sign = 1
        while True:
            tok = self.toks.peek()
            if tok[0] == "-":
                self.toks.next()
                sign = -sign
            elif tok[0] == "+":
                self.toks.next()
            else:
                break
        e = self.power()
        return e if sign > 0 else -e

    def power(self):
        e = self.atom()
        tok = self.toks.peek()
        if tok[0] == "^":
            self.toks.next()
            neg = False
            tok = self.toks.next()
            if tok[0] == "-":
                neg = True
                tok = self.toks.next()
            if tok[0] != "int":
                self.fail("exponent must be an integer", tok[2])
            e = e ** (-tok[1] if neg else tok[1])
        return e

    def atom(self):
        tok = self.toks.next()
        if tok[0] == "int":
            return Expression.const(tok[1])
        if tok[0] == "(":
            e = self.expr()
            self.expect(")")
            return e
        if tok[0] == "ident":
            return Expression.var(self.variable(tok))
        if tok[0] == "end":
            self.fail("unexpected end of expression", tok[2])
        self.fail(f"expected a value, found {tok[1]!r}", tok[2])

    def variable(self, tok):
        name, start = tok[1], tok[2]
        is_momentum = name.startswith(MOMENTUM_PREFIX) and len(name) > len(MOMENTUM_PREFIX)
        base = name[len(MOMENTUM_PREFIX):] if is_momentum else name
        indices = ()
        if self.toks.peek()[0] == "[":
            self.toks.next()
            idx = []
            while True:
                t = self.toks.next()
                neg = False
                if t[0] == "-":
                    neg = True
                    t = self.toks.next()
                if t[0] != "int":
                    self.fail("indices must be integers", t[2])
                idx.append(-t[1] if neg else t[1])
                t = self.toks.next()
                if t[0] == "]":
                    break
                if t[0] != ",":
                    self.fail("expected ',' or ']' in index list", t[2])
            indices = tuple(idx)
        jet_order = 0
        if self.toks.peek()[0] == "primes":
            jet_order = self.toks.next()[1]
        return self.resolver(base, indices, jet_order, is_momentum,
                             self.toks.location(start))


def parse_expression(text, resolver=None, line_offset=0):
    """Parse infix text into a canonical Expression.

    ``resolver`` maps variable mentions to VarRefs and may reject
    undeclared symbols; the default accepts everything.
    """
    parser = _Parser(_Tokens(text, line_offset), resolver or default_resolver)
    return parser.parse()


# --- rendering ----------------------------------------------------------------

def _render_monomial(mono, coeff):
    mag = abs(coeff)
    factors = [v._text + (f"^{e}" if e > 1 else "") for v, e in mono]
    if not factors:
        return str(mag)
    if mag == 1:
        return "*".join(factors)
    return str(mag) + "*" + "*".join(factors)


def _render_poly(p):
    if not p:
        return "0"
    chunks = []
    for i, mono in enumerate(sorted(p, key=_mono_sort_key)):
        coeff = p[mono]
        body = _render_monomial(mono, coeff)
        if i == 0:
            chunks.append("-" + body if coeff < 0 else body)
        else:
            chunks.append((" - " if coeff < 0 else " + ") + body)
    return "".join(chunks)


def render_expression(e):
    """Deterministic canonical text; inverse of :func:`parse_expression`."""
    num = _render_poly(e._num)
    if e.is_polynomial():
        return num
    return f"({num})/({_render_poly(e._den)})"
