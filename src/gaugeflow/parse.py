"""Infix grammar for expressions and its parser.

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
neither.  ``expr.render_expression`` writes this grammar back, and
``parse_expression`` inverts it.  Parentheses nest at most
``MAX_NESTING`` levels deep; a deeper text is a syntax error at the
first opening parenthesis past the bound.

A text is lexed in one pass of one pattern, a token at a time as the
parser asks: a character no rule accepts matches too, and is raised as
``unexpected character`` when reached.  Positions are worked out only
for error messages.
"""

from __future__ import annotations

import re

from .errors import ExpressionSyntaxError
from .expr import MOMENTUM_PREFIX, MULTIPLIER_BASE, Expression, Kind, VarRef, esum

# one token per match, after its leading space: an int, an identifier,
# primes, a symbol (its own kind), or any other character, an error
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|('+)|([()\[\],+\-*/^])|(\S))")
_KINDS = (None, "int", "ident", "primes", None)

# the deepest nesting of parentheses a text may have: each level takes
# five frames of the parser's recursion, so a deeper text would reach the
# interpreter's recursion limit (1000 frames by default)
MAX_NESTING = 100


def reserved_base_reason(base):
    """Why a coordinate may not use this base name, or None if it may."""
    if base == MULTIPLIER_BASE:
        return f"'{MULTIPLIER_BASE}' is reserved for constraint multipliers"
    if base.startswith(MOMENTUM_PREFIX):
        return f"names starting with '{MOMENTUM_PREFIX}' are reserved for momenta"
    if base.endswith("dot"):
        return "names ending in 'dot' collide with the velocity suffix"
    return None


def default_resolver(base, indices, jet_order, is_momentum, where):
    """Turn a parsed variable mention into a VarRef, with no declarations.

    ``where()`` gives the mention's 1-based (line, column); a resolver
    calls it only to report an error.
    """
    if is_momentum:
        if jet_order:
            raise ExpressionSyntaxError("momenta carry no primes", *where())
        return VarRef(base, indices, Kind.MOMENTUM, 0)
    if base == MULTIPLIER_BASE:
        if jet_order:
            raise ExpressionSyntaxError("multipliers carry no primes", *where())
        return VarRef(base, indices, Kind.MULTIPLIER, 0)
    if jet_order:
        return VarRef(base, indices, Kind.JET, jet_order)
    return VarRef(base, indices, Kind.COORDINATE, 0)


class _Tokens:
    """The (kind, value, offset) tokens of one text, lexed as the parser
    asks for them, then ``end`` for ever."""

    def __init__(self, text, line_offset=0):
        self.text = text
        self.line_offset = line_offset
        self.matches = _TOKEN.finditer(text)
        self.peeked = None

    def location(self, at):
        """1-based (line, column) of offset ``at``."""
        line = self.text.count("\n", 0, at) + 1 + self.line_offset
        return line, at - self.text.rfind("\n", 0, at)

    def fail(self, message, at):
        raise ExpressionSyntaxError(message, *self.location(at))

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
        m = next(self.matches, None)
        if m is None:
            return ("end", None, len(self.text))
        group = m.lastindex
        value = m[group]
        if group == 1:
            try:
                value = int(value)
            except ValueError:  # past the interpreter's limit on digits
                self.fail(f"integer literal of {len(value)} digits is too long", m.start(group))
        elif group == 3:
            value = len(value)
        elif group == 5:
            self.fail(f"unexpected character {value!r}", m.start(group))
        return (_KINDS[group] or value, value, m.start(group))


class _Parser:
    def __init__(self, tokens, resolver):
        self.toks = tokens
        self.resolver = resolver
        self.depth = 0  # parentheses open around the current token

    def signed_int(self, message):
        """An INT or '-' INT; anything else fails with ``message``."""
        tok = self.toks.next()
        neg = tok[0] == "-"
        if neg:
            tok = self.toks.next()
        if tok[0] != "int":
            self.toks.fail(message, tok[2])
        return -tok[1] if neg else tok[1]

    def parse(self):
        e = self.expr()
        tok = self.toks.next()
        if tok[0] != "end":
            self.toks.fail(f"trailing input starting at {tok[1]!r}", tok[2])
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
        while self.toks.peek()[0] in ("*", "/"):
            if self.toks.next()[0] == "*":
                e = e * self.unary()
            else:
                e = e / self.unary()
        return e

    def unary(self):
        sign = 1
        while self.toks.peek()[0] in ("-", "+"):
            if self.toks.next()[0] == "-":
                sign = -sign
        e = self.power()
        return e if sign > 0 else -e

    def power(self):
        e = self.atom()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            e = e ** self.signed_int("exponent must be an integer")
        return e

    def atom(self):
        tok = self.toks.next()
        if tok[0] == "int":
            return Expression.const(tok[1])
        if tok[0] == "(":
            if self.depth == MAX_NESTING:
                self.toks.fail(f"parentheses nested deeper than {MAX_NESTING} levels", tok[2])
            self.depth += 1
            e = self.expr()
            self.depth -= 1
            tok = self.toks.next()
            if tok[0] != ")":
                self.toks.fail(f"expected ')', found {tok[1]!r}", tok[2])
            return e
        if tok[0] == "ident":
            return Expression.var(self.variable(tok))
        if tok[0] == "end":
            self.toks.fail("unexpected end of expression", tok[2])
        self.toks.fail(f"expected a value, found {tok[1]!r}", tok[2])

    def variable(self, tok):
        name, start = tok[1], tok[2]
        is_momentum = name.startswith(MOMENTUM_PREFIX) and len(name) > len(MOMENTUM_PREFIX)
        base = name[len(MOMENTUM_PREFIX):] if is_momentum else name
        indices = ()
        if self.toks.peek()[0] == "[":
            self.toks.next()
            idx = []
            while True:
                idx.append(self.signed_int("indices must be integers"))
                t = self.toks.next()
                if t[0] == "]":
                    break
                if t[0] != ",":
                    self.toks.fail("expected ',' or ']' in index list", t[2])
            indices = tuple(idx)
        jet_order = 0
        if self.toks.peek()[0] == "primes":
            jet_order = self.toks.next()[1]
        return self.resolver(base, indices, jet_order, is_momentum,
                             lambda: self.toks.location(start))


def parse_variable(text, resolver=None, line_offset=0):
    """The VarRef of text that is one mention of the ``var`` rule, resolved
    as a mention inside an expression is; None for any other text."""
    parser = _Parser(_Tokens(text, line_offset), resolver or default_resolver)
    tok = parser.toks.next()
    v = parser.variable(tok) if tok[0] == "ident" else None
    return v if v and parser.toks.next()[0] == "end" else None


def parse_expression(text, resolver=None, line_offset=0):
    """Parse infix text into a canonical Expression.

    ``resolver`` maps variable mentions to VarRefs and may reject
    undeclared symbols; the default accepts everything.
    """
    parser = _Parser(_Tokens(text, line_offset), resolver or default_resolver)
    return parser.parse()
