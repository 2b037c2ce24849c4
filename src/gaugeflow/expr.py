"""Exact symbolic expression kernel.

Expressions are rational functions with exact rational coefficients
over :class:`VarRef` variables, stored as a canonical pair of
multivariate polynomials (numerator, denominator).  A coefficient is an
``int`` or a ``Fraction``, never a float, and "integral means int" is an
invariant: every place that computes a coefficient (a sum, a product, a
scaling, a partial derivative) lowers an integral ``Fraction`` to its
``int`` numerator, so integer models run on Python's ints alone and
``validate`` rejects a ``Fraction`` whose denominator is 1.  Since
``1 == Fraction(1)`` and ``hash(1) == hash(Fraction(1))``, the invariant
changes no comparison, hash or rendering.  ``int / int`` is a float in
Python, so no code divides two raw coefficients with ``/``: an exact
quotient is built as ``Fraction(a, b)``.  Canonical form means:
no zero coefficients, numerator and denominator share no polynomial
factor, the denominator is an integer-primitive polynomial with positive
leading coefficient, and the denominator mentions only order-0
coordinate variables.  Two expressions describing the same rational
function are equal (and hash equal) after construction; no tolerance is
involved anywhere.

Monomials are compared under a graded lexicographic order built on the
total order of :class:`VarRef`.  VarRefs are interned, so they compare
and hash by identity, and a monomial tuple hashes without calling back
into Python.

Every polynomial expression shares one denominator dict, ``_ONE_DEN``;
no code changes an expression's parts in place, so sharing is safe.  The
sharing is an invariant: an expression is a polynomial exactly when
``_den is _ONE_DEN``.  The constructor defaults to it, ``_make`` gives
every constant denominator up for it, only ``_make`` and ``__neg__``
pass a denominator to the constructor, and ``validate`` checks it.  The
fast paths read it: ``_make`` returns at once on it, and ``+``, ``-``,
``*`` and ``**`` on polynomials, ``dt`` and ``subs`` of a polynomial,
``esum`` and the Poisson bracket build a polynomial result from raw
dicts, with no gcd and no denominator.  An expression's first partials
are computed together, in one pass over its numerator and one over its
denominator, the first time any is asked for (``gradient``), and kept on
the expression: ``diff``, ``dt`` and every Jacobian and Poisson bracket
of it then read the same dict.  The set of variables it mentions is kept
the same way (``variables``), and ``mentions`` is a lookup in it.
Neither memo takes part in ``==`` or hashing.
"""

from __future__ import annotations

import enum
import weakref
from fractions import Fraction
from math import gcd as _int_gcd

from .errors import (
    DenominatorViolation,
    DivisionByZero,
    JetOrderExceeded,
    MomentumInTimeDerivative,
)

DEFAULT_JET_CAP = 3


class Kind(enum.IntEnum):
    """Role of a variable in the model's phase-space bookkeeping."""

    COORDINATE = 0
    JET = 1
    MOMENTUM = 2
    MULTIPLIER = 3


class VarRef:
    """An atomic variable: a named, optionally indexed symbol with a role.

    ``jet_order`` counts total time derivatives (0 for the coordinate
    itself, 1 for its velocity, ...) and is only meaningful for
    coordinates and jets.  Momenta and multipliers always carry
    ``jet_order`` 0.  VarRefs are immutable, interned per process, and
    totally ordered by ``(base, indices, kind, jet_order)``.  The intern
    pool holds its VarRefs weakly: a variable nothing refers to any more
    is released, and a later request for it makes a fresh one.  Its text
    (``str``) is rendered once, when it is interned.

    Equality and hashing are by identity (``object``'s own).  That is
    sound because of the pool: while a VarRef is alive the pool hands it
    out for its key, so two live VarRefs with one key cannot exist, and
    a released one can no longer be compared with its successor.
    """

    __slots__ = ("base", "indices", "kind", "jet_order", "_key", "_text", "__weakref__")

    _pool = weakref.WeakValueDictionary()

    def __new__(cls, base, indices=(), kind=Kind.COORDINATE, jet_order=0):
        indices = tuple(int(i) for i in indices)
        kind = Kind(kind)
        key = (base, indices, int(kind), jet_order)
        cached = cls._pool.get(key)
        if cached is not None:
            return cached
        if not base or not isinstance(base, str):
            raise ValueError(f"variable base must be a nonempty string, got {base!r}")
        if jet_order < 0:
            raise ValueError("jet_order must be nonnegative")
        if kind in (Kind.MOMENTUM, Kind.MULTIPLIER) and jet_order != 0:
            raise ValueError(f"{kind.name.lower()} variables carry no jet order")
        if kind is Kind.COORDINATE and jet_order != 0:
            raise ValueError("a coordinate has jet_order 0; use kind=JET for derivatives")
        if kind is Kind.JET and jet_order == 0:
            raise ValueError("a jet has jet_order >= 1")
        self = object.__new__(cls)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "jet_order", jet_order)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_text", render_varref(self))
        cls._pool[key] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("VarRef is immutable")

    def __lt__(self, other):
        return self._key < other._key

    def __le__(self, other):
        return self._key <= other._key

    def __gt__(self, other):
        return self._key > other._key

    def __ge__(self, other):
        return self._key >= other._key

    def __repr__(self):
        return f"VarRef({self.base!r}, {self.indices!r}, {self.kind.name}, jet={self.jet_order})"

    def __str__(self):
        return self._text

    # -- derived variables --------------------------------------------------
    #
    # A sibling shares ``base`` and ``indices``, which are already
    # normalized, so its pool key is built directly and ``VarRef(...)``
    # runs only when the sibling is not interned yet.

    def _sibling(self, kind, jet_order):
        v = VarRef._pool.get((self.base, self.indices, kind, jet_order))
        return v if v is not None else VarRef(self.base, self.indices, kind, jet_order)

    def jet(self, order):
        """The variable's ``order``-th total time derivative."""
        if self.kind not in (Kind.COORDINATE, Kind.JET):
            raise MomentumInTimeDerivative(f"{self} has no time derivatives")
        total = self.jet_order + order
        if total == 0:
            return self._sibling(Kind.COORDINATE, 0)
        return self._sibling(Kind.JET, total)

    def momentum(self):
        """The momentum conjugate to this coordinate."""
        if self.kind is not Kind.COORDINATE:
            raise ValueError(f"momenta are conjugate to coordinates, not {self.kind.name}")
        return self._sibling(Kind.MOMENTUM, 0)

    def coordinate(self):
        """The underlying order-0 coordinate of a jet or momentum."""
        if self.kind is Kind.MULTIPLIER:
            raise ValueError("multipliers have no underlying coordinate")
        return self._sibling(Kind.COORDINATE, 0)


def coordinate(base, indices=()):
    return VarRef(base, indices, Kind.COORDINATE, 0)


def multiplier(index):
    """The fresh multiplier attached to the ``index``-th primary constraint."""
    return VarRef("lam", (index,), Kind.MULTIPLIER, 0)


def render_varref(v):
    core = v.base
    if v.indices:
        core += "[" + ",".join(str(i) for i in v.indices) + "]"
    if v.kind is Kind.MOMENTUM:
        return "p_" + core
    if v.kind is Kind.MULTIPLIER:
        return core
    return core + "'" * v.jet_order


# --- monomials ---------------------------------------------------------------
#
# A monomial is a tuple of (VarRef, exponent) pairs, exponents >= 1,
# sorted ascending by variable.  The empty tuple is the constant monomial.

_ONE_MONO = ()


def _mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va is vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_divides(a, b):
    """True if monomial ``a`` divides monomial ``b``."""
    pos = {v: e for v, e in b}
    return all(pos.get(v, 0) >= e for v, e in a)


def _mono_div(b, a):
    """b / a, assuming a divides b."""
    rem = {v: e for v, e in b}
    for v, e in a:
        rem[v] -= e
        if rem[v] == 0:
            del rem[v]
    return tuple(sorted(rem.items()))


def _mono_sort_key(m):
    """Sort key of the graded lexicographic order, largest monomial
    first.  Higher degree sorts first; at equal degree the first
    position where two monomials differ decides, a smaller variable or,
    on one variable, a higher exponent being larger.  Neither of two
    monomials of equal degree is a proper prefix of the other, so the
    pairs never run out before they differ."""
    degree = 0
    pairs = []
    for v, e in m:
        degree += e
        pairs.append((v._key, -e))
    return (-degree, *pairs)


# --- polynomials -------------------------------------------------------------
#
# A polynomial is a dict {monomial: coefficient}, no zero values; a
# coefficient is an int, or a Fraction that is not integral (see the
# module docstring).  These helpers are internal; Expression is the
# public face.

def _lower(c):
    """``c`` with an integral Fraction lowered to its int numerator.
    Hot loops call it only on a result that is not already an int."""
    return c.numerator if c.denominator == 1 else c

def _p_zero():
    return {}

def _p_const(c):
    if type(c) is not int:
        c = _lower(Fraction(c))
    return {} if c == 0 else {_ONE_MONO: c}

def _p_var(v):
    return {((v, 1),): 1}

def _p_add_into(acc, p):
    for m, c in p.items():
        cur = acc.get(m)
        if cur is None:
            if c:
                acc[m] = c
        else:
            cur = cur + c
            if cur:
                acc[m] = cur if type(cur) is int else _lower(cur)
            else:
                del acc[m]

def _p_sub_into(acc, p):
    for m, c in p.items():
        cur = acc.get(m)
        if cur is None:
            acc[m] = -c
        else:
            cur = cur - c
            if cur:
                acc[m] = cur if type(cur) is int else _lower(cur)
            else:
                del acc[m]

def _p_add(a, b):
    acc = dict(a)
    _p_add_into(acc, b)
    return acc

def _p_sub(a, b):
    acc = dict(a)
    _p_sub_into(acc, b)
    return acc

def _p_neg(p):
    return {m: -c for m, c in p.items()}

def _p_mul(a, b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    acc = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = _mono_mul(ma, mb)
            c = ca * cb
            cur = acc.get(m)
            if cur is None:
                acc[m] = c if type(c) is int else _lower(c)
            else:
                cur = cur + c
                if cur:
                    acc[m] = cur if type(cur) is int else _lower(cur)
                else:
                    del acc[m]
    return acc

def _p_scale(p, c):
    """``c * p`` for an exact constant ``c``; ``p`` itself when c is 1."""
    if c == 1:
        return p
    if c == 0:
        return {}
    c = _lower(c)
    out = {}
    for m, v in p.items():
        v = v * c
        out[m] = v if type(v) is int else _lower(v)
    return out

def _p_pow(p, n):
    out = None
    base = p
    while n:
        if n & 1:
            out = base if out is None else _p_mul(out, base)
        n >>= 1
        if n:
            base = _p_mul(base, base)
    return _p_const(1) if out is None else out

def _p_vars(p):
    seen = set()
    for m in p:
        for v, _ in m:
            seen.add(v)
    return seen

def _p_gradient(p):
    """Every nonzero first partial of ``p`` in one pass, as
    ``{VarRef: polynomial}``.  Lowering the exponent of one variable
    maps distinct monomials to distinct monomials, so no terms of a
    partial cancel or collide."""
    grad = {}
    for m, c in p.items():
        for k, (var, e) in enumerate(m):
            nm = m[:k] + ((var, e - 1),) + m[k + 1:] if e > 1 else m[:k] + m[k + 1:]
            d = c * e if type(c) is int or e == 1 else _lower(c * e)
            partial = grad.get(var)
            if partial is None:
                grad[var] = {nm: d}
            else:
                partial[nm] = d
    return grad

def _p_leading(p):
    return min(p, key=_mono_sort_key)

def _p_eval(p, point):
    """Value of ``p`` at ``point`` (VarRef -> int, Fraction or float).

    Each term is an integer numerator over an integer denominator; the
    sum is kept over the lcm of the term denominators and becomes one
    Fraction at the end.  A float in any evaluated monomial makes the
    result that Fraction rounded to a float.
    """
    num = 0
    den = 1
    inexact = False
    for m, c in p.items():
        tn = c.numerator
        td = c.denominator
        for v, e in m:
            x = point[v]
            if isinstance(x, float):
                inexact = True
                xn, xd = x.as_integer_ratio()
            else:
                xn, xd = x.numerator, x.denominator
            if e == 1:
                tn *= xn
                td *= xd
            else:
                tn *= xn ** e
                td *= xd ** e
        if den % td == 0:
            num += tn * (den // td)
        else:
            g = _int_gcd(den, td)
            num = num * (td // g) + tn * (den // g)
            den = den // g * td
    value = Fraction(num, den)
    return float(value) if inexact else value


# --- polynomial gcd over the integers ---------------------------------------
#
# Used only to keep fractions reduced.  Polynomials are first scaled to
# integer-primitive form, then a primitive Euclidean remainder sequence
# runs recursively in the largest variable.

def _p_content(p):
    """Positive rational c with p/c integer-primitive; 0 for the zero poly."""
    if not p:
        return Fraction(0)
    num = 0
    den = 1
    for c in p.values():
        num = _int_gcd(num, abs(c.numerator))
        den = den * c.denominator // _int_gcd(den, c.denominator)
    return Fraction(num, den)

def _p_lc_sign(p):
    return 1 if p[_p_leading(p)] > 0 else -1

def _p_main_var(p):
    best = None
    for m in p:
        for v, _ in m:
            if best is None or v > best:
                best = v
    return best

def _p_to_univariate(p, x):
    """Split p into {deg_in_x: coefficient_poly_without_x}."""
    out = {}
    for m, c in p.items():
        d = 0
        rest = []
        for v, e in m:
            if v is x:
                d = e
            else:
                rest.append((v, e))
        _p_add_into(out.setdefault(d, {}), {tuple(rest): c})
    return {d: cp for d, cp in out.items() if cp}

def _p_from_univariate(coeffs, x):
    acc = {}
    for d, cp in coeffs.items():
        xm = ((x, d),) if d else _ONE_MONO
        for m, c in cp.items():
            _p_add_into(acc, {_mono_mul(m, xm): c})
    return acc

def _p_pseudo_rem(a, b, x):
    """Pseudo remainder of a by b, both univariate in x over polynomial coeffs."""
    ua = _p_to_univariate(a, x)
    ub = _p_to_univariate(b, x)
    db = max(ub)
    lb = ub[db]
    da = max(ua) if ua else -1
    while ua and max(ua) >= db:
        da = max(ua)
        la = ua[da]
        # ua = ua * lb - la * x^(da-db) * ub
        new = {}
        for d, cp in ua.items():
            new[d] = _p_mul(cp, lb)
        for d, cp in ub.items():
            t = _p_mul(cp, la)
            nd = d + da - db
            new[nd] = _p_add(new.get(nd, {}), _p_neg(t))
        ua = {d: cp for d, cp in new.items() if cp}
    return _p_from_univariate(ua, x)

def _p_int_quotient(p, c):
    """``p / c`` with int coefficients, for a signed content ``c`` of ``p``:
    its numerator divides every coefficient's numerator and its
    denominator is a multiple of every coefficient's denominator."""
    n, d = c.numerator, c.denominator
    return {m: v.numerator // n * (d // v.denominator) for m, v in p.items()}

def _p_primitive(p):
    """Integer-primitive part with positive leading coefficient."""
    if not p:
        return p
    return _p_int_quotient(p, _p_content(p) * _p_lc_sign(p))

def _p_gcd(a, b):
    """GCD of two polynomials, integer-primitive with positive lead."""
    if not a:
        return _p_primitive(b) if b else {}
    if not b:
        return _p_primitive(a)
    a = _p_primitive(a)
    b = _p_primitive(b)
    if a == b:
        return a
    if set(a) == {_ONE_MONO} or set(b) == {_ONE_MONO}:
        return _p_const(1)
    x = max(_p_main_var(a), _p_main_var(b))
    ua = _p_to_univariate(a, x)
    ub = _p_to_univariate(b, x)
    conta = _p_gcd_many(list(ua.values()))
    contb = _p_gcd_many(list(ub.values()))
    c = _p_gcd(conta, contb)
    high = _p_div_exact(a, conta)
    low = _p_div_exact(b, contb)
    if max(ua) < max(ub):
        high, low = low, high
    # primitive remainder sequence in x; degree of `low` strictly drops
    while True:
        r = _p_pseudo_rem(high, low, x)
        if not r:
            break
        ur = _p_to_univariate(r, x)
        if max(ur) == 0:
            low = _p_const(1)
            break
        high = low
        low = _p_primitive(_p_div_exact(r, _p_gcd_many(list(ur.values()))))
    return _p_primitive(_p_mul(c, low))

def _p_gcd_many(ps):
    g = {}
    for p in ps:
        g = _p_gcd(g, p)
        if g == _p_const(1):
            break
    return g if g else _p_const(1)

def _p_div_exact(a, b):
    """Exact polynomial division a / b; raises if b does not divide a."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if not a:
        return {}
    if set(b) == {_ONE_MONO}:
        return _p_scale(a, Fraction(1, b[_ONE_MONO]))
    x = _p_main_var(b)
    ua = _p_to_univariate(a, x)
    ub = _p_to_univariate(b, x)
    db = max(ub)
    lb = ub[db]
    q = {}
    while ua:
        da = max(ua)
        if da < db:
            raise ArithmeticError("inexact polynomial division")
        qc = _p_div_exact(ua[da], lb)
        q[da - db] = qc
        for d, cp in ub.items():
            t = _p_neg(_p_mul(cp, qc))
            nd = d + da - db
            ua[nd] = _p_add(ua.get(nd, {}), t)
            if not ua[nd]:
                del ua[nd]
    return _p_from_univariate(q, x)


# --- expressions -------------------------------------------------------------

def _den_ok(p):
    return all(v.kind is Kind.COORDINATE for v in _p_vars(p))


class Expression:
    """Canonical rational function over :class:`VarRef` variables.

    Immutable; supports ``+ - * / **`` with other expressions and with
    ints or fractions.  Construction always reduces to canonical form, so
    ``==`` decides exact algebraic equality.
    """

    __slots__ = ("_num", "_den", "_hash", "_grad", "_vars")

    def __init__(self, num, den=None):
        # internal: dict polynomials, already canonical
        _set_num(self, num)
        _set_den(self, den if den is not None else _ONE_DEN)
        _set_hash(self, None)
        _set_grad(self, None)
        _set_vars(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Expression is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def _make(num, den):
        """Reduce a raw numerator/denominator pair to canonical form."""
        if den is _ONE_DEN:
            return Expression(num) if num else ZERO
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            return ZERO
        if set(den) == {_ONE_MONO}:
            c = den[_ONE_MONO]
            if c != 1:
                num = _p_scale(num, Fraction(1, c))
            return Expression(num)
        # signed contents; num/cn and den/cd are integer-primitive with
        # positive leading coefficient
        cn = _p_content(num) * _p_lc_sign(num)
        cd = _p_content(den) * _p_lc_sign(den)
        n = _p_int_quotient(num, cn)
        d = _p_int_quotient(den, cd)
        g = _p_gcd(n, d)
        if set(g) != {_ONE_MONO}:
            n = _p_div_exact(n, g)
            d = _p_div_exact(d, g)
        n = _p_scale(n, cn / cd)
        if set(d) == {_ONE_MONO}:
            return Expression(n)
        if not _den_ok(d):
            bad = sorted(v for v in _p_vars(d) if v.kind is not Kind.COORDINATE)
            raise DenominatorViolation(
                "denominator may mention only order-0 coordinates, found "
                + ", ".join(map(str, bad)))
        return Expression(n, d)

    @staticmethod
    def const(value):
        return Expression(_p_const(value))

    @staticmethod
    def var(v):
        return Expression(_p_var(v))

    # -- structure ------------------------------------------------------------

    def is_zero(self):
        return not self._num

    def is_constant(self):
        return self._den is _ONE_DEN and (not self._num or set(self._num) == {_ONE_MONO})

    def constant_value(self):
        """The constant, an int or a Fraction."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        value = self._num.get(_ONE_MONO, 0)
        den = self._den[_ONE_MONO]
        return value if den == 1 else Fraction(value, den)

    def variables(self):
        """All variables mentioned, as a frozenset; computed on the first
        call and kept."""
        vs = self._vars
        if vs is None:
            vs = frozenset(_p_vars(self._num) | _p_vars(self._den))
            _set_vars(self, vs)
        return vs

    def mentions(self, v):
        return v in self.variables()

    def mentions_kind(self, *kinds):
        return any(v.kind in kinds for v in self.variables())

    def is_polynomial(self):
        return self._den is _ONE_DEN

    def degree_in_kind(self, *kinds):
        """Largest total degree of the given kinds in any numerator monomial."""
        best = 0
        for m in self._num:
            d = sum(e for v, e in m if v.kind in kinds)
            best = max(best, d)
        return best

    def leading_coefficient(self):
        if not self._num:
            return 0
        return self._num[_p_leading(self._num)]

    def normalized(self):
        """Scale so the leading numerator coefficient is +1."""
        if not self._num:
            return self
        lc = self.leading_coefficient()
        return self if lc == 1 else self / lc

    def validate(self):
        """Check canonical-form invariants; raises AssertionError on breakage."""
        for c in (*self._num.values(), *self._den.values()):
            assert type(c) in (int, Fraction), f"coefficient {c!r} is not an int or a Fraction"
            assert type(c) is int or c.denominator != 1, f"integral {c!r} is not stored as an int"
        assert all(c != 0 for c in self._num.values()), "zero coefficient survived"
        assert self._den, "empty denominator"
        assert all(c != 0 for c in self._den.values())
        if not self._num:
            assert set(self._den) == {_ONE_MONO} and self._den[_ONE_MONO] == 1
        if set(self._den) != {_ONE_MONO}:
            assert _den_ok(self._den)
            assert _p_content(self._den) == 1 and _p_lc_sign(self._den) > 0
            g = _p_gcd(self._num, self._den)
            assert set(g) == {_ONE_MONO}, "reducible fraction survived"
        else:
            assert self._den[_ONE_MONO] == 1
            assert self._den is _ONE_DEN, "constant denominator is not the shared _ONE_DEN"
        return True

    # -- arithmetic -------------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Expression):
            return other
        if isinstance(other, (int, Fraction)):
            return Expression.const(other)
        return NotImplemented

    def __add__(self, other):
        other = Expression._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self._den is _ONE_DEN and other._den is _ONE_DEN:
            acc = _p_add(self._num, other._num)
            return Expression(acc) if acc else ZERO
        if self._den == other._den:
            return Expression._make(_p_add(self._num, other._num), self._den)
        num = _p_add(_p_mul(self._num, other._den), _p_mul(other._num, self._den))
        return Expression._make(num, _p_mul(self._den, other._den))

    __radd__ = __add__

    def __neg__(self):
        return Expression(_p_neg(self._num), self._den)

    def __sub__(self, other):
        other = Expression._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._den is _ONE_DEN and other._den is _ONE_DEN:
            acc = _p_sub(self._num, other._num)
            return Expression(acc) if acc else ZERO
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Expression._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ZERO
        if self._den is _ONE_DEN and other._den is _ONE_DEN:
            return Expression(_p_mul(self._num, other._num))
        return Expression._make(_p_mul(self._num, other._num), _p_mul(self._den, other._den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Expression._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by the zero expression")
        return Expression._make(_p_mul(self._num, other._den), _p_mul(self._den, other._num))

    def __rtruediv__(self, other):
        other = Expression._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return Expression.const(1) / self ** (-n)
        if n == 0:
            return ONE
        if self._den is _ONE_DEN:
            return Expression(_p_pow(self._num, n))
        return Expression._make(_p_pow(self._num, n), _p_pow(self._den, n))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Expression.const(other)
        if not isinstance(other, Expression):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((frozenset(self._num.items()), frozenset(self._den.items())))
            _set_hash(self, h)
        return h

    # -- calculus ----------------------------------------------------------------

    def gradient(self):
        """Every nonzero first partial, as ``{VarRef: Expression}``.

        Computed on the first call and kept; callers must not change the
        dict.  Its keys are exactly the variables the expression mentions.
        """
        grad = self._grad
        if grad is not None:
            return grad
        dnum = _p_gradient(self._num)
        if self._den is _ONE_DEN:
            grad = {v: Expression(dn) for v, dn in dnum.items()}
        else:
            # quotient rule: (dn*den - num*dd) / den^2
            dden = _p_gradient(self._den)
            den2 = _p_mul(self._den, self._den)
            grad = {}
            for v in sorted(dnum.keys() | dden.keys()):
                num = _p_add(_p_mul(dnum.get(v, {}), self._den),
                             _p_neg(_p_mul(self._num, dden.get(v, {}))))
                d = Expression._make(num, den2)
                if not d.is_zero():
                    grad[v] = d
        _set_grad(self, grad)
        return grad

    def diff(self, v):
        """Formal partial derivative with respect to one variable."""
        return self.gradient().get(v, ZERO)

    def dt(self, max_order=DEFAULT_JET_CAP):
        """Total time derivative: every jet of order k becomes order k+1
        under the chain rule.  Momenta and multipliers are rejected."""
        grad = self.gradient()
        for v in grad:
            if v.kind in (Kind.MOMENTUM, Kind.MULTIPLIER):
                raise MomentumInTimeDerivative(
                    f"cannot take a time derivative through {v}")
            if v.jet_order + 1 > max_order:
                raise JetOrderExceeded(
                    f"time derivative of {v} exceeds the jet order cap {max_order}")
        if self._den is not _ONE_DEN:
            return esum([d * Expression.var(v.jet(1)) for v, d in grad.items()])
        # each partial times one jet variable: a monomial shift per term
        acc = {}
        for v, d in grad.items():
            _p_add_into(acc, {_mono_mul(m, ((v.jet(1), 1),)): c for m, c in d._num.items()})
        return Expression(acc) if acc else ZERO

    def subs(self, assignment):
        """Simultaneous substitution ``{VarRef: Expression}``, then
        canonicalization.  Variables not mentioned are left alone."""
        live = {v: Expression._coerce(assignment[v]) for v in self.variables()
                if v in assignment}
        if not live:
            return self
        num = _subs_poly(self._num, live)
        if self._den is _ONE_DEN:
            return num
        den = _subs_poly(self._den, live)
        if den.is_zero():
            raise DivisionByZero("substitution made the denominator vanish identically")
        return num / den

    def evaluate(self, point):
        """Exact value of the expression at a full numeric assignment.

        ``point`` maps every mentioned VarRef to a Fraction, int or
        float.  Exact inputs give an exact Fraction back.
        """
        for v in self.variables():
            if v not in point:
                raise ValueError(f"evaluation point does not assign {v}")
        value = _p_eval(self._num, point)
        if self._den is _ONE_DEN:
            return value
        den = _p_eval(self._den, point)
        if den == 0:
            raise DivisionByZero("denominator vanishes at the sampled point")
        return value / den

    # -- rendering ----------------------------------------------------------------

    def __str__(self):
        from .parse import render_expression
        return render_expression(self)

    def __repr__(self):
        return f"<expr {self}>"


# the slot setters, bound once: ``Expression.__setattr__`` refuses writes
_set_num = Expression._num.__set__
_set_den = Expression._den.__set__
_set_hash = Expression._hash.__set__
_set_grad = Expression._grad.__set__
_set_vars = Expression._vars.__set__


def _subs_poly(p, live):
    """The polynomial ``p`` with ``live`` substituted, as an Expression.

    Polynomial substitutes are multiplied as raw polynomials into one
    accumulator, canonicalized once at the end; only a monomial with a
    substitute that has a denominator goes through Expression arithmetic.
    Each power ``(variable, exponent)`` is computed once per call, and a
    monomial no substitute touches is added as it is.
    """
    acc = {}
    fractional = None
    powers = {}
    for m, c in p.items():
        poly = None
        rational = None
        plain = []
        for v, e in m:
            sub = live.get(v)
            if sub is None:
                plain.append((v, e))
                continue
            power = powers.get((v, e))
            if power is None:
                power = _p_pow(sub._num, e) if sub._den is _ONE_DEN else sub ** e
                powers[v, e] = power
            if sub._den is _ONE_DEN:
                poly = power if poly is None else _p_mul(poly, power)
            else:
                rational = power if rational is None else rational * power
        if poly is None and rational is None:
            _p_add_into(acc, {m: c})
            continue
        term = {tuple(plain): c}
        if poly is not None:
            term = _p_mul(poly, term)
        if rational is not None:
            rational = rational * Expression._make(term, _ONE_DEN)
            if not rational.is_polynomial():
                fractional = rational if fractional is None else fractional + rational
                continue
            term = rational._num
        _p_add_into(acc, term)
    out = Expression(acc) if acc else ZERO
    return out + fractional if fractional is not None else out


def esum(terms):
    """Sum of many expressions, batching the polynomial parts."""
    acc = {}
    fractional = None
    for t in terms:
        t = Expression._coerce(t)
        if t._den is _ONE_DEN:
            _p_add_into(acc, t._num)
        else:
            fractional = t if fractional is None else fractional + t
    out = Expression(acc) if acc else ZERO
    return out + fractional if fractional is not None else out


_ONE_DEN = {_ONE_MONO: 1}  # shared by every polynomial; never mutated
ZERO = Expression(_p_zero())
ONE = Expression(_p_const(1))


def canonicalize(e):
    """Rebuild an expression from its raw parts; idempotent by design.

    Every arithmetic path already lands on canonical form, so this is
    the identity on well-formed expressions; it exists so invariants can
    be asserted against a from-scratch reconstruction.
    """
    return Expression._make(dict(e._num), dict(e._den))
