"""Exact symbolic expression kernel.

Expressions are rational functions with exact rational coefficients
over :class:`VarRef` variables, stored in a canonical form of three
parts: a numerator polynomial with ``int`` coefficients, one positive
``int`` that divides it (the coefficient denominator, ``_cden``), and a
denominator polynomial with ``int`` coefficients.  A numerator term
``c*m`` stands for the rational coefficient ``c/_cden``, so ``x/2 +
3*y/4`` is ``{x: 2, y: 3}`` over 4, and an integer polynomial has
``_cden == 1``.  This is the integer polynomial over one denominator of
computer algebra systems (FLINT's ``fmpq_poly``): the kernel adds,
multiplies, scales and differentiates ints only, and ``Fraction`` is
built only at the edge of the API (``Expression.const`` reads one;
``constant_value``, ``leading_coefficient`` and ``evaluate`` return
one).  No code divides two raw coefficients with ``/``, which would
make a float.

Canonical form means: no zero coefficients; ``_cden`` is coprime to the
content (the gcd) of the numerator's coefficients; numerator and
denominator share no polynomial factor; the denominator is an
integer-primitive polynomial with positive leading coefficient; and the
denominator mentions only order-0 coordinate variables.  Two
expressions describing the same rational function are equal (and hash
equal) after construction; no tolerance is involved anywhere.  The
factors of a denominator that mention a non-coordinate must divide the
numerator exactly and are divided out; otherwise the quotient is
refused (``DenominatorViolation``).  So every polynomial gcd the kernel
takes is over coordinates, never over momenta.

Monomials are compared under a graded lexicographic order built on the
total order of :class:`VarRef`.  VarRefs are interned, so they compare
and hash by identity, and a monomial tuple hashes without calling back
into Python.  A VarRef's one construction path is its constructor,
which probes the intern pool first.  The pool is a plain dict of weak
references, so a hit is a dict probe and a call, both in C; a released
VarRef's callback removes its own entry and no newer one.

Every polynomial expression shares one denominator dict, ``_ONE_DEN``;
no code changes an expression's parts in place, so sharing is safe.  The
sharing is an invariant: an expression is a polynomial exactly when
``_den is _ONE_DEN``.  The constructor defaults to it, ``_make`` gives
every constant denominator up for it, and ``validate`` checks it.  The
fast paths read it: ``_make`` returns at once on it, and ``+``, ``-``,
``*`` and ``**`` on polynomials, ``dt`` and ``subs`` of a polynomial,
``esum`` and ``esum_products`` build a polynomial result from raw
dicts, with no polynomial gcd, only the int gcd of ``_cden`` with the
content.  Other fast paths are chosen by the operands' shapes: a
product with a one-term factor (a constant one too) is one pass with
no collisions, a monomial times one variable power is a splice, a
quotient by a constant is a scale over the same denominator, and a
power of a dense univariate polynomial is Miller's recurrence, not
repeated squaring.  An expression's first partials are computed
together, in one pass over its numerator and one over its denominator,
the first time any is asked for (``gradient``), and kept on the
expression: ``diff`` and every Jacobian and Poisson bracket of it then
read the same dict.  ``dt`` of a polynomial does not read it: it makes
one pass over the monomials and splices each ``v'`` in right after
``v``; a rational function's takes the quotient rule through the
gradient.  The set of variables an expression mentions is kept the
same way (``variables``), and ``mentions`` is a lookup in it.  Neither
memo takes part in ``==`` or hashing.

Only this module reads the three parts; the other modules go through
``Expression``'s methods, ``esum``, ``esum_products``,
:class:`Divisors` (graded-lex division) and ``render_expression``, the
one text form of an expression, which prints the ints it reads.
"""

from __future__ import annotations

import enum
import heapq
import weakref
from fractions import Fraction
from math import gcd as _int_gcd

from .errors import DenominatorViolation, DivisionByZero, MomentumInTimeDerivative

MOMENTUM_PREFIX = "p_"
MULTIPLIER_BASE = "lam"


class Kind(enum.IntEnum):
    """Role of a variable in the model's phase-space bookkeeping."""

    COORDINATE = 0
    JET = 1
    MOMENTUM = 2
    MULTIPLIER = 3


def _weak_pool():
    """An empty intern pool, a plain dict of ``key -> weakref.KeyedRef``,
    and the callback every reference in it shares.  A dead reference's
    callback can run after its key was taken again (a garbage-collection
    pass clears every reference before it calls any callback), so it
    removes the entry only while the entry is that reference itself."""
    pool = {}

    def release(ref):
        if pool.get(ref.key) is ref:
            del pool[ref.key]

    return pool, release


class VarRef:
    """An atomic variable: a named, optionally indexed symbol with a role.

    ``jet_order`` counts total time derivatives (0 for the coordinate
    itself, 1 for its velocity, ...) and is only meaningful for
    coordinates and jets.  Momenta and multipliers always carry
    ``jet_order`` 0.  VarRefs are immutable, interned per process, and
    totally ordered by ``(base, indices, kind, jet_order)``.  The intern
    pool holds its VarRefs weakly: a variable nothing refers to any more
    is released, and a later request for it makes a fresh one.  Only the
    constructor looks the pool up: it probes with the caller's key, and
    on a miss normalizes it, probes again, validates and renders ``str``
    once.  The pool's callback only removes a released variable's entry.

    Equality and hashing are by identity (``object``'s own).  That is
    sound because of the pool: while a VarRef is alive the pool hands it
    out for its key, so two live VarRefs with one key cannot exist, and
    a released one can no longer be compared with its successor.
    """

    __slots__ = ("base", "indices", "kind", "jet_order", "_key", "_text", "__weakref__")

    _pool, _release = _weak_pool()

    def __new__(cls, base, indices=(), kind=Kind.COORDINATE, jet_order=0):
        indices = tuple(indices)
        ref = cls._pool.get((base, indices, kind, jet_order))
        if ref is not None and (cached := ref()) is not None:
            return cached
        indices = tuple(int(i) for i in indices)
        kind = Kind(kind)
        key = (base, indices, int(kind), jet_order)
        ref = cls._pool.get(key)
        if ref is not None and (cached := ref()) is not None:
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
        cls._pool[key] = weakref.KeyedRef(self, cls._release, key)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("VarRef is immutable")

    def __lt__(self, other):
        return self._key < other._key

    def __gt__(self, other):
        return self._key > other._key

    def __repr__(self):
        return f"VarRef({self.base!r}, {self.indices!r}, {self.kind.name}, jet={self.jet_order})"

    def __str__(self):
        return self._text

    # -- derived variables --------------------------------------------------

    def jet(self, order):
        """The variable's ``order``-th total time derivative."""
        if self.kind not in (Kind.COORDINATE, Kind.JET):
            raise MomentumInTimeDerivative(f"{self} has no time derivatives")
        total = self.jet_order + order
        if total == 0:
            return VarRef(self.base, self.indices, Kind.COORDINATE, 0)
        return VarRef(self.base, self.indices, Kind.JET, total)

    def momentum(self):
        """The momentum conjugate to this coordinate."""
        if self.kind is not Kind.COORDINATE:
            raise ValueError(f"momenta are conjugate to coordinates, not {self.kind.name}")
        return VarRef(self.base, self.indices, Kind.MOMENTUM, 0)

    def coordinate(self):
        """The underlying order-0 coordinate of a jet or momentum."""
        if self.kind is Kind.MULTIPLIER:
            raise ValueError("multipliers have no underlying coordinate")
        return VarRef(self.base, self.indices, Kind.COORDINATE, 0)


def coordinate(base, indices=()):
    return VarRef(base, indices, Kind.COORDINATE, 0)


def multiplier(index):
    """The fresh multiplier attached to the ``index``-th primary constraint."""
    return VarRef(MULTIPLIER_BASE, (index,), Kind.MULTIPLIER, 0)


def render_varref(v):
    core = v.base
    if v.indices:
        core += "[" + ",".join(str(i) for i in v.indices) + "]"
    if v.kind is Kind.MOMENTUM:
        return MOMENTUM_PREFIX + core
    if v.kind is Kind.MULTIPLIER:
        return core
    return core + "'" * v.jet_order


# --- monomials ---------------------------------------------------------------
#
# A monomial is a tuple of (VarRef, exponent) pairs, exponents >= 1,
# sorted ascending by variable.  The empty tuple is the constant monomial.

_ONE_MONO = ()


def _mono_times(m, v, e):
    """``m * v^e``: the one pair spliced in where ``v``'s key puts it."""
    key = v._key
    for i, (w, f) in enumerate(m):
        if w is v:
            return (*m[:i], (v, f + e), *m[i + 1:])
        if key < w._key:
            return (*m[:i], (v, e), *m[i:])
    return (*m, (v, e))


def _mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    if len(b) == 1:
        return _mono_times(a, *b[0])
    if len(a) == 1:
        return _mono_times(b, *a[0])
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va is vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va._key < vb._key:
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
# A polynomial is a dict {monomial: int coefficient} with no zero
# values.  A rational polynomial is such a dict together with one
# positive int denominator, passed beside it; ``_p_reduce`` brings the
# pair to lowest terms.  These helpers are internal; Expression is the
# public face.

_ONE_DEN = {_ONE_MONO: 1}  # shared by every polynomial; never mutated


def _p_int_quotient(p, c):
    """``p / c`` for a nonzero int ``c`` that divides every coefficient."""
    return {m: v // c for m, v in p.items()}

def _p_reduce(p, q):
    """``p / q`` in lowest terms: the pair with ``q`` coprime to the
    content.  ``gcd`` takes the coefficients in one C call."""
    if q != 1:
        g = _int_gcd(q, *p.values())
        if g != 1:
            return _p_int_quotient(p, g), q // g
    return p, q

def _p_const(c):
    """An exact constant as a (polynomial, denominator) pair."""
    if type(c) is int:
        q = 1
    else:
        c = Fraction(c)
        c, q = c.numerator, c.denominator
    return ({} if c == 0 else {_ONE_MONO: c}), q

def _p_var(v):
    return {((v, 1),): 1}

def _p_addmul_into(acc, p, k):
    """``acc += k * p`` in place, for a nonzero int ``k``."""
    for m, c in p.items():
        cur = acc.get(m)
        if cur is None:
            acc[m] = k * c
        else:
            cur += k * c
            if cur:
                acc[m] = cur
            else:
                del acc[m]

def _q_add_into(acc, qa, p, qp, sign=1):
    """``acc/qa + sign * p/qp`` into ``acc``, over ``lcm(qa, qp)``,
    which it returns; the sum is not reduced."""
    if qp == qa:
        _p_addmul_into(acc, p, sign)
        return qa
    q = qa // _int_gcd(qa, qp) * qp
    if q != qa:
        k = q // qa
        for m in acc:
            acc[m] *= k
    _p_addmul_into(acc, p, sign * (q // qp))
    return q

def _p_sub(a, b):
    acc = dict(a)
    _p_addmul_into(acc, b, -1)
    return acc

def _p_mul(a, b):
    """``a * b`` as a new dict.  A one-term factor maps the other's
    distinct monomials to distinct monomials, so its product is one pass
    with no collisions.  Its two commonest shapes, a constant and one
    variable power, skip the ``_mono_mul`` call per term: that call
    alone measurably slows the ``nonabelian`` benchmark workload."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        [(ma, ca)] = a.items()
        if not ma:
            return {m: c * ca for m, c in b.items()}
        if len(ma) == 1:
            [(v, e)] = ma
            return {_mono_times(m, v, e): c * ca for m, c in b.items()}
        return {_mono_mul(ma, m): c * ca for m, c in b.items()}
    acc = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = _mono_mul(ma, mb)
            cur = acc.get(m)
            if cur is None:
                acc[m] = ca * cb
            else:
                cur += ca * cb
                if cur:
                    acc[m] = cur
                else:
                    del acc[m]
    return acc

def _p_scale(p, k):
    """``k * p`` for a nonzero int ``k``; ``p`` itself when k is 1."""
    if k == 1:
        return p
    return {m: c * k for m, c in p.items()}

def _p_pow(p, n):
    """``p^n`` for ``n >= 1``: a one-term ``p`` by its exponents, a
    dense univariate one by Miller's recurrence (``_p_pow_univariate``),
    any other by repeated squaring.  The recurrence steps through every
    degree of the result, so it is taken only when the base fills at
    least half of its span of exponents; a sparse base such as
    ``x^1000000 + 1`` squares its few terms instead."""
    if len(p) == 1:
        [(m, c)] = p.items()
        return {tuple((v, e * n) for v, e in m): c ** n}
    variables = _p_vars(p)
    if len(variables) == 1:
        exponents = [m[0][1] if m else 0 for m in p]
        if max(exponents) - min(exponents) < 2 * len(p):
            return _p_pow_univariate(p, n, *variables)
    out = None
    base = p
    while n:
        if n & 1:
            out = base if out is None else _p_mul(out, base)
        n >>= 1
        if n:
            base = _p_mul(base, base)
    return out

def _p_pow_univariate(p, n, x):
    """``p^n`` for a ``p`` in the one variable ``x``, by J. C. P. Miller's
    recurrence (Knuth, TAOCP vol. 2, 4.7): with ``x^s`` factored out, so
    that ``p = x^s * sum_i a_i x^i`` with ``a_0 != 0``, the coefficients
    ``b_k`` of the cofactor's power are ``b_0 = a_0^n`` and
    ``k*a_0*b_k = sum_{i=1..k} ((n+1)*i - k) * a_i * b_{k-i}``.  The
    ``b_k`` are ints, so the division is exact; no dense product is
    squared."""
    a = {(m[0][1] if m else 0): c for m, c in p.items()}
    s = min(a)
    a = {i - s: c for i, c in a.items()}
    a0 = a.pop(0)
    b = [a0 ** n]
    for k in range(1, n * max(a) + 1):
        total = sum(((n + 1) * i - k) * c * b[k - i] for i, c in a.items() if i <= k)
        b.append(total // (k * a0))
    low = s * n
    return {(((x, low + k),) if low + k else _ONE_MONO): c for k, c in enumerate(b) if c}

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
            if e == 1:
                nm = m[:k] + m[k + 1:]
                d = c
            else:
                nm = m[:k] + ((var, e - 1),) + m[k + 1:]
                d = c * e
            partial = grad.get(var)
            if partial is None:
                grad[var] = {nm: d}
            else:
                partial[nm] = d
    return grad

def _p_leading(p):
    return min(p, key=_mono_sort_key)

def _p_eval(p, point, q=1):
    """Value of ``p / q`` at ``point`` (VarRef -> int, Fraction or float).

    Each term is an integer numerator over an integer denominator; the
    sum is kept over the lcm of the term denominators and becomes one
    Fraction at the end.  A float in any evaluated monomial makes the
    result that Fraction rounded to a float.
    """
    num = 0
    den = 1
    inexact = False
    for m, tn in p.items():
        td = 1
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
    value = Fraction(num, den * q)
    return float(value) if inexact else value


# --- polynomial gcd over the integers ---------------------------------------
#
# Used only to keep fractions reduced, on coordinate polynomials alone
# (``_make`` divides other denominator factors out exactly).  Polynomials
# are first scaled to integer-primitive form, then a primitive Euclidean
# remainder sequence runs recursively in the largest variable.

def _p_content(p):
    """The gcd of the coefficients, positive; 0 for the zero poly."""
    return _int_gcd(*p.values())

def _p_lc_sign(p):
    return 1 if p[_p_leading(p)] > 0 else -1

def _p_is_one(p):
    return len(p) == 1 and p.get(_ONE_MONO) == 1

def _p_main_var(p):
    best = None
    for m in p:
        for v, _ in m:
            if best is None or v > best:
                best = v
    return best

def _p_to_univariate(p, x):
    """Split p into {deg_in_x: coefficient_poly_without_x}; distinct
    monomials of one degree in x keep distinct rests, so none collide."""
    out = {}
    for m, c in p.items():
        d = 0
        rest = []
        for v, e in m:
            if v is x:
                d = e
            else:
                rest.append((v, e))
        out.setdefault(d, {})[tuple(rest)] = c
    return out

def _p_from_univariate(coeffs, x):
    """Inverse of ``_p_to_univariate``: coefficients free of x never collide."""
    acc = {}
    for d, cp in coeffs.items():
        xm = ((x, d),) if d else _ONE_MONO
        for m, c in cp.items():
            acc[_mono_mul(m, xm)] = c
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
            new[nd] = _p_sub(new.get(nd, {}), t)
        ua = {d: cp for d, cp in new.items() if cp}
    return _p_from_univariate(ua, x)

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
        return {_ONE_MONO: 1}
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
            low = {_ONE_MONO: 1}
            break
        high = low
        low = _p_primitive(_p_div_exact(r, _p_gcd_many(list(ur.values()))))
    return _p_primitive(_p_mul(c, low))

def _p_gcd_many(ps):
    """GCD of several polynomials; stops at the first unit gcd."""
    g = {}
    for p in ps:
        g = _p_gcd(g, p)
        if _p_is_one(g):
            break
    return g if g else {_ONE_MONO: 1}

def _q_content(p, *others):
    """The gcd of the coordinate polynomials ``others`` and of the
    coefficients ``c_m(q)`` of ``p`` written as ``sum_m c_m(q) m``, a
    polynomial in its non-coordinate variables.  With no ``others`` this
    is ``p``'s content over ``Z[q]``; with a denominator ``d`` it is
    ``gcd(p, d)``, since a coordinate polynomial divides ``p`` exactly
    when it divides every ``c_m``.  The smaller coefficients go first,
    and the chain stops at the first unit gcd."""
    coefficients = {}
    for m, c in p.items():
        outer = tuple((v, e) for v, e in m if v.kind is not Kind.COORDINATE)
        inner = tuple((v, e) for v, e in m if v.kind is Kind.COORDINATE) if outer else m
        coefficients.setdefault(outer, {})[inner] = c
    return _p_gcd_many([*others, *sorted(coefficients.values(), key=len)])

def _p_div_exact(a, b):
    """Exact polynomial division a / b with an integer quotient; raises
    if there is none.  The quotient of an integer polynomial by an
    integer-primitive one that divides it is an integer polynomial
    (Gauss's lemma), so every caller passes a primitive ``b``."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if not a:
        return {}
    if set(b) == {_ONE_MONO}:
        k = b[_ONE_MONO]
        if any(c % k for c in a.values()):
            raise ArithmeticError("inexact polynomial division")
        return _p_int_quotient(a, k)
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
            nd = d + da - db
            ua[nd] = _p_sub(ua.get(nd, {}), _p_mul(cp, qc))
            if not ua[nd]:
                del ua[nd]
    return _p_from_univariate(q, x)


# --- rendering ---------------------------------------------------------------

def _int_text(n):
    """``str(n)``, exact also past the interpreter's digit limit for it."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # exact from an int, and with no limit
        return str(Decimal(n))


def _render_monomial(mono, coeff, q):
    """One term of magnitude ``|coeff|/q``, its number printed as
    ``str`` prints that Fraction."""
    mag = abs(coeff)
    if q == 1:
        text = _int_text(mag)
    else:
        g = _int_gcd(mag, q)
        text = _int_text(mag // g) if g == q else f"{_int_text(mag // g)}/{_int_text(q // g)}"
    factors = [v._text + (f"^{e}" if e > 1 else "") for v, e in mono]
    if not factors:
        return text
    if mag == q:
        return "*".join(factors)
    return text + "*" + "*".join(factors)


def _render_poly(p, q=1):
    """The polynomial ``p / q``, largest monomial first."""
    if not p:
        return "0"
    chunks = []
    for i, mono in enumerate(sorted(p, key=_mono_sort_key)):
        coeff = p[mono]
        body = _render_monomial(mono, coeff, q)
        if i == 0:
            chunks.append("-" + body if coeff < 0 else body)
        else:
            chunks.append((" - " if coeff < 0 else " + ") + body)
    return "".join(chunks)


def render_expression(e):
    """Deterministic canonical text, largest numerator term first; the
    inverse of ``parse.parse_expression``."""
    num = _render_poly(e._num, e._cden)
    if e.is_polynomial():
        return num
    return f"({num})/({_render_poly(e._den)})"


# --- expressions -------------------------------------------------------------

def _den_ok(p):
    return all(v.kind is Kind.COORDINATE for v in _p_vars(p))


def _rational(n, q):
    """``n / q`` as an int when integral, otherwise a Fraction."""
    return n if q == 1 else (n // q if n % q == 0 else Fraction(n, q))


class Expression:
    """Canonical rational function over :class:`VarRef` variables.

    Immutable; supports ``+ - * / **`` with other expressions and with
    ints or fractions.  Construction always reduces to canonical form, so
    ``==`` decides exact algebraic equality.
    """

    __slots__ = ("_num", "_cden", "_den", "_hash", "_grad", "_vars")

    def __init__(self, num, cden=1, den=_ONE_DEN):
        # internal: int polynomials and the coefficient denominator,
        # already canonical
        _set_num(self, num)
        _set_cden(self, cden)
        _set_den(self, den)
        _set_hash(self, None)
        _set_grad(self, None)
        _set_vars(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Expression is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def _make(num, cden, den):
        """Reduce ``num / (cden * den)`` to canonical form: ``num`` and
        ``den`` int polynomials, ``cden`` a positive int.  Passing the
        shared ``_ONE_DEN`` makes a polynomial at the cost of one int
        gcd, with no polynomial gcd."""
        if den is _ONE_DEN:
            return Expression(*_p_reduce(num, cden)) if num else ZERO
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            return ZERO
        # signed contents; num/cn and den/cd are integer-primitive with
        # positive leading coefficient
        cn = _p_content(num) * _p_lc_sign(num)
        cd = _p_content(den) * _p_lc_sign(den)
        n = _p_int_quotient(num, cn)
        d = _p_int_quotient(den, cd)
        if not _den_ok(d):
            # every factor of d over its content c in Z[q] mentions a
            # non-coordinate, so all of d / c must divide n
            c = _q_content(d)
            r = _p_div_exact(d, c)
            try:
                n, d = _p_div_exact(n, r), c
            except ArithmeticError:
                bad = sorted(v for v in _p_vars(r) if v.kind is not Kind.COORDINATE)
                raise DenominatorViolation(
                    "denominator may mention only order-0 coordinates, found "
                    + ", ".join(map(str, bad))) from None
        g = _q_content(n, d)
        if not _p_is_one(g):
            n = _p_div_exact(n, g)
            d = _p_div_exact(d, g)
        # the scalar cn / (cden * cd) in lowest terms over a positive int
        k, q = cn, cden * cd
        if q < 0:
            k, q = -k, -q
        h = _int_gcd(k, q)
        n = _p_scale(n, k // h)
        if set(d) == {_ONE_MONO}:
            return Expression(n, q // h)
        return Expression(n, q // h, d)

    @staticmethod
    def const(value):
        return Expression(*_p_const(value))

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
        return _rational(self._num.get(_ONE_MONO, 0), self._cden)

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
        """The numerator's leading coefficient, an int or a Fraction."""
        if not self._num:
            return 0
        return _rational(self._num[_p_leading(self._num)], self._cden)

    def normalized(self):
        """Scale so the leading numerator coefficient is +1."""
        if not self._num:
            return self
        lc = self.leading_coefficient()
        return self if lc == 1 else self / lc

    def numerator(self):
        """The numerator polynomial, with its rational coefficients."""
        return self if self._den is _ONE_DEN else Expression(self._num, self._cden)

    def terms_free_of(self, kind):
        """The polynomial of the numerator's terms that mention no
        variable of ``kind``."""
        part = {m: c for m, c in self._num.items() if all(v.kind is not kind for v, _ in m)}
        return Expression._make(part, self._cden, _ONE_DEN)

    def primitive_part(self):
        """A polynomial divided by its content over ``Z[q]``: the gcd of
        its coefficients as a polynomial in its non-coordinate variables,
        which are polynomials in the coordinates.  The rational content
        is kept."""
        common = _q_content(self._num)
        if _p_is_one(common):
            return self
        return Expression(_p_div_exact(self._num, common), self._cden)

    def validate(self):
        """Check canonical-form invariants; raises AssertionError on breakage."""
        num, q, den = self._num, self._cden, self._den
        assert type(q) is int and q >= 1, f"coefficient denominator {q!r} is not a positive int"
        for c in (*num.values(), *den.values()):
            assert type(c) is int, f"coefficient {c!r} is not an int"
        assert all(c != 0 for c in num.values()), "zero coefficient survived"
        assert _int_gcd(q, *num.values()) == 1, "coefficient denominator shares a factor"
        assert den, "empty denominator"
        assert all(c != 0 for c in den.values())
        if not num:
            assert set(den) == {_ONE_MONO} and den[_ONE_MONO] == 1
        if set(den) != {_ONE_MONO}:
            assert _den_ok(den)
            assert _p_content(den) == 1 and _p_lc_sign(den) > 0
            assert _p_is_one(_q_content(num, den)), "reducible fraction survived"
        else:
            assert den[_ONE_MONO] == 1
            assert den is _ONE_DEN, "constant denominator is not the shared _ONE_DEN"
        return True

    # -- arithmetic -------------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Expression):
            return other
        if isinstance(other, (int, Fraction)):
            return Expression.const(other)
        return NotImplemented

    def _add(self, other, sign):
        """``self + sign * other``, for ``sign`` 1 or -1."""
        other = Expression._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other if sign > 0 else -other
        if other.is_zero():
            return self
        if self._den is other._den or self._den == other._den:
            acc = dict(self._num)
            q = _q_add_into(acc, self._cden, other._num, other._cden, sign)
            return Expression._make(acc, q, self._den)
        acc = _p_mul(self._num, other._den)
        q = _q_add_into(acc, self._cden, _p_mul(other._num, self._den), other._cden, sign)
        return Expression._make(acc, q, _p_mul(self._den, other._den))

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Expression(_p_scale(self._num, -1), self._cden, self._den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Expression._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ZERO
        if self._den is _ONE_DEN and other._den is _ONE_DEN:
            return Expression._make(_p_mul(self._num, other._num), self._cden * other._cden,
                                    _ONE_DEN)
        return Expression._make(_p_mul(self._num, other._num), self._cden * other._cden,
                                _p_mul(self._den, other._den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Expression._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by the zero expression")
        if other.is_constant():
            # by the constant b / qb: a scale by qb / b, over the same
            # denominator polynomial
            b = other._num[_ONE_MONO]
            num, q = _p_reduce(_p_scale(self._num, other._cden if b > 0 else -other._cden),
                               self._cden * abs(b))
            return Expression(num, q, self._den) if num else ZERO
        # (a / (qa * da)) / (b / (qb * db)) = a * db * qb / (qa * da * b)
        return Expression._make(_p_scale(_p_mul(self._num, other._den), other._cden),
                                self._cden, _p_mul(self._den, other._num))

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
        # powers of coprime parts are coprime, and a power of a primitive
        # polynomial with positive lead is one too: already canonical
        if self._den is _ONE_DEN:
            return Expression(_p_pow(self._num, n), self._cden ** n)
        return Expression(_p_pow(self._num, n), self._cden ** n, _p_pow(self._den, n))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Expression.const(other)
        if not isinstance(other, Expression):
            return NotImplemented
        return (self._num == other._num and self._cden == other._cden
                and self._den == other._den)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((frozenset(self._num.items()), self._cden, frozenset(self._den.items())))
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
        q = self._cden
        if self._den is _ONE_DEN:
            grad = {v: Expression._make(dn, q, _ONE_DEN) for v, dn in dnum.items()}
        else:
            # quotient rule: (dn*den - num*dd) / den^2
            dden = _p_gradient(self._den)
            den2 = _p_mul(self._den, self._den)
            grad = {}
            for v in sorted(dnum.keys() | dden.keys()):
                num = _p_sub(_p_mul(dnum.get(v, {}), self._den),
                             _p_mul(self._num, dden.get(v, {})))
                d = Expression._make(num, q, den2)
                if not d.is_zero():
                    grad[v] = d
        _set_grad(self, grad)
        return grad

    def diff(self, v):
        """Formal partial derivative with respect to one variable."""
        return self.gradient().get(v, ZERO)

    def dt(self):
        """Total time derivative: every jet of order k becomes order k+1
        under the chain rule, with no cap on k (``model`` bounds the jet
        orders a model can reach).  Momenta and multipliers are rejected.

        A polynomial takes one pass over its monomials: each factor
        ``v^e`` of ``c*m`` gives ``c*e*m/v*v'``, and ``v'`` is spliced in
        right after ``v``, since no variable sorts between a variable and
        its time derivative.  Terms of two factors can meet (``x*x'`` and
        ``x'^2``), so they are summed.  A rational function takes the
        quotient rule through its gradient."""
        if self._den is not _ONE_DEN:
            grad = self.gradient()
            for v in grad:
                _check_time_derivative(v)
            return esum([d * Expression.var(v.jet(1)) for v, d in grad.items()])
        jets = {}
        acc = {}
        for m, c in self._num.items():
            for k, (v, e) in enumerate(m):
                w = jets.get(v)
                if w is None:
                    _check_time_derivative(v)
                    w = jets[v] = v.jet(1)
                head = m[:k] if e == 1 else (*m[:k], (v, e - 1))
                if k + 1 < len(m) and m[k + 1][0] is w:
                    nm = (*head, (w, m[k + 1][1] + 1), *m[k + 2:])
                else:
                    nm = (*head, (w, 1), *m[k + 1:])
                d = c * e
                cur = acc.get(nm)
                if cur is None:
                    acc[nm] = d
                elif cur + d:
                    acc[nm] = cur + d
                else:
                    del acc[nm]
        return Expression._make(acc, self._cden, _ONE_DEN)

    def subs(self, assignment):
        """Simultaneous substitution ``{VarRef: Expression}``, then
        canonicalization.  Variables not mentioned are left alone."""
        live = {v: Expression._coerce(assignment[v]) for v in self.variables()
                if v in assignment}
        if not live:
            return self
        num = _subs_poly(self._num, self._cden, live)
        if self._den is _ONE_DEN:
            return num
        den = _subs_poly(self._den, 1, live)
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
        value = _p_eval(self._num, point, self._cden)
        if self._den is _ONE_DEN:
            return value
        den = _p_eval(self._den, point)
        if den == 0:
            raise DivisionByZero("denominator vanishes at the sampled point")
        return value / den

    # -- rendering ----------------------------------------------------------------

    __str__ = render_expression

    def __repr__(self):
        return f"<expr {self}>"


# the slot setters, bound once: ``Expression.__setattr__`` refuses writes
_set_num = Expression._num.__set__
_set_cden = Expression._cden.__set__
_set_den = Expression._den.__set__
_set_hash = Expression._hash.__set__
_set_grad = Expression._grad.__set__
_set_vars = Expression._vars.__set__


def _check_time_derivative(v):
    if v.kind in (Kind.MOMENTUM, Kind.MULTIPLIER):
        raise MomentumInTimeDerivative(f"cannot take a time derivative through {v}")


def _subs_poly(p, q, live):
    """The rational polynomial ``p / q`` with ``live`` substituted, as an
    Expression.

    Polynomial substitutes are multiplied as raw polynomials into one
    accumulator over the lcm of their denominators, reduced once at the
    end; only a monomial with a substitute that has a denominator goes
    through Expression arithmetic.  Each power ``(variable, exponent)``
    is computed once per call, and a monomial no substitute touches is
    added as it is.
    """
    acc = {}
    aq = q  # acc's denominator
    fractional = None
    powers = {}
    for m, c in p.items():
        poly = None
        pq = q
        rational = None
        plain = []
        for v, e in m:
            sub = live.get(v)
            if sub is None:
                plain.append((v, e))
                continue
            power = powers.get((v, e))
            if power is None:
                if sub._den is _ONE_DEN:
                    power = (_p_pow(sub._num, e), sub._cden ** e)
                else:
                    power = sub ** e
                powers[v, e] = power
            if sub._den is _ONE_DEN:
                poly = power[0] if poly is None else _p_mul(poly, power[0])
                pq *= power[1]
            else:
                rational = power if rational is None else rational * power
        if poly is None and rational is None:
            aq = _q_add_into(acc, aq, {m: c}, q)
            continue
        term = {tuple(plain): c}
        if poly is not None:
            term = _p_mul(poly, term)
        if rational is not None:
            rational = rational * Expression._make(term, pq, _ONE_DEN)
            if not rational.is_polynomial():
                fractional = rational if fractional is None else fractional + rational
                continue
            term, pq = rational._num, rational._cden
        aq = _q_add_into(acc, aq, term, pq)
    out = Expression._make(acc, aq, _ONE_DEN)
    return out + fractional if fractional is not None else out


def esum(terms):
    """Sum of many expressions, batching the polynomial parts."""
    acc = {}
    q = 1
    fractional = None
    for t in terms:
        t = Expression._coerce(t)
        if t._den is _ONE_DEN:
            q = _q_add_into(acc, q, t._num, t._cden)
        else:
            fractional = t if fractional is None else fractional + t
    out = Expression._make(acc, q, _ONE_DEN)
    return out + fractional if fractional is not None else out


def esum_products(products):
    """Sum of ``a * b`` (``sign`` 1) or ``-(a * b)`` (``sign`` -1) over
    ``(a, b, sign)`` triples.  Products of two polynomials are multiplied
    and summed in one accumulator; only a product with a denominator
    goes through ``*`` and :func:`esum`."""
    acc = {}
    q = 1
    fractional = []
    for a, b, sign in products:
        if a._den is _ONE_DEN and b._den is _ONE_DEN:
            q = _q_add_into(acc, q, _p_mul(a._num, b._num), a._cden * b._cden, sign)
        else:
            fractional.append(a * b if sign > 0 else -(a * b))
    out = Expression._make(acc, q, _ONE_DEN)
    return esum([out, *fractional]) if fractional else out


ZERO = Expression({})
ONE = Expression({_ONE_MONO: 1})


def canonicalize(e):
    """Rebuild an expression from its raw parts; idempotent by design.

    Every arithmetic path already lands on canonical form, so this is
    the identity on well-formed expressions; it exists so invariants can
    be asserted against a from-scratch reconstruction.
    """
    return Expression._make(dict(e._num), e._cden, dict(e._den))


# --- division by a growing list of polynomials --------------------------------

def _p_cancel(p, mono, g):
    """Cancel the term of ``p`` in ``mono`` in place with a multiple of
    ``g``, whose leading monomial is ``mono``: over the integers, ``p``
    becomes ``k*p - f*g`` with ``k > 0`` as small as possible.  Returns
    ``k``, the factor ``p``'s value was scaled by."""
    a = p[mono]
    lc = g[mono]
    h = _int_gcd(a, lc)
    k = abs(lc) // h
    f = a // h if lc > 0 else -(a // h)
    if k != 1:
        for m in p:
            p[m] *= k
    _p_addmul_into(p, g, -f)
    return k


class Divisors:
    """Numerators of a growing list of expressions, for graded-lex
    division over the rationals.

    No divisor's leading monomial appears in another divisor: each new
    numerator is linearly reduced by the divisors held (the degree-0
    step of Buchberger's algorithm), and then reduces them in turn.  A
    remainder does not change when a divisor is scaled by a constant, so
    each divisor is kept as an integer polynomial, primitive when added.
    """

    __slots__ = ("_items",)

    def __init__(self, exprs=()):
        self._items = []  # (leading monomial, int polynomial)
        for e in exprs:
            self.add(e)

    def __bool__(self):
        return bool(self._items)

    def add(self, e):
        """Add the numerator of ``e``; a linear combination of the
        divisors already held adds nothing."""
        num = dict(e._num)
        for lead, g in self._items:
            if lead in num:
                _p_cancel(num, lead, g)
        if not num:
            return
        num = _p_primitive(num)
        lead = _p_leading(num)
        for _, g in self._items:
            if lead in g:
                _p_cancel(g, lead, num)
        self._items.append((lead, num))

    def remainder(self, e):
        """The remainder of ``e``'s numerator under graded-lex division,
        over ``e``'s denominator: its largest divisible term is cancelled
        by the first divisor whose leading monomial divides it, until no
        term is divisible."""
        rem = dict(e._num)
        q = e._cden
        # largest first from a heap of sort keys: a cancellation leaves the
        # larger terms as they were and adds terms only below the one it
        # cancels, so the walk never has to look back
        heap = [(_mono_sort_key(m), m) for m in rem]
        heapq.heapify(heap)
        while heap:
            mono = heapq.heappop(heap)[1]
            if mono not in rem:
                continue
            divisor = next((d for d in self._items if _mono_divides(d[0], mono)), None)
            if divisor is None:
                continue
            lead, g = divisor
            shift = _mono_div(mono, lead)
            g = {_mono_mul(shift, m): c for m, c in g.items()}
            added = [m for m in g if m not in rem]
            q *= _p_cancel(rem, mono, g)
            for m in added:
                heapq.heappush(heap, (_mono_sort_key(m), m))
        return Expression._make(rem, q, e._den) if rem else ZERO
