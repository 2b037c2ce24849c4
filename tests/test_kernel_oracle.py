"""The expression kernel against a reference that stores ``Fraction``
coefficients.

``Ref`` is a rational function as a numerator and a denominator
polynomial, each a dict ``{monomial: Fraction}``, built with the
textbook formulas and kept in no canonical form: no gcd is taken, and
two Refs are equal when they cross-multiply to the same polynomial.
The kernel stores int coefficients over one denominator; every
operation is checked to give the value the reference gives, in
canonical form, and to print every coefficient as ``str`` prints its
Fraction.  ``Ref.expression`` hands a reference value to the
canonicalizing constructor, for the tests that compare a fast path
with it.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gaugeflow import (
    Expression,
    Kind,
    builtin_model,
    canonicalize,
    coordinate,
    esum,
    parse_model,
)
from gaugeflow.compare import build_report
from gaugeflow.errors import DenominatorViolation, DivisionByZero
from gaugeflow.expr import (
    ZERO,
    Divisors,
    _mono_div,
    _mono_divides,
    _mono_mul,
    _mono_sort_key,
    _p_mul,
    _p_pow,
)

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"

ONE_MONO = ()


def _add_into(acc, p, sign=1):
    for m, c in p.items():
        total = acc.get(m, 0) + sign * c
        if total:
            acc[m] = total
        else:
            acc.pop(m, None)
    return acc


def _mul(a, b):
    acc = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            _add_into(acc, {_mono_mul(ma, mb): ca * cb})
    return acc


def _diff(p, v):
    acc = {}
    for m, c in p.items():
        for k, (var, e) in enumerate(m):
            if var is v:
                nm = m[:k] + ((var, e - 1),) + m[k + 1:] if e > 1 else m[:k] + m[k + 1:]
                _add_into(acc, {nm: c * e})
    return acc


def _eval(p, point):
    total = Fraction(0)
    for m, c in p.items():
        term = c
        for v, e in m:
            term = term * point[v] ** e
        total = total + term
    return total


def _ints(p):
    """A Fraction polynomial as int coefficients over their lcm."""
    q = math.lcm(*(c.denominator for c in p.values())) if p else 1
    return {m: int(c * q) for m, c in p.items()}, q


def _render_poly(p):
    # the renderer as it read Fraction coefficients
    if not p:
        return "0"
    chunks = []
    for i, mono in enumerate(sorted(p, key=_mono_sort_key)):
        coeff = p[mono]
        mag = abs(coeff)
        factors = [str(v) + (f"^{e}" if e > 1 else "") for v, e in mono]
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if i == 0:
            chunks.append("-" + body if coeff < 0 else body)
        else:
            chunks.append((" - " if coeff < 0 else " + ") + body)
    return "".join(chunks)


class Ref:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = {m: Fraction(c) for m, c in num.items() if c}
        self.den = {m: Fraction(c) for m, c in (den or {ONE_MONO: 1}).items() if c}

    @staticmethod
    def of(e):
        """The value of a kernel expression, read from its parts."""
        return Ref({m: Fraction(c, e._cden) for m, c in e._num.items()}, e._den)

    @staticmethod
    def const(c):
        return Ref({ONE_MONO: c})

    @staticmethod
    def var(v):
        return Ref({((v, 1),): 1})

    def expression(self):
        """This value through the canonicalizing constructor, with private
        dicts, so no polynomial fast path is taken."""
        num, qn = _ints(self.num)
        den, qd = _ints(self.den)
        return Expression._make({m: c * qd for m, c in num.items()}, qn, den)

    def __add__(self, other):
        if self.den == other.den:
            return Ref(_add_into(dict(self.num), other.num), self.den)
        return Ref(_add_into(_mul(self.num, other.den), _mul(other.num, self.den)),
                   _mul(self.den, other.den))

    def __neg__(self):
        return Ref({m: -c for m, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return Ref(_mul(self.num, other.num), _mul(self.den, other.den))

    def __truediv__(self, other):
        assert other.num, "division by zero"
        return Ref(_mul(self.num, other.den), _mul(self.den, other.num))

    def __pow__(self, n):
        out = Ref.const(1)
        for _ in range(abs(n)):
            out = out * self
        return Ref.const(1) / out if n < 0 else out

    def __eq__(self, other):
        if isinstance(other, Expression):
            other = Ref.of(other)
        return _mul(self.num, other.den) == _mul(other.num, self.den)

    def same(self, other):
        """Equal part for part, not only in value."""
        return self.num == other.num and self.den == other.den

    def diff(self, v):
        dn, dd = _diff(self.num, v), _diff(self.den, v)
        if not dd:
            return Ref(dn, self.den)
        return Ref(_add_into(_mul(dn, self.den), _mul(self.num, dd), -1),
                   _mul(self.den, self.den))

    def dt(self):
        total = Ref({})
        for v in sorted({v for part in (self.num, self.den) for m in part for v, _ in m}):
            total = total + self.diff(v) * Ref.var(v.jet(1))
        return total

    def subs(self, assignment):
        def poly(p):
            total = Ref({})
            for m, c in p.items():
                term = Ref.const(c)
                for v, e in m:
                    term = term * (assignment[v] ** e if v in assignment
                                   else Ref({((v, e),): 1}))
                total = total + term
            return total
        return poly(self.num) / poly(self.den)

    def evaluate(self, point):
        den = _eval(self.den, point)
        if den == 0:
            raise DivisionByZero("denominator vanishes at the sampled point")
        return _eval(self.num, point) / den

    def normalized(self):
        """Numerator scaled to leading coefficient 1; canonical when
        ``self`` is."""
        if not self.num:
            return self
        lc = self.num[min(self.num, key=_mono_sort_key)]
        return Ref({m: c / lc for m, c in self.num.items()}, self.den)

    def render(self):
        num = _render_poly(self.num)
        if set(self.den) == {ONE_MONO}:
            return num
        return f"({num})/({_render_poly(self.den)})"


# --- seeded operands ------------------------------------------------------------

x, y, z = coordinate("x"), coordinate("y"), coordinate("z")
VARIABLES = [x, y, x.jet(1), y.jet(1), x.momentum(), z]
COEFFICIENTS = [Fraction(1, 2), Fraction(-3, 4), Fraction(5, 7), Fraction(2), Fraction(-1),
                Fraction(1, 3), Fraction(-6, 5), Fraction(4)]


def random_pair(rng, variables, terms, max_exp=2):
    """A polynomial as a (kernel expression, Ref) pair built term by term."""
    e, r = ZERO, Ref({})
    for _ in range(rng.randint(1, terms)):
        c = rng.choice(COEFFICIENTS)
        te, tr = Expression.const(c), Ref.const(c)
        for _ in range(rng.randint(0, 2)):
            v, k = rng.choice(variables), rng.randint(1, max_exp)
            te, tr = te * Expression.var(v) ** k, tr * Ref.var(v) ** k
        e, r = e + te, r + tr
    return e, r


def random_operand(rng):
    """A polynomial, or a rational function over a coordinate
    denominator, with mixed coefficient denominators.  One in ten is a
    constant and one in ten a single term, whose products, quotients and
    powers the kernel takes by shortcuts."""
    shape = rng.random()
    if shape < 0.1:
        c = rng.choice(COEFFICIENTS)
        return Expression.const(c), Ref.const(c)
    num = random_pair(rng, VARIABLES, 1 if shape < 0.2 else 4)
    if rng.random() < 0.4:
        return num
    den = random_pair(rng, [x, y], 2)
    if den[0].is_zero():
        return num
    return num[0] / den[0], num[1] / den[1]


def checked(e, expected):
    """``e`` is canonical, has the value ``expected`` and prints every
    coefficient as its Fraction prints."""
    e.validate()
    assert canonicalize(e) == e
    assert Ref.of(e) == expected
    assert str(e) == Ref.of(e).render()


def checked_quotient(a, ra, b, rb):
    """``a / b`` checked, unless ``b`` is zero or its numerator mentions
    a variable that may not be in a denominator."""
    if b.is_zero():
        return
    try:
        quotient = a / b
    except DenominatorViolation:
        assert b.numerator().mentions_kind(Kind.JET, Kind.MOMENTUM)
        return
    checked(quotient, ra / rb)


@pytest.mark.parametrize("seed", range(6))
def test_arithmetic_matches_the_reference(seed):
    rng = random.Random(9100 + seed)
    kinds = set()
    for _ in range(40):
        (a, ra), (b, rb) = random_operand(rng), random_operand(rng)
        kinds.add((a.is_polynomial(), b.is_polynomial()))
        checked(a, ra)
        checked(a + b, ra + rb)
        checked(a - b, ra - rb)
        checked(a - a, Ref({}))
        checked(a * b, ra * rb)
        d, rd = random_pair(rng, [x, y, z], 3)
        for (p, rp), (q, rq) in (((a, ra), (b, rb)), ((a, ra), (d, rd)), ((b, rb), (d, rd))):
            checked_quotient(p, rp, q, rq)
        n = rng.randint(-2, 3)
        if n >= 0:
            checked(a ** n, ra ** n)
        else:
            checked_quotient(Expression.const(1), Ref.const(1), a ** -n, ra ** -n)
        c = rng.choice(COEFFICIENTS)
        checked(a * c, ra * Ref.const(c))
        checked(a / c, ra / Ref.const(c))
        checked(esum([a, b, a * c, -b]), ra + rb + ra * Ref.const(c) - rb)
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("seed", range(4))
def test_calculus_matches_the_reference(seed):
    rng = random.Random(9200 + seed)
    for _ in range(40):
        a, ra = random_operand(rng)
        grad = a.gradient()
        assert set(grad) == a.variables()
        for v in VARIABLES:
            checked(grad.get(v, ZERO), ra.diff(v))
        if not a.mentions_kind(Kind.MOMENTUM):
            checked(a.dt(), ra.dt())
        normal = a.normalized()
        checked(normal, ra if a.is_zero() else ra / Ref.const(a.leading_coefficient()))
        assert Ref.of(normal).same(Ref.of(a).normalized())


CONSTANT_DIVISORS = [1, -1, 2, -3, 6, -12, Fraction(2, 3), Fraction(-5, 4), Fraction(7),
                     Fraction(-1, 9)]


@pytest.mark.parametrize("seed", range(3))
def test_division_by_a_constant_matches_the_reference(seed):
    # a quotient by a constant is a scale over the same denominator
    rng = random.Random(9500 + seed)
    for _ in range(30):
        a, ra = random_operand(rng)
        for c in CONSTANT_DIVISORS:
            checked(a / c, ra / Ref.const(c))
            checked(a / Expression.const(c), ra / Ref.const(c))


X_JETS = [x.jet(k) for k in range(4)]
Y_JETS = [y.jet(k) for k in range(4)]


@pytest.mark.parametrize("seed", range(4))
def test_time_derivative_of_jet_polynomials_matches_the_chain_rule(seed):
    # up to third derivatives, where a factor's derivative lands on a
    # monomial another factor's derivative makes too: x*x' and x'^2
    rng = random.Random(9600 + seed)
    for _ in range(40):
        a, ra = random_pair(rng, X_JETS + Y_JETS, 5, max_exp=3)
        checked(a.dt(), ra.dt())
    q0, q1, q2, q3 = (Expression.var(v) for v in X_JETS)
    cases = [
        (q0 * q1, q1 ** 2 + q0 * q2),
        (q0 * q2 - q1 ** 2 / 2, q0 * q3),  # x'*x'' cancels
        (q0 ** 2 * q1 ** 3 / 5, Fraction(2, 5) * q0 * q1 ** 4
         + Fraction(3, 5) * q0 ** 2 * q1 ** 2 * q2),
        (q1 * q2 - q0 * q3, q2 ** 2 - q0 * Expression.var(x.jet(4))),
    ]
    for e, derivative in cases:
        assert e.dt() == derivative
        checked(e.dt(), Ref.of(e).dt())


def plain_merge(a, b):
    """The product of two monomials by adding exponent maps and sorting."""
    exponents = dict(a)
    for v, e in b:
        exponents[v] = exponents.get(v, 0) + e
    return tuple(sorted(exponents.items()))


@pytest.mark.parametrize("seed", range(3))
def test_monomial_product_matches_a_plain_merge(seed):
    # a coordinate, its jets and its momentum are neighbours in the
    # variable order; one-variable sides take the splice
    rng = random.Random(9700 + seed)
    a = coordinate("a", (1, 2))
    variables = [*X_JETS, x.momentum(), *Y_JETS[:2], a, a.jet(1), a.momentum(), z]
    monomials = [()]
    for _ in range(60):
        picked = sorted(rng.sample(variables, rng.choice([1, 1, 2, 3, 4])))
        monomials.append(tuple((v, rng.randint(1, 3)) for v in picked))
    for m1 in monomials:
        for m2 in monomials:
            assert _mono_mul(m1, m2) == plain_merge(m1, m2), (m1, m2)


@pytest.mark.parametrize("seed", range(3))
def test_univariate_powers_match_the_reference(seed):
    # gaps, a lowest power above zero and a single term all occur, and
    # bases both dense (the recurrence) and sparse (repeated squaring)
    rng = random.Random(9800 + seed)
    for _ in range(30):
        v = rng.choice(VARIABLES)
        terms = {rng.randint(0, 6): rng.choice(COEFFICIENTS) for _ in range(rng.randint(1, 4))}
        e = esum([c * Expression.var(v) ** k for k, c in terms.items()])
        r = Ref({(((v, k),) if k else ONE_MONO): c for k, c in terms.items()})
        n = rng.randint(0, 9)
        checked(e ** n, r ** n)
        if v.kind is Kind.COORDINATE and not e.is_constant():
            checked(e ** -n, r ** -n)


@pytest.mark.parametrize("seed", range(3))
def test_multivariate_powers_match_repeated_products(seed):
    # random bases, most in several variables, dense or sparse, with or
    # without a constant term, against the reference and repeated _p_mul
    rng = random.Random(9900 + seed)
    for _ in range(20):
        e, r = random_pair(rng, VARIABLES, 5)
        n = rng.randint(1, 8)
        checked(e ** n, r ** n)
        product = e._num
        for _ in range(n - 1):
            product = _p_mul(product, e._num)
        assert _p_pow(e._num, n) == product


def random_substitute(rng, v, polynomial_target):
    """A substitute for ``v``: in a rational target a coordinate gets one
    linear term, so the denominator stays small and in coordinates;
    otherwise a polynomial or one term over ``z + 1``."""
    if v.kind is Kind.COORDINATE and not polynomial_target:
        return random_pair(rng, [x, y, z], 1, max_exp=1)
    if rng.random() < 0.3:
        num = random_pair(rng, VARIABLES, 1)
        den = random_pair(rng, [z], 1, max_exp=1)
        if not (den[0] + 1).is_zero():
            return num[0] / (den[0] + 1), num[1] / (den[1] + Ref.const(1))
    return random_pair(rng, VARIABLES, 2)


@pytest.mark.parametrize("seed", range(4))
def test_subs_and_evaluate_match_the_reference(seed):
    rng = random.Random(9300 + seed)
    for _ in range(40):
        a, ra = random_operand(rng)
        assignment, rassignment = {}, {}
        for v in rng.sample([x, y, x.jet(1), x.momentum()], 2):
            assignment[v], rassignment[v] = random_substitute(rng, v, a.is_polynomial())
        try:
            expected = ra.subs(rassignment)
        except AssertionError:  # the denominator vanished identically
            with pytest.raises(DivisionByZero):
                a.subs(assignment)
            continue
        checked(a.subs(assignment), expected)

        point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for v in VARIABLES}
        try:
            value = ra.evaluate(point)
        except DivisionByZero:
            with pytest.raises(DivisionByZero):
                a.evaluate(point)
            continue
        exact = a.evaluate(point)
        assert type(exact) is Fraction and exact == value


def reference_remainder(divisors, e):
    """Graded-lex division of ``e``'s numerator over Fractions: the
    divisors are inter-reduced as they arrive, and the largest divisible
    term of the remainder is cancelled by the first divisor whose leading
    monomial divides it."""
    def cancel(p, mono, g):
        lead = min(g, key=_mono_sort_key)
        shift = _mono_div(mono, lead)
        factor = p[mono] / g[lead]
        _add_into(p, {_mono_mul(shift, m): factor * c for m, c in g.items()}, -1)

    held = []
    for d in divisors:
        num = dict(Ref.of(d).num)
        for g in held:
            lead = min(g, key=_mono_sort_key)
            if lead in num:
                cancel(num, lead, g)
        if not num:
            continue
        lead = min(num, key=_mono_sort_key)
        for g in held:
            if lead in g:
                cancel(g, lead, num)
        held.append(num)
    ref = Ref.of(e)
    rem = dict(ref.num)
    while True:
        for mono in sorted(rem, key=_mono_sort_key):
            g = next((g for g in held
                      if _mono_divides(min(g, key=_mono_sort_key), mono)), None)
            if g is not None:
                cancel(rem, mono, g)
                break
        else:
            return Ref(rem, ref.den)


@pytest.mark.parametrize("seed", range(4))
def test_division_remainder_matches_the_reference(seed):
    # the remainders a WeakReducer reports are printed as witnesses, so the
    # division must be exact over the rationals, not a pseudo-division
    rng = random.Random(9400 + seed)
    phase = [x, y, z, x.momentum(), y.momentum()]
    for _ in range(30):
        divisors = [random_pair(rng, phase, 3)[0] for _ in range(rng.randint(1, 4))]
        held = Divisors(divisors)
        for _ in range(3):
            e, _ = random_operand(rng) if rng.random() < 0.3 else random_pair(rng, phase, 5)
            remainder = held.remainder(e)
            expected = reference_remainder(divisors, e)
            remainder.validate()
            assert Ref.of(remainder) == expected
            assert str(remainder) == str(expected.expression())


def test_rendering_prints_each_coefficient_as_its_fraction():
    half, quarter = Expression.const(Fraction(1, 2)), Expression.const(Fraction(1, 4))
    ex, ey = Expression.var(x), Expression.var(y)
    cases = {
        half * ex + quarter * ey: "1/2*x + 1/4*y",
        Fraction(3, 4) * ex * ey - Fraction(6, 4) * ey: "3/4*x*y - 3/2*y",
        Fraction(-5, 7) * ex + 2 * ey + Fraction(2, 7): "-5/7*x + 2*y + 2/7",
        (half * ex + 1) / (ex + ey): "(1/2*x + 1)/(x + y)",
        Fraction(4, 6) * ex * ex: "2/3*x^2",
    }
    for e, text in cases.items():
        assert str(e) == text
        assert str(e) == Ref.of(e).render()


# --- the canonical-form sweep over whole reports ---------------------------------

def _expressions(value, seen):
    if isinstance(value, Expression):
        yield value
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from _expressions(k, seen)
            yield from _expressions(v, seen)
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _expressions(v, seen)
    elif hasattr(value, "__dict__") and id(value) not in seen:
        seen.add(id(value))
        for v in vars(value).values():
            yield from _expressions(v, seen)


BUILTINS = [("toy_gauge", {}), ("oscillator", {}), ("second_class_toy", {}),
            ("maxwell_lattice", {"N": 1}), ("maxwell_lattice", {"N": 2}),
            ("maxwell_lattice", {"N": 3}), ("ym_mechanics", {"with_scalar": True}),
            ("ym_mechanics", {"with_scalar": False})]


def _report_models():
    for name, params in BUILTINS:
        label = name + "".join(f"-{k}={v}" for k, v in params.items())
        yield pytest.param(lambda n=name, p=params: builtin_model(n, p), id=label)
    for path in sorted(MODELS_DIR.glob("*.model")):
        yield pytest.param(lambda p=path: parse_model(p.read_text(), name=p.stem), id=path.stem)


@pytest.mark.parametrize("make", _report_models())
def test_every_report_expression_is_canonical(make):
    report = build_report(make())
    exprs = list(_expressions(report, set()))
    assert exprs
    for e in exprs:
        assert e.validate()
        assert canonicalize(e) == e
