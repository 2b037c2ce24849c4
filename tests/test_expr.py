"""Expression kernel: canonical forms, calculus, evaluation."""

import gc
import json
import random
import time
from fractions import Fraction

import pytest

from gaugeflow import (
    Expression,
    Kind,
    VarRef,
    WeakReducer,
    builtin_model,
    canonicalize,
    coordinate,
    multiplier,
    parse_expression,
    primary_constraints,
    render_expression,
)
from gaugeflow.errors import (
    DenominatorViolation,
    DivisionByZero,
    MomentumInTimeDerivative,
)

import math

from gaugeflow.expr import ZERO, _ONE_DEN, _mono_sort_key, _p_leading

from test_cli import fresh_python
from test_kernel_oracle import Ref

from conftest import (
    random_jet_polynomial,
    random_phase_polynomial,
    random_point,
    random_polynomial,
)

x = coordinate("x")
y = coordinate("y")
ex = Expression.var(x)
ey = Expression.var(y)
vx = Expression.var(x.jet(1))
vy = Expression.var(y.jet(1))
ax = Expression.var(x.jet(2))
px = Expression.var(x.momentum())
py = Expression.var(y.momentum())


COUNT_CONSTRUCTOR_CALLS = """
import json
from gaugeflow import builtin_model
from gaugeflow.compare import build_report
from gaugeflow.expr import VarRef
counts = []
for name, params in [("ym_mechanics", {"with_scalar": True}), ("maxwell_lattice", {"N": 2})]:
    m = builtin_model(name, params)
    calls = []
    new = VarRef.__new__
    VarRef.__new__ = lambda cls, *args: calls.append(args) or new(cls, *args)
    assert build_report(m).verdict == "match"
    VarRef.__new__ = new
    counts.append(len(calls))
print(json.dumps(counts))
"""


class TestVarRef:
    def test_equality_and_order(self):
        assert coordinate("x") is coordinate("x")
        assert coordinate("x") != coordinate("x", (1,))
        ordered = sorted([x.momentum(), x.jet(1), x, y])
        assert ordered == [x, x.jet(1), x.momentum(), y]

    def test_momentum_carries_no_jets(self):
        with pytest.raises(ValueError):
            VarRef("x", (), Kind.MOMENTUM, 1)
        with pytest.raises(MomentumInTimeDerivative):
            x.momentum().jet(1)

    def test_jet_navigation(self):
        assert x.jet(2).jet(-2) is x
        assert x.jet(1).coordinate() is x
        assert multiplier(3).indices == (3,)

    def test_identity_equality_and_hashing(self):
        # interning makes equal VarRefs one object, so object's own
        # identity __eq__ and __hash__ serve, and monomials hash in C
        assert "__eq__" not in vars(VarRef) and "__hash__" not in vars(VarRef)
        assert "_hash" not in VarRef.__slots__
        assert hash(x) == object.__hash__(x)
        assert x == coordinate("x") and x != y and x != "x" and x != x._key

    def test_every_spelling_gives_the_interned_variable(self):
        # list indices, an int kind and a True index are hash-equal to
        # the normalized key; a miss normalizes before it builds, and a
        # hit returns the object interned under the normalized key
        spellings = [("spelled", [1, 0], Kind.MOMENTUM), ("spelled", (1, 0), 2),
                     ("spelled", (True, 0), Kind.MOMENTUM)]
        for first in spellings:
            v = VarRef(*first)
            assert v.indices == (1, 0) and all(type(i) is int for i in v.indices)
            assert v.kind is Kind.MOMENTUM and v._key == ("spelled", (1, 0), 2, 0)
            assert all(VarRef(*other) is v for other in spellings)
            del v
            gc.collect()

    def test_pool_releases_unreferenced_variables(self):
        v = VarRef("pool_probe", (4, 2), Kind.MOMENTUM)
        assert VarRef("pool_probe", (4, 2), Kind.MOMENTUM) is v
        key = v._key
        assert key in VarRef._pool
        del v
        gc.collect()
        assert key not in VarRef._pool

    def test_a_late_release_keeps_the_newer_entry(self):
        # a weakref callback can run after its key was taken again (a
        # garbage-collection pass clears every reference before it calls
        # any callback); it removes only its own, dead entry
        v = VarRef("pool_late", (7,), Kind.JET, 2)
        key = v._key
        stale = VarRef._pool[key]
        release = stale.__callback__  # cleared once the callback has run
        del v
        gc.collect()
        assert stale() is None and key not in VarRef._pool
        w = VarRef("pool_late", (7,), Kind.JET, 2)
        release(stale)
        assert VarRef._pool[key]() is w
        assert VarRef("pool_late", (7,), Kind.JET, 2) is w

    def test_derived_variables_are_linked_interned_ones(self):
        q = VarRef("link_probe", (1,))
        v, p = q.jet(1), q.momentum()
        assert v is VarRef("link_probe", (1,), Kind.JET, 1)
        assert p is VarRef("link_probe", (1,), Kind.MOMENTUM)
        assert q.jet(1) is v and q.momentum() is p
        assert p.coordinate() is q and v.coordinate() is q and q.coordinate() is q
        assert q.jet(2).coordinate() is q and q.jet(2) is v.jet(1)

    def test_links_make_no_reference_cycle(self):
        # with the cyclic collector off, only reference counts free the
        # variables: a link cycle would keep all three in the pool
        gc.disable()
        try:
            q = VarRef("link_cycle")
            v, p = q.jet(1), q.momentum()
            keys = [q._key, v._key, p._key]
            assert v.coordinate() is q and p.coordinate() is q
            del q, v, p
            assert [key in VarRef._pool for key in keys] == [False] * 3
        finally:
            gc.enable()

    def test_a_momentum_outliving_its_coordinate_remakes_it(self):
        q = VarRef("link_orphan")
        p = q.momentum()
        key = q._key
        del q
        gc.collect()
        assert key not in VarRef._pool
        q = p.coordinate()
        assert q._key == key and VarRef._pool[key]() is q
        assert q.momentum() is p and p.coordinate() is q

    def test_constructor_calls_per_report(self):
        # each coordinate's velocity and momentum cost one constructor
        # call, on its first request; later requests, and the way back
        # from them, are slot reads (532 and 576 calls with none).  Links
        # live on the interned variables, which an earlier test may keep
        # alive, so the count runs in a fresh interpreter
        proc = fresh_python("-c", COUNT_CONSTRUCTOR_CALLS)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [68, 128]


class TestCanonicalForm:
    def test_binomial_identity_cancels(self):
        assert ((ex + ey) ** 2 - (ex ** 2 + 2 * ex * ey + ey ** 2)).is_zero()

    def test_constant_gcd_reduction(self):
        assert (2 * ex) / 2 == ex

    def test_self_subtraction(self):
        assert (ex - ex).is_zero()

    def test_idempotence(self):
        e = (ex + ey) ** 3 / (2 * ex)
        assert canonicalize(e) == e
        assert canonicalize(canonicalize(e)) == canonicalize(e)

    def test_fraction_reduction_polynomial(self):
        assert (ex ** 2 - ey ** 2) / (ex + ey) == ex - ey

    def test_denominator_normalization(self):
        e = ex / (-2 * ey + 2 * ex)
        f = (-ex) / (2 * ey - 2 * ex)
        assert e == f
        e.validate()

    def test_equal_hash_equal(self):
        a = (ex + ey) ** 2
        b = ex ** 2 + 2 * ex * ey + ey ** 2
        assert a == b and hash(a) == hash(b)

    def test_denominator_restricted_to_coordinates(self):
        with pytest.raises(DenominatorViolation):
            ex / px
        with pytest.raises(DenominatorViolation):
            ex / vx
        assert (ex * px) / px == ex  # cancellation is fine
        assert (ex * px * ey) / (ey ** 2 * px) == ex / ey  # so is a mixed factor's
        with pytest.raises(DenominatorViolation, match="found p_x, p_y$"):
            (px * ey) / (px * py)

    def test_zero_division(self):
        with pytest.raises(DivisionByZero):
            ex / (ey - ey)


class TestPartialDerivative:
    def test_power_rule(self):
        assert (ex ** 2 * ey).diff(x) == 2 * ex * ey

    def test_momenta_are_independent(self):
        assert (px * ey).diff(x.momentum()) == ey

    def test_constants_vanish(self):
        assert Expression.const(7).diff(x).is_zero()

    def test_quotient_rule(self):
        e = ey / ex
        assert e.diff(x) == -ey / ex ** 2

    def test_commutes(self, rng):
        for _ in range(50):
            e = random_jet_polynomial(rng)
            assert e.diff(x).diff(y) == e.diff(y).diff(x)

    def test_leibniz(self, rng):
        for _ in range(50):
            f = random_jet_polynomial(rng)
            g = random_jet_polynomial(rng)
            assert (f * g).diff(x) == f.diff(x) * g + f * g.diff(x)


class TestTotalTimeDerivative:
    def test_chain_rule_product(self):
        assert (ex * vx).dt() == vx ** 2 + ex * ax

    def test_constant(self):
        assert Expression.const(3).dt().is_zero()

    def test_toy_equation_of_motion_rate(self):
        # hand chain rule: d/dt (x' - y) = x'' - y'
        assert (vx - ey).dt() == ax - vy

    def test_rejects_momenta(self):
        with pytest.raises(MomentumInTimeDerivative):
            px.dt()
        with pytest.raises(MomentumInTimeDerivative):
            Expression.var(multiplier(0)).dt()
        with pytest.raises(MomentumInTimeDerivative):  # the quotient-rule route
            (px / ex).dt()

    def test_leibniz(self, rng):
        for _ in range(50):
            f = random_jet_polynomial(rng)
            g = random_jet_polynomial(rng)
            lhs = (f * g).dt()
            rhs = f.dt() * g + f * g.dt()
            assert lhs == rhs


class TestSubstitute:
    def test_rename(self):
        p = coordinate("p")
        assert (ex + ey).subs({x: Expression.var(p)}) == Expression.var(p) + ey

    def test_to_zero(self):
        assert (ex ** 2).subs({x: Expression.const(0)}).is_zero()

    def test_velocity_to_momentum(self):
        assert vx.subs({x.jet(1): px}) == px

    def test_simultaneous_not_sequential(self):
        swapped = (ex - ey).subs({x: ey, y: ex})
        assert swapped == ey - ex

    def test_denominator_violation(self):
        e = ex / ey
        with pytest.raises(DenominatorViolation):
            e.subs({y: px})


class TestEvaluate:
    def test_sum(self):
        assert (ex + ey).evaluate({x: 1, y: 2}) == 3

    def test_pole(self):
        with pytest.raises(DivisionByZero):
            (ex / ey).evaluate({x: 1, y: 0})

    def test_exact_fraction(self):
        assert (2 * ex * ey).evaluate({x: Fraction(1, 2), y: 3}) == 3

    def test_missing_assignment(self):
        with pytest.raises(ValueError):
            (ex + ey).evaluate({x: 1})

    def test_ring_homomorphism(self, rng):
        for _ in range(50):
            e1 = random_jet_polynomial(rng)
            e2 = random_jet_polynomial(rng)
            pt = random_point(rng, (e1 * e2).variables() | e1.variables() | e2.variables())
            assert (e1 * e2).evaluate(pt) == e1.evaluate(pt) * e2.evaluate(pt)
            assert (e1 + e2).evaluate(pt) == e1.evaluate(pt) + e2.evaluate(pt)


def test_random_arithmetic_stays_canonical(rng):
    for _ in range(200):
        e = random_jet_polynomial(rng)
        f = random_jet_polynomial(rng)
        g = e * f - f * e
        assert g.is_zero()
        (e + f).validate()
        (e * f).validate()


def test_rational_canonical_invariants(rng):
    rng = random.Random(4242)
    for _ in range(100):
        num = random_jet_polynomial(rng)
        den = Expression.var(x) ** rng.randint(1, 2) + Expression.const(rng.randint(1, 3))
        e = num / den
        e.validate()
        assert canonicalize(e) == e


def test_evaluate_refuses_a_float():
    e = ex * ey + ey
    with pytest.raises(TypeError, match="gives x a float"):
        e.evaluate({x: 0.5, y: 4})
    exact = e.evaluate({x: Fraction(1, 2), y: 4})
    assert isinstance(exact, Fraction) and exact == 6


# --- memoized gradient and the shared unit denominator -------------------------

def reference_diff(e, v):
    # the Fraction reference's one-variable derivative, canonicalized
    return Ref.of(e).diff(v).expression()


GRADIENT_VARIABLES = [x, y, x.jet(1), y.jet(1), x.jet(2), x.momentum(), coordinate("z")]


def seeded_rational(rng):
    num = random_jet_polynomial(rng, max_terms=5, max_exp=3)
    if rng.random() < 0.25:
        return num
    den = random_polynomial(rng, [x, y], max_terms=3) + Expression.const(rng.randint(1, 3))
    if den.is_zero():
        return num
    return num / den


@pytest.mark.parametrize("seed", range(4))
def test_gradient_matches_one_variable_reference(seed):
    rng = random.Random(5100 + seed)
    for _ in range(25):
        e = seeded_rational(rng)
        expected = {v: reference_diff(e, v) for v in GRADIENT_VARIABLES}
        grad = e.gradient()
        assert set(grad) == e.variables()
        for v in GRADIENT_VARIABLES:
            assert grad.get(v, ZERO) == expected[v]
            assert e.diff(v) == expected[v]
        assert e.gradient() is grad  # one pass, kept


def test_rational_gradient_keys_are_sorted():
    # the quotient rule runs in VarRef order, not in the identity-hash order
    # of a set, so the cost of summing its partials is the same in every process
    rng = random.Random(5150)
    rational = [e for e in (seeded_rational(rng) for _ in range(60)) if not e.is_polynomial()]
    assert len(rational) > 20
    for e in rational:
        assert list(e.gradient()) == sorted(e.gradient())


def test_filled_memo_takes_no_part_in_equality():
    rng = random.Random(5200)
    for _ in range(20):
        e = seeded_rational(rng)
        for fill in (Expression.gradient, Expression.variables):
            fresh = canonicalize(e)
            filled = canonicalize(e)
            fill(filled)
            assert fresh._grad is None and fresh._vars is None
            assert filled._grad is not None or filled._vars is not None
            assert filled == fresh and hash(filled) == hash(fresh)
            assert len({filled, fresh}) == 1


@pytest.mark.parametrize("seed", range(4))
def test_variables_are_kept_and_mentions_reads_them(seed):
    rng = random.Random(5400 + seed)
    for _ in range(25):
        e = seeded_rational(rng)
        vs = e.variables()
        assert type(vs) is frozenset and e.variables() is vs
        for v in GRADIENT_VARIABLES:
            scanned = any(var is v for part in (e._num, e._den) for m in part for var, _ in m)
            assert (v in e.variables()) is scanned
            assert (v in vs) is scanned


def test_polynomials_share_the_unit_denominator():
    rng = random.Random(5300)
    results = []
    for _ in range(30):
        f = random_jet_polynomial(rng)
        g = random_jet_polynomial(rng)
        results += [f + g, f * g, f - g, -f, f ** 2, f.diff(x), f.dt(),
                    f.subs({x: ey + 1, x.jet(1): vy * 2})]
        results += list(g.gradient().values())
        r = f / (ex + 2)
        results += [r.diff(x), r * (ex + 2), r.subs({x: ey})]
    assert _ONE_DEN == {(): Fraction(1)}
    polynomials = [r for r in results if r.is_polynomial()]
    assert len(polynomials) > 200
    assert all(r._den is _ONE_DEN for r in polynomials)


# --- coefficient form: ints over one int denominator, never a float ---------------

def test_coefficients_past_the_digit_limit_render_exactly():
    # 2^20000 and 3^9100 have 6,021 and 4,342 digits, past the 4,300 that
    # str() writes by default; decimal writes any int exactly
    from decimal import Decimal
    big, den = 2 ** 20000, 3 ** 9100
    assert render_expression(Expression.const(big) * ex) == f"{Decimal(big)}*x"
    assert str(Expression.const(Fraction(big, den))) == f"{Decimal(big)}/{Decimal(den)}"
    assert str(-ex / (big * ey + 1)) == f"(-x)/({Decimal(big)}*y + 1)"


def test_integral_coefficients_are_ints():
    for e in (Expression.const(Fraction(4, 2)), Expression.const(3), ex, -ex, 2 * ex * ey):
        assert all(type(c) is int for c in e._num.values()) and e._cden == 1
    assert type(Expression.const(True)._num[()]) is int
    assert (2 * ex) / 2 == ex
    assert hash((2 * ex) / 2) == hash(ex)
    assert str(Expression.const(Fraction(6, 3)) * ex) == str(2 * ex) == "2*x"
    third = Expression.const(1) / 3
    assert third.constant_value() == Fraction(1, 3)
    assert (Expression.const(6) / 3).constant_value() == 2
    assert ZERO.constant_value() == 0 and ZERO.leading_coefficient() == 0
    for bad in (0.5, 2.0, True, Fraction(2), Fraction(-1), Fraction(1, 2)):
        with pytest.raises(AssertionError):
            Expression({((x, 1),): bad}).validate()
    # the denominator is a positive int coprime to the content
    half = Expression.const(1) / 2 * ex
    assert half._num == {((x, 1),): 1} and half._cden == 2 and half.validate()
    for num, cden in (({((x, 1),): 2}, 2), ({((x, 1),): 1}, 0), ({((x, 1),): 1}, -2),
                      ({((x, 1),): 1}, 2.0), ({}, 3)):
        with pytest.raises(AssertionError):
            Expression(num, cden).validate()


def test_a_constant_denominator_is_the_shared_one():
    # the polynomial fast paths test ``_den is _ONE_DEN``; an equal copy
    # would send a polynomial down the canonicalizing path unnoticed
    for e in (ex, ex + ey, ex - ex, ex * ey, (ex / ey) * ey, ex.subs({y: ex}), ex.dt()):
        assert e._den is _ONE_DEN and e.validate()
    # a constant denominator polynomial, of either sign, that is not the
    # shared one takes the general route and lands on it
    for e, expected in ((ex / (1 / ey), ex * ey), (ex / (-2 / ey), -ex * ey / 2),
                        (Expression._make({((x, 1),): 6}, 4, {(): -3}), -ex / 2),
                        (Expression._make({(): 3}, 1, {(): 6}), Expression.const(Fraction(1, 2)))):
        assert e._den is _ONE_DEN and e.validate() and e == expected
    with pytest.raises(AssertionError):
        Expression({((x, 1),): 1}, 1, {(): 1}).validate()


def seeded_assignment(rng, polynomial):
    """Substitutes for some of x, y, x', y'.  Every kind is drawn: a
    constant (possibly 0), a polynomial that brings back the other,
    unsubstituted variables, and one term over ``x + k`` or ``y + k``.
    For a rational ``e`` a coordinate gets ``k*x + j`` or ``k*y + j``, so
    the denominator stays in coordinates and keeps its degree, and a
    polynomial substitute is one term.  Substitutes stay this small
    because the polynomial gcd can run for minutes on larger ones."""
    z = coordinate("z")
    out = {}
    for v in (x, y, x.jet(1), y.jet(1)):
        if rng.random() < 0.4:
            continue
        if v.kind is Kind.COORDINATE and not polynomial:
            out[v] = Expression.var(rng.choice([x, y])) * rng.randint(0, 2) + rng.randint(-2, 2)
            continue
        pool = [x, y, z, x.jet(1), y.jet(1)]
        kind = rng.randrange(3)
        if kind == 0:
            out[v] = Expression.const(rng.randint(-2, 2))
        elif kind == 1:
            out[v] = random_polynomial(rng, pool, max_terms=3 if polynomial else 1)
        else:
            den = Expression.var(rng.choice([x, y])) + rng.randint(1, 3)
            out[v] = random_polynomial(rng, pool, max_terms=1, max_factors=1) / den
    return out


def substitution_target(rng):
    """A polynomial or quotient with exponents up to 2: a cube of a
    quotient put into a quotient takes the polynomial gcd into degrees
    where it can run for minutes."""
    num = random_jet_polynomial(rng, max_terms=5, max_exp=2)
    den = random_polynomial(rng, [x, y], max_terms=2) + rng.randint(1, 3)
    return num if rng.random() < 0.25 or den.is_zero() else num / den


def all_coefficients_exact(value):
    return type(value) in (int, Fraction)


def integral_fractions(e):
    """Coefficients of ``e`` not stored as an int, its coefficient
    denominator included."""
    return [c for c in (*e._num.values(), *e._den.values(), e._cden) if type(c) is not int]


# halves and thirds, as in a kinetic term: their products and sums are
# where a coefficient comes out integral and the denominator must shrink
HALVES_AND_THIRDS = (
    "(x' - y)^2/2",
    "x'^2/3 - 2*x*y'/3 + y^2/2",
    "(x*y' - y*x')/2 + x^3/3",
    "(y'/2 - x/3)/(x + 2)",
)

# two constant-pivot rules, a divisor quadratic in momenta and an
# affine leftover with a coordinate pivot: every path of the reducer
HALVES_AND_THIRDS_CONSTRAINTS = (
    "p_y - x^2/2",
    "2*p_z/3 - x*y/2",
    "p_x^2/2 - y^2/3",
    "x*p_x/3 + z/2",
)


@pytest.mark.parametrize("seed", range(4))
def test_every_result_keeps_exact_coefficients(seed):
    # 150 seeded expressions per seed, each put through division by an int
    # constant, normalization, substitution and evaluation at int points;
    # each is also combined with a parsed expression in halves and thirds
    # and a phase-space polynomial is reduced.  validate() rejects a
    # denominator that shares a factor with the numerator's content, so
    # every integral coefficient is checked to be held over 1.
    rng = random.Random(8100 + seed)
    other = random.Random(8150 + seed)  # keeps rng's draws as they were
    halves = [parse_expression(t) for t in HALVES_AND_THIRDS]
    reducer = WeakReducer([parse_expression(t) for t in HALVES_AND_THIRDS_CONSTRAINTS])
    checked = 0
    for _ in range(150):
        e = substitution_target(rng)
        k = rng.randint(1, 6)
        results = [e, (k * e) / k, e / k, Expression.const(1) / k, e.normalized(),
                   e * Fraction(1, k), e - e]
        assert (k * e) / k == e
        try:
            results.append(e.subs(seeded_assignment(rng, e.is_polynomial())))
        except DivisionByZero:
            pass
        h = other.choice(halves)
        results += [h, e + h, e - h, e * h, h / k, h / (ex + k), h ** 2,
                    h.dt(), h.normalized(), *e.gradient().values(),
                    *h.gradient().values()]
        try:
            results.append(h.subs(seeded_assignment(other, h.is_polynomial())))
        except DivisionByZero:
            pass
        phase = random_phase_polynomial(other)
        results += [reducer.reduce(phase), reducer.reduce(phase * phase * Fraction(2, 3))]
        for r in results:
            r.validate()
            assert not integral_fractions(r)
            if r.is_constant():
                assert all_coefficients_exact(r.constant_value())
            assert all_coefficients_exact(r.leading_coefficient())
        point = {v: rng.randint(-4, 4) for v in e.variables()}
        try:
            value = e.evaluate(point)
        except DivisionByZero:
            continue
        assert type(value) is Fraction
        checked += len(results)
    assert checked >= 500


@pytest.mark.parametrize("name,params", [("maxwell_lattice", {"N": 2}),
                                         ("ym_mechanics", {"with_scalar": True})])
def test_model_coefficients_hold_no_integral_fraction(name, params):
    # a kinetic term's /2 turns -2 into -1: ints over a denominator that
    # shares no factor with them
    m = builtin_model(name, params)
    for e in (m.lagrangian, primary_constraints(m).canonical_hamiltonian):
        assert not integral_fractions(e)
        assert any(type(c) is int for c in e._num.values())
        e.validate()


# --- reference: the Fraction-coefficient kernel -----------------------------------
#
# ``evaluate`` and ``subs`` must give exactly what the reference in
# ``test_kernel_oracle`` gives, which multiplies and sums Fraction
# coefficients step by step.

def reference_evaluate(e, point):
    return Ref.of(e).evaluate(point)


def reference_subs(e, assignment):
    live = {v: Ref.of(Expression._coerce(s)) for v, s in assignment.items()}
    try:
        return Ref.of(e).subs(live).expression()
    except AssertionError:  # the reference divided by zero
        raise DivisionByZero("substitution made the denominator vanish identically")


@pytest.mark.parametrize("seed", range(4))
def test_evaluate_matches_reference(seed):
    rng = random.Random(8200 + seed)
    for _ in range(60):
        e = seeded_rational(rng)
        for point in (random_point(rng, e.variables()),
                      {v: rng.randint(-5, 5) for v in e.variables()}):
            try:
                expected = reference_evaluate(e, point)
            except DivisionByZero:
                with pytest.raises(DivisionByZero):
                    e.evaluate(point)
                continue
            value = e.evaluate(point)
            assert type(value) is Fraction and value == expected


@pytest.mark.parametrize("seed", range(4))
def test_subs_matches_reference(seed):
    rng = random.Random(8300 + seed)
    for _ in range(40):
        e = substitution_target(rng)
        assignment = seeded_assignment(rng, e.is_polynomial())
        try:
            expected = reference_subs(e, assignment)
        except DivisionByZero:
            with pytest.raises(DivisionByZero):
                e.subs(assignment)
            continue
        result = e.subs(assignment)
        result.validate()
        assert result == expected and str(result) == str(expected)


def test_subs_brings_back_a_plain_variable():
    # the substitute mentions a variable the monomial keeps: the raw
    # product must merge the exponents, and a quotient may cancel to a
    # polynomial
    z = Expression.var(coordinate("z"))
    cases = [
        (ex ** 2 * vx, {x.jet(1): ex * ey}),
        (ex * vx + vy, {x.jet(1): Expression.const(1) / ex}),
        (ex * ey * vx, {x.jet(1): (ex + vy) / (ey + 1), y.jet(1): z - ex}),
        (ex * vx ** 2 + 3, {x.jet(1): ex - ex + ey / ex}),
    ]
    for e, assignment in cases:
        result = e.subs(assignment)
        result.validate()
        assert result == reference_subs(e, assignment)
    assert cases[0][0].subs(cases[0][1]) == ex ** 3 * ey
    assert cases[1][0].subs(cases[1][1]) == 1 + vy


def _graded_lex_cmp(a, b, variables):
    """Reference graded lexicographic comparison of two monomials as
    dense exponent vectors over ``variables`` in ascending order: the
    higher degree is larger, then the first variable where the vectors
    differ decides, the higher exponent being larger."""
    va = [dict(a).get(v, 0) for v in variables]
    vb = [dict(b).get(v, 0) for v in variables]
    if sum(va) != sum(vb):
        return 1 if sum(va) > sum(vb) else -1
    for ea, eb in zip(va, vb):
        if ea != eb:
            return 1 if ea > eb else -1
    return 0


@pytest.mark.parametrize("seed", range(4))
def test_mono_sort_key_is_graded_lex(seed):
    rng = random.Random(seed)
    a = coordinate("A", (1,))
    # a jet and the momentum of one base sit next to their coordinate
    variables = sorted([x, x.jet(1), x.jet(2), x.momentum(), y, y.momentum(),
                        a, a.momentum(), multiplier(0)])
    monos = set()
    while len(monos) < 60:
        picked = sorted(rng.sample(variables, rng.randint(0, 3)))
        mono = tuple((v, rng.randint(1, 3)) for v in picked)
        monos.add(mono)
        if mono:
            monos.add(mono[:-1])  # a proper prefix
            # the same degree, moved to another variable
            monos.add(tuple(sorted({**dict(mono[:-1]), variables[0]: mono[-1][1]}.items())))
    monos = list(monos)
    for m1 in monos:
        for m2 in monos:
            expected = _graded_lex_cmp(m1, m2, variables)
            k1, k2 = _mono_sort_key(m1), _mono_sort_key(m2)
            # the key sorts ascending into descending monomial order
            assert (k1 < k2, k1 == k2) == (expected > 0, expected == 0), (m1, m2)
    descending = sorted(monos, key=_mono_sort_key)
    poly = {m: 1 for m in monos}
    assert _p_leading(poly) == descending[0]
    assert all(_graded_lex_cmp(m1, m2, variables) > 0
               for m1, m2 in zip(descending, descending[1:]))
    e = Expression._make(poly, 1, {(): 1})
    assert parse_expression(render_expression(e)) == e


def test_powers_of_a_univariate_base_in_bounded_time():
    # repeated squaring of dense products took 10.4 s on this power; the
    # recurrence for a univariate base makes one pass over the result
    t0 = time.perf_counter()
    e = parse_expression("(x + 1)^4000")
    assert time.perf_counter() - t0 < 5
    assert e.is_polynomial() and e._cden == 1
    assert e._num == {(((x, k),) if k else ()): math.comb(4000, k) for k in range(4001)}


def test_powers_of_a_sparse_univariate_base_in_bounded_time():
    # a recurrence over every degree would take 10^7 steps here; a sparse
    # base squares its few terms
    t0 = time.perf_counter()
    e = parse_expression("(x^1000000 + 1)^10")
    assert time.perf_counter() - t0 < 5
    assert e._num == {(((x, 1000000 * k),) if k else ()): math.comb(10, k) for k in range(11)}


def test_powers_of_a_multivariate_base_in_bounded_time():
    # squaring multiplied dense powers together and took 9.6 s on a
    # 2-core host; one product with the base per step takes under 2 s
    t0 = time.perf_counter()
    e = parse_expression("(x + y + 1)^150")
    assert time.perf_counter() - t0 < 5
    assert len(e._num) == math.comb(152, 2)
    assert e._num[((x, 50), (y, 50))] == math.factorial(150) // math.factorial(50) ** 3
