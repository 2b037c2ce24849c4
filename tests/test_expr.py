"""Expression kernel: canonical forms, calculus, evaluation."""

import gc
import random
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
    JetOrderExceeded,
    MomentumInTimeDerivative,
)

import math

from gaugeflow.expr import (
    ZERO,
    _ONE_DEN,
    _mono_sort_key,
    _p_add,
    _p_add_into,
    _p_const,
    _p_leading,
    _p_mul,
    _p_neg,
)

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

    def test_pool_releases_unreferenced_variables(self):
        v = VarRef("pool_probe", (4, 2), Kind.MOMENTUM)
        assert VarRef("pool_probe", (4, 2), Kind.MOMENTUM) is v
        key = v._key
        assert key in VarRef._pool
        del v
        gc.collect()
        assert key not in VarRef._pool


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

    def test_jet_cap(self):
        e = Expression.var(x.jet(3))
        with pytest.raises(JetOrderExceeded):
            e.dt()
        assert e.dt(max_order=4) == Expression.var(x.jet(4))

    def test_leibniz(self, rng):
        for _ in range(50):
            f = random_jet_polynomial(rng)
            g = random_jet_polynomial(rng)
            cap = 9
            lhs = (f * g).dt(cap)
            rhs = f.dt(cap) * g + f * g.dt(cap)
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


def test_evaluate_float_contagion():
    e = ex * ey + ey
    value = e.evaluate({x: 0.5, y: 4})
    assert isinstance(value, float) and value == 6.0
    exact = e.evaluate({x: Fraction(1, 2), y: 4})
    assert isinstance(exact, Fraction) and exact == 6


# --- memoized gradient and the shared unit denominator -------------------------

def reference_p_diff(p, v):
    # the one-variable loop that ``gradient`` replaced, kept as the reference
    acc = {}
    for m, c in p.items():
        for k, (var, e) in enumerate(m):
            if var is v:
                nm = m[:k] + ((var, e - 1),) + m[k + 1:] if e > 1 else m[:k] + m[k + 1:]
                _p_add_into(acc, {nm: c * e})
                break
    return acc


def reference_diff(e, v):
    dn = reference_p_diff(e._num, v)
    if set(e._den) == {()}:
        return Expression._make(dn, e._den) if dn else ZERO
    dd = reference_p_diff(e._den, v)
    num = _p_add(_p_mul(dn, e._den), _p_neg(_p_mul(e._num, dd)))
    return Expression._make(num, _p_mul(e._den, e._den))


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
            assert e.mentions(v) is scanned
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


# --- coefficient form: an int or a Fraction, never a float ---------------------

def test_integral_coefficients_are_ints():
    for e in (Expression.const(Fraction(4, 2)), Expression.const(3), ex, -ex, 2 * ex * ey):
        assert all(type(c) is int for c in e._num.values())
    assert type(Expression.const(True)._num[()]) is int
    assert (2 * ex) / 2 == ex
    assert hash((2 * ex) / 2) == hash(ex)
    assert str(Expression.const(Fraction(6, 3)) * ex) == str(2 * ex) == "2*x"
    third = Expression.const(1) / 3
    assert third.constant_value() == Fraction(1, 3)
    assert (Expression.const(6) / 3).constant_value() == 2
    assert ZERO.constant_value() == 0 and ZERO.leading_coefficient() == 0
    for bad in (0.5, 2.0, True, Fraction(2), Fraction(-1)):
        with pytest.raises(AssertionError):
            Expression({((x, 1),): bad}).validate()


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
    """Coefficients of ``e`` that are integral but stored as a Fraction."""
    return [c for c in (*e._num.values(), *e._den.values())
            if type(c) is Fraction and c.denominator == 1]


# halves and thirds, as in a kinetic term: their products and sums are
# where an integral Fraction could arise
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
    # and a phase-space polynomial is reduced.  validate() rejects an
    # integral Fraction, so every result is checked for "integral means int".
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
    # a kinetic term's /2 turns -2 into -1: that must be stored as an int
    m = builtin_model(name, params)
    for e in (m.lagrangian, primary_constraints(m).canonical_hamiltonian):
        assert not integral_fractions(e)
        assert any(type(c) is int for c in e._num.values())
        e.validate()


# --- reference: the Fraction-per-step kernel loops -------------------------------
#
# ``reference_p_eval`` and ``reference_subs_poly`` are the evaluation and
# substitution loops the kernel had before it switched to integer
# arithmetic and raw polynomial products; ``evaluate`` and ``subs`` must
# give exactly what they give.

def reference_p_eval(p, point):
    total = Fraction(0)
    is_float = False
    for m, c in p.items():
        val = c
        for v, e in m:
            x = point[v]
            if isinstance(x, float):
                is_float = True
            val = val * x ** e
        total = total + val
    if is_float and isinstance(total, Fraction):
        return float(total)
    return total


def reference_subs_poly(p, live):
    acc = {}        # fast path: polynomial terms accumulate in one dict
    fractional = None
    for m, c in p.items():
        term = None
        plain = []
        for v, e in m:
            sub = live.get(v)
            if sub is None:
                plain.append((v, e))
            else:
                term = sub ** e if term is None else term * sub ** e
        if term is None:
            _p_add_into(acc, {tuple(plain): c})
            continue
        if plain:
            term = term * Expression({tuple(plain): Fraction(1)})
        term = term * c
        if term.is_polynomial():
            _p_add_into(acc, term._num)
        else:
            fractional = term if fractional is None else fractional + term
    out = Expression._make(acc, _p_const(1)) if acc else ZERO
    return out + fractional if fractional is not None else out


def reference_evaluate(e, point):
    den = reference_p_eval(e._den, point)
    if den == 0:
        raise DivisionByZero("denominator vanishes at the sampled point")
    return reference_p_eval(e._num, point) / den


def reference_subs(e, assignment):
    live = {v: Expression._coerce(assignment[v]) for v in e.variables()
            if v in assignment}
    if not live:
        return e
    num = reference_subs_poly(e._num, live)
    den = reference_subs_poly(e._den, live)
    if den.is_zero():
        raise DivisionByZero("substitution made the denominator vanish identically")
    return num / den


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
        floats = {v: rng.randint(-12, 12) / 4 for v in e.variables()}
        try:
            expected = reference_evaluate(e, floats)
        except DivisionByZero:
            continue
        value = e.evaluate(floats)
        assert type(value) is type(expected)
        assert math.isclose(value, expected, rel_tol=1e-12, abs_tol=1e-12)


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
    e = Expression._make(poly, _p_const(1))
    assert parse_expression(render_expression(e)) == e
