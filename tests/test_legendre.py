"""Momentum inversion, primary constraints, canonical Hamiltonian.

Expected values for the small models were derived by hand
differentiation of the Lagrangians and are asserted exactly.
"""

import random
import time
from fractions import Fraction

import pytest

from gaugeflow import (
    Expression,
    WeakReducer,
    build_report,
    builtin_model,
    compute_momenta,
    coordinate,
    parse_model,
    primary_constraints,
)
from gaugeflow.errors import DivisionByZero, NonQuadraticVelocity
from gaugeflow.expr import ZERO, Kind, esum
from gaugeflow.linalg import jacobian, rational_rank
from conftest import random_point, random_polynomial

# a builtin's name, or "<coordinates>: <Lagrangian>"
HESSIAN_MODELS = [
    ("toy_gauge", {}), ("second_class_toy", {}), ("ym_mechanics", {}),
    ("x: x*xdot^2/2", {}),
    ("x y: (x + 7/4)*x'^2/2 + y'^2/2", {}),
    ("x y u: (u*x' - y*y')^2/2 - x*y", {}),
    ("x y u: x*(x' - u*y')^2/2 + u'^2/2", {}),
]


def _model(spec, params=None):
    if ":" not in spec:
        return builtin_model(spec, params)
    coords, lagrangian = spec.split(":", 1)
    declarations = "\n".join(coords.split())
    return parse_model(f"[vars]\n{declarations}\n[lagrangian]\n{lagrangian}\n")


x = coordinate("x")
y = coordinate("y")
ex, ey = Expression.var(x), Expression.var(y)
vx, vy = Expression.var(x.jet(1)), Expression.var(y.jet(1))
px, py = Expression.var(x.momentum()), Expression.var(y.momentum())


class TestMomenta:
    def test_toy_gauge(self):
        m = builtin_model("toy_gauge")
        defs = dict(compute_momenta(m))
        assert defs[x] == vx - ey
        assert defs[y].is_zero()

    def test_oscillator(self):
        defs = dict(compute_momenta(builtin_model("oscillator")))
        assert defs[x] == vx

    def test_maxwell_scalar_potentials_frozen(self):
        m = builtin_model("maxwell_lattice", {"N": 2})
        defs = dict(compute_momenta(m))
        for site in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
            assert defs[coordinate("A0", site)].is_zero()


class TestPrimaryConstraints:
    def test_toy_gauge(self):
        leg = primary_constraints(builtin_model("toy_gauge"))
        assert [c.expr for c in leg.primary_constraints] == [py]
        assert leg.rank == 1
        assert leg.canonical_hamiltonian == px ** 2 / 2 + px * ey
        assert dict(leg.solvable_velocities) == {x.jet(1): px + ey}

    def test_oscillator_regular(self):
        leg = primary_constraints(builtin_model("oscillator"))
        assert not leg.primary_constraints
        assert leg.canonical_hamiltonian == px ** 2 / 2 + ex ** 2 / 2

    def test_second_class_toy(self):
        leg = primary_constraints(builtin_model("second_class_toy"))
        assert [c.expr for c in leg.primary_constraints] == [px - ey, py]
        assert leg.rank == 0
        assert leg.canonical_hamiltonian == (ex ** 2 + ey ** 2) / 2

    def test_maxwell_primary_count(self):
        leg = primary_constraints(builtin_model("maxwell_lattice", {"N": 2}))
        assert len(leg.primary_constraints) == 8
        momenta = {str(c.expr) for c in leg.primary_constraints}
        assert momenta == {f"p_A0[{a},{b},{c}]"
                           for a in (0, 1) for b in (0, 1) for c in (0, 1)}

    def test_cubic_velocity_rejected(self):
        m = parse_model("[vars]\nx\n[lagrangian]\nxdot^3\n")
        with pytest.raises(NonQuadraticVelocity):
            primary_constraints(m)

    def test_generation_zero_labels(self):
        leg = primary_constraints(builtin_model("toy_gauge"))
        c = leg.primary_constraints[0]
        assert c.generation == 0 and c.origin == "dirac"


class TestNoncanonical:
    def test_toy_gauge(self):
        leg = primary_constraints(builtin_model("toy_gauge"))
        assert leg.discardable == (y,)

    def test_maxwell_all_scalar_potentials(self):
        leg = primary_constraints(builtin_model("maxwell_lattice", {"N": 2}))
        assert all(q.base == "A0" for q in leg.discardable)
        assert len(leg.discardable) == 8

    def test_oscillator_empty(self):
        leg = primary_constraints(builtin_model("oscillator"))
        assert leg.discardable == ()


class TestInvariants:
    @pytest.mark.parametrize("name,params", [
        ("toy_gauge", {}), ("oscillator", {}), ("second_class_toy", {}),
        ("maxwell_lattice", {"N": 2}), ("ym_mechanics", {}),
    ])
    def test_counting_and_velocity_freedom(self, name, params):
        m = builtin_model(name, params)
        leg = primary_constraints(m)
        assert len(leg.primary_constraints) == m.dimension - leg.rank
        velocities = {q.jet(1) for q in m.coordinate_vars}
        assert not (leg.canonical_hamiltonian.variables() & velocities)
        for c in leg.primary_constraints:
            assert not (c.expr.variables() & velocities)

    @pytest.mark.parametrize("name,params", HESSIAN_MODELS)
    def test_hessian_rank_matches_sampling(self, name, params):
        m = _model(name, params)
        leg = primary_constraints(m)
        velocities = [q.jet(1) for q in m.coordinate_vars]
        hessian = jacobian([pdef for _, pdef in leg.momenta_defs], velocities)
        variables = set()
        for row in hessian:
            for e in row.values():
                variables |= e.variables()
        pt = random_point(random.Random(5), variables)
        numeric = [{c: e.evaluate(pt) for c, e in row.items()} for row in hessian]
        assert rational_rank(numeric) == leg.rank

    @pytest.mark.parametrize("name,params", HESSIAN_MODELS + [
        # the primary u*p_y + p_x*y has no constant momentum coefficient
        ("x y u: (u*x' - y*y')^2/2 + u'*x - y^2/2", {}),
    ])
    def test_unsolved_velocities_drop_out_weakly(self, name, params):
        # p.v - L at the solved velocities is linear in each unsolved
        # velocity, with a velocity-free coefficient that vanishes on the
        # primary surface; zeroing those velocities gives H_c
        m = _model(name, params)
        leg = primary_constraints(m)
        solved = dict(leg.solvable_velocities)
        energy = esum([Expression.var(q.momentum()) * Expression.var(q.jet(1))
                       for q in m.coordinate_vars] + [-m.lagrangian]).subs(solved)
        unsolved = [q.jet(1) for q in m.coordinate_vars if q.jet(1) not in solved]
        reducer = WeakReducer([c.expr for c in leg.primary_constraints])
        for v in unsolved:
            coeff = energy.diff(v)
            assert not coeff.mentions_kind(Kind.JET)
            assert reducer.reduce(coeff).is_zero()
        at_zero = energy.subs({v: Expression.const(0) for v in unsolved})
        assert at_zero == leg.canonical_hamiltonian

    def test_solved_velocities_reproduce_momenta(self):
        # p_x = x' + y' and p_y = x' + 2y' couple the velocities, so the
        # solution back-substitutes y' into x'
        coupled = parse_model("[vars]\nx\ny\n[lagrangian]\nx'^2/2 + x'*y' + y'^2\n")
        leg = primary_constraints(coupled)
        assert dict(leg.solvable_velocities) == {
            x.jet(1): 2 * px - py, y.jet(1): py - px}
        assert leg.canonical_hamiltonian == px ** 2 - px * py + py ** 2 / 2
        for m in (builtin_model("toy_gauge"), builtin_model("oscillator"), coupled):
            leg = primary_constraints(m)
            momenta = dict(leg.momenta_defs)
            solved = dict(leg.solvable_velocities)
            for v, expr in solved.items():
                q = v.coordinate()
                reproduced = momenta[q].subs(solved)
                assert reproduced == Expression.var(q.momentum())

    def test_rank_not_constant_detected(self):
        # W = [[x]] vanishes at x = 0, but its generic rank, which the
        # exact elimination finds, is 1
        m = parse_model("[vars]\nx\n[lagrangian]\nx*xdot^2/2\n")
        leg = primary_constraints(m)
        assert leg.rank == 1

    def test_unsolved_coefficient_vanishes_through_a_coordinate_denominator(self):
        # p_u = p_w = p_x/y on the primary surface, so the coefficient
        # p_w - p_u of the unsolved w' is weakly zero where y != 0,
        # although no polynomial combination of the primaries gives it:
        # y*(p_w - p_u) is the difference of two primaries
        m = _model("x y u w: (y*x' + u' + w')^2/2")
        leg = primary_constraints(m)
        primaries = [c.expr for c in leg.primary_constraints]
        assert [str(e) for e in primaries] == ["p_y", "p_u*y - p_x", "p_w*y - p_x"]
        u, w = coordinate("u"), coordinate("w")
        pu, pw = Expression.var(u.momentum()), Expression.var(w.momentum())
        assert ey * (pw - pu) == primaries[2] - primaries[1]
        assert leg.canonical_hamiltonian == (pu * px * ey - px ** 2 / 2) / ey ** 2

    def test_rank_is_exact_at_a_singular_sample(self):
        # W = diag(x + 7/4, 1); the first draw of seed 1729 is x = -7/4,
        # where W drops rank, and the exact elimination never samples
        m = _model("x y: (x + 7/4)*x'^2/2 + y'^2/2").with_options(sample_count=1)
        assert m.options.seed == 1729
        assert primary_constraints(m).rank == 2
        report = build_report(m)
        assert (report.verdict, report.exit_code) == ("no_gauge_sector", 0)


class TestLegendreTransformConsistency:
    @pytest.mark.parametrize("name,params", [
        ("toy_gauge", {}), ("oscillator", {}),
        ("maxwell_lattice", {"N": 2}), ("ym_mechanics", {}),
    ])
    def test_hamiltonian_momentum_gradient_recovers_velocities(self, name, params):
        # dH_c/dp_a must weakly equal the solved velocity v_a(q, p) on
        # the primary surface for every solvable direction
        from gaugeflow import WeakReducer
        m = builtin_model(name, params)
        leg = primary_constraints(m)
        primaries = [c.expr for c in leg.primary_constraints]
        solved = dict(leg.solvable_velocities)
        for v, expr in solved.items():
            q = v.coordinate()
            gradient = leg.canonical_hamiltonian.diff(q.momentum())
            assert WeakReducer(primaries).reduce(gradient - expr).is_zero()

    def test_ym_scalar_potential_couples_to_gauss_laws(self):
        # the total Hamiltonian is exactly linear in each A0 color
        # component, with the momentum-contraction expression as its
        # coefficient; the time derivative of p_A0 is then its negation
        from gaugeflow import total_hamiltonian
        from test_acceptance import _expected_ym_gauss
        m = builtin_model("ym_mechanics", {"with_scalar": True})
        leg = primary_constraints(m)
        h_total = total_hamiltonian(leg)
        for color in (1, 2, 3):
            a0 = coordinate("A0", (color,))
            coefficient = h_total.diff(a0)
            assert not coefficient.mentions(a0)  # exactly linear
            assert coefficient == _expected_ym_gauss(color)


def test_coordinate_dependent_invertible_hessian():
    # W = [[0, x], [x, 0]] inverts with coordinate denominators
    m = parse_model("[vars]\nx\ny\n[lagrangian]\nx*xdot*ydot\n")
    leg = primary_constraints(m)
    assert leg.rank == 2 and not leg.primary_constraints
    px = coordinate("x").momentum()
    py = coordinate("y").momentum()
    expected = Expression.var(px) * Expression.var(py) / Expression.var(coordinate("x"))
    assert leg.canonical_hamiltonian == expected


def reference_hamiltonian(m, leg):
    """``p.v - L`` with the solved velocities substituted, then the
    unsolved ones set to 0: the substitution route that the closed form
    over the elimination replaced, kept as its reference."""
    coords = m.coordinate_vars
    velocities = [q.jet(1) for q in coords]
    momenta = [q.momentum() for q in coords]
    solved = dict(leg.solvable_velocities)
    unsolved = {v: ZERO for v in velocities if v not in solved}
    return esum(
        [Expression.var(p) * Expression.var(v) for p, v in zip(momenta, velocities)]
        + [-m.lagrangian]).subs(solved).subs(unsolved)


def random_quadratic_model(rng):
    """Squares of velocity forms with constant coefficients, each shifted
    by a coordinate polynomial, plus a potential and up to three
    coordinate-dependent Hessian cells, diagonal or not.  Most models
    get a coordinate denominator and some come out singular; the
    reference substitution stays fast on them, which it is not once
    every Hessian cell may depend on coordinates (four cells can already
    take it past a minute)."""
    names = ["x", "y", "u"][:rng.randint(2, 3)]
    coords = [coordinate(b) for b in names]
    vs = [Expression.var(q.jet(1)) for q in coords]
    lagrangian = random_polynomial(rng, coords, max_terms=2, max_factors=2, max_exp=1)
    for _ in range(rng.randint(1, len(names))):
        form = esum([random_polynomial(rng, coords, max_terms=1, max_factors=0) * v
                     for v in rng.sample(vs, rng.randint(1, len(names)))])
        shift = random_polynomial(rng, coords, max_terms=2, max_factors=1, max_exp=1)
        lagrangian = lagrangian + (form + shift) ** 2 / 2
    for _ in range(rng.randint(0, 3)):
        cell = random_polynomial(rng, coords, max_terms=1, max_factors=1, max_exp=1)
        lagrangian = lagrangian + cell * rng.choice(vs) * rng.choice(vs) / 2
    return parse_model("[vars]\n" + "\n".join(names)
                       + f"\n[lagrangian]\n{lagrangian}\n")


class TestCanonicalHamiltonianReference:
    @pytest.mark.parametrize("name,params", HESSIAN_MODELS + [
        ("oscillator", {}), ("ym_mechanics", {"with_scalar": False}),
        ("maxwell_lattice", {"N": 2}),
        ("x y u: (u*x' - y*y')^2/2 + u'*x - y^2/2", {}),
        ("x y u w: (y*x' + u' + w')^2/2", {}),
    ])
    def test_catalog_matches_reference(self, name, params):
        m = _model(name, params)
        leg = primary_constraints(m)
        assert leg.canonical_hamiltonian == reference_hamiltonian(m, leg)

    def test_random_quadratic_models_match_reference(self):
        singular = rational = 0
        for seed in range(40):
            m = random_quadratic_model(random.Random(seed))
            leg = primary_constraints(m)
            assert leg.canonical_hamiltonian == reference_hamiltonian(m, leg), seed
            singular += leg.rank < m.dimension
            rational += not leg.canonical_hamiltonian.is_polynomial()
        assert singular and rational  # both kinds of model are covered

    def test_model_the_substitution_stalled_on(self):
        # the substitution route took minutes on this model; H must
        # still equal p.S - L(S) at exact points, S the solved velocities
        # with the unsolved ones at 0
        m = _model("x y u: ((y+1)*x' + y)^2/2 + (2*x*x' + y'/2 + 1)^2/2 + 3/2*u*y'")
        t0 = time.perf_counter()
        leg = primary_constraints(m)
        assert time.perf_counter() - t0 < 5
        solved = dict(leg.solvable_velocities)
        coords = m.coordinate_vars
        rng = random.Random(11)
        checked = 0
        while checked < 5:
            point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     for q in coords for v in (q, q.momentum())}
            point.update({q.jet(1): 0 for q in coords if q.jet(1) not in solved})
            try:
                at = {v: e.evaluate(point) for v, e in solved.items()}
                h = leg.canonical_hamiltonian.evaluate(point)
            except DivisionByZero:
                continue  # a pole of the solved velocities
            velocities = {q.jet(1): at.get(q.jet(1), 0) for q in coords}
            lagrangian = m.lagrangian.evaluate({**point, **velocities})
            momentum_sum = sum(point[q.momentum()] * velocities[q.jet(1)] for q in coords)
            assert h == momentum_sum - lagrangian
            checked += 1
