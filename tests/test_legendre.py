"""Momentum inversion, primary constraints, canonical Hamiltonian.

Expected values for the small models were derived by hand
differentiation of the Lagrangians and are asserted exactly.
"""

import random

import pytest

from gaugeflow import (
    Expression,
    builtin_model,
    compute_momenta,
    coordinate,
    parse_model,
    primary_constraints,
)
from gaugeflow.errors import NonQuadraticVelocity, RankNotConstant
from gaugeflow.linalg import rational_rank
from conftest import random_point

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

    @pytest.mark.parametrize("name,params", [
        ("toy_gauge", {}), ("second_class_toy", {}), ("ym_mechanics", {}),
    ])
    def test_hessian_rank_matches_sampling(self, name, params):
        m = builtin_model(name, params)
        leg = primary_constraints(m)
        rng = random.Random(5)
        variables = set()
        for row in leg.hessian:
            for e in row.values():
                variables |= e.variables()
        pt = random_point(rng, variables)
        numeric = [{c: e.evaluate(pt) if variables else e.evaluate({}) for c, e in row.items()}
                   for row in leg.hessian]
        assert rational_rank(numeric) == leg.rank

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
        # W = [[x]] has symbolic rank 1 but vanishes at x = 0; the best of
        # several sampled points still finds rank 1
        m = parse_model("[vars]\nx\n[lagrangian]\nx*xdot^2/2\n")
        leg = primary_constraints(m)  # generic sampling agrees
        assert leg.rank == 1

    def test_rank_not_constant_raised_at_a_singular_sample(self):
        # W = diag(x + 7/4, 1); the first draw of seed 1729 is x = -7/4
        m = parse_model("[vars]\nx\ny\n[lagrangian]\n(x + 7/4)*x'^2/2 + y'^2/2\n")
        assert m.options.seed == 1729
        with pytest.raises(RankNotConstant) as info:
            primary_constraints(m.with_options(sample_count=1))
        assert (info.value.symbolic_rank, info.value.sampled_rank) == (2, 1)
        assert primary_constraints(m.with_options(sample_count=2)).rank == 2


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
