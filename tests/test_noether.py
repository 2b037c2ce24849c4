"""Equations of motion, gauge identities, the single-step rule."""

import pytest

from gaugeflow import (
    Expression,
    GaugeGenerator,
    GeneratorComponent,
    WeakReducer,
    builtin_model,
    conjecture_constraints,
    coordinate,
    euler_lagrange,
    independence_check,
    noether_identity_check,
    parse_model,
    primary_constraints,
    run_dirac,
)
from gaugeflow.errors import (
    ConjectureInapplicable,
    DegenerateGenerator,
    IdentityViolated,
)

x = coordinate("x")
y = coordinate("y")
ex, ey = Expression.var(x), Expression.var(y)
vx, vy = Expression.var(x.jet(1)), Expression.var(y.jet(1))
ax = Expression.var(x.jet(2))
px = Expression.var(x.momentum())


def corrupt(m, gen_index, comp_index, delta=1):
    """Shift one generator coefficient by a constant."""
    gens = list(m.generators)
    g = gens[gen_index]
    comps = list(g.components)
    old = comps[comp_index]
    comps[comp_index] = GeneratorComponent(
        old.coordinate, old.order, old.coefficient + Expression.const(delta))
    gens[gen_index] = GaugeGenerator(g.parameter_name, tuple(comps))
    return m.with_generators(gens)


class TestEulerLagrange:
    def test_toy_gauge(self):
        table = dict(euler_lagrange(builtin_model("toy_gauge")))
        assert table[x] == ax - vy
        assert table[y] == vx - ey

    def test_oscillator(self):
        table = dict(euler_lagrange(builtin_model("oscillator")))
        assert table[x] == ax + ex

    def test_free_particle(self):
        m = parse_model("[vars]\nx\n[lagrangian]\nxdot^2/2\n")
        assert dict(euler_lagrange(m))[x] == ax


class TestNoetherIdentity:
    def test_toy_gauge_residue_is_zero(self):
        report = noether_identity_check(builtin_model("toy_gauge"))
        assert report.passed()
        assert [name for name, _ in report.residues] == ["eps"]

    @pytest.mark.parametrize("name,params", [
        ("maxwell_lattice", {"N": 2}),
        ("maxwell_lattice", {"N": 1}),
        ("ym_mechanics", {"with_scalar": True}),
        ("ym_mechanics", {"with_scalar": False}),
    ])
    def test_builtin_identities_hold_exactly(self, name, params):
        report = noether_identity_check(builtin_model(name, params))
        assert report.passed()

    def test_corrupted_coefficient_detected(self):
        m = corrupt(builtin_model("toy_gauge"), 0, 1)
        report = noether_identity_check(m)
        assert not report.passed()
        residues = dict(report.residues)
        assert not residues["eps"].is_zero()

    def test_no_generators_passes_trivially(self):
        report = noether_identity_check(builtin_model("oscillator"))
        assert report.passed() and report.residues == ()


class TestIndependence:
    def test_single_generator(self):
        assert independence_check(builtin_model("toy_gauge"))

    def test_ym_three_colors(self):
        assert independence_check(builtin_model("ym_mechanics"))

    def test_duplicated_generator_fails(self):
        m = builtin_model("toy_gauge")
        g = m.generators[0]
        twin = GaugeGenerator("eps2", g.components)
        assert not independence_check(m.with_generators([g, twin]))


class TestConjecture:
    def test_toy_gauge(self):
        m = builtin_model("toy_gauge")
        leg = primary_constraints(m)
        constraints = conjecture_constraints(m, leg, noether_identity_check(m))
        assert [c.expr for c in constraints] == [px]
        assert constraints[0].origin == "conjecture"

    def test_a_failed_identity_report_is_refused(self):
        # y shifts by 2 eps' where x' - y needs eps'
        m = corrupt(builtin_model("toy_gauge"), 0, 1)
        report = noether_identity_check(m)
        with pytest.raises(IdentityViolated, match=r"generator\(s\): eps$"):
            conjecture_constraints(m, primary_constraints(m), report)

    def test_matches_dirac_secondaries_exactly_on_ym(self):
        m = builtin_model("ym_mechanics")
        leg = primary_constraints(m)
        conj = conjecture_constraints(m, leg, noether_identity_check(m))
        secondaries = [c.expr for c in run_dirac(m, leg).constraints if c.generation == 1]
        assert sorted(map(str, (c.expr for c in conj))) == sorted(map(str, secondaries))

    def test_gauss_law_shape_on_lattice(self):
        m = builtin_model("maxwell_lattice", {"N": 2})
        leg = primary_constraints(m)
        conj = conjecture_constraints(m, leg, noether_identity_check(m))
        assert len(conj) == 8
        # hand-built signed neighbor sum at one site
        def p_link(i, site):
            return Expression.var(coordinate("A", (i,) + site).momentum())
        site = (0, 1, 0)
        gauss = (p_link(1, site) - p_link(1, (1, 1, 0))
                 + p_link(2, site) - p_link(2, (0, 0, 0))
                 + p_link(3, site) - p_link(3, (0, 1, 1)))
        assert any(c.expr == gauss.normalized() or c.expr == (-gauss).normalized()
                   for c in conj)

    def test_degenerate_single_site(self):
        m = builtin_model("maxwell_lattice", {"N": 1})
        leg = primary_constraints(m)
        with pytest.raises(DegenerateGenerator):
            conjecture_constraints(m, leg, noether_identity_check(m))

    def test_inapplicable_when_kplus_hits_canonical(self):
        # give the oscillator a fake generator with k=1 on a canonical
        # coordinate; skip the (failing) identity check with a stub report
        from gaugeflow import NoetherReport
        m = builtin_model("oscillator")
        fake = GaugeGenerator("eps", (GeneratorComponent(x, 1, Expression.const(1)),))
        m = m.with_generators([fake])
        leg = primary_constraints(m)
        with pytest.raises(ConjectureInapplicable):
            conjecture_constraints(m, leg, noether=NoetherReport(()))

    def test_weakly_contained_in_dirac_set(self):
        for name, params in [("toy_gauge", {}), ("maxwell_lattice", {"N": 2}),
                             ("ym_mechanics", {})]:
            m = builtin_model(name, params)
            leg = primary_constraints(m)
            dirac_exprs = [c.expr for c in run_dirac(m, leg).constraints]
            for c in conjecture_constraints(m, leg, noether_identity_check(m)):
                assert WeakReducer(dirac_exprs).reduce(c.expr).is_zero()

    def test_first_class_against_full_dirac_set(self):
        from gaugeflow import poisson_bracket
        for name, params in [("toy_gauge", {}), ("ym_mechanics", {})]:
            m = builtin_model(name, params)
            leg = primary_constraints(m)
            dirac_exprs = [c.expr for c in run_dirac(m, leg).constraints]
            for c in conjecture_constraints(m, leg, noether_identity_check(m)):
                for other in dirac_exprs:
                    br = poisson_bracket(c.expr, other)
                    assert WeakReducer(dirac_exprs).reduce(br).is_zero()
