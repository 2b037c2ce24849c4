"""Poisson brackets, consistency outcomes, weak equality."""

import random
from pathlib import Path

import pytest

from gaugeflow import (
    Constraint,
    Contradiction,
    Expression,
    Identity,
    MultiplierFixed,
    NewConstraint,
    Options,
    WeakReducer,
    build_report,
    builtin_model,
    consistency_step,
    coordinate,
    multiplier,
    parse_model,
    poisson_bracket,
    primary_constraints,
    run_dirac,
    total_hamiltonian,
    weak_zero_numeric,
)
import gaugeflow.dirac
import gaugeflow.reduction
from gaugeflow.dirac import FIRST, SECOND, classify
from gaugeflow.errors import OddSecondClassCount, SurfaceSamplingFailed
from gaugeflow.expr import Divisors, Kind, esum
from gaugeflow.reduction import (
    NumericVerdict,
    SurfaceSampler,
    _constant_pivot,
    sample_surface_points,
)

from conftest import PAIR_COORDS, random_phase_polynomial, random_polynomial

x = coordinate("x")
y = coordinate("y")
z = coordinate("z")
ex, ey = Expression.var(x), Expression.var(y)
px, py = Expression.var(x.momentum()), Expression.var(y.momentum())
pz = Expression.var(z.momentum())
MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def dirac_constraint(expr, generation=0):
    return Constraint(expr, generation, "dirac")


def test_zero_constraint_is_refused():
    with pytest.raises(ValueError, match="identically zero"):
        Constraint(Expression.const(0), 0, "dirac")


@pytest.mark.parametrize("v", [x.jet(1), multiplier(0)], ids=str)
def test_constraint_off_phase_space_is_refused(v):
    with pytest.raises(ValueError, match="^constraints live on phase space; found "):
        Constraint(Expression.var(v), 0, "dirac")


def reducer_over(known):
    return WeakReducer([c.expr for c in known])


def every_pair_bracket(f, g, pairs):
    """Reference bracket: every given (coordinate, momentum) pair is
    visited, none pruned."""
    fvars, gvars = f.variables(), g.variables()
    terms = []
    for q, p in pairs:
        if q in fvars and p in gvars:
            terms.append(f.diff(q) * g.diff(p))
        if p in fvars and q in gvars:
            terms.append(-(f.diff(p) * g.diff(q)))
    return esum(terms)


class TestPoissonBracket:
    def test_canonical_pair(self):
        assert poisson_bracket(ex, px) == Expression.const(1)

    def test_toy_hamiltonian_conserves_px(self):
        h = px ** 2 / 2 + px * ey
        assert poisson_bracket(px, h).is_zero()

    def test_antisymmetry_on_basics(self):
        f = ex * px + ey ** 2
        g = py * ex
        assert poisson_bracket(f, g) == -poisson_bracket(g, f)

    @pytest.mark.parametrize("seed", range(4))
    def test_pruned_bracket_matches_every_pair_loop(self, seed):
        rng = random.Random(5400 + seed)
        full = tuple((q, q.momentum()) for q in PAIR_COORDS)
        for _ in range(15):
            f = random_phase_polynomial(rng, max_terms=5)
            g = random_phase_polynomial(rng, max_terms=5)
            assert poisson_bracket(f, g) == every_pair_bracket(f, g, full)

    def test_variables_outside_pairs_are_spectators(self):
        # a multiplier (or a jet) has no partner: it brackets to zero and
        # rides along as a coefficient
        lam = Expression.var(multiplier(0))
        assert poisson_bracket(lam, ex + px).is_zero()
        assert poisson_bracket(lam * px, ex) == -lam
        assert poisson_bracket(Expression.var(x.jet(1)), ex + px).is_zero()
        # a coordinate no model declares still pairs with its own momentum
        w = coordinate("w", (7,))
        ew, pw = Expression.var(w), Expression.var(w.momentum())
        assert poisson_bracket(ew * ey, pw) == ey
        assert poisson_bracket(pw, ew ** 2) == -2 * ew


class TestTotalHamiltonian:
    def test_toy_gauge(self):
        leg = primary_constraints(builtin_model("toy_gauge"))
        lam0 = Expression.var(multiplier(0))
        assert total_hamiltonian(leg) == px ** 2 / 2 + px * ey + lam0 * py

    def test_oscillator_has_no_multipliers(self):
        leg = primary_constraints(builtin_model("oscillator"))
        assert total_hamiltonian(leg) == leg.canonical_hamiltonian

    def test_maxwell_single_site(self):
        leg = primary_constraints(builtin_model("maxwell_lattice", {"N": 1}))
        expected = sum(
            (Expression.var(coordinate("A", (i, 0, 0, 0)).momentum()) ** 2 / 2
             for i in (1, 2, 3)), Expression.const(0))
        expected = expected + Expression.var(multiplier(0)) * Expression.var(
            coordinate("A0", (0, 0, 0)).momentum())
        assert total_hamiltonian(leg) == expected


class TestConsistencyStep:
    def test_new_constraint(self):
        leg = primary_constraints(builtin_model("toy_gauge"))
        h = total_hamiltonian(leg)
        out = consistency_step(poisson_bracket(leg.primary_constraints[0].expr, h),
                               reducer_over(leg.primary_constraints))
        assert isinstance(out, NewConstraint) and out.expr == px

    def test_identity_on_second_pass(self):
        leg = primary_constraints(builtin_model("toy_gauge"))
        h = total_hamiltonian(leg)
        known = list(leg.primary_constraints) + [dirac_constraint(px, 1)]
        out = consistency_step(poisson_bracket(px, h), reducer_over(known))
        assert isinstance(out, Identity)

    def test_contradiction(self):
        m = parse_model("[vars]\nx\n[lagrangian]\nx\n")
        leg = primary_constraints(m)
        h = total_hamiltonian(leg)
        out = consistency_step(poisson_bracket(leg.primary_constraints[0].expr, h),
                               reducer_over(leg.primary_constraints))
        assert isinstance(out, Contradiction)
        assert out.witness.is_constant()

    def test_multiplier_fixed(self):
        m = builtin_model("second_class_toy")
        leg = primary_constraints(m)
        h = total_hamiltonian(leg)
        out = consistency_step(poisson_bracket(leg.primary_constraints[1].expr, h),
                               reducer_over(leg.primary_constraints))
        assert isinstance(out, MultiplierFixed)
        assert out.multiplier == multiplier(0)
        assert out.value == ey

    def test_multiplier_coefficients_are_already_reduced(self):
        # the premise of solving for a multiplier without reducing its
        # coefficient again: constraints mention no multiplier and
        # f0 + sum(lam_i*f_i) is linear in them, so graded-lex division
        # leaves each multiplier's coefficient irreducible, over a
        # coordinate denominator too; half the sets have a solved momentum
        rng = random.Random(2718)
        lams = [Expression.var(multiplier(i)) for i in range(3)]
        seen = 0
        for trial in range(300):
            exprs = [random_phase_polynomial(rng, max_terms=3)
                     for _ in range(rng.randint(1, 3))]
            if trial % 2:
                exprs.append(Expression.var(rng.choice(PAIR_COORDS).momentum())
                             + random_polynomial(rng, list(PAIR_COORDS)))
            reducer = WeakReducer(exprs)
            e = esum([random_phase_polynomial(rng)]
                     + [lam * random_phase_polynomial(rng) for lam in lams])
            if trial % 3 == 0:
                den = random_polynomial(rng, list(PAIR_COORDS), max_terms=2)
                if not den.is_zero():
                    e = e / den
            residue = reducer.reduce(e)
            for v in residue.variables():
                if v.kind is Kind.MULTIPLIER:
                    coeff = residue.diff(v)
                    assert reducer.reduce(coeff) == coeff
                    seen += 1
        assert seen > 300


class TestRunDirac:
    def test_toy_gauge_two_generations(self):
        m = builtin_model("toy_gauge")
        d = run_dirac(m, primary_constraints(m))
        assert [(str(c.expr), c.generation) for c in d.constraints] == [
            ("p_y", 0), ("p_x", 1)]
        assert d.generations_run == 2
        assert d.consistent

    def test_second_class_toy_multipliers(self):
        m = builtin_model("second_class_toy")
        d = run_dirac(m, primary_constraints(m))
        assert [str(c.expr) for c in d.constraints] == ["p_x - y", "p_y"]
        assert [(str(v), str(e)) for v, e in d.multiplier_equations] == [
            ("lam[1]", "-x"), ("lam[0]", "y")]
        assert d.generations_run == 1

    @pytest.mark.parametrize("src,constraint,partial", [
        # L = x: preserving p_x demands {p_x, -x} = 1 = 0
        ("[vars]\nx\n[lagrangian]\nx\n", px, ["p_x"]),
        # p_y = y' + 2v + 2u, primaries p_u and p_v, and
        # H = p_y^2/2 - 2(u + v)p_y + 2u.  Preserving p_v gives p_y = 0 and
        # preserving p_u gives p_y = 1: each is nonzero on the primary
        # surface, so both enter generation 1, and merging them reduces 1 to 0
        ("[vars]\ny\nu\nv\n[lagrangian]\n(y' + 2*v + 2*u)^2/2 - 2*u\n", py,
         ["p_u", "p_v", "p_y - 1", "p_y"]),
    ], ids=["constant_residue", "two_multipliers"])
    def test_inconsistent_lagrangian(self, src, constraint, partial):
        m = parse_model(src)
        result = run_dirac(m, primary_constraints(m))
        assert result.witness == Expression.const(1)
        assert result.culprit.expr == constraint
        assert [str(c.expr) for c in result.constraints] == partial
        assert {c.class_label for c in result.constraints} == {"unclassified"}
        assert not result.consistent

    @pytest.mark.parametrize("seed", [1, 7, 1729])
    def test_momentum_coefficient_keeps_the_whole_residue(self, seed):
        # p_y = y' + 2y - u^2 and p_u = 0, so H_c = p_y^2/2 - 2y p_y
        # + u^2 p_y + u.  {p_u, H_T} = -(2u p_y + 1) gives u*p_y + 1/2.
        # {u p_y + 1/2, H_T} = 2u p_y + lam[0] p_y reduces to
        # lam[0] p_y - 1; solving for lam[0] would put p_y in a
        # denominator, so the residue itself is the multiplier equation.
        # {p_u, u p_y + 1/2} = -p_y is weakly nonzero: both second class
        m = parse_model("[vars]\ny\nu\n[lagrangian]\n(y' + 2*y - u^2)^2/2 - u\n")
        report = build_report(m.with_options(seed=seed))
        d = report.dirac
        assert [(str(c.expr), c.class_label) for c in d.constraints] == [
            ("p_u", "second"), ("u*p_y + 1/2", "second")]
        assert [(str(v), str(e)) for v, e in d.multiplier_equations] == [
            ("lam[0]", "lam[0]*p_y - 1")]
        assert report.verdict == "no_gauge_sector"

    def test_maxwell_counts(self):
        m = builtin_model("maxwell_lattice", {"N": 2})
        d = run_dirac(m, primary_constraints(m))
        by_gen = d.by_generation()
        assert len(by_gen[0]) == 8 and len(by_gen[1]) == 8
        assert d.generations_run == 2

    def test_each_constraint_is_bracketed_once(self, monkeypatch):
        # {c, H_T} is the same in every generation; only its reduction
        # changes.  8 primaries and 8 Gauss laws over 2 generations: one
        # bracket per constraint per generation would make 8 + 16 = 24
        brackets = []
        bracket = gaugeflow.dirac.poisson_bracket
        monkeypatch.setattr(gaugeflow.dirac, "poisson_bracket",
                            lambda f, g: brackets.append(f) or bracket(f, g))
        m = builtin_model("maxwell_lattice", {"N": 2})
        d = run_dirac(m, primary_constraints(m))
        assert d.generations_run == 2 and len(d.constraints) == 16
        assert len(brackets) == 16
        assert set(brackets) == {c.expr for c in d.constraints}

    def test_deterministic(self):
        ma, mb = builtin_model("ym_mechanics"), builtin_model("ym_mechanics")
        a = run_dirac(ma, primary_constraints(ma))
        b = run_dirac(mb, primary_constraints(mb))
        assert a == b


# x^2+y^2-1 is a hard surface: the only sampled points on it are (±1, 0)
# and (0, ±1), too few for sample_count of them within the attempt budget
CIRCLE_SOURCE = """[model]
name = circle

[vars]
x
y
l

[lagrangian]
(x'^2 + y'^2) / 2 - l * (x^2 + y^2 - 1) / 2
"""


def record_draws(monkeypatch):
    """Record every batch of surface points a sampler draws, as
    ``(sampler, points)``."""
    draws = []
    draw = gaugeflow.reduction.sample_surface_points

    def recording(sampler, count):
        points = draw(sampler, count)
        draws.append((sampler, points))
        return points

    monkeypatch.setattr(gaugeflow.reduction, "sample_surface_points", recording)
    return draws


def test_candidate_zero_at_the_first_point_is_admitted_at_a_later_one(monkeypatch):
    # at seed 19 generation 2's first point on the circle is a zero of
    # x*p_x + y*p_y; a second point is drawn, and there it is nonzero
    draws = record_draws(monkeypatch)
    m = parse_model(CIRCLE_SOURCE).with_options(seed=19)
    d = run_dirac(m, primary_constraints(m))
    candidate = next(c for c in d.constraints if c.generation == 2)
    assert str(candidate.expr) == "x*p_x + y*p_y"
    samplers = list(dict.fromkeys(sampler for sampler, _ in draws))
    points = [p for sampler, batch in draws if sampler is samplers[1] for p in batch]
    assert len(points) == 2
    assert candidate.expr.evaluate(points[0]) == 0
    assert candidate.expr.evaluate(points[1]) != 0
    assert [c.generation for c in d.constraints] == [0, 1, 2, 3]
    assert not d.diagnostics


def classify_all_pairs(constraints, pairs, reducer):
    """Reference labels: every pair bracketed, none skipped."""
    exprs = [c.expr for c in constraints]
    second = [False] * len(exprs)
    for i in range(len(exprs)):
        for j in range(i + 1, len(exprs)):
            if not reducer.reduce(every_pair_bracket(exprs[i], exprs[j], pairs)).is_zero():
                second[i] = second[j] = True
    if sum(second) % 2:
        return sum(second)
    return [SECOND if flag else FIRST for flag in second]


def classify_labels(constraints, reducer):
    result = gaugeflow.DiracResult(tuple(constraints), (), 1)
    try:
        labelled = classify(result, reducer)
    except OddSecondClassCount as exc:
        return exc.count
    return [c.class_label for c in labelled.constraints]


class TestClassify:
    def test_toy_gauge_first_class(self):
        m = builtin_model("toy_gauge")
        d = run_dirac(m, primary_constraints(m))
        assert all(c.class_label == "first" for c in d.constraints)

    def test_second_class_pair(self):
        m = builtin_model("second_class_toy")
        d = run_dirac(m, primary_constraints(m))
        assert all(c.class_label == "second" for c in d.constraints)
        assert poisson_bracket(px - ey, py) == Expression.const(-1)

    def test_ym_all_first_class(self):
        m = builtin_model("ym_mechanics")
        d = run_dirac(m, primary_constraints(m))
        assert all(c.class_label == "first" for c in d.constraints)
        assert len(d.first_class()) == 6

    def test_indexed_pairs_match_all_pairs_on_random_sets(self):
        rng = random.Random(4242)
        phase = [v for q in PAIR_COORDS for v in (q, q.momentum())]
        pairs = tuple((q, q.momentum()) for q in PAIR_COORDS)
        outcomes = set()
        for _ in range(60):
            exprs = []
            size = rng.randint(2, 5)
            while len(exprs) < size:
                # two variables each, so that many pairs share no conjugate
                e = random_polynomial(rng, rng.sample(phase, 2), max_terms=2)
                if not e.is_constant():
                    exprs.append(e)
            constraints = [dirac_constraint(e) for e in exprs]
            reducer = WeakReducer(exprs)
            expected = classify_all_pairs(constraints, pairs, reducer)
            assert classify_labels(constraints, reducer) == expected
            outcomes.add(expected if isinstance(expected, int) else tuple(sorted(expected)))
        # both labels and the odd-count refusal were exercised
        assert any(isinstance(o, int) for o in outcomes)
        assert any(isinstance(o, tuple) and FIRST in o for o in outcomes)
        assert any(isinstance(o, tuple) and SECOND in o for o in outcomes)

    def test_indexed_pairs_match_all_pairs_on_second_class_toy(self):
        m = builtin_model("second_class_toy")
        constraints = run_dirac(m, primary_constraints(m)).constraints
        reducer = WeakReducer([c.expr for c in constraints])
        labels = classify_labels(constraints, reducer)
        assert labels == classify_all_pairs(constraints, m.canonical_pairs(),
                                            reducer) == [SECOND, SECOND]

    def test_rank_anomaly_still_refused(self):
        # three second-class constraints, one combination first class
        # (ROADMAP item 1): pairwise labels count them as odd
        m = parse_model("[vars]\nx\ny\nu\nw\n[lagrangian]\n(y*x' + u' + w')^2/2\n")
        with pytest.raises(OddSecondClassCount) as err:
            run_dirac(m, primary_constraints(m))
        assert err.value.count == 3

    def test_lattice_work_counts(self, monkeypatch):
        # every lattice constraint is momentum-only, so no pair shares a
        # conjugate; every Gauss-law candidate is nonzero at the first point
        brackets = []
        bracket = gaugeflow.dirac.poisson_bracket
        monkeypatch.setattr(gaugeflow.dirac, "poisson_bracket",
                            lambda f, g: brackets.append(f) or bracket(f, g))
        in_classify = []
        classify_fn = gaugeflow.dirac.classify

        def counting_classify(*args):
            before = len(brackets)
            result = classify_fn(*args)
            in_classify.append(len(brackets) - before)
            return result

        monkeypatch.setattr(gaugeflow.dirac, "classify", counting_classify)
        evaluated = []
        evaluate = Expression.evaluate
        monkeypatch.setattr(Expression, "evaluate",
                            lambda self, point: evaluated.append(self) or evaluate(self, point))
        draws = record_draws(monkeypatch)

        m = builtin_model("maxwell_lattice", {"N": 2})
        d = run_dirac(m, primary_constraints(m))
        candidates = [c.expr for c in d.constraints if c.generation >= 1]
        assert len(candidates) == 8 and not d.diagnostics
        assert in_classify == [0]
        assert [len(points) for _, points in draws] == [1]
        assert [sum(1 for e in evaluated if e is c) for c in candidates] == [1] * 8


class TestWeakReduce:
    def test_direct_membership(self):
        assert WeakReducer([py]).reduce(py).is_zero()

    def test_substitution_reaches_products(self):
        assert WeakReducer([px, py]).reduce(px ** 2 + ey * py).is_zero()

    def test_no_reduction_possible(self):
        assert WeakReducer([px]).reduce(ex) == ex

    def test_division_handles_coordinate_coefficients(self):
        g = ex * py - ey * px
        assert WeakReducer([g]).reduce(2 * g).is_zero()
        assert WeakReducer([g]).reduce(ey * g).is_zero()


def assert_extend_matches_one_shot(exprs, splits, probes):
    """``WeakReducer(a + b)`` and ``WeakReducer(a)`` extended by ``b``
    hold the same state and reduce alike, for each split ``a, b``."""
    whole = WeakReducer(exprs)
    for k in splits:
        grown = WeakReducer(exprs[:k])
        grown.extend(exprs[k:])
        assert list(grown.rules.items()) == list(whole.rules.items())
        assert grown.leftovers == whole.leftovers
        assert grown._divisors._items == whole._divisors._items
        # a later rule rewrites every leftover it reaches
        assert not any(v in g.variables() for g in grown.leftovers for v in grown.rules)
        # the divisors are linearly inter-reduced
        divisors = grown._divisors._items
        assert not any(lead in g for i, (lead, _) in enumerate(divisors)
                       for j, (_, g) in enumerate(divisors) if i != j)
        assert [grown.reduce(e) for e in probes] == [whole.reduce(e) for e in probes]


class TestWeakReducerExtend:
    @pytest.mark.parametrize("name,params", [
        ("toy_gauge", {}), ("second_class_toy", {}), ("maxwell_lattice", {"N": 2}),
        ("ym_mechanics", {}), ("ym_mechanics", {"with_scalar": False})])
    def test_matches_one_shot_at_generation_boundaries(self, name, params):
        m = builtin_model(name, params)
        constraints = run_dirac(m, primary_constraints(m)).constraints
        exprs = [c.expr for c in constraints]
        # the empty start, then every point where a run extends its reducer
        splits = [0] + [k for k in range(1, len(constraints))
                        if constraints[k].generation != constraints[k - 1].generation]
        h = total_hamiltonian(primary_constraints(m))
        # what the consistency steps and the classification reduce
        probes = [poisson_bracket(e, h) for e in exprs] + [
            poisson_bracket(f, g) for i, f in enumerate(exprs) for g in exprs[i + 1:]]
        assert_extend_matches_one_shot(exprs, splits, probes)

    @pytest.mark.parametrize("exprs", [
        # the rule for p_y rewrites the earlier rule p_x = p_y
        [px - py, py - ex],
        # the late rule p_z = 1 takes out x*p_y + y*p_z and keeps x*p_x + y
        [ex * py + ey * pz, ex * px + ey, pz - 1],
        # the third numerator is the sum of the first two
        [ex * py + ey, ex * pz + 1, ex * py + ex * pz + ey + 1],
    ], ids=["rule_rewrites_rule", "late_rule_keeps_leftover", "dependent_divisor"])
    def test_matches_one_shot_at_every_split(self, exprs):
        probes = exprs + [ex * e for e in exprs] + [ex * py * pz + ey * px]
        assert_extend_matches_one_shot(exprs, range(len(exprs) + 1), probes)


class ScanWeakReducer(WeakReducer):
    """The reference for the rule index: a new rule scans every stored
    rule for its target, as ``_absorb`` did before the index."""

    def _absorb(self, e):
        if self.rules:
            e = e.subs(self.rules)
        if e.is_zero():
            return
        pivot = _constant_pivot(e)
        if pivot is None:
            self.leftovers.append(e)
            self._divisors.add(e)
            return
        target, coeff = pivot
        rhs = -(e - coeff * Expression.var(target)) / coeff
        for v, r in list(self.rules.items()):
            if target in r.variables():
                self.rules[v] = r.subs({target: rhs})
        self.rules[target] = rhs
        stale = [g for g in self.leftovers if target in g.variables()]
        if stale:
            self.leftovers = [g for g in self.leftovers if target not in g.variables()]
            self._divisors = Divisors(self.leftovers)
            for g in stale:
                self._absorb(g)


def chained_constraints(rng):
    """Constraints affine in momenta, each with a constant coefficient on
    one momentum and coordinate coefficients on others, so that later
    rules rewrite earlier ones; now and then a quadratic one becomes a
    leftover."""
    coords = [coordinate(name) for name in "xyzuvw"]
    momenta = [Expression.var(q.momentum()) for q in coords]
    for _ in range(rng.randint(3, 9)):
        if rng.random() < 0.15:
            yield rng.choice(momenta) ** 2 + random_polynomial(rng, coords[:3], max_terms=1)
            continue
        picked = rng.sample(momenta, rng.randint(1, 3))
        e = rng.choice([1, 2, -3]) * picked[0] + random_polynomial(rng, coords[:3], max_terms=2)
        for p in picked[1:]:
            e = e + random_polynomial(rng, coords[:3], max_terms=1, max_factors=1) * p
        yield e


def assert_index_matches_scan(exprs):
    indexed, scanned = WeakReducer([]), ScanWeakReducer([])
    for e in exprs:
        indexed.extend([e])
        scanned.extend([e])
        assert list(indexed.rules.items()) == list(scanned.rules.items())
        assert indexed.leftovers == scanned.leftovers
        assert indexed._divisors._items == scanned._divisors._items
        # the rules stay fully back-substituted
        assert not any(v in r.variables() for r in indexed.rules.values() for v in indexed.rules)


@pytest.mark.parametrize("seed", range(12))
def test_rule_index_matches_the_scan_after_every_absorb(seed):
    assert_index_matches_scan(list(chained_constraints(random.Random(6100 + seed))))


def test_rule_index_follows_a_rewritten_rule():
    # p_c = x*p_b, then p_b = y*p_a rewrites it to p_c = x*y*p_a, which
    # the rule for p_a must rewrite in turn
    pa, pb, pc = (Expression.var(coordinate(name).momentum()) for name in "abc")
    assert_index_matches_scan([pc - ex * pb, pb - ey * pa, pa - 1])


def test_rule_index_matches_the_scan_on_the_lattice():
    m = builtin_model("maxwell_lattice", {"N": 2})
    assert_index_matches_scan([c.expr for c in run_dirac(m, primary_constraints(m)).constraints])


class TestNumericOracle:
    def test_constraint_is_zero_on_surface(self):
        m = builtin_model("toy_gauge")
        leg = primary_constraints(m)
        phase = [v for pair in m.canonical_pairs() for v in pair]
        verdict = weak_zero_numeric(px, [c.expr for c in leg.primary_constraints] + [px],
                                    phase, m.options)
        assert verdict.zero

    def test_coordinate_is_not(self):
        m = builtin_model("toy_gauge")
        leg = primary_constraints(m)
        phase = [v for pair in m.canonical_pairs() for v in pair]
        verdict = weak_zero_numeric(ex, [c.expr for c in leg.primary_constraints],
                                    phase, m.options)
        assert not verdict.zero
        assert abs(ex.evaluate(verdict.witness_point)) == verdict.value

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_circle_witness_is_decided_at_every_seed(self, seed):
        # the only sampled points on the circle are (±1, 0) and (0, ±1),
        # too few for sample_count of them within the budget; x + y is
        # nonzero at each, so the first one decides
        verdict = weak_zero_numeric(ex + ey, [ex ** 2 + ey ** 2 - 1], [x, y],
                                    Options(seed=seed))
        assert not verdict.zero
        assert verdict.value == abs((ex + ey).evaluate(verdict.witness_point)) == 1

    def test_points_are_drawn_only_until_a_nonzero_value(self, monkeypatch):
        draws = record_draws(monkeypatch)
        m = builtin_model("toy_gauge")
        primaries = [c.expr for c in primary_constraints(m).primary_constraints]
        phase = [v for pair in m.canonical_pairs() for v in pair]
        assert not weak_zero_numeric(ex, primaries, phase, m.options).zero
        assert [len(points) for _, points in draws] == [1]
        draws.clear()
        verdict = weak_zero_numeric(ex * py, primaries, phase, m.options)
        assert verdict == NumericVerdict(True, None, 0)
        assert [len(points) for _, points in draws] == [1] * m.options.sample_count

    def test_a_pole_decides_nothing(self, monkeypatch):
        # on x*y = 0 the points with x = 0 are poles of 1/x; at seed 3
        # the first four points have x = 0, and the fifth decides
        draws = record_draws(monkeypatch)
        verdict = weak_zero_numeric(1 / ex, [ex * ey], [x, y], Options(seed=3))
        points = [p for _, batch in draws for p in batch]
        assert [p[x] for p in points[:4]] == [0] * 4
        assert not verdict.zero and verdict.witness_point is points[4]
        assert verdict.value == abs(1 / points[4][x])

    def test_a_pole_at_every_point_is_refused(self):
        with pytest.raises(SurfaceSamplingFailed, match="^the expression's denominator "
                                                       "vanishes at every sampled point$"):
            weak_zero_numeric(1 / ex, [ex], [x], Options())

    def test_points_satisfy_affine_leftovers(self):
        # coordinate-coefficient constraints are solved per point
        m = builtin_model("ym_mechanics", {"with_scalar": False})
        d = run_dirac(m, primary_constraints(m))
        exprs = [c.expr for c in d.constraints]
        phase = [v for pair in m.canonical_pairs() for v in pair]
        pts = sample_surface_points(SurfaceSampler(WeakReducer(exprs), phase, m.options),
                                    m.options.sample_count)
        assert len(pts) == m.options.sample_count
        for pt in pts:
            for e in exprs:
                assert e.evaluate(pt) == 0

    def test_symbolic_zero_implies_numeric_zero(self):
        for name, params in [("toy_gauge", {}), ("second_class_toy", {}),
                             ("ym_mechanics", {"with_scalar": False})]:
            m = builtin_model(name, params)
            d = run_dirac(m, primary_constraints(m))
            exprs = [c.expr for c in d.constraints]
            if not exprs:
                continue
            phase = [v for pair in m.canonical_pairs() for v in pair]
            for i in range(len(exprs)):
                for j in range(i + 1, len(exprs)):
                    br = poisson_bracket(exprs[i], exprs[j])
                    if WeakReducer(exprs).reduce(br).is_zero() and not br.is_zero():
                        assert weak_zero_numeric(br, exprs, phase, m.options).zero

    # p_z = 1 becomes a rule after x*p_y + y*p_z is stored as a leftover
    LATE_RULE = [ex * py + ey * pz, pz - 1]
    LATE_RULE_PHASE = [v for q in (x, y, z) for v in (q, q.momentum())]

    def test_points_honour_a_rule_absorbed_after_a_leftover(self):
        sampler = SurfaceSampler(WeakReducer(self.LATE_RULE), self.LATE_RULE_PHASE, Options())
        pts = sample_surface_points(sampler, Options().sample_count)
        assert len(pts) == Options().sample_count
        for pt in pts:
            assert [e.evaluate(pt) for e in self.LATE_RULE] == [0, 0]

    def test_sampler_skips_a_pole_of_a_rule(self):
        reducer = WeakReducer([px - 1 / ey])  # the rule p_x = 1/y
        assert reducer.rules == {x.momentum(): 1 / ey}
        sampler = SurfaceSampler(reducer, [x, y], Options(seed=1))
        pts = [sampler.draw() for _ in range(10)]
        # one draw put y at 0, where the rule has no value, and was skipped
        assert sampler.attempts == 11
        assert all(pt[y] != 0 and pt[x.momentum()] == 1 / pt[y] for pt in pts)

    def test_sampler_gives_up_when_its_budget_is_spent(self):
        # x^2 + y^2 = 3 has no rational point
        sampler = SurfaceSampler(WeakReducer([ex ** 2 + ey ** 2 - 3]), [], Options())
        with pytest.raises(SurfaceSamplingFailed,
                           match="^only 0 of 20 surface points found after 1200 attempts$"):
            sample_surface_points(sampler, 20)
        assert sampler.draw() is None

    def test_reduction_and_oracle_agree_under_a_late_rule(self):
        probe = ex * py + ey  # x*p_y + y*p_z with p_z = 1
        assert WeakReducer(self.LATE_RULE).reduce(probe).is_zero()
        assert_extend_matches_one_shot(self.LATE_RULE, range(3), [probe])
        assert weak_zero_numeric(probe, self.LATE_RULE, self.LATE_RULE_PHASE,
                                 Options()).zero


def _every_shipped_model():
    for name, params in [("toy_gauge", {}), ("oscillator", {}), ("second_class_toy", {}),
                         ("maxwell_lattice", {"N": 2}), ("ym_mechanics", {})]:
        yield builtin_model(name, params)
    for path in sorted(MODELS_DIR.glob("*.model")):
        yield parse_model(path.read_text(), name=path.stem)


def test_constraints_are_phase_space_polynomials():
    # run_dirac evaluates candidates and their gradients at sampled points
    # without a pole guard; this is the invariant that makes that sound
    models = list(_every_shipped_model())
    assert len(models) == 9
    for m in models:
        constraints = run_dirac(m, primary_constraints(m)).constraints
        constraints += primary_constraints(m).primary_constraints
        assert constraints or m.name == "oscillator"
        for c in constraints:
            assert c.expr.is_polynomial(), (m.name, str(c.expr))
            assert {v.kind for v in c.expr.variables()} <= {Kind.COORDINATE, Kind.MOMENTUM}


def test_duplicate_residues_are_merged():
    # two primaries whose consistency conditions produce the same
    # secondary: it must be added exactly once
    from gaugeflow import parse_model
    src = "[vars]\nx\ny\nw\n[lagrangian]\n(xdot - y - w)^2 / 2\n"
    m = parse_model(src, name="twin_shift")
    d = run_dirac(m, primary_constraints(m))
    assert [str(c.expr) for c in d.constraints if c.generation == 0] == ["p_y", "p_w"]
    assert [str(c.expr) for c in d.constraints if c.generation == 1] == ["p_x"]
    assert d.generations_run == 2


def test_a_dropped_duplicate_is_dropped_again(monkeypatch):
    # both primaries of the twin shift give the secondary p_x; with the
    # sampler calling it zero everywhere, each copy is dropped with its
    # own diagnostic, since only admitted candidates are skipped as repeats
    m = parse_model("[vars]\nx\ny\nw\n[lagrangian]\n(xdot - y - w)^2 / 2\n",
                    name="twin_shift")
    monkeypatch.setattr(SurfaceSampler, "nonzero_point", lambda self, e: None)
    d = run_dirac(m, primary_constraints(m))
    assert [str(c.expr) for c in d.constraints] == ["p_y", "p_w"]
    assert [message.split(": ", 1)[1] for message in d.diagnostics] == [
        "residue p_x vanishes numerically on the current surface; dropped as dependent"] * 2


def test_rational_hamiltonian_constraints_stay_polynomial():
    # coordinate-dependent Hessian: the canonical Hamiltonian is rational
    # and the consistency residues carry poles, but stored constraints
    # are minimal polynomial representatives
    m = parse_model("[vars]\nx\ny\n[lagrangian]\nx^2*ydot^2/2\n", name="weighted")
    d = run_dirac(m, primary_constraints(m))
    assert [(str(c.expr), c.generation) for c in d.constraints] == [
        ("p_x", 0), ("p_y^2", 1)]
    assert all(c.class_label == "first" for c in d.constraints)


def test_constraint_form_strips_pivot_factors():
    from gaugeflow.dirac import constraint_form
    assert constraint_form(ex ** 2 * px) == px
    assert constraint_form((py ** 2) / ex) == py ** 2
    assert constraint_form(2 * px - 2 * ey) == px - ey
    assert constraint_form(ex ** 2 + 1) == ex ** 2 + 1  # momentum-free: untouched
    assert constraint_form(ex * px + ex * ey) == px + ey


def test_generation_limit_exceeded():
    from gaugeflow.errors import GenerationLimitExceeded
    m = builtin_model("toy_gauge").with_options(max_generations=1)
    with pytest.raises(GenerationLimitExceeded):
        run_dirac(m, primary_constraints(m))
    from gaugeflow import build_report
    report = build_report(m)
    assert report.verdict == "inapplicable" and report.exit_code == 4
