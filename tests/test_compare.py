"""Span equivalence and report verdicts."""

import random
import time
from fractions import Fraction

import pytest

import gaugeflow.compare
from gaugeflow import (
    Constraint,
    Diagnostic,
    Expression,
    build_report,
    builtin_model,
    coordinate,
    parse_model,
    primary_constraints,
    run_dirac,
    parse_expression,
    span_equivalent,
)
from gaugeflow.cli import report_json_dict
from gaugeflow.errors import SamplingDegenerate, SurfaceSamplingFailed
from gaugeflow.reduction import NumericVerdict, WeakReducer

from test_dirac import CIRCLE_SOURCE, assert_extend_matches_one_shot

x = coordinate("x")
y = coordinate("y")
px, py = Expression.var(x.momentum()), Expression.var(y.momentum())
PHASE = [x, x.momentum(), y, y.momentum()]
OPTIONS = builtin_model("toy_gauge").options


TOY_GAUGE = """[vars]
x
y discardable
[lagrangian]
(xdot - y)^2 / 2
[generators]
gen eps
x : k=0 : 1
y : k=1 : 1
"""

GAUSS_MIXES = (
    ((1, 0, 0), (1, 1, 0), (0, 0, 1)),
    ((1, 2, 0), (0, 1, 0), (3, 0, 1)),
    ((0, 1, 0), (1, 0, 0), (-1, 0, -1)),
)


def cons(*exprs):
    return tuple(Constraint(e, 0, "dirac") for e in exprs)


def ym_gauss_laws(m):
    return [c.expr for c in run_dirac(m, primary_constraints(m)).constraints
            if c.generation == 1]


def recombined(mix, exprs):
    """The rows of the integer matrix ``mix`` applied to ``exprs``."""
    return [sum((Fraction(c) * e for c, e in zip(row, exprs)), Expression.const(0))
            for row in mix]


class TestSpanEquivalent:
    def test_scaling_is_invisible(self):
        check = span_equivalent(cons(px), cons(2 * px), PHASE, OPTIONS)
        assert check.equivalent

    def test_strict_inclusion_is_witnessed(self):
        check = span_equivalent(cons(px), cons(px, py), PHASE, OPTIONS)
        assert not check.equivalent
        assert [str(c.expr) for c, _ in check.right_witnesses] == ["p_y"]
        assert check.rank_left == 1 and check.rank_right == 2

    def test_reflexive_and_symmetric_on_random_sets(self):
        rng = random.Random(99)
        pool = [px, py, px + Expression.var(x), py - 2 * Expression.var(y)]
        for _ in range(20):
            k = rng.randint(1, 3)
            sets = [tuple(rng.sample(pool, k)), tuple(rng.sample(pool, k))]
            a, b = (cons(*s) for s in sets)
            assert span_equivalent(a, a, PHASE, OPTIONS).equivalent
            ab = span_equivalent(a, b, PHASE, OPTIONS)
            ba = span_equivalent(b, a, PHASE, OPTIONS)
            assert ab.equivalent == ba.equivalent

    def test_unimodular_recombination_invariance(self):
        m = builtin_model("ym_mechanics")
        exprs = ym_gauss_laws(m)
        phase = [v for pair in m.canonical_pairs() for v in pair]
        for mix in GAUSS_MIXES:
            mixed = cons(*recombined(mix, exprs))
            check = span_equivalent(mixed, cons(*exprs), phase, m.options)
            assert check.equivalent

    def test_recombined_gauss_laws_extend_matches_one_shot(self):
        # division by the inter-reduced Gauss laws decides these reductions
        exprs = ym_gauss_laws(builtin_model("ym_mechanics"))
        for mix in GAUSS_MIXES:
            mixed = recombined(mix, exprs)
            for constraints, probes in ((mixed, exprs), (exprs, mixed)):
                assert_extend_matches_one_shot(
                    constraints, range(len(constraints) + 1), probes)


# a reducer over these leaves the fourth nonzero: x^2 divides its
# leading monomial first
SELF_UNREDUCED = [parse_expression(t) for t in (
    "x*y - y^2/10", "x^2", "p_x + 3", "x^2*p_z - 2/3*z - 1", "z^3")]
Z = coordinate("z")
XYZ_PHASE = PHASE + [Z, Z.momentum()]


class TestMembership:
    def test_verbatim_member_is_never_a_witness(self):
        member = SELF_UNREDUCED[3]
        residue = WeakReducer(SELF_UNREDUCED).reduce(member)
        assert residue == parse_expression("-2/3*z - 1")
        check = span_equivalent(cons(*SELF_UNREDUCED), cons(*SELF_UNREDUCED),
                                XYZ_PHASE, OPTIONS)
        assert check.equivalent
        assert check.left_witnesses == check.right_witnesses == ()

    def test_non_member_residue_is_the_full_reducer_residue(self, monkeypatch):
        builds = []

        class CountedReducer(WeakReducer):
            def __init__(self, exprs):
                builds.append(list(exprs))
                super().__init__(exprs)

        monkeypatch.setattr(gaugeflow.compare, "WeakReducer", CountedReducer)
        outsiders = [parse_expression(t) for t in ("p_y", "x^2*p_y + x*y - y^2/10")]
        left = cons(SELF_UNREDUCED[3], outsiders[0], SELF_UNREDUCED[0], outsiders[1])
        right = cons(*SELF_UNREDUCED)
        check = span_equivalent(left, right, XYZ_PHASE, OPTIONS)
        full = WeakReducer(SELF_UNREDUCED)
        assert [(c.expr, r) for c, r in check.left_witnesses] == [
            (e, full.reduce(e)) for e in outsiders if not full.reduce(e).is_zero()]
        assert [c.expr for c, _ in check.left_witnesses] == [outsiders[0]]
        # each side has members the other lacks, so each builds one
        # reducer, over the whole other list in order
        assert builds == [SELF_UNREDUCED, [c.expr for c in left]]


class TestBuildReport:
    def test_toy_gauge_match(self):
        report = build_report(builtin_model("toy_gauge"))
        assert report.verdict == "match"
        assert report.exit_code == 0
        assert [str(c.expr) for c in report.canonical_first_class] == ["p_x"]
        assert [str(c.expr) for c in report.conjecture] == ["p_x"]

    def test_oscillator_no_gauge_sector(self):
        report = build_report(builtin_model("oscillator"))
        assert report.verdict == "no_gauge_sector"
        assert report.dirac.constraints == ()

    def test_second_class_no_gauge_sector(self):
        report = build_report(builtin_model("second_class_toy"))
        assert report.verdict == "no_gauge_sector"
        assert len(report.dirac.second_class()) == 2
        assert report.conjecture == ()

    def test_inconsistent_lagrangian(self):
        m = parse_model("[vars]\nx\n[lagrangian]\nx\n", name="inconsistent")
        report = build_report(m)
        assert report.exit_code == 3
        assert any(d.code == "inconsistent-lagrangian" for d in report.diagnostics)

    def test_degenerate_generator_inapplicable(self):
        report = build_report(builtin_model("maxwell_lattice", {"N": 1}))
        assert report.verdict == "inapplicable"
        assert report.exit_code == 4

    def test_corrupted_generator_inapplicable(self):
        from test_noether import corrupt
        report = build_report(corrupt(builtin_model("toy_gauge"), 0, 0))
        assert report.verdict == "inapplicable"
        assert any(d.code == "identity-violated" for d in report.diagnostics)
        assert report.exit_code == 4

    def test_mismatch_with_witness(self):
        # declare only a partial symmetry: a generator that shifts x but
        # forgets the compensating velocity piece is caught earlier, so
        # instead compare against a model whose generator set is empty
        # while first-class constraints exist
        m = builtin_model("toy_gauge").with_generators([])
        report = build_report(m)
        assert report.verdict == "mismatch"
        assert report.exit_code == 2
        assert report.span is not None and not report.span.equivalent

    def test_report_always_produced(self):
        m = parse_model("[vars]\nx\n[lagrangian]\nxdot^3\n")
        report = build_report(m)
        assert report.verdict == "inapplicable"
        assert any(d.code == "legendre-failed" for d in report.diagnostics)

    def test_hint_mismatch_warning(self):
        src = "[vars]\nx discardable\n[lagrangian]\nxdot^2/2\n"
        report = build_report(parse_model(src))
        assert any(d.code == "hint-not-confirmed" for d in report.diagnostics)

    def test_generator_declared_twice(self):
        # eta = 2 eps: one gauge symmetry declared as two generators
        src = TOY_GAUGE + "gen eta\nx : k=0 : 2\ny : k=1 : 2\n"
        report = build_report(parse_model(src, name="toy_twice"))
        codes = [d.code for d in report.diagnostics]
        assert codes == ["dependent-generators", "count-mismatch"]
        assert report.independent is False
        assert report.verdict == "mismatch" and report.exit_code == 2

    def test_independence_failure_is_a_warning(self, monkeypatch):
        def refuse(m):
            raise SamplingDegenerate("every sampled point is a pole")

        monkeypatch.setattr(gaugeflow.compare, "independence_check", refuse)
        report = build_report(builtin_model("toy_gauge"))
        assert report.diagnostics == (Diagnostic(
            "warning", "independence-unknown", "every sampled point is a pole"),)
        assert report.independent is None
        assert report.verdict == "match" and report.exit_code == 0

    def test_first_class_only_on_discarded_coordinate(self):
        src = "[vars]\nx\ny\n[lagrangian]\nxdot^2/2\n"
        report = build_report(parse_model(src, name="unused_y"))
        assert [d.code for d in report.diagnostics] == ["no-canonical-gauge-sector"]
        assert report.canonical_first_class == ()
        assert report.verdict == "no_gauge_sector" and report.exit_code == 0

    def test_dependent_residue_dropped(self):
        # p_y, then x^2, then p_x; the third generation's residue x*y
        # vanishes on that surface and is dropped
        src = "[vars]\nx\ny\n[lagrangian]\nxdot^2/2 + y*x^2\n"
        report = build_report(parse_model(src, name="residue"))
        dropped = [d for d in report.diagnostics if d.code == "dependent-residue"]
        assert len(dropped) == 1 and "x*y" in dropped[0].message
        assert report.dirac.generations_run == 3

    def test_component_selecting_residue_kept(self):
        # p_x = x' - v*y - x, p_y = y' + v, primary p_v; then y*p_x - p_y,
        # then p_x^2 - p_x, whose surface has the components p_x = 0 and
        # p_x = 1.  Since p_x' = -p_x, preserving it leaves
        # -(2p_x - 1)p_x = -p_x there: the component p_x = 1 is not
        # preserved, so p_x is a real tertiary constraint although its
        # gradient adds no rank at any surface point
        src = "[vars]\nx\ny\nv\n[lagrangian]\n(x' - v*y - x)^2/2 + (y' + v)^2/2\n"
        report = build_report(parse_model(src, name="component"))
        assert [(str(c.expr), c.generation, c.class_label)
                for c in report.dirac.constraints] == [
            ("p_v", 0, "first"), ("p_x*y - p_y", 1, "first"),
            ("p_x^2 - p_x", 2, "first"), ("p_x", 3, "first")]
        assert not any(d.code == "dependent-residue" for d in report.diagnostics)

    @pytest.mark.parametrize("name,params,verdict", [
        ("toy_gauge", {}, "match"),
        ("maxwell_lattice", {"N": 2}, "match"),
        ("ym_mechanics", {"with_scalar": True}, "match"),
        ("ym_mechanics", {"with_scalar": False}, "match"),
        ("oscillator", {}, "no_gauge_sector"),
        ("second_class_toy", {}, "no_gauge_sector"),
    ])
    def test_catalog_verdicts(self, name, params, verdict):
        assert build_report(builtin_model(name, params)).verdict == verdict


class TestNumericOracleVote:
    """When the symbolic span check fails at equal ranks, each witness is
    put to the sampling oracle: nonzero on the other surface is a
    definite mismatch, zero there is a conflict with the symbolic pass."""

    @pytest.fixture
    def shifted_conjecture(self, monkeypatch):
        # p_x + x and the Dirac p_x cut different surfaces of equal rank
        monkeypatch.setattr(
            gaugeflow.compare, "conjecture_constraints",
            lambda m, leg, noether: (Constraint(px + Expression.var(x), 0, "conjecture"),))
        return builtin_model("toy_gauge")

    def test_nonzero_witnesses_are_a_mismatch(self, shifted_conjecture):
        report = build_report(shifted_conjecture)
        assert report.verdict == "mismatch" and report.exit_code == 2
        assert [(d.code, d.witness) for d in report.diagnostics] == [
            ("not-in-span", "-x"), ("not-in-span", "x")]

    def test_numeric_zero_is_a_conflict(self, shifted_conjecture, monkeypatch):
        monkeypatch.setattr(gaugeflow.compare, "weak_zero_numeric",
                            lambda *args: NumericVerdict(True, None, Fraction(0)))
        report = build_report(shifted_conjecture)
        assert report.verdict == "indeterminate" and report.exit_code == 4
        assert [(d.code, d.witness) for d in report.diagnostics] == [
            ("symbolic-numeric-conflict", "-x"), ("symbolic-numeric-conflict", "x")]


    def test_sampling_failures_leave_a_mismatch(self, shifted_conjecture, monkeypatch):
        def refuse(*args):
            raise SurfaceSamplingFailed("no surface points")

        monkeypatch.setattr(gaugeflow.compare, "weak_zero_numeric", refuse)
        report = build_report(shifted_conjecture)
        assert report.verdict == "mismatch" and report.exit_code == 2
        assert [(d.severity, d.code, d.message) for d in report.diagnostics] == [
            ("warning", "surface-sampling-failed", "no surface points")] * 2


def test_first_class_count_equals_generator_count():
    # gauge degeneracy bookkeeping: one canonical-sector first-class
    # constraint per declared gauge parameter, and the candidate set has
    # the same cardinality
    for name, params in [("toy_gauge", {}), ("maxwell_lattice", {"N": 2}),
                         ("ym_mechanics", {"with_scalar": True}),
                         ("ym_mechanics", {"with_scalar": False})]:
        m = builtin_model(name, params)
        report = build_report(m)
        assert len(report.canonical_first_class) == len(m.generators)
        assert len(report.conjecture) == len(m.generators)


def test_inconsistent_report_carries_partial_result():
    m = parse_model("[vars]\nx\n[lagrangian]\nx\n", name="inconsistent")
    report = build_report(m)
    assert report.dirac is not None
    assert report.dirac.consistent is False
    assert report.dirac.witness is not None and report.dirac.witness.is_constant()
    assert [str(c.expr) for c in report.dirac.constraints] == ["p_x"]


def test_timings_cover_the_stages_that_ran_in_order():
    report = build_report(builtin_model("toy_gauge"))
    assert list(report.timings) == [
        "legendre", "dirac", "noether", "independence", "conjecture", "compare"]
    assert all(t >= 0 for t in report.timings.values())
    # a stage that raises is still timed, and the stages after it are not run
    m = parse_model("[vars]\nx\n[lagrangian]\nx\n", name="inconsistent")
    assert list(build_report(m).timings) == ["legendre", "dirac"]


def test_chain_model_file_matches():
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "models" / "chain_maxwell.model"
    m = parse_model(path.read_text(), name=path.stem)
    report = build_report(m)
    assert report.verdict == "match"
    secondaries = [str(c.expr) for c in report.dirac.constraints if c.generation == 1]
    assert secondaries == ["p_A[0] - p_A[2]", "p_A[0] - p_A[1]", "p_A[1] - p_A[2]"]
    assert report.span.rank_left == 2  # one telescoping dependency on the ring


@pytest.mark.parametrize("name,params", [
    ("toy_gauge", {}),
    ("oscillator", {}),
    ("second_class_toy", {}),
    ("maxwell_lattice", {"N": 2}),
    ("ym_mechanics", {"with_scalar": True}),
    ("ym_mechanics", {"with_scalar": False}),
])
def test_report_does_not_depend_on_the_seed(name, params):
    # the seed drives every sampled path (Hessian rank, surface points,
    # rank growth, generator independence, span ranks); none may change
    # the report beyond the seed it records
    m = builtin_model(name, params)
    trees = {}
    for seed in (1, 2, 3, 7, 11, 1729):
        tree = report_json_dict(build_report(m.with_options(seed=seed)))
        assert tree["options"].pop("seed") == seed
        trees[seed] = tree
    assert all(tree == trees[1] for tree in trees.values())


@pytest.mark.parametrize("source", [
    CIRCLE_SOURCE,
    "[vars]\nx\ny\nl\n[lagrangian]\n(x'^2+y'^2)/2 - l*(x + 2*y - 1)\n",
    "[vars]\nx\ny\nz\n[lagrangian]\nx'^2/2 + y'^2/2 + z*(x*y - 1)\n",
], ids=["circle", "line", "hyperbola"])
def test_surface_models_give_one_report_at_every_seed(source):
    # the sampler draws the coordinates at random and keeps a point only
    # when it lies on x^2+y^2-1, x+2y-1 or x*y-1, so it finds few points
    # within its attempt budget.  Dirac draws another point only while a
    # candidate vanishes at every point so far, and one or two points
    # decide every candidate here
    m = parse_model(source)
    trees = []
    for seed in range(1, 41):
        tree = report_json_dict(build_report(m.with_options(seed=seed)))
        assert tree["options"].pop("seed") == seed
        assert (tree["verdict"], tree["exit_code"]) == ("no_gauge_sector", 0), seed
        trees.append(tree)
    assert all(tree == trees[0] for tree in trees)


# Three models on which cancelling against a coordinate denominator ran
# a polynomial gcd in a momentum for minutes: the gcd with a denominator
# in coordinates is now the gcd of the numerator's coordinate
# coefficients.  Each ran in well under a second when this bound was set.
STALLED_MODELS = {
    "solved_multiplier": "-u*x'^2/2 + 2*x'*y' + (y - 2)*y'^2/2 + (u - 2)*x' - 2*x",
    "shifted_squares": "((y+1)*x' + y)^2/2 + (2*x*x' + y'/2 + 1)^2/2 + 3/2*u*y'",
    "squared_denominator": (
        "1/2*x^2*y'^2 - x*x'*y*y' + 1/2*x'^2*y^2 + 3/2*u'*x*y' - 3/2*u'*x'*y"
        " + 89/36*u'^2 - 3/2*u'*x' + 5/3*u'*y - 3/4*u'*y' - 4/3*x*y - 3/2*x*y'"
        " + 1/2*x'^2 + 3/2*x'*y + 1/2*x'*y' + 25/8*y^2 + 1/8*y'^2 - 3/4*u' - x'"
        " - 1/2*y' - 27/8"),
}


@pytest.mark.parametrize("lagrangian", STALLED_MODELS.values(), ids=STALLED_MODELS)
def test_coordinate_denominators_cancel_in_bounded_time(lagrangian):
    m = parse_model(f"[vars]\nx\ny\nu\n[lagrangian]\n{lagrangian}\n")
    t0 = time.perf_counter()
    report = build_report(m)
    assert time.perf_counter() - t0 < 5
    assert report.verdict == "no_gauge_sector"
    assert all(d.severity != "error" for d in report.diagnostics)
