"""Acceptance suite: one test per attested behavior, one printed verdict
line each.  Run with ``pytest tests/test_acceptance.py -v -s``.

Every expected value here is constructed independently of the code path
it checks: small-model results come from hand derivations, lattice Gauss
laws from the signed neighbor-difference formula, and the su(2) closure
coefficients from the structure constants.
"""

import json
import time
from contextlib import contextmanager

import pytest

from gaugeflow import (
    Expression,
    WeakReducer,
    build_report,
    builtin_model,
    coordinate,
    conjecture_constraints,
    noether_identity_check,
    parse_model,
    poisson_bracket,
    primary_constraints,
    run_dirac,
    span_equivalent,
    weak_zero_numeric,
)
from gaugeflow.catalog import SU2_DOUBLET, eps3
from gaugeflow.cli import main as cli_main
from gaugeflow.errors import IdentityViolated, InconsistentLagrangian

import test_properties
from test_noether import corrupt


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[criterion {number}] PASS  {description}  ({elapsed:.2f}s)")


def test_criterion_1_toy_gauge_exact():
    with criterion(1, "toy gauge model: two first-class constraints, match"):
        started = time.perf_counter()
        m = builtin_model("toy_gauge")
        report = build_report(m)
        elapsed = time.perf_counter() - started

        d = report.dirac
        x, y = coordinate("x"), coordinate("y")
        px = Expression.var(x.momentum())
        py = Expression.var(y.momentum())
        assert [(c.expr, c.generation, c.class_label) for c in d.constraints] == [
            (py, 0, "first"), (px, 1, "first")]
        assert [c.expr for c in report.conjecture] == [px]
        assert report.verdict == "match"
        assert elapsed < 1.0


def _expected_gauss_laws(n):
    """Signed neighbor sums of link momenta, one per site."""
    def momentum(i, site):
        return Expression.var(coordinate("A", (i,) + site).momentum())

    def back(site, i):
        out = list(site)
        out[i - 1] = (out[i - 1] - 1) % n
        return tuple(out)

    laws = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                site = (a, b, c)
                law = sum((momentum(i, site) - momentum(i, back(site, i))
                           for i in (1, 2, 3)), Expression.const(0))
                laws.append(law)
    return laws


def test_criterion_2_maxwell_lattice():
    with criterion(2, "maxwell_lattice(N=2): 8 + 8 first-class, exact span match"):
        started = time.perf_counter()
        m = builtin_model("maxwell_lattice", {"N": 2})
        report = build_report(m)
        elapsed = time.perf_counter() - started

        d = report.dirac
        by_gen = d.by_generation()
        assert len(by_gen[0]) == 8 and len(by_gen[1]) == 8
        primaries = {str(c.expr) for c in by_gen[0]}
        assert primaries == {f"p_A0[{a},{b},{c}]"
                             for a in (0, 1) for b in (0, 1) for c in (0, 1)}
        assert all(c.class_label == "first" for c in d.constraints)

        # secondaries and the candidate set must both span the hand-built
        # Gauss laws, by exact symbolic reduction in both directions
        gauss = [g.normalized() for g in _expected_gauss_laws(2)]
        secondaries = [c.expr for c in by_gen[1]]
        for g in gauss:
            assert WeakReducer(secondaries).reduce(g).is_zero()
        for s in secondaries:
            assert WeakReducer(gauss).reduce(s).is_zero()
        assert report.span is not None and report.span.equivalent
        assert not report.span.left_witnesses and not report.span.right_witnesses
        assert len(report.conjecture) == 8

        assert report.noether is not None and report.noether.passed()
        assert report.verdict == "match"
        assert elapsed < 10.0


def _expected_ym_gauss(color, with_scalar=True):
    """Adjoint rotation of the link momenta plus the doublet charge."""
    parts = []
    for i in (1, 2, 3):
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                s = eps3(a, b, color)
                if s:
                    p = Expression.var(coordinate("A", (i, a)).momentum())
                    parts.append(s * p * Expression.var(coordinate("A", (i, b))))
    if with_scalar:
        phi = [Expression.var(coordinate("phi", (w,))) for w in range(4)]
        mom = [Expression.var(coordinate("phi", (w,)).momentum()) for w in range(4)]
        for w, row in enumerate(SU2_DOUBLET[color]):
            rotated = sum((Expression.const(cij) * phi[j]
                           for j, cij in enumerate(row) if cij), Expression.const(0))
            parts.append(mom[w] * rotated)
    return sum(parts, Expression.const(0))


def test_criterion_3_ym_mechanics():
    with criterion(3, "ym_mechanics(su2, scalar): 3 first-class, exact closure, match"):
        started = time.perf_counter()
        m = builtin_model("ym_mechanics", {"with_scalar": True})
        report = build_report(m)

        d = report.dirac
        secondaries = [c for c in d.constraints if c.generation == 1]
        assert len(secondaries) == 3
        assert all(c.class_label == "first" for c in secondaries)

        # the recovered constraints match the momentum rotation formula
        exprs = [c.expr for c in secondaries]
        for color in (1, 2, 3):
            expected = _expected_ym_gauss(color).normalized()
            assert any(e == expected for e in exprs), f"color {color} not recovered"

        # closure: {G_a, G_b} = -eps3(a,b,c) G_c exactly, confirmed both by
        # weak reduction and by the sampling oracle at tolerance 1e-9
        phase = [v for pair in m.canonical_pairs() for v in pair]
        ordered = [_expected_ym_gauss(color).normalized() for color in (1, 2, 3)]
        assert m.options.numeric_tolerance == 1e-9
        for a in range(3):
            for b in range(3):
                if a >= b:
                    continue
                c = ({0, 1, 2} - {a, b}).pop()
                bracket = poisson_bracket(ordered[a], ordered[b])
                combo = -eps3(a + 1, b + 1, c + 1) * ordered[c]
                assert bracket == combo                         # exact coefficients
                assert WeakReducer(ordered).reduce(bracket).is_zero()  # exact weak reduction
                assert weak_zero_numeric(bracket, ordered, phase, m.options).zero
                difference = bracket - combo
                assert weak_zero_numeric(difference, [], phase, m.options).zero

        assert report.verdict == "match"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0


def test_criterion_4_control_cases():
    with criterion(4, "controls: regular, second-class, inconsistent"):
        r = build_report(builtin_model("oscillator"))
        assert r.dirac.constraints == ()
        assert r.verdict == "no_gauge_sector"

        r = build_report(builtin_model("second_class_toy"))
        x, y = coordinate("x"), coordinate("y")
        px, py = Expression.var(x.momentum()), Expression.var(y.momentum())
        assert [c.expr for c in r.dirac.constraints] == [px - Expression.var(y), py]
        assert all(c.class_label == "second" for c in r.dirac.constraints)
        bracket = poisson_bracket(px - Expression.var(y), py)
        assert bracket == Expression.const(-1)
        assert r.conjecture == ()
        assert r.verdict == "no_gauge_sector"

        m = parse_model("[vars]\nx\n[lagrangian]\nx\n", name="inconsistent")
        with pytest.raises(InconsistentLagrangian):
            run_dirac(m, primary_constraints(m))
        assert build_report(m).exit_code == 3
        import io
        assert cli_main(["analyze", "--builtin", "toy_gauge"], out=io.StringIO()) == 0


def test_criterion_5_property_suites():
    with criterion(5, "bracket laws on 200 triples; 1000x idempotence; "
                      "symbolic vs 50-point agreement"):
        test_properties.test_bracket_properties_on_200_triples()
        test_properties.test_canonicalize_idempotent_on_1000_expressions()
        test_properties.test_symbolic_zero_agrees_with_50_point_evaluation()


def test_criterion_6_generator_corruption_detected():
    with criterion(6, "every single-coefficient corruption breaks the identity"):
        cases = [("toy_gauge", {}), ("maxwell_lattice", {"N": 2}),
                 ("ym_mechanics", {"with_scalar": True}),
                 ("ym_mechanics", {"with_scalar": False})]
        total = 0
        for name, params in cases:
            m = builtin_model(name, params)
            for gi, gen in enumerate(m.generators):
                for ci in range(len(gen.components)):
                    bad = corrupt(m, gi, ci)
                    with pytest.raises(IdentityViolated):
                        noether_identity_check(bad)
                    total += 1
        assert total >= 100  # exhaustive over all coefficients of all gauge models
        print(f"  ({total} corruptions, 100% detected)", end=" ")


def test_criterion_7_deterministic_json():
    with criterion(7, "byte-identical JSON across repeated runs"):
        import io
        import os
        import subprocess
        import sys

        def one_run():
            buf = io.StringIO()
            code = cli_main(["compare", "--builtin", "ym_mechanics",
                             "--format", "json"], out=buf)
            return code, buf.getvalue()

        first = one_run()
        second = one_run()
        assert first == second
        assert first[0] == 0
        json.loads(first[1])  # valid JSON

        # also byte-identical across separate processes, even with
        # different interpreter hash seeds (VarRefs hash by identity, so
        # set order varies between processes as well)
        lattice = ["compare", "--builtin", "maxwell_lattice", "-p", "N=2",
                   "--format", "json"]
        buf = io.StringIO()
        assert cli_main(lattice, out=buf) == 0
        for argv, expected in ((["compare", "--builtin", "ym_mechanics", "--format", "json"],
                                first[1]),
                               (lattice, buf.getvalue())):
            outputs = []
            for hash_seed in ("1", "2"):
                env = dict(os.environ, PYTHONHASHSEED=hash_seed)
                proc = subprocess.run([sys.executable, "-m", "gaugeflow.cli", *argv],
                                      capture_output=True, env=env)
                assert proc.returncode == 0
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1] == expected.encode()
