"""Constraint-set equivalence and the consolidated analysis report.

``build_report`` drives the whole pipeline on one model and never
raises: every stage failure lands in the diagnostics, and the verdict
says what the comparison established.

Verdicts: ``match`` (the single-step rule reproduces the canonical
sector first-class constraints, span for span), ``mismatch`` (a
witnessed difference), ``no_gauge_sector`` (nothing to compare on
either side), ``inapplicable`` (a stage could not run), and
``indeterminate`` (symbolic reduction failed but the numeric oracle
contradicts it).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .dirac import run_dirac
from .errors import (
    ConjectureInapplicable,
    DegenerateGenerator,
    DiracError,
    GaugeflowError,
    IdentityViolated,
    InconsistentLagrangian,
    LegendreError,
    ModelError,
    SurfaceSamplingFailed,
)
from .expr import Kind
from .legendre import primary_constraints
from .linalg import jacobian, sampled_rank
from .noether import conjecture_constraints, independence_check, noether_identity_check
from .reduction import WeakReducer, weak_zero_numeric

MATCH = "match"
MISMATCH = "mismatch"
NO_GAUGE_SECTOR = "no_gauge_sector"
INAPPLICABLE = "inapplicable"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "info" | "warning" | "error"
    code: str
    message: str
    witness: str = None


@dataclass(frozen=True)
class SpanCheck:
    equivalent: bool
    rank_left: int
    rank_right: int
    left_witnesses: tuple   # constraints not reducible modulo the right set
    right_witnesses: tuple


def span_equivalent(left, right, variables, options):
    """Do two constraint sets cut the same surface?

    True exactly when every member of each set weakly reduces to zero
    modulo the other and the sampled Jacobian ranks agree.  Witnesses
    carry the irreducible members.  Both Jacobian ranks are sampled from
    one generator seeded with ``options.seed``, left then right.
    """
    reduce_right = WeakReducer([c.expr for c in right])
    reduce_left = WeakReducer([c.expr for c in left])
    left_witnesses = tuple(
        (c, residue) for c in left
        if not (residue := reduce_right.reduce(c.expr)).is_zero())
    right_witnesses = tuple(
        (c, residue) for c in right
        if not (residue := reduce_left.reduce(c.expr)).is_zero())
    rng = random.Random(options.seed)
    rank_left = sampled_rank(jacobian([c.expr for c in left], variables), options, rng)
    rank_right = sampled_rank(jacobian([c.expr for c in right], variables), options, rng)
    return SpanCheck(
        equivalent=not left_witnesses and not right_witnesses
        and rank_left == rank_right,
        rank_left=rank_left,
        rank_right=rank_right,
        left_witnesses=left_witnesses,
        right_witnesses=right_witnesses,
    )


@dataclass
class AnalysisReport:
    model_name: str
    options: object
    verdict: str = INAPPLICABLE
    legendre: object = None
    dirac: object = None
    noether: object = None
    independent: bool = None
    conjecture: tuple = None
    canonical_first_class: tuple = ()
    span: SpanCheck = None
    diagnostics: tuple = ()
    timings: dict = field(default_factory=dict)

    @property
    def exit_code(self):
        """0 match/informational, 2 mismatch, 3 inconsistent Lagrangian,
        4 no definitive comparison."""
        if any(d.code == "inconsistent-lagrangian" for d in self.diagnostics):
            return 3
        if self.verdict == MISMATCH:
            return 2
        if self.verdict in (INAPPLICABLE, INDETERMINATE):
            return 4
        return 0


def _canonical_sector(constraint, discardable):
    """A constraint belongs to the canonical sector when it involves no
    discarded coordinate and no momentum conjugate to one."""
    banned = set(discardable)
    for v in constraint.expr.variables():
        core = v.coordinate() if v.kind in (Kind.COORDINATE, Kind.MOMENTUM) else None
        if core in banned:
            return False
    return True


def build_report(m):
    """Run the full pipeline on a model and assemble the report.

    Stage errors become diagnostics; the report is always produced.
    """
    report = AnalysisReport(model_name=m.name, options=m.options)
    diagnostics = []
    timings = {}

    def note(severity, code, message, witness=None):
        diagnostics.append(Diagnostic(severity, code, message, witness))

    def finish(verdict):
        report.verdict = verdict
        report.diagnostics = tuple(diagnostics)
        report.timings = timings
        return report

    t0 = time.perf_counter()
    try:
        leg = primary_constraints(m)
    except (LegendreError, ModelError) as exc:
        note("error", "legendre-failed", str(exc))
        return finish(INAPPLICABLE)
    finally:
        timings["legendre"] = time.perf_counter() - t0
    report.legendre = leg

    hinted = set(m.hinted_discardable())
    derived = set(leg.discardable)
    if hinted - derived:
        missed = ", ".join(str(q) for q in sorted(hinted - derived))
        note("warning", "hint-not-confirmed",
             f"declared discardable but momentum not identically zero: {missed}")

    t0 = time.perf_counter()
    try:
        dirac = run_dirac(m, leg)
    except InconsistentLagrangian as exc:
        report.dirac = exc.partial
        note("error", "inconsistent-lagrangian", str(exc), witness=str(exc.witness))
        return finish(INAPPLICABLE)
    except DiracError as exc:
        note("error", "dirac-failed", f"{type(exc).__name__}: {exc}")
        return finish(INAPPLICABLE)
    finally:
        timings["dirac"] = time.perf_counter() - t0
    report.dirac = dirac
    for message in dirac.diagnostics:
        note("warning", "dependent-residue", message)

    t0 = time.perf_counter()
    noether = None
    try:
        noether = noether_identity_check(m)
        report.noether = noether
    except IdentityViolated as exc:
        report.noether = exc.report
        note("error", "identity-violated", str(exc))
        return finish(INAPPLICABLE)
    finally:
        timings["noether"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        report.independent = independence_check(m)
        if not report.independent:
            note("warning", "dependent-generators",
                 "the declared generators are not independent")
    except GaugeflowError as exc:
        note("warning", "independence-unknown", str(exc))
    finally:
        timings["independence"] = time.perf_counter() - t0

    canonical_first = tuple(
        c for c in dirac.first_class() if _canonical_sector(c, leg.discardable))
    report.canonical_first_class = canonical_first
    if not canonical_first and dirac.first_class():
        note("info", "no-canonical-gauge-sector",
             "every first-class constraint involves discarded coordinates; "
             "the canonical-sector comparison is vacuous")

    t0 = time.perf_counter()
    try:
        conjecture = conjecture_constraints(m, leg, noether)
    except (ConjectureInapplicable, DegenerateGenerator) as exc:
        note("error", "conjecture-inapplicable", f"{type(exc).__name__}: {exc}")
        return finish(INAPPLICABLE)
    finally:
        timings["conjecture"] = time.perf_counter() - t0
    report.conjecture = conjecture

    if not m.generators and not dirac.first_class():
        return finish(NO_GAUGE_SECTOR)

    t0 = time.perf_counter()
    phase_vars = [v for pair in m.canonical_pairs() for v in pair]
    span = span_equivalent(canonical_first, conjecture, phase_vars, m.options)
    timings["compare"] = time.perf_counter() - t0
    report.span = span

    if span.equivalent:
        if len(canonical_first) != len(conjecture):
            note("warning", "count-mismatch",
                 f"spans agree but counts differ: {len(canonical_first)} "
                 f"first class vs {len(conjecture)} candidates")
            return finish(MISMATCH)
        return finish(MATCH)

    if span.rank_left != span.rank_right:
        note("error", "rank-mismatch",
             f"constraint surfaces have different ranks: "
             f"{span.rank_left} vs {span.rank_right}")
        return finish(MISMATCH)

    # symbolic reduction failed somewhere; let the numeric oracle vote
    definite = False
    contradicted = False
    for witnesses, other in ((span.left_witnesses, conjecture),
                             (span.right_witnesses, canonical_first)):
        for constraint, residue in witnesses:
            try:
                verdict = weak_zero_numeric(
                    constraint.expr, [c.expr for c in other], phase_vars, m.options)
            except SurfaceSamplingFailed as exc:
                note("warning", "surface-sampling-failed", str(exc))
                continue
            if verdict.zero:
                contradicted = True
                note("warning", "symbolic-numeric-conflict",
                     f"{constraint.expr} does not reduce symbolically but "
                     f"vanishes numerically on the other surface",
                     witness=str(residue))
            else:
                definite = True
                note("error", "not-in-span",
                     f"{constraint.expr} is nonzero on the other constraint "
                     f"surface (worst |value| {verdict.worst_value})",
                     witness=str(residue))
    if definite or not contradicted:
        return finish(MISMATCH)
    return finish(INDETERMINATE)
