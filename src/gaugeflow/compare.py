"""Constraint-set equivalence and the consolidated analysis report.

``build_report`` drives the whole pipeline on one model and never
raises: every stage failure lands in the diagnostics, and the verdict
says what the comparison established.

Verdicts: ``match`` (the single-step rule reproduces the canonical
sector first-class constraints, span for span), ``mismatch`` (a
witnessed difference), ``no_gauge_sector`` (no generators and no
canonical-sector first-class constraints: nothing to compare on either
side), ``inapplicable`` (a stage could not run), and
``indeterminate`` (symbolic reduction failed but the numeric oracle
contradicts it).
"""

from __future__ import annotations

import random
import time
from collections import namedtuple

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

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_INCONSISTENT = 3
EXIT_INAPPLICABLE = 4


class Diagnostic(namedtuple("Diagnostic", "severity code message witness",
                             defaults=(None,))):
    """``severity`` is "info", "warning" or "error"; a named tuple (equal
    to any tuple)."""

    __slots__ = ()


class SpanCheck(namedtuple("SpanCheck", "equivalent rank_left rank_right "
                           "left_witnesses right_witnesses")):
    """Witnesses are (constraint, residue) pairs not reducible modulo the
    other set; a named tuple (equal to any tuple)."""

    __slots__ = ()


def _unreduced(members, others):
    """The (constraint, residue) pairs of the members that do not reduce
    to zero modulo ``others``.

    A member found verbatim among ``others`` lies in their ideal and is
    never a witness.  Only when some member is not found is a reducer
    built, over all of ``others`` in order, and it reduces only those.
    """
    found = {c.expr for c in others}
    rest = [c for c in members if c.expr not in found]
    if not rest:
        return ()
    reducer = WeakReducer([c.expr for c in others])
    return tuple((c, residue) for c in rest
                 if not (residue := reducer.reduce(c.expr)).is_zero())


def span_equivalent(left, right, variables, options):
    """Do two constraint sets cut the same surface?

    True exactly when every member of each set is found verbatim in the
    other or weakly reduces to zero modulo it, and the sampled Jacobian
    ranks agree.  Witnesses carry the irreducible members.  Both
    Jacobian ranks are sampled from one generator seeded with
    ``options.seed``, left then right.
    """
    left_witnesses = _unreduced(left, right)
    right_witnesses = _unreduced(right, left)
    rng = random.Random(options.seed)
    width = len(variables)
    rank_left = sampled_rank(jacobian([c.expr for c in left], variables), width, options, rng)
    rank_right = sampled_rank(jacobian([c.expr for c in right], variables), width, options, rng)
    return SpanCheck(
        equivalent=not left_witnesses and not right_witnesses
        and rank_left == rank_right,
        rank_left=rank_left,
        rank_right=rank_right,
        left_witnesses=left_witnesses,
        right_witnesses=right_witnesses,
    )


class AnalysisReport:
    """What :func:`build_report` found; a stage's result is None until it ran."""

    def __init__(self, model_name, options):
        self.model_name = model_name
        self.options = options
        self.verdict = INAPPLICABLE
        self.legendre = self.dirac = self.noether = None
        self.independent = self.conjecture = self.span = None
        self.canonical_first_class = self.diagnostics = ()
        self.timings = {}

    @property
    def exit_code(self):
        """0 match/informational, 2 mismatch, 3 inconsistent Lagrangian,
        4 no definitive comparison."""
        if any(d.code == "inconsistent-lagrangian" for d in self.diagnostics):
            return EXIT_INCONSISTENT
        if self.verdict == MISMATCH:
            return EXIT_MISMATCH
        if self.verdict in (INAPPLICABLE, INDETERMINATE):
            return EXIT_INAPPLICABLE
        return EXIT_OK


def _canonical_sector(constraint, discardable):
    """A constraint belongs to the canonical sector when it involves no
    discarded coordinate and no momentum conjugate to one."""
    banned = set(discardable)
    for v in constraint.expr.variables():
        core = v.coordinate() if v.kind in (Kind.COORDINATE, Kind.MOMENTUM) else None
        if core in banned:
            return False
    return True


def _timed(timings, name, stage, *args):
    """``stage(*args)``, with its wall time stored under ``name`` even
    when it raises."""
    t0 = time.perf_counter()
    try:
        return stage(*args)
    finally:
        timings[name] = time.perf_counter() - t0


def build_report(m):
    """Run the full pipeline on a model and assemble the report.

    Stage errors become diagnostics; the report is always produced.
    """
    report = AnalysisReport(model_name=m.name, options=m.options)
    diagnostics = []

    def note(severity, code, message, witness=None):
        diagnostics.append(Diagnostic(severity, code, message, witness))

    def finish(verdict):
        report.verdict = verdict
        report.diagnostics = tuple(diagnostics)
        return report

    try:
        leg = _timed(report.timings, "legendre", primary_constraints, m)
    except (LegendreError, ModelError) as exc:
        note("error", "legendre-failed", str(exc))
        return finish(INAPPLICABLE)
    report.legendre = leg

    hinted = set(m.hinted_discardable())
    derived = set(leg.discardable)
    if hinted - derived:
        missed = ", ".join(str(q) for q in sorted(hinted - derived))
        note("warning", "hint-not-confirmed",
             f"declared discardable but momentum not identically zero: {missed}")

    try:
        dirac = _timed(report.timings, "dirac", run_dirac, m, leg)
    except InconsistentLagrangian as exc:
        report.dirac = exc.partial
        note("error", "inconsistent-lagrangian", str(exc), witness=str(exc.witness))
        return finish(INAPPLICABLE)
    except DiracError as exc:
        note("error", "dirac-failed", f"{type(exc).__name__}: {exc}")
        return finish(INAPPLICABLE)
    report.dirac = dirac
    for message in dirac.diagnostics:
        note("warning", "dependent-residue", message)

    try:
        noether = _timed(report.timings, "noether", noether_identity_check, m)
    except IdentityViolated as exc:
        report.noether = exc.report
        note("error", "identity-violated", str(exc))
        return finish(INAPPLICABLE)
    report.noether = noether

    try:
        report.independent = _timed(report.timings, "independence", independence_check, m)
        if not report.independent:
            note("warning", "dependent-generators",
                 "the declared generators are not independent")
    except GaugeflowError as exc:
        note("warning", "independence-unknown", str(exc))

    canonical_first = tuple(
        c for c in dirac.first_class() if _canonical_sector(c, leg.discardable))
    report.canonical_first_class = canonical_first
    if not canonical_first and dirac.first_class():
        note("info", "no-canonical-gauge-sector",
             "every first-class constraint involves discarded coordinates; "
             "the canonical-sector comparison is vacuous")

    try:
        conjecture = _timed(report.timings, "conjecture", conjecture_constraints, m, leg, noether)
    except (ConjectureInapplicable, DegenerateGenerator) as exc:
        note("error", "conjecture-inapplicable", f"{type(exc).__name__}: {exc}")
        return finish(INAPPLICABLE)
    report.conjecture = conjecture

    if not m.generators and not canonical_first:
        return finish(NO_GAUGE_SECTOR)

    phase_vars = [v for pair in m.canonical_pairs() for v in pair]
    span = _timed(report.timings, "compare", span_equivalent,
                  canonical_first, conjecture, phase_vars, m.options)
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
                     f"surface (|value| {verdict.value})",
                     witness=str(residue))
    if definite or not contradicted:
        return finish(MISMATCH)
    return finish(INDETERMINATE)
