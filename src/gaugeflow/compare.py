"""Constraint-set equivalence and the consolidated analysis report.

``build_report`` drives the whole pipeline on one model and never
raises: every stage failure lands in the diagnostics, and the verdict
says what the comparison established.  It returns an ``AnalysisReport``
named tuple, built once; its last timing, ``untimed``, is what no stage took.

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
    DegenerateGenerator,
    DiracError,
    GaugeflowError,
    IdentityViolated,
    LegendreError,
    SurfaceSamplingFailed,
)
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


class AnalysisReport(namedtuple("AnalysisReport", "model_name options verdict legendre "
                                "dirac noether independent conjecture span "
                                "canonical_first_class diagnostics timings")):
    """What :func:`build_report` found; None for a stage that did not run."""

    __slots__ = ()

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


def _canonical_sector(constraint, discarded):
    """A constraint belongs to the canonical sector when it involves no
    coordinate of the set ``discarded`` and no momentum conjugate to one."""
    return not any(v.coordinate() in discarded for v in constraint.expr.variables())


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

    Stage errors become diagnostics; ``finish`` builds the one report.
    """
    start = time.perf_counter()
    timings = {}
    diagnostics = []
    leg = dirac = noether = independent = conjecture = span = None
    canonical_first = ()

    def note(severity, code, message, witness=None):
        diagnostics.append(Diagnostic(severity, code, message, witness))

    def finish(verdict):
        timings["untimed"] = time.perf_counter() - start - sum(timings.values())
        return AnalysisReport(m.name, m.options, verdict, leg, dirac, noether, independent,
                              conjecture, span, canonical_first, tuple(diagnostics), timings)

    try:
        leg = _timed(timings, "legendre", primary_constraints, m)
    except LegendreError as exc:
        note("error", "legendre-failed", str(exc))
        return finish(INAPPLICABLE)

    hinted = set(m.hinted_discardable())
    derived = set(leg.discardable)
    if hinted - derived:
        missed = ", ".join(str(q) for q in sorted(hinted - derived))
        note("warning", "hint-not-confirmed",
             f"declared discardable but momentum not identically zero: {missed}")

    try:
        dirac = _timed(timings, "dirac", run_dirac, m, leg)
    except DiracError as exc:
        note("error", "dirac-failed", f"{type(exc).__name__}: {exc}")
        return finish(INAPPLICABLE)
    if not dirac.consistent:
        note("error", "inconsistent-lagrangian",
             f"consistency condition reduces to the nonzero constant {dirac.witness}",
             witness=str(dirac.witness))
        return finish(INAPPLICABLE)
    for message in dirac.diagnostics:
        note("warning", "dependent-residue", message)

    noether = _timed(timings, "noether", noether_identity_check, m)
    if not noether.passed():
        note("error", "identity-violated", str(IdentityViolated(noether)))
        return finish(INAPPLICABLE)

    try:
        independent = _timed(timings, "independence", independence_check, m)
        if not independent:
            note("warning", "dependent-generators",
                 "the declared generators are not independent")
    except GaugeflowError as exc:
        note("warning", "independence-unknown", str(exc))

    canonical_first = tuple(
        c for c in dirac.first_class() if _canonical_sector(c, derived))
    if not canonical_first and dirac.first_class():
        note("info", "no-canonical-gauge-sector",
             "every first-class constraint involves discarded coordinates; "
             "the canonical-sector comparison is vacuous")

    try:
        conjecture = _timed(timings, "conjecture", conjecture_constraints, m, leg, noether)
    except DegenerateGenerator as exc:
        note("error", "conjecture-inapplicable", f"{type(exc).__name__}: {exc}")
        return finish(INAPPLICABLE)

    if not m.generators and not canonical_first:
        return finish(NO_GAUGE_SECTOR)

    phase_vars = [v for pair in m.canonical_pairs() for v in pair]
    span = _timed(timings, "compare", span_equivalent,
                  canonical_first, conjecture, phase_vars, m.options)

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
