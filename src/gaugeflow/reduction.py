"""Weak equality: reduction modulo a constraint set, plus the numeric
surface-sampling oracle that guards the symbolic verdicts.

Reduction strategy, in order:

* constraints affine in momenta with a constant-coefficient momentum
  pivot are solved exactly and become triangular substitution rules;
* the numerators of everything else, the leftovers, are kept linearly
  inter-reduced (the degree-0 step of Buchberger's algorithm) and
  divide the remainder under the graded-lex monomial order (they
  generate the same surface ideal away from denominator zeros).

A zero result certifies weak vanishing.  A nonzero remainder only means
"not reducible by this engine" (ideal membership is not radical
membership, and no S-polynomials are formed); the sampling oracle can
second-guess it with exact rational points on the surface, where
affine constraints the symbolic pass left behind are solved
numerically point by point.  :meth:`SurfaceSampler.nonzero_point` is
the one numeric weak-zero test: Dirac's admission of a candidate and
the oracle (:func:`weak_zero_numeric`) both ask it, and it draws a
point only while the expression has vanished at every earlier one.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from .errors import DivisionByZero, SurfaceSamplingFailed
from .expr import Divisors, Expression, Kind
from .linalg import RowReducer, evaluate_rows, jacobian, random_rational


def _constant_pivot(e):
    """Largest momentum of ``e`` with a constant nonzero coefficient, or
    None when the expression is not affine in momenta or has no such
    pivot."""
    if e.degree_in_kind(Kind.MOMENTUM) != 1:
        return None
    momenta = sorted((v for v in e.variables() if v.kind is Kind.MOMENTUM),
                     reverse=True)
    for v in momenta:
        coeff = e.diff(v)
        if coeff.is_constant():
            return v, coeff.constant_value()
    return None


class WeakReducer:
    """Reduction modulo a constraint set that only grows (``extend``).

    Two mechanisms, applied in order:

    * ``rules``: momenta solved exactly from constraints with a constant
      pivot coefficient (fully back-substituted, cheap to apply);
    * division of the remainder under the graded-lex order by the
      numerators of the ``leftovers``, the constraints no rule solves.

    After every absorbed constraint two invariants hold: no leftover
    mentions a rule target, because a rule takes the leftovers it
    reaches out and absorbs them again; and no divisor's leading
    monomial appears in another divisor, because each new divisor is
    linearly reduced by the others and then reduces them in turn
    (:class:`~gaugeflow.expr.Divisors`, which divides exactly over the
    rationals, so a remainder is the one Fraction arithmetic gives).

    ``_users`` maps each variable to the targets of the rules whose
    right-hand side may mention it (a superset: a rewrite can cancel a
    variable), so a new rule rewrites only the rules that mention its
    target.  Rewrites replace values under existing keys, so ``rules``
    keeps the order in which its targets were solved.

    Nonzero remainders are reported in the division form, which stays
    free of localization denominators.
    """

    def __init__(self, constraint_exprs):
        self.rules = {}
        self._users = {}  # variable -> {rule target: None}
        self.leftovers = []
        self._divisors = Divisors()  # the leftovers' numerators
        self.extend(constraint_exprs)

    def extend(self, constraint_exprs):
        """Absorb more constraints, one at a time and in order, so
        feeding one sequence in two calls leaves exactly the state of
        one call."""
        for e in constraint_exprs:
            self._absorb(e)

    def _absorb(self, e):
        if self.rules:
            e = e.subs(self.rules)
        if e.is_zero():
            return  # dependent constraint: no new information
        pivot = _constant_pivot(e)
        if pivot is None:
            self.leftovers.append(e)
            self._divisors.add(e)  # division only needs the numerator ideal
            return
        target, coeff = pivot
        rhs = -(e - coeff * Expression.var(target)) / coeff
        for v in self._users.pop(target, ()):
            self._rule(v, self.rules[v].subs({target: rhs}))
        self._rule(target, rhs)
        stale = [g for g in self.leftovers if target in g.variables()]
        if stale:
            self.leftovers = [g for g in self.leftovers if target not in g.variables()]
            self._divisors = Divisors(self.leftovers)
            for g in stale:
                self._absorb(g)

    def _rule(self, target, rhs):
        self.rules[target] = rhs
        for v in rhs.variables():
            self._users.setdefault(v, {})[target] = None

    def reduce(self, e):
        """Canonical remainder of ``e`` modulo the constraint set; zero
        exactly when this engine can certify weak vanishing."""
        if self.rules and e.variables():
            e = e.subs(self.rules)
        if e.is_zero() or not self._divisors:
            return e
        return self._divisors.remainder(e)


# --- numeric sampling on the constraint surface ----------------------------------

def _solve_affine_at_point(affine, coefficients, unknowns, base_point, rng):
    """Exactly solve momentum-affine constraints at one point.

    ``coefficients`` is the Jacobian of ``affine`` in the momenta
    ``unknowns``, which ``base_point`` leaves unset; the right-hand side
    of each constraint is its value with those momenta at 0, negated.
    Momenta no pivot fixes are drawn at random.  Returns the extended
    point or None when the system has a pole or is inconsistent there.
    """
    at_zero = dict(base_point)
    at_zero.update(dict.fromkeys(unknowns, 0))
    try:
        rows = evaluate_rows(coefficients, base_point)
        for row, g in zip(rows, affine):
            row[len(unknowns)] = -g.evaluate(at_zero)
    except DivisionByZero:
        return None
    system = RowReducer()
    for row in rows:
        system.absorb(row)
    values = system.solve(len(unknowns), rng)
    if values is None:
        return None  # inconsistent at this point
    point = dict(base_point)
    point.update(zip(unknowns, values))
    return point


class SurfaceSampler:
    """Deterministic exact-rational points on the surface of the
    constraints ``reducer`` (a :class:`WeakReducer`) has absorbed, drawn
    one at a time and kept in ``points``.

    Free variables get random rationals; momenta covered by the affine
    rules are substituted exactly, momentum-affine leftovers are solved
    per point, and any remaining constraint must vanish within
    tolerance or the attempt is rejected.  All draws share one budget of
    60 × ``options.sample_count`` attempts.
    """

    def __init__(self, reducer, variables, options, rng=None):
        self.rng = rng or random.Random(options.seed)
        self.rules = dict(reducer.rules)
        self.affine = []
        self.hard = []
        for g in reducer.leftovers:
            if g.degree_in_kind(Kind.MOMENTUM) == 1:
                self.affine.append(g)
            else:
                self.hard.append(g)
        self.unknowns = sorted({v for g in self.affine for v in g.variables()
                                if v.kind is Kind.MOMENTUM})
        self.coefficients = jacobian(self.affine, self.unknowns)
        needed = set(variables)
        for e in [*reducer.leftovers, *reducer.rules.values()]:
            needed |= e.variables()
        self.free = sorted(needed - set(reducer.rules) - set(self.unknowns))
        self.tolerance = options.numeric_tolerance
        self.sample_count = options.sample_count
        self.limit = 60 * options.sample_count
        self.attempts = 0
        self.points = []

    def draw(self):
        """The next surface point, or None once the budget is spent."""
        while self.attempts < self.limit:
            self.attempts += 1
            pt = {v: random_rational(self.rng) for v in self.free}
            if self.affine:
                pt = _solve_affine_at_point(self.affine, self.coefficients,
                                            self.unknowns, pt, self.rng)
                if pt is None:
                    continue
            try:
                for v, rhs in self.rules.items():
                    pt[v] = rhs.evaluate(pt)
            except DivisionByZero:
                continue
            if any(abs(g.evaluate(pt)) > self.tolerance for g in self.hard):
                continue
            self.points.append(pt)
            return pt
        return None

    def nonzero_point(self, e):
        """The first of the first ``sample_count`` points where ``|e|``
        exceeds the tolerance, as ``(point, |value|)``, or None when
        ``e`` vanishes at all of them.

        One nonzero value at an exact surface point proves ``e`` is not
        weakly zero, so a point is drawn only when ``e`` vanished at
        every earlier one.  A pole of ``e`` decides nothing.  Raises
        :class:`SurfaceSamplingFailed` when the budget runs out before
        a decision, or when ``e`` has a pole at every point.
        """
        poles = 0
        for k in range(self.sample_count):
            if k == len(self.points):
                sample_surface_points(self, 1)  # draw() keeps the point
            try:
                value = abs(e.evaluate(self.points[k]))
            except DivisionByZero:
                poles += 1
                continue
            if value > self.tolerance:
                return self.points[k], value
        if poles == self.sample_count:
            raise SurfaceSamplingFailed(
                "the expression's denominator vanishes at every sampled point")
        return None


def sample_surface_points(sampler, count):
    """The next ``count`` points of ``sampler`` (a :class:`SurfaceSampler`),
    as a list.  Raises :class:`SurfaceSamplingFailed` when its budget
    runs out first."""
    wanted = len(sampler.points) + count
    points = []
    while len(points) < count:
        pt = sampler.draw()
        if pt is None:
            raise SurfaceSamplingFailed(
                f"only {len(sampler.points)} of {wanted} surface points found "
                f"after {sampler.attempts} attempts")
        points.append(pt)
    return points


class NumericVerdict(namedtuple("NumericVerdict", "zero witness_point value")):
    """Outcome of the sampling oracle: for a nonzero verdict the
    deciding point and ``|e|`` there, for a zero one None and 0; a named
    tuple (equal to any tuple)."""

    __slots__ = ()


def weak_zero_numeric(e, constraint_exprs, variables, options):
    """Does ``e`` vanish numerically on the constraint surface?

    Asks a fresh :class:`SurfaceSampler` over ``constraint_exprs`` for
    the first of ``options.sample_count`` exact points where ``|e|``
    exceeds ``options.numeric_tolerance`` (:meth:`SurfaceSampler.nonzero_point`).
    """
    variables = set(variables) | e.variables()
    sampler = SurfaceSampler(WeakReducer(constraint_exprs), variables, options)
    found = sampler.nonzero_point(e)
    return NumericVerdict(False, *found) if found else NumericVerdict(True, None, Fraction(0))
