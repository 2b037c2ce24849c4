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
numerically point by point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, SurfaceSamplingFailed
from .expr import (
    Expression,
    Kind,
    _lower,
    _mono_div,
    _mono_divides,
    _mono_mul,
    _mono_sort_key,
    _p_add_into,
    _p_leading,
)
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


def _cancel(p, mono, lead, lc, g):
    """Subtract from ``p``, in place, the multiple of ``g`` (leading
    monomial ``lead``, coefficient ``lc``) that cancels its term in
    ``mono``, which ``lead`` divides."""
    shift = _mono_div(mono, lead)
    factor = p[mono] if lc == 1 else Fraction(p[mono], lc)
    _p_add_into(p, {_mono_mul(shift, m): _lower(-factor * c) for m, c in g.items()})


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
    linearly reduced by the others and then reduces them in turn.
    Leading coefficients are never rescaled.

    Nonzero remainders are reported in the division form, which stays
    free of localization denominators.
    """

    def __init__(self, constraint_exprs):
        self.rules = {}
        self.leftovers = []
        self._divisors = []  # (leading monomial, its coefficient, numerator)
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
            self._add_divisor(e._num)  # division only needs the numerator ideal
            return
        target, coeff = pivot
        rhs = -(e - coeff * Expression.var(target)) / coeff
        for v, r in list(self.rules.items()):
            if r.mentions(target):
                self.rules[v] = r.subs({target: rhs})
        self.rules[target] = rhs
        stale = [g for g in self.leftovers if g.mentions(target)]
        if stale:
            self.leftovers = [g for g in self.leftovers if not g.mentions(target)]
            self._divisors = []
            for g in self.leftovers:
                self._add_divisor(g._num)
            for g in stale:
                self._absorb(g)

    def _add_divisor(self, num):
        num = dict(num)
        for lead, lc, g in self._divisors:
            if lead in num:
                _cancel(num, lead, lead, lc, g)
        if not num:
            return  # a linear combination of the divisors already held
        lead = _p_leading(num)
        lc = num[lead]
        for _, _, g in self._divisors:
            if lead in g:
                _cancel(g, lead, lead, lc, num)
        self._divisors.append((lead, lc, num))

    def _divide(self, e):
        rem = dict(e._num)
        while rem:
            for mono in sorted(rem, key=_mono_sort_key):
                divisor = next((d for d in self._divisors if _mono_divides(d[0], mono)), None)
                if divisor is not None:
                    _cancel(rem, mono, *divisor)
                    break
            else:
                break
        return Expression._make(rem, dict(e._den)) if rem else Expression.const(0)

    def reduce(self, e):
        """Canonical remainder of ``e`` modulo the constraint set; zero
        exactly when this engine can certify weak vanishing."""
        if self.rules and e.variables():
            e = e.subs(self.rules)
        if e.is_zero() or not self._divisors:
            return e
        return self._divide(e)


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
    one at a time.

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
        self.limit = 60 * options.sample_count
        self.attempts = 0
        self.found = 0

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
            self.found += 1
            return pt
        return None


def sample_surface_points(sampler, count):
    """The next ``count`` points of ``sampler`` (a :class:`SurfaceSampler`),
    as a list.  Raises :class:`SurfaceSamplingFailed` when its budget
    runs out first."""
    wanted = sampler.found + count
    points = []
    while len(points) < count:
        pt = sampler.draw()
        if pt is None:
            raise SurfaceSamplingFailed(
                f"only {sampler.found} of {wanted} surface points found "
                f"after {sampler.attempts} attempts")
        points.append(pt)
    return points


@dataclass(frozen=True)
class NumericVerdict:
    """Outcome of the sampling oracle, with its worst witness point."""

    zero: bool
    witness_point: dict
    worst_value: Fraction


def weak_zero_numeric(e, constraint_exprs, variables, options):
    """Does ``e`` vanish numerically on the constraint surface?

    Samples ``options.sample_count`` exact points and compares |value|
    against ``options.numeric_tolerance``.  The verdict carries the
    point with the largest magnitude as a witness.
    """
    variables = set(variables) | e.variables()
    sampler = SurfaceSampler(WeakReducer(constraint_exprs), variables, options)
    points = sample_surface_points(sampler, options.sample_count)
    worst = Fraction(0)
    worst_pt = None
    evaluated = 0
    for pt in points:
        try:
            val = abs(e.evaluate(pt))
        except DivisionByZero:
            continue
        evaluated += 1
        if val > worst or worst_pt is None:
            worst = val
            worst_pt = pt
    if not evaluated:
        raise SurfaceSamplingFailed(
            "the expression's denominator vanishes at every sampled point")
    return NumericVerdict(worst <= options.numeric_tolerance, worst_pt, worst)
