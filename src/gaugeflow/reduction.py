"""Weak equality: reduction modulo a constraint set, plus the numeric
surface-sampling oracle that guards the symbolic verdicts.

Reduction strategy, in order:

* constraints affine in momenta with a constant-coefficient momentum
  pivot are solved exactly and become triangular substitution rules;
* everything else joins a division pile reduced under the graded-lex
  monomial order (their numerators generate the same surface ideal away
  from denominator zeros);
* leftovers affine in momenta also feed a fraction-free momentum
  elimination that certifies linear recombinations division misses.

A zero result certifies weak vanishing.  A nonzero remainder only means
"not reducible by this engine"; the sampling oracle can second-guess it
with exact rational points on the surface, where affine constraints the
symbolic pass left behind are solved numerically point by point.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import DivisionByZero, SurfaceSamplingFailed
from .expr import (
    Expression,
    Kind,
    _mono_div,
    _mono_divides,
    _mono_mul,
    _mono_sort_key,
    _p_add_into,
    _p_leading,
    _p_to_univariate,
    esum,
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


class WeakReducer:
    """Reduction modulo a constraint set that only grows (``extend``).

    Three mechanisms, applied in order:

    * ``rules``: momenta solved exactly from constraints with a constant
      pivot coefficient (fully back-substituted, cheap to apply);
    * division of the remainder by the leftover constraints under the
      graded-lex order;
    * for leftovers that are affine in momenta with coordinate
      coefficients, a fraction-free momentum elimination used as a final
      zero certificate (division alone can stall on linear
      recombinations of such constraints).

    Nonzero remainders are reported in the division form, which stays
    free of localization denominators.
    """

    def __init__(self, constraint_exprs):
        self.rules = {}
        self.leftovers = []
        self._divisors = []
        self._eliminator = _AffineEliminator()
        self.extend(constraint_exprs)

    def extend(self, constraint_exprs):
        """Absorb more constraints, in order.  A stored leftover is never
        rewritten by a later rule, so feeding one sequence in two calls
        leaves exactly the state of one call."""
        for e in constraint_exprs:
            if self.rules:
                e = e.subs(self.rules)
            if e.is_zero():
                continue  # dependent constraint: no new information
            pivot = _constant_pivot(e)
            if pivot is None:
                self.leftovers.append(e)
                num = e._num  # division only needs the numerator ideal
                lead = _p_leading(num)
                self._divisors.append((lead, num[lead], num))
                if e.degree_in_kind(Kind.MOMENTUM) == 1:
                    self._eliminator.add(e)
                continue
            target, coeff = pivot
            rhs = -(e - coeff * Expression.var(target)) / coeff
            for v, r in list(self.rules.items()):
                if r.mentions(target):
                    self.rules[v] = r.subs({target: rhs})
            self.rules[target] = rhs

    def _divide(self, e):
        rem = dict(e._num)
        while rem:
            progressed = False
            for mono in sorted(rem, key=_mono_sort_key, reverse=True):
                coeff = rem[mono]
                for lead, lc, g in self._divisors:
                    if _mono_divides(lead, mono):
                        shift = _mono_div(mono, lead)
                        factor = coeff / lc
                        _p_add_into(
                            rem,
                            {_mono_mul(shift, mg): -factor * gc for mg, gc in g.items()})
                        progressed = True
                        break
                if progressed:
                    break
            if not progressed:
                break
        return Expression._make(rem, dict(e._den)) if rem else Expression.const(0)

    def reduce(self, e):
        """Canonical remainder of ``e`` modulo the constraint set; zero
        exactly when this engine can certify weak vanishing."""
        if self.rules and not e.is_zero():
            e = e.subs(self.rules)
        if e.is_zero():
            return e
        if self._divisors:
            e = self._divide(e)
            if e.is_zero():
                return e
        if self._eliminator.rows and self._eliminator.vanishes(e):
            return Expression.const(0)
        return e


class _AffineEliminator:
    """Fraction-free elimination of momenta pinned by affine constraints.

    Each absorbed constraint contributes a pivot momentum m with
    ``lc(q) * m ~ rest`` on the surface; eliminating a pivot from an
    expression multiplies through by lc instead of dividing, so
    everything stays polynomial.  Scalings by lc are harmless because
    the eliminator only ever answers "does this vanish weakly" (away
    from lc zeros).
    """

    def __init__(self):
        self.rows = []  # (pivot VarRef, lc Expression, rest Expression), pivots desc

    def add(self, g):
        g = self._eliminate(g)
        if g.is_zero():
            return
        momenta = [v for v in g.variables() if v.kind is Kind.MOMENTUM]
        if not momenta:
            return  # coordinate-only residue; division already covers it
        pivot = max(momenta)
        lc = g.diff(pivot)
        rest = lc * Expression.var(pivot) - g
        self.rows.append((pivot, lc, rest))
        self.rows.sort(key=lambda row: row[0], reverse=True)

    def _eliminate(self, e):
        # numerator is enough: the denominator never vanishes weakly
        work = Expression._make(dict(e._num), {(): Fraction(1)})
        for pivot, lc, rest in self.rows:
            if not work.mentions(pivot):
                continue
            by_power = _p_to_univariate(work._num, pivot)
            degree = max(by_power)
            pieces = []
            for k, coeff_poly in by_power.items():
                term = Expression._make(coeff_poly, {(): Fraction(1)})
                pieces.append(term * rest ** k * lc ** (degree - k))
            work = esum(pieces)
            if not work.is_zero():
                work = work.normalized()  # cheap content control
        return work

    def vanishes(self, e):
        return self._eliminate(e).is_zero()


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
            row.append(-g.evaluate(at_zero))
    except DivisionByZero:
        return None
    system = RowReducer(len(unknowns) + 1)
    for row in rows:
        system.absorb(row)
    values = system.solve(rng)
    if values is None:
        return None  # inconsistent at this point
    point = dict(base_point)
    point.update(zip(unknowns, values))
    return point


def sample_surface_points(reducer, variables, options, rng=None):
    """Deterministic exact-rational points on the surface of the
    constraints ``reducer`` (a :class:`WeakReducer`) has absorbed.

    Free variables get random rationals; momenta covered by the affine
    rules are substituted exactly, momentum-affine leftovers are solved
    per point, and any remaining constraint must vanish within
    tolerance or the point is rejected.  Raises
    :class:`SurfaceSamplingFailed` when not enough points survive.
    """
    rng = rng or random.Random(options.seed)
    affine = []
    hard = []
    for g in reducer.leftovers:
        if g.degree_in_kind(Kind.MOMENTUM) == 1:
            affine.append(g)
        else:
            hard.append(g)
    unknowns = sorted({v for g in affine for v in g.variables()
                       if v.kind is Kind.MOMENTUM})
    coefficients = jacobian(affine, unknowns)
    needed = set(variables)
    for e in [*reducer.leftovers, *reducer.rules.values()]:
        needed |= e.variables()
    free = sorted(needed - set(reducer.rules) - set(unknowns))
    tol = options.numeric_tolerance
    points = []
    attempts = 0
    limit = 60 * options.sample_count
    while len(points) < options.sample_count and attempts < limit:
        attempts += 1
        pt = {v: random_rational(rng) for v in free}
        if affine:
            pt = _solve_affine_at_point(affine, coefficients, unknowns, pt, rng)
            if pt is None:
                continue
        try:
            for v, rhs in reducer.rules.items():
                pt[v] = rhs.evaluate(pt)
        except DivisionByZero:
            continue
        if any(abs(g.evaluate(pt)) > tol for g in hard):
            continue
        points.append(pt)
    if len(points) < options.sample_count:
        raise SurfaceSamplingFailed(
            f"only {len(points)} of {options.sample_count} surface points "
            f"found after {attempts} attempts")
    return points


class NumericVerdict:
    """Outcome of the sampling oracle, with its worst witness point."""

    def __init__(self, zero, witness_point, worst_value):
        self.zero = zero
        self.witness_point = witness_point
        self.worst_value = worst_value

    def __bool__(self):
        return self.zero

    def __repr__(self):
        state = "zero" if self.zero else "nonzero"
        return f"<numeric {state}, worst |value| = {self.worst_value}>"


def weak_zero_numeric(e, constraint_exprs, variables, options):
    """Does ``e`` vanish numerically on the constraint surface?

    Samples ``options.sample_count`` exact points and compares |value|
    against ``options.numeric_tolerance``.  The verdict carries the
    point with the largest magnitude as a witness.
    """
    variables = set(variables) | e.variables()
    points = sample_surface_points(WeakReducer(constraint_exprs), variables, options)
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
