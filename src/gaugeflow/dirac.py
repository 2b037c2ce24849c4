"""Poisson brackets, the total Hamiltonian, the generational consistency
algorithm and first/second-class classification.

Each generation takes the bracket of every current constraint with the
total Hamiltonian and reduces it modulo the constraint set as it stood
at the start of the generation (matching the merge-after-parallel-steps
contract).  Residues classify into: identity, a new constraint, an
equation fixing a multiplier, or an outright contradiction.  A candidate
constraint is admitted at the first sampled point of the current surface
where it is nonzero; points are drawn only as candidates need them, and
a candidate that vanishes at ``sample_count`` of them is dropped with a
diagnostic.  The admitted constraints are then merged one at a time, and
a merged set that reduces 1 to 0 has no common zero: the Lagrangian is
inconsistent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .errors import (
    DenominatorViolation,
    GenerationLimitExceeded,
    InconsistentLagrangian,
    OddSecondClassCount,
)
from .expr import (
    Expression,
    Kind,
    ONE,
    _ONE_MONO,
    _p_const,
    _p_div_exact,
    _p_gcd_many,
    esum,
    multiplier,
)
from .reduction import SurfaceSampler, WeakReducer, sample_surface_points

FIRST = "first"
SECOND = "second"
UNCLASSIFIED = "unclassified"


def constraint_form(e):
    """Minimal polynomial representative of a constraint expression.

    The coordinate denominator never vanishes weakly, so only the
    numerator matters; likewise a common coordinate-polynomial factor of
    the momentum coefficients (fraction-free elimination introduces
    pivot factors) is nonzero on the generic stratum and is divided out.
    The result has leading coefficient one.
    """
    num = Expression._make(dict(e._num), _p_const(1))
    if not num.mentions_kind(Kind.MOMENTUM):
        return num.normalized()
    by_momentum_part = {}
    for mono, c in num._num.items():
        momentum_part = tuple((v, k) for v, k in mono if v.kind is Kind.MOMENTUM)
        rest = tuple((v, k) for v, k in mono if v.kind is not Kind.MOMENTUM)
        by_momentum_part.setdefault(momentum_part, {})[rest] = c
    common = _p_gcd_many(list(by_momentum_part.values()))
    if set(common) != {_ONE_MONO}:
        num = Expression._make(_p_div_exact(dict(num._num), common), _p_const(1))
    return num.normalized()


@dataclass(frozen=True)
class Constraint:
    """A phase-space relation that must vanish on physical motions."""

    expr: Expression
    generation: int
    origin: str  # "dirac" | "conjecture"
    class_label: str = UNCLASSIFIED

    def __post_init__(self):
        if self.expr.is_zero():
            raise ValueError("a constraint expression cannot be identically zero")
        for v in self.expr.variables():
            if v.kind in (Kind.JET, Kind.MULTIPLIER):
                raise ValueError(f"constraints live on phase space; found {v}")


@dataclass(frozen=True)
class DiracResult:
    constraints: tuple
    multiplier_equations: tuple  # (multiplier VarRef, fixing Expression)
    generations_run: int
    consistent: bool
    witness: Expression = None
    diagnostics: tuple = ()

    def by_generation(self):
        out = {}
        for c in self.constraints:
            out.setdefault(c.generation, []).append(c)
        return out

    def first_class(self):
        return tuple(c for c in self.constraints if c.class_label == FIRST)

    def second_class(self):
        return tuple(c for c in self.constraints if c.class_label == SECOND)


# --- outcomes of a single consistency step ---------------------------------------

@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class NewConstraint:
    expr: Expression


@dataclass(frozen=True)
class MultiplierFixed:
    multiplier: object  # VarRef
    value: Expression   # solved value, or the defining residue if unsolvable


@dataclass(frozen=True)
class Contradiction:
    witness: Expression


class ConjugatePairs(tuple):
    """(coordinate, momentum) pairs, indexed once: ``conjugates`` maps
    each coordinate ``q`` to ``(p, 1)`` and each momentum ``p`` to
    ``(q, -1)``.  A Dirac run or a classification builds one and passes
    it to all of its brackets."""

    def __new__(cls, pairs):
        if isinstance(pairs, cls):
            return pairs
        self = super().__new__(cls, pairs)
        self.conjugates = {}
        for q, p in self:
            self.conjugates[q] = (p, 1)
            self.conjugates[p] = (q, -1)
        return self


def poisson_bracket(f, g, pairs):
    """Canonical Poisson bracket over the given (coordinate, momentum)
    pairs; any other variable is a spectator.

    Only the variables in ``f``'s gradient are visited: a pair adds a
    term when one of its variables is there and the other is in ``g``'s.
    """
    conjugates = ConjugatePairs(pairs).conjugates
    ggrad = g.gradient()
    terms = []
    for v, df in f.gradient().items():
        partner = conjugates.get(v)
        if partner is None:
            continue
        w, sign = partner
        dg = ggrad.get(w)
        if dg is not None:
            terms.append(df * dg if sign > 0 else -(df * dg))
    return esum(terms)


def total_hamiltonian(leg):
    """Canonical Hamiltonian plus one fresh multiplier per primary."""
    return esum([leg.canonical_hamiltonian]
                + [Expression.var(multiplier(i)) * c.expr
                   for i, c in enumerate(leg.primary_constraints)])


def consistency_step(c, h_total, reducer, pairs):
    """Demand that ``c`` is preserved in time; classify the residue.

    The bracket with the total Hamiltonian is reduced by ``reducer``, a
    :class:`WeakReducer` over the constraint set the step is tested
    against (the run's one reducer, shared by every step).
    A zero residue is an identity; a residue with a weakly nonzero
    multiplier coefficient fixes that multiplier; a multiplier-free
    nonzero constant is a contradiction; anything else is a new
    constraint, returned with leading coefficient one.
    """
    residue = reducer.reduce(poisson_bracket(c.expr, h_total, pairs))
    if residue.is_zero():
        return Identity()
    mults = sorted((v for v in residue.variables() if v.kind is Kind.MULTIPLIER),
                   reverse=True)
    for v in mults:
        coeff = residue.diff(v)
        if reducer.reduce(coeff).is_zero():
            continue
        rest = residue - coeff * Expression.var(v)
        try:
            value = reducer.reduce(-rest / coeff)
        except DenominatorViolation:
            value = residue
        return MultiplierFixed(v, value)
    if mults:
        # every multiplier coefficient is weakly zero: drop those terms
        residue = reducer.reduce(
            residue.subs({v: Expression.const(0) for v in mults}))
        if residue.is_zero():
            return Identity()
    if residue.is_constant():
        return Contradiction(residue)
    return NewConstraint(constraint_form(residue))


def run_dirac(m, leg=None):
    """Run the generational consistency algorithm to its fixpoint and
    return its constraints classified.

    Primaries are generation 0; each later generation adds the residues
    of all consistency conditions, tested against the constraint set as
    of the start of that generation, that are nonzero at some sampled
    surface point (:func:`_vanishes_at_sampled_points`).  One
    :class:`WeakReducer`, extended by each admitted constraint in turn,
    serves the whole run and then :func:`classify`.
    Raises :class:`InconsistentLagrangian` on a constant residue or when
    the merged constraints reduce 1 to 0 (the reducer only subtracts
    members of the constraint ideal, so they have no common zero), and
    :class:`GenerationLimitExceeded` if no fixpoint is reached.

    Candidates and constraints are polynomials over phase space
    (:func:`constraint_form`) and every sampled point assigns all of
    phase space, so evaluating them meets no pole.
    """
    if leg is None:
        from .legendre import primary_constraints
        leg = primary_constraints(m)
    options = m.options
    constraints = list(leg.primary_constraints)
    if not constraints:
        return DiracResult((), (), 0, True)
    h_total = total_hamiltonian(leg)
    pairs = ConjugatePairs(m.canonical_pairs())
    phase_vars = [v for pair in pairs for v in pair]
    multiplier_equations = []
    seen_equations = set()
    diagnostics = []
    generations_run = 0
    rng = random.Random(options.seed)
    reducer = WeakReducer([c.expr for c in constraints])

    def inconsistent(witness, c, generation):
        partial = DiracResult(
            constraints=tuple(constraints),
            multiplier_equations=tuple(multiplier_equations),
            generations_run=generation,
            consistent=False,
            witness=witness,
            diagnostics=tuple(diagnostics),
        )
        return InconsistentLagrangian(witness, c, partial)

    for generation in range(1, options.max_generations + 1):
        candidates = []
        for c in constraints:
            outcome = consistency_step(c, h_total, reducer, pairs)
            if isinstance(outcome, Identity):
                continue
            if isinstance(outcome, Contradiction):
                raise inconsistent(outcome.witness, c, generation)
            if isinstance(outcome, MultiplierFixed):
                key = (outcome.multiplier, outcome.value)
                if key not in seen_equations:
                    seen_equations.add(key)
                    multiplier_equations.append((outcome.multiplier, outcome.value))
                continue
            candidates.append(outcome.expr)

        accepted = []
        if candidates:
            sampler = SurfaceSampler(reducer, phase_vars, options, rng)
            points = []
            for expr in candidates:
                if any(expr == a.expr for a in accepted):
                    continue
                if _vanishes_at_sampled_points(expr, points, sampler, options):
                    diagnostics.append(
                        f"generation {generation}: residue {expr} vanishes "
                        f"numerically on the current surface; dropped as dependent")
                    continue
                accepted.append(Constraint(expr, generation, "dirac"))
        generations_run = generation
        if not accepted:
            break
        for c in accepted:
            constraints.append(c)
            reducer.extend([c.expr])
            if reducer.reduce(ONE).is_zero():
                raise inconsistent(ONE, c, generation)
    else:
        raise GenerationLimitExceeded(options.max_generations)

    return classify(DiracResult(
        constraints=tuple(constraints),
        multiplier_equations=tuple(multiplier_equations),
        generations_run=generations_run,
        consistent=True,
        diagnostics=tuple(diagnostics),
    ), pairs, reducer)


def _vanishes_at_sampled_points(expr, points, sampler, options):
    """Is ``expr`` zero, within tolerance, at each of the first
    ``options.sample_count`` points of ``sampler``?  ``points`` holds the
    points drawn so far; it grows by one only when ``expr`` vanishes at
    every one of them, since one nonzero value decides."""
    for k in range(options.sample_count):
        if k == len(points):
            points += sample_surface_points(sampler, 1)
        if abs(expr.evaluate(points[k])) > options.numeric_tolerance:
            return False
    return True


def classify(result, pairs, reducer):
    """Attach first/second class labels by pairwise weak brackets.

    ``reducer`` is a :class:`WeakReducer` over ``result.constraints``.
    A constraint is first class when its bracket with every constraint
    reduces weakly to zero.  Only pairs where a variable of one
    constraint has its conjugate in the other are bracketed; every
    other bracket is identically zero.  An odd number of second-class
    constraints signals a rank anomaly and raises
    :class:`OddSecondClassCount`.
    """
    constraints = result.constraints
    exprs = [c.expr for c in constraints]
    pairs = ConjugatePairs(pairs)
    conjugates = pairs.conjugates
    holders = {}  # variable -> indices of the constraints that mention it
    for i, e in enumerate(exprs):
        for v in e.variables():
            holders.setdefault(v, []).append(i)
    second = [False] * len(constraints)
    for i, e in enumerate(exprs):
        partners = {j for v in e.variables() if v in conjugates
                    for j in holders.get(conjugates[v][0], ()) if j > i}
        for j in sorted(partners):
            bracket = poisson_bracket(e, exprs[j], pairs)
            if bracket.is_zero():
                continue
            if not reducer.reduce(bracket).is_zero():
                second[i] = True
                second[j] = True
    count = sum(second)
    if count % 2:
        raise OddSecondClassCount(count)
    labelled = tuple(
        replace(c, class_label=SECOND if flag else FIRST)
        for c, flag in zip(constraints, second))
    return replace(result, constraints=labelled)
