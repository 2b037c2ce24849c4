"""Poisson brackets, the total Hamiltonian, the generational consistency
algorithm and first/second-class classification.

Each generation takes the bracket of every current constraint with the
total Hamiltonian and reduces it modulo the constraint set as it stood
at the start of the generation (matching the merge-after-parallel-steps
contract).  Residues classify into: identity, a new constraint, an
equation fixing a multiplier, or an outright contradiction.  Candidate
constraints that vanish numerically on the current surface, or whose
gradient adds no rank there, are functionally dependent leftovers and
are dropped with a diagnostic rather than admitted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .errors import (
    DenominatorViolation,
    DivisionByZero,
    GenerationLimitExceeded,
    InconsistentLagrangian,
    OddSecondClassCount,
)
from .expr import (
    Expression,
    Kind,
    _ONE_MONO,
    _p_const,
    _p_div_exact,
    _p_gcd_many,
    esum,
    multiplier,
)
from .linalg import RowReducer, evaluate_rows, jacobian
from .reduction import WeakReducer, sample_surface_points

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

    def with_label(self, label):
        return replace(self, class_label=label)

    def __str__(self):
        return str(self.expr)


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

    Primaries are generation 0; each later generation adds the
    independent residues of all consistency conditions, tested against
    the constraint set as of the start of that generation.  One
    :class:`WeakReducer`, extended by each generation, serves the whole
    run and then :func:`classify`.  Raises :class:`InconsistentLagrangian`
    on a constant residue and :class:`GenerationLimitExceeded` if no
    fixpoint is reached.
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

    for generation in range(1, options.max_generations + 1):
        candidates = []
        for c in constraints:
            outcome = consistency_step(c, h_total, reducer, pairs)
            if isinstance(outcome, Identity):
                continue
            if isinstance(outcome, Contradiction):
                partial = DiracResult(
                    constraints=tuple(constraints),
                    multiplier_equations=tuple(multiplier_equations),
                    generations_run=generation,
                    consistent=False,
                    witness=outcome.witness,
                    diagnostics=tuple(diagnostics),
                )
                raise InconsistentLagrangian(outcome.witness, c, partial)
            if isinstance(outcome, MultiplierFixed):
                key = (outcome.multiplier, outcome.value)
                if key not in seen_equations:
                    seen_equations.add(key)
                    multiplier_equations.append((outcome.multiplier, outcome.value))
                continue
            candidates.append(outcome.expr)

        accepted = []
        if candidates:
            points = sample_surface_points(reducer, phase_vars, options, rng)
            bases = []
            start_grad = jacobian([c.expr for c in constraints], phase_vars)
            for pt in points:
                basis = RowReducer(len(phase_vars))
                for row in evaluate_rows(start_grad, pt):
                    basis.absorb(row)
                bases.append((pt, basis))
            for expr in candidates:
                if any(expr == a.expr for a in accepted):
                    continue
                values = []
                usable = []
                for pt, basis in bases:
                    try:
                        values.append(abs(expr.evaluate(pt)))
                    except DivisionByZero:
                        continue  # pole of the residue at this sample
                    usable.append((pt, basis))
                if not usable:
                    diagnostics.append(
                        f"generation {generation}: residue {expr} could not be "
                        f"sampled on the current surface; accepted unguarded")
                    accepted.append(Constraint(expr, generation, "dirac"))
                    continue
                if all(v <= options.numeric_tolerance for v in values):
                    diagnostics.append(
                        f"generation {generation}: residue {expr} vanishes "
                        f"numerically on the current surface; dropped as dependent")
                    continue
                grad = jacobian([expr], phase_vars)
                independent = False
                for pt, basis in usable:
                    try:
                        (row,) = evaluate_rows(grad, pt)
                    except DivisionByZero:
                        continue
                    if any(x != 0 for x in basis.reduce(row)):
                        independent = True
                        break
                if not independent:
                    diagnostics.append(
                        f"generation {generation}: residue {expr} adds no "
                        f"gradient rank on the current surface; dropped")
                    continue
                accepted.append(Constraint(expr, generation, "dirac"))
        generations_run = generation
        if not accepted:
            break
        constraints.extend(accepted)
        reducer.extend([c.expr for c in accepted])
    else:
        raise GenerationLimitExceeded(options.max_generations)

    return classify(DiracResult(
        constraints=tuple(constraints),
        multiplier_equations=tuple(multiplier_equations),
        generations_run=generations_run,
        consistent=True,
        diagnostics=tuple(diagnostics),
    ), pairs, reducer)


def classify(result, pairs, reducer):
    """Attach first/second class labels by pairwise weak brackets.

    ``reducer`` is a :class:`WeakReducer` over ``result.constraints``.
    A constraint is first class when its bracket with every constraint
    reduces weakly to zero.  An odd number of second-class constraints
    signals a rank anomaly and raises :class:`OddSecondClassCount`.
    """
    constraints = result.constraints
    exprs = [c.expr for c in constraints]
    n = len(constraints)
    second = [False] * n
    for i in range(n):
        for j in range(i + 1, n):
            bracket = poisson_bracket(exprs[i], exprs[j], pairs)
            if bracket.is_zero():
                continue
            if not reducer.reduce(bracket).is_zero():
                second[i] = True
                second[j] = True
    count = sum(second)
    if count % 2:
        raise OddSecondClassCount(count)
    labelled = tuple(
        c.with_label(SECOND if flag else FIRST)
        for c, flag in zip(constraints, second))
    return replace(result, constraints=labelled)
