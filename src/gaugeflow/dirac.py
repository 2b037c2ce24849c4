"""Poisson brackets, the total Hamiltonian, the generational consistency
algorithm and first/second-class classification.

Each constraint is bracketed with the total Hamiltonian once per run,
and each generation reduces the bracket of every current constraint
modulo the constraint set as it stood at the start of the generation
(matching the merge-after-parallel-steps contract).  Residues classify
into: identity, a new constraint, an equation fixing a multiplier, or
an outright contradiction.  A candidate constraint is admitted at the
first sampled point of the current surface where it is nonzero
(:meth:`SurfaceSampler.nonzero_point`, which draws points only as
candidates need them), and a candidate that vanishes at
``sample_count`` of them is dropped with a diagnostic.  The admitted
constraints are then merged one at a time, and a merged set that reduces
1 to 0 has no common zero: the Lagrangian is inconsistent, and the run
returns what it found, unclassified, with the witness and its culprit.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .errors import DenominatorViolation, GenerationLimitExceeded, OddSecondClassCount
from .expr import (
    Expression,
    Kind,
    ONE,
    esum,
    esum_products,
    multiplier,
)
from .reduction import SurfaceSampler, WeakReducer

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
    num = e.numerator()
    if num.mentions_kind(Kind.MOMENTUM):
        num = num.primitive_part()
    return num.normalized()


class Constraint(namedtuple("Constraint", "expr generation origin class_label",
                             defaults=(UNCLASSIFIED,))):
    """A phase-space relation that must vanish on physical motions;
    ``origin`` is "dirac" or "conjecture".  A named tuple (equal to any
    tuple) whose ``_replace`` skips the checks."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.expr.is_zero():
            raise ValueError("a constraint expression cannot be identically zero")
        for v in self.expr.variables():
            if v.kind in (Kind.JET, Kind.MULTIPLIER):
                raise ValueError(f"constraints live on phase space; found {v}")
        return self


class DiracResult(namedtuple("DiracResult", "constraints multiplier_equations "
                             "generations_run witness culprit diagnostics",
                             defaults=(None, None, ()))):
    """``multiplier_equations`` are (multiplier VarRef, fixing Expression)
    pairs.  An inconsistent run stores the nonzero constant ``witness``
    and the constraint it came from, ``culprit``; a consistent one has
    neither.  A named tuple (equal to any tuple)."""

    __slots__ = ()

    @property
    def consistent(self):
        return self.witness is None

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

class Identity(namedtuple("Identity", "")):
    """A named tuple (equal to any tuple) with no fields, so it is falsy."""

    __slots__ = ()


class NewConstraint(namedtuple("NewConstraint", "expr")):
    """A named tuple (equal to any tuple)."""

    __slots__ = ()


class MultiplierFixed(namedtuple("MultiplierFixed", "multiplier value")):
    """``value`` is the solved value, or the defining residue if
    unsolvable; a named tuple (equal to any tuple)."""

    __slots__ = ()


class Contradiction(namedtuple("Contradiction", "witness")):
    """A named tuple (equal to any tuple)."""

    __slots__ = ()


def _partner(v):
    """``v``'s canonical partner and the sign of their bracket: a
    coordinate pairs with its own momentum (+1), a momentum with its
    coordinate (-1); any other variable has none (None, 0)."""
    if v.kind is Kind.COORDINATE:
        return v.momentum(), 1
    if v.kind is Kind.MOMENTUM:
        return v.coordinate(), -1
    return None, 0


def poisson_bracket(f, g):
    """Canonical Poisson bracket, each coordinate paired with its own
    momentum; any other variable (a multiplier, a jet) is a spectator.

    Only the variables in ``f``'s gradient are visited: a pair adds a
    term when one of its variables is there and the other is in ``g``'s.
    Polynomial terms are multiplied and summed in one accumulator
    (:func:`esum_products`).
    """
    ggrad = g.gradient()
    products = []
    for v, df in f.gradient().items():
        w, sign = _partner(v)
        dg = ggrad.get(w)
        if dg is not None:
            products.append((df, dg, sign))
    return esum_products(products)


def total_hamiltonian(leg):
    """Canonical Hamiltonian plus one fresh multiplier per primary."""
    return esum([leg.canonical_hamiltonian]
                + [Expression.var(multiplier(i)) * c.expr
                   for i, c in enumerate(leg.primary_constraints)])


def consistency_step(bracket, reducer):
    """Demand that a constraint is preserved in time; classify the
    residue.

    ``bracket`` is the constraint's bracket with the total Hamiltonian.
    It is reduced by ``reducer``, a :class:`WeakReducer` over the
    constraint set the step is tested against (the run's one reducer,
    shared by every step).  A zero residue is an identity; a residue
    that mentions a multiplier fixes the largest one; a multiplier-free
    nonzero constant is a contradiction; anything else is a new
    constraint, returned with leading coefficient one.  The reducer's
    rules and divisors mention no multiplier and the total Hamiltonian
    is linear in them, so graded-lex division leaves each multiplier's
    coefficient with a leading term no divisor divides: ``reducer``
    cannot certify it zero.
    """
    residue = reducer.reduce(bracket)
    if residue.is_zero():
        return Identity()
    mults = [v for v in residue.variables() if v.kind is Kind.MULTIPLIER]
    if mults:
        v = max(mults)
        coeff = residue.diff(v)
        rest = residue - coeff * Expression.var(v)
        try:
            value = reducer.reduce(-rest / coeff)
        except DenominatorViolation:
            value = residue
        return MultiplierFixed(v, value)
    if residue.is_constant():
        return Contradiction(residue)
    return NewConstraint(constraint_form(residue))


def run_dirac(m, leg):
    """Run the generational consistency algorithm to its fixpoint and
    return its constraints, classified when the run is consistent.

    Primaries are generation 0; each later generation adds the residues
    of all consistency conditions, tested against the constraint set as
    of the start of that generation, that are nonzero at some sampled
    surface point (:meth:`SurfaceSampler.nonzero_point`, one sampler per
    generation, shared by its candidates).  A residue that mentions a
    multiplier fixes one instead (the constraints mention none, so the
    reducer cannot certify its coefficient zero; see
    :func:`consistency_step`); each distinct equation is kept once, in
    the order first met.  One :class:`WeakReducer`, extended by each
    admitted constraint in turn, serves the run and :func:`classify`.
    Each constraint is bracketed with the total Hamiltonian once, when
    it first takes part; only the reduction depends on the generation,
    so each generation reduces the kept bracket again; the brackets are
    released before :func:`classify`, which reads none of them.
    A constant residue, or merged constraints that reduce 1 to 0 (the
    reducer only subtracts members of the constraint ideal, so they have
    no common zero), ends the run inconsistent: the result is returned
    unclassified, with the constant as ``witness`` and the constraint it
    came from as ``culprit``.  Raises :class:`GenerationLimitExceeded`
    if no fixpoint is reached.

    Candidates and constraints are polynomials over phase space
    (:func:`constraint_form`) and every sampled point assigns all of
    phase space, so evaluating them meets no pole.
    """
    options = m.options
    constraints = list(leg.primary_constraints)
    multiplier_equations = {}  # (multiplier, value) -> None
    diagnostics = []

    def result(generations_run, witness=None, culprit=None):
        return DiracResult(tuple(constraints), tuple(multiplier_equations),
                           generations_run, witness, culprit, tuple(diagnostics))

    if not constraints:
        return result(0)
    h_total = total_hamiltonian(leg)
    phase_vars = [v for pair in m.canonical_pairs() for v in pair]
    rng = random.Random(options.seed)
    reducer = WeakReducer([c.expr for c in constraints])
    brackets = []  # {constraints[i], h_total}

    for generation in range(1, options.max_generations + 1):
        brackets += [poisson_bracket(c.expr, h_total) for c in constraints[len(brackets):]]
        candidates = []
        for c, bracket in zip(constraints, brackets):
            outcome = consistency_step(bracket, reducer)
            if isinstance(outcome, Contradiction):
                return result(generation, outcome.witness, c)
            if isinstance(outcome, MultiplierFixed):
                multiplier_equations[outcome.multiplier, outcome.value] = None
            elif isinstance(outcome, NewConstraint):
                candidates.append(outcome.expr)

        accepted = []
        if candidates:
            sampler = SurfaceSampler(reducer, phase_vars, options, rng)
            admitted = set()
            for expr in candidates:
                if expr in admitted:
                    continue
                if sampler.nonzero_point(expr) is None:
                    diagnostics.append(
                        f"generation {generation}: residue {expr} vanishes "
                        f"numerically on the current surface; dropped as dependent")
                    continue
                admitted.add(expr)
                accepted.append(Constraint(expr, generation, "dirac"))
        if not accepted:
            break
        for c in accepted:
            constraints.append(c)
            reducer.extend([c.expr])
            if reducer.reduce(ONE).is_zero():
                return result(generation, ONE, c)
    else:
        raise GenerationLimitExceeded(options.max_generations)

    del brackets
    return classify(result(generation), reducer)


def classify(result, reducer):
    """Attach first/second class labels by pairwise weak brackets.

    ``reducer`` is a :class:`WeakReducer` over ``result.constraints``.
    A constraint is first class when its bracket with every constraint
    reduces weakly to zero.  Only pairs where a variable of one
    constraint has its partner in the other are bracketed; every
    other bracket is identically zero.  An odd number of second-class
    constraints signals a rank anomaly and raises
    :class:`OddSecondClassCount`.
    """
    constraints = result.constraints
    exprs = [c.expr for c in constraints]
    holders = {}  # variable -> indices of the constraints that mention it
    for i, e in enumerate(exprs):
        for v in e.variables():
            holders.setdefault(v, []).append(i)
    second = [False] * len(constraints)
    for i, e in enumerate(exprs):
        partners = {j for v in e.variables()
                    for j in holders.get(_partner(v)[0], ()) if j > i}
        for j in sorted(partners):
            if not reducer.reduce(poisson_bracket(e, exprs[j])).is_zero():
                second[i] = True
                second[j] = True
    count = sum(second)
    if count % 2:
        raise OddSecondClassCount(count)
    labelled = tuple(
        c._replace(class_label=SECOND if flag else FIRST)
        for c, flag in zip(constraints, second))
    return result._replace(constraints=labelled)
