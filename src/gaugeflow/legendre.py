"""Momentum definitions, Hessian rank analysis, primary constraints and
the canonical Hamiltonian.

The velocity Hessian of an (at most) quadratic Lagrangian is eliminated
fraction-free; rows that eliminate to zero leave relations among
coordinates and momenta, which are the primary constraints.  A numeric
rank check at random rational points guards against measure-zero pivot
cancellations, and coordinates whose momentum vanishes identically are
flagged as incompatible with canonical brackets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .dirac import Constraint, constraint_form
from .errors import LegendreError, NonQuadraticVelocity, RankNotConstant
from .expr import ZERO, Expression, Kind, esum
from .linalg import eliminate, jacobian, sampled_rank
from .reduction import WeakReducer


@dataclass(frozen=True)
class LegendreResult:
    momenta_defs: tuple      # (coordinate VarRef, Expression in (q, v)) per coordinate
    hessian: tuple           # rows {column: Expression}, rows/cols in coordinate order
    rank: int
    solvable_velocities: tuple   # (velocity VarRef, Expression in (q, p, unsolved v))
    primary_constraints: tuple   # of Constraint, generation 0
    discardable: tuple           # coordinates with momentum identically zero
    canonical_hamiltonian: Expression


def compute_momenta(m):
    """Momentum defining functions, one per coordinate."""
    return tuple((q, m.lagrangian.diff(q.jet(1))) for q in m.coordinate_vars)


def primary_constraints(m):
    """Full Legendre analysis of a model.

    Raises :class:`NonQuadraticVelocity` when momentum inversion is not
    linear, and :class:`RankNotConstant` when the symbolic Hessian rank
    disagrees with the rank sampled at random rational points.
    """
    lagrangian = m.lagrangian
    if lagrangian.degree_in_kind(Kind.JET) > 2:
        raise NonQuadraticVelocity(
            "the Lagrangian is more than quadratic in velocities")
    coords = m.coordinate_vars
    velocities = [q.jet(1) for q in coords]
    momenta = [q.momentum() for q in coords]
    momenta_defs = compute_momenta(m)

    hessian = tuple(jacobian([pdef for _, pdef in momenta_defs], velocities))
    at_rest = {v: Expression.const(0) for v in velocities}
    # rows of the linear system W.v = p - b, the right-hand side in column n
    rhs = [Expression.var(p) - pdef.subs(at_rest)
           for p, (_, pdef) in zip(momenta, momenta_defs)]

    n = len(coords)
    matrix = [{**row, n: b} for row, b in zip(hessian, rhs)]
    column_order = sorted(range(n), key=lambda i: velocities[i])
    ech = eliminate(matrix, column_order)

    sampled = sampled_rank(hessian, n, m.options, random.Random(m.options.seed))
    if sampled != ech.rank:
        raise RankNotConstant(ech.rank, sampled)

    # rows that never hosted a pivot carry the primary constraints;
    # emit them in declaration order despite pivot row swaps
    primaries = []
    pivot_rows = {row for row, _ in ech.pivots}
    non_pivot = sorted((r for r in range(n) if r not in pivot_rows),
                       key=lambda r: ech.row_order[r])
    for r in non_pivot:
        row = ech.rows[r]
        if row.keys() - {n}:
            raise LegendreError("elimination left an unreduced velocity row")
        if n not in row:
            raise LegendreError("momentum relation collapsed to zero")
        primaries.append(Constraint(constraint_form(row[n]), 0, "dirac"))

    # back-substitution for the solvable velocities, bottom pivot first
    solved = {}
    for level, col in reversed(ech.pivots):
        row = ech.rows[level]
        expr = row.get(n, ZERO)
        for c, a in row.items():
            if c == col or c == n:
                continue
            v = velocities[c]
            expr = expr - a * solved.get(v, Expression.var(v))
        solved[velocities[col]] = expr / row[col]
    solvable = tuple((v, solved[v]) for v in velocities if v in solved)

    hamiltonian = esum(
        [Expression.var(p) * Expression.var(v) for p, v in zip(momenta, velocities)]
        + [-lagrangian]).subs(solved)
    unsolved = [v for v in velocities if v not in solved]
    if unsolved:
        reducer = WeakReducer([c.expr for c in primaries])
        for v in unsolved:
            coeff = hamiltonian.diff(v)
            if coeff.mentions_kind(Kind.JET):
                raise LegendreError(
                    f"canonical Hamiltonian is not linear in unsolved velocity {v}")
            if not reducer.reduce(coeff).is_zero():
                raise LegendreError(
                    f"coefficient of unsolved velocity {v} is not a combination "
                    f"of primary constraints")
        hamiltonian = hamiltonian.subs({v: Expression.const(0) for v in unsolved})
    if hamiltonian.mentions_kind(Kind.JET):
        raise LegendreError("canonical Hamiltonian still mentions velocities")

    discardable = tuple(q for q, pdef in momenta_defs if pdef.is_zero())
    return LegendreResult(
        momenta_defs=momenta_defs,
        hessian=hessian,
        rank=ech.rank,
        solvable_velocities=solvable,
        primary_constraints=tuple(primaries),
        discardable=discardable,
        canonical_hamiltonian=hamiltonian,
    )
