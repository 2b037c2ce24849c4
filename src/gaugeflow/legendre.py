"""Momentum definitions, Hessian rank analysis, primary constraints and
the canonical Hamiltonian, by one exact elimination.

The momenta of an (at most) quadratic Lagrangian read ``W(q) v = p - b(q)``
with ``W`` the velocity Hessian.  Fraction-free elimination of
``[W | p - b]`` applies an invertible row transform, rational in ``q``,
and no sampled rank or reducer test could catch an error of it:

- ``eliminate`` is exact, so its rank is the generic rank of ``W``; the
  rank at a point is lower only on the singular locus.
- A row that hosts no pivot has no velocity cell left.  Its right-hand
  side ``g_r(q) phi_r`` is nonzero, as the transform is invertible and
  the ``p_k`` independent; ``phi_r`` is a primary constraint.
- Every pivot row holds at the back-substituted velocities, which are
  affine in the unsolved ``v_u``.  So each ``p_k - dL/dv_k``, and with it
  ``dH/dv_u = sum_k (p_k - dL/dv_k) dv_k/dv_u`` for ``H = p.v - L``, is a
  velocity-free q-rational combination of the ``phi_r``: setting the
  ``v_u`` to 0 gives the canonical Hamiltonian (Henneaux & Teitelboim,
  *Quantization of Gauge Systems*, sections 1.1-1.2).

With ``L = v.W.v/2 + b.v + L0``, where ``b`` and ``L0`` are the
velocity-free terms of the momenta and of ``L``, and ``S`` the solved
velocities with every unsolved one set to 0, that Hamiltonian is::

    H = sum_k S_k (p_k - b_k) - 1/2 sum_{j,k} S_j W_jk S_k - L0

It is built from the Hessian rows and right-hand sides the elimination
already holds, and equals ``(p.v - L)`` at ``v = S`` as a rational
function.

Coordinates whose momentum vanishes identically are flagged as
incompatible with canonical brackets.
"""

from __future__ import annotations

from collections import namedtuple

from .dirac import Constraint, constraint_form
from .errors import NonQuadraticVelocity
from .expr import ZERO, Expression, Kind, esum
from .linalg import eliminate, jacobian


class LegendreResult(namedtuple("LegendreResult", "momenta_defs rank solvable_velocities "
                                "primary_constraints discardable canonical_hamiltonian")):
    """Momenta in (q, v), solved velocities in (q, p, unsolved v), and
    the coordinates whose momentum is identically zero; a named tuple
    (equal to any tuple)."""

    __slots__ = ()


def _velocity_free(e):
    """The terms of a polynomial that mention no velocity."""
    part = {mono: c for mono, c in e._num.items()
            if all(v.kind is not Kind.JET for v, _ in mono)}
    return Expression(part) if part else ZERO


def compute_momenta(m):
    """Momentum defining functions, one per coordinate."""
    return tuple((q, m.lagrangian.diff(q.jet(1))) for q in m.coordinate_vars)


def primary_constraints(m):
    """Full Legendre analysis of a model.

    Raises :class:`NonQuadraticVelocity` when momentum inversion is not
    linear; the elimination itself cannot fail.
    """
    lagrangian = m.lagrangian
    if lagrangian.degree_in_kind(Kind.JET) > 2:
        raise NonQuadraticVelocity(
            "the Lagrangian is more than quadratic in velocities")
    coords = m.coordinate_vars
    velocities = [q.jet(1) for q in coords]
    momenta = [q.momentum() for q in coords]
    momenta_defs = compute_momenta(m)

    hessian = jacobian([pdef for _, pdef in momenta_defs], velocities)
    # rows of the linear system W.v = p - b, the right-hand side in column n
    rhs = [Expression.var(p) - _velocity_free(pdef)
           for p, (_, pdef) in zip(momenta, momenta_defs)]

    n = len(coords)
    matrix = [{**row, n: b} for row, b in zip(hessian, rhs)]
    column_order = sorted(range(n), key=lambda i: velocities[i])
    ech = eliminate(matrix, column_order)

    # rows below the last pivot hold only a right-hand side, which carries
    # a primary constraint; emit them in declaration order despite swaps
    non_pivot = sorted(range(ech.rank, n), key=lambda r: ech.row_order[r])
    primaries = tuple(Constraint(constraint_form(ech.rows[r][n]), 0, "dirac")
                      for r in non_pivot)

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

    # H = sum_k S_k (p_k - b_k - (W.S)_k / 2) - L0, S = solved at v_u = 0
    unsolved = {v: ZERO for v in velocities if v not in solved}
    s = {k: solved[v].subs(unsolved) for k, v in enumerate(velocities) if v in solved}
    terms = [-_velocity_free(lagrangian)]
    for j, s_j in s.items():
        w_s = esum([w * s[k] for k, w in hessian[j].items() if k in s])
        terms.append(s_j * (rhs[j] - w_s / 2))
    hamiltonian = esum(terms)

    discardable = tuple(q for q, pdef in momenta_defs if pdef.is_zero())
    return LegendreResult(
        momenta_defs=momenta_defs,
        rank=ech.rank,
        solvable_velocities=solvable,
        primary_constraints=primaries,
        discardable=discardable,
        canonical_hamiltonian=hamiltonian,
    )
