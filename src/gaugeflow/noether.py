"""Gauge identities of the equations of motion and the single-step
constraint rule built from them.

A declared generator assigns each coordinate a variation built from the
gauge parameter and its time derivatives.  Contracting the
Euler-Lagrange expressions with those coefficients and integrating by
parts must give the exact zero polynomial; that is the certificate that
the declared symmetry really holds.  The single-step rule then contracts
the conjugate momenta with the k = 0 coefficients on the canonical
sector, producing one candidate first-class constraint per gauge
parameter without running any consistency generations.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .dirac import Constraint
from .errors import ConjectureInapplicable, DegenerateGenerator, IdentityViolated
from .expr import Expression, esum
from .legendre import compute_momenta
from .linalg import sampled_rank


class NoetherReport(namedtuple("NoetherReport", "residues")):
    """(parameter_name, Expression) residue pairs; a named tuple (equal to
    any tuple)."""

    __slots__ = ()

    def passed(self):
        return all(residue.is_zero() for _, residue in self.residues)


def euler_lagrange(m):
    """Equations of motion, one expression per coordinate.

    Sign convention: E_a = d/dt (dL/dv_a) - dL/dq_a, so a free particle
    with L = v^2/2 gives E = acceleration.
    """
    return tuple((q, momentum.dt() - m.lagrangian.diff(q))
                 for q, momentum in compute_momenta(m))


def _alternating_derivative(e, order):
    """(-d/dt)^order applied to e."""
    for _ in range(order):
        e = -e.dt()
    return e


def noether_identity_check(m):
    """Verify that every declared generator annihilates the equations of
    motion, symbolically and exactly.

    Returns the :class:`NoetherReport` whether or not it passed: a
    nonzero residue is a finding, not an error.
    """
    table = dict(euler_lagrange(m))
    residues = []
    for gen in m.generators:
        parts = []
        for comp in gen.components:
            term = table[comp.coordinate] * comp.coefficient
            parts.append(_alternating_derivative(term, comp.order))
        residues.append((gen.parameter_name, esum(parts)))
    return NoetherReport(tuple(residues))


def independence_check(m):
    """Are the declared generators independent as variation columns?

    Stacks every (coordinate, order) coefficient into a column per
    generator and samples the column rank at random rational points;
    True exactly when the generic rank equals the generator count.
    Raises :class:`SamplingDegenerate` when every point is a pole.
    """
    gens = m.generators
    if not gens:
        return True
    rows = {}  # (coordinate, order) -> {generator index: coefficient}
    for j, g in enumerate(gens):
        for comp in g.components:
            rows.setdefault((comp.coordinate, comp.order), {})[j] = comp.coefficient
    rank = sampled_rank(list(rows.values()), len(gens), m.options, random.Random(m.options.seed))
    return rank == len(gens)


def conjecture_constraints(m, leg, noether):
    """One candidate constraint per gauge parameter: conjugate momenta
    contracted with the generator's k = 0 coefficients on the canonical
    sector.

    Preconditions enforced here: the gauge identities hold (``noether``,
    the :class:`NoetherReport` of ``m``), and every
    differentiated-parameter component targets a coordinate whose
    momentum vanishes identically.  Raises :class:`IdentityViolated`
    when the report did not pass (the one place a failed report is
    refused), :class:`ConjectureInapplicable` when a component breaks
    the second condition, and :class:`DegenerateGenerator` when a
    contraction collapses to zero.
    """
    if not noether.passed():
        raise IdentityViolated(noether)
    discard = set(leg.discardable)
    out = []
    for gen in m.generators:
        for comp in gen.components:
            if comp.order >= 1 and comp.coordinate not in discard:
                raise ConjectureInapplicable(
                    f"generator '{gen.parameter_name}' couples the order-"
                    f"{comp.order} parameter derivative to {comp.coordinate}, "
                    f"whose momentum does not vanish identically")
        parts = [Expression.var(comp.coordinate.momentum()) * comp.coefficient
                 for comp in gen.components
                 if comp.order == 0 and comp.coordinate not in discard]
        phi = esum(parts)
        if phi.is_zero():
            raise DegenerateGenerator(
                f"generator '{gen.parameter_name}' contracts to zero on the "
                f"canonical sector")
        out.append(Constraint(phi.normalized(), 0, "conjecture"))
    return tuple(out)
