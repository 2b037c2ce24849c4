"""Builtin model catalog.

Five fixtures exercise every analysis path:

* ``toy_gauge``: one gauge symmetry, one primary and one secondary
  constraint, both first class.
* ``oscillator``: regular system, no constraints at all.
* ``second_class_toy``: two second-class constraints, multipliers fixed.
* ``maxwell_lattice``: abelian gauge links on a periodic N^3 grid; the
  site Gauss laws are the secondary constraints.
* ``ym_mechanics``: spatially homogeneous su(2) gauge mechanics with an
  optional complex doublet stored as four real coordinates; non-abelian
  Gauss laws close under the Poisson bracket.

Each gauge fixture declares the generators of its exact Lagrangian
symmetry, so the gauge identity check passes symbolically.  In
``ym_mechanics`` the su(2) action is stated once, as a table of charged
fields and their representations: the Lagrangian's covariant
derivatives and the generators are both read from it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadParameter, UnknownBuiltin
from .expr import Expression, coordinate, esum, esum_products
from .model import MAX_COORDINATES, CoordinateDecl, GaugeGenerator, GeneratorComponent, ModelSpec

ONE = Expression.const(1)
HALF = Expression.const(Fraction(1, 2))


def _x(v):
    return Expression.var(v)


# --- small mechanics fixtures ---------------------------------------------------

def _toy_gauge():
    x, y = coordinate("x"), coordinate("y")
    vx = _x(x.jet(1))
    lagrangian = HALF * (vx - _x(y)) ** 2
    gen = GaugeGenerator("eps", (
        GeneratorComponent(x, 0, ONE),
        GeneratorComponent(y, 1, ONE),
    ))
    return ModelSpec(
        name="toy_gauge",
        coordinates=(CoordinateDecl("x"), CoordinateDecl("y", discardable_hint=True)),
        lagrangian=lagrangian,
        generators=(gen,),
    )


def _oscillator():
    x = coordinate("x")
    lagrangian = HALF * _x(x.jet(1)) ** 2 - HALF * _x(x) ** 2
    return ModelSpec(
        name="oscillator",
        coordinates=(CoordinateDecl("x"),),
        lagrangian=lagrangian,
    )


def _second_class_toy():
    x, y = coordinate("x"), coordinate("y")
    lagrangian = _x(x.jet(1)) * _x(y) - HALF * (_x(x) ** 2 + _x(y) ** 2)
    return ModelSpec(
        name="second_class_toy",
        coordinates=(CoordinateDecl("x"), CoordinateDecl("y")),
        lagrangian=lagrangian,
    )


# --- abelian gauge links on a periodic grid -------------------------------------

def _sites(n):
    return [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]


def _shift(site, direction, n, step=1):
    out = list(site)
    out[direction - 1] = (out[direction - 1] + step) % n
    return tuple(out)


def _maxwell_lattice(n):
    """Electromagnetic links on an n^3 periodic grid.

    Per site there is a scalar potential A0 and three links A[i].  The
    Lagrangian pairs each link velocity with the forward difference of
    A0 and adds the magnetic curl energy; the gauge transformation is
    A0 -> A0 + eps', A[i] -> A[i] + forward difference of eps.
    """
    if n < 1:
        raise BadParameter(f"maxwell_lattice needs N >= 1, got {n}")
    if 4 * n ** 3 > MAX_COORDINATES:
        raise BadParameter(f"maxwell_lattice N={n} has {4 * n ** 3} coordinates, "
                           f"more than {MAX_COORDINATES}")
    sites = _sites(n)

    def a0(site):
        return coordinate("A0", site)

    def link(i, site):
        return coordinate("A", (i,) + site)

    def fwd_diff_a0(i, site):
        return _x(a0(_shift(site, i, n))) - _x(a0(site))

    def curl(i, j, site):
        term = _x(link(j, _shift(site, i, n))) - _x(link(j, site))
        term -= _x(link(i, _shift(site, j, n))) - _x(link(i, site))
        return term

    pieces = []
    for site in sites:
        for i in (1, 2, 3):
            electric = _x(link(i, site).jet(1)) - fwd_diff_a0(i, site)
            pieces.append(HALF * electric ** 2)
        # curl(j, i) is -curl(i, j): -1/4 over i != j is -1/2 over i < j
        for i, j in ((1, 2), (1, 3), (2, 3)):
            pieces.append(-HALF * curl(i, j, site) ** 2)
    lagrangian = esum(pieces)

    generators = []
    for site in sites:
        comps = [GeneratorComponent(a0(site), 1, ONE)]
        for i in (1, 2, 3):
            back = _shift(site, i, n, step=-1)
            if back == site:  # N=1: the difference of a site with itself
                continue
            comps.append(GeneratorComponent(link(i, back), 0, ONE))
            comps.append(GeneratorComponent(link(i, site), 0, -ONE))
        generators.append(GaugeGenerator("eps_" + "_".join(map(str, site)), tuple(comps)))

    return ModelSpec(
        name=f"maxwell_lattice(N={n})",
        coordinates=(
            CoordinateDecl("A0", ((0, n),) * 3, discardable_hint=True),
            CoordinateDecl("A", ((1, 4),) + ((0, n),) * 3),
        ),
        lagrangian=lagrangian,
        generators=tuple(generators),
    )


# --- homogeneous su(2) gauge mechanics -------------------------------------------

def eps3(a, b, c):
    """Totally antisymmetric structure constants of su(2), for a, b, c in 1..3."""
    return (a - b) * (b - c) * (c - a) // 2


COLORS = (1, 2, 3)

# A representation gives, per color c, the matrix of the generator T_c.
# The adjoint action is (T_c X)_a = eps3(a, b, c) X_b.
ADJOINT = {c: tuple(tuple(eps3(a, b, c) for b in COLORS) for a in COLORS) for c in COLORS}

# Real 4x4 form of the doublet generators i*sigma_a/2 acting on
# (Re phi_1, Im phi_1, Re phi_2, Im phi_2); antisymmetric, and
# [N_a, N_b] = -eps3(a,b,c) N_c.
_H = Fraction(1, 2)
SU2_DOUBLET = {
    1: ((0, 0, 0, -_H), (0, 0, _H, 0), (0, -_H, 0, 0), (_H, 0, 0, 0)),
    2: ((0, 0, _H, 0), (0, 0, 0, _H), (-_H, 0, 0, 0), (0, -_H, 0, 0)),
    3: ((0, -_H, 0, 0), (_H, 0, 0, 0), (0, 0, 0, _H), (0, 0, -_H, 0)),
}


def _act(rep, coords):
    """``[T_c X for c in COLORS]`` for the field X on ``coords`` in ``rep``."""
    x = [_x(q) for q in coords]
    return [[esum(k * v for k, v in zip(row, x) if k) for row in rep[c]] for c in COLORS]


def _connect(potential, action):
    """The components of ``sum_c potential[c] T_c X``."""
    return [esum_products((_x(p), t, 1) for p, t in zip(potential, column))
            for column in zip(*action)]


def _ym_mechanics(with_scalar=True):
    """Spatially homogeneous Yang-Mills mechanics.

    Coordinates are the color components A0[a] and A[i,a] plus, when
    ``with_scalar`` is set, a complex doublet phi encoded as four real
    coordinates.  The su(2) action is stated once, as each charged
    field's representation, and both readings of it come from the same
    ``T_c X``: the Lagrangian squares the covariant derivatives
    ``D_0 X = X' - A0[c] T_c X`` and ``D_i X = -A[i,c] T_c X``, and the
    generator ``nu_c`` is ``A0[c]'`` plus ``T_c X`` on A0 and on every
    charged field.
    """
    a0 = [coordinate("A0", (c,)) for c in COLORS]
    links = {i: [coordinate("A", (i, a)) for a in COLORS] for i in COLORS}
    decls = [
        CoordinateDecl("A0", ((1, 4),), discardable_hint=True),
        CoordinateDecl("A", ((1, 4), (1, 4))),
    ]
    # charged fields: coordinates, representation, kinetic weight, and the
    # directions i of the gradient terms; F_ji is -F_ij, as for the lattice
    # curl, so the link A_j takes i < j only
    fields = [(links[j], ADJOINT, HALF, range(1, j)) for j in COLORS]
    pieces = []
    if with_scalar:
        phi = [coordinate("phi", (w,)) for w in range(4)]
        fields.append((phi, SU2_DOUBLET, ONE, COLORS))
        decls.append(CoordinateDecl("phi", ((0, 4),)))
        pieces.extend(-_x(q) ** 2 for q in phi)  # invariant mass term
    actions = [_act(rep, coords) for coords, rep, _, _ in fields]

    for (coords, _, weight, directions), action in zip(fields, actions):
        for q, gauge in zip(coords, _connect(a0, action)):
            pieces.append(weight * (_x(q.jet(1)) - gauge) ** 2)
        for i in directions:
            pieces.extend(-weight * d ** 2 for d in _connect(links[i], action))
    lagrangian = esum(pieces)

    charged = [(a0, _act(ADJOINT, a0))] + [
        (coords, action) for (coords, *_), action in zip(fields, actions)]
    generators = []
    for c, parameter in enumerate(a0):
        comps = [GeneratorComponent(parameter, 1, ONE)]
        for coords, action in charged:
            comps.extend(GeneratorComponent(q, 0, t)
                         for q, t in zip(coords, action[c]) if not t.is_zero())
        generators.append(GaugeGenerator(f"nu_{c + 1}", tuple(comps)))

    suffix = "scalar" if with_scalar else "pure"
    return ModelSpec(
        name=f"ym_mechanics(su2,{suffix})",
        coordinates=tuple(decls),
        lagrangian=lagrangian,
        generators=tuple(generators),
    )


# --- catalog ---------------------------------------------------------------------

def _bool_param(value, key):
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in ("true", "false", "1", "0"):
        return value.lower() in ("true", "1")
    raise BadParameter(f"{key} must be a boolean, got {value!r}")


def _int_param(value, key):
    try:
        return int(value)
    except (TypeError, ValueError):
        raise BadParameter(f"{key} must be an integer, got {value!r}") from None


BUILTIN_MODELS = {
    "toy_gauge": "one gauge parameter; velocity-shift invariance (no parameters)",
    "oscillator": "regular harmonic oscillator; no constraints (no parameters)",
    "second_class_toy": "purely second-class pair; multipliers get fixed (no parameters)",
    "maxwell_lattice": "abelian links on a periodic N^3 grid (N: int >= 1, default 2)",
    "ym_mechanics": "homogeneous su(2) gauge mechanics "
                    "(with_scalar: bool, default true)",
}


def builtin_model(name, params=None):
    """Instantiate a catalog model by name with key=value parameters."""
    params = dict(params or {})
    if name == "toy_gauge":
        factory = _toy_gauge
    elif name == "oscillator":
        factory = _oscillator
    elif name == "second_class_toy":
        factory = _second_class_toy
    elif name == "maxwell_lattice":
        n = _int_param(params.pop("N", 2), "N")
        factory = lambda: _maxwell_lattice(n)
    elif name == "ym_mechanics":
        with_scalar = _bool_param(params.pop("with_scalar", True), "with_scalar")
        factory = lambda: _ym_mechanics(with_scalar)
    else:
        raise UnknownBuiltin(
            f"unknown builtin '{name}'; available: {', '.join(sorted(BUILTIN_MODELS))}")
    if params:
        raise BadParameter(f"unknown parameter(s) for {name}: {', '.join(sorted(params))}")
    return factory()
