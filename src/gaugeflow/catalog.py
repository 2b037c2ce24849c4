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
derivatives and the generators are both read from it.  In
``maxwell_lattice`` one forward difference on the periodic grid builds
both the electric field and the curl.

Each builtin is one row of ``_CATALOG``: its factory, its parameters
with their defaults, and its ``list-builtins`` description
(``BUILTIN_MODELS`` is read from the table).  A parameter is read as
the type of its default, a bool or an int; any other value is refused.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import BadParameter, UnknownBuiltin
from .expr import Expression, coordinate, esum, esum_products
from .model import MAX_COORDINATES, CoordinateDecl, GaugeGenerator, GeneratorComponent, ModelSpec

ONE = Expression.const(1)
HALF = Expression.const(Fraction(1, 2))
MINUS_ONE = -ONE


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

def _shift(site, direction, n, step=1):
    out = list(site)
    out[direction - 1] = (out[direction - 1] + step) % n
    return tuple(out)


def _maxwell_lattice(n):
    """Electromagnetic links on an n^3 periodic grid.

    Per site there is a scalar potential A0 and three links A[i].  One
    forward difference ``delta(i, f, site) = f(site + e_i) - f(site)``
    builds both fields: the electric field ``A[i]' - delta_i A0`` and the
    curl ``delta_i A[j] - delta_j A[i]``.  The Lagrangian is half the sum
    of the electric squares minus half the sum of the curl squares over
    i < j; the gauge transformation is A0 -> A0 + eps',
    A[i] -> A[i] + delta_i eps.
    """
    if n < 1:
        raise BadParameter(f"maxwell_lattice needs N >= 1, got {n}")
    if 4 * n ** 3 > MAX_COORDINATES:
        raise BadParameter(f"maxwell_lattice N={n} has {4 * n ** 3} coordinates, "
                           f"more than {MAX_COORDINATES}")
    sites = list(product(range(n), repeat=3))
    a0 = {site: coordinate("A0", site) for site in sites}
    links = {i: {site: coordinate("A", (i,) + site) for site in sites} for i in (1, 2, 3)}

    def delta(i, f, site):
        return _x(f[_shift(site, i, n)]) - _x(f[site])

    def squares():
        for site in sites:
            for i in (1, 2, 3):
                electric = _x(links[i][site].jet(1)) - delta(i, a0, site)
                yield electric, electric, 1
            # curl(j, i) is -curl(i, j): -1/4 over i != j is -1/2 over i < j
            for i, j in ((1, 2), (1, 3), (2, 3)):
                curl = delta(i, links[j], site) - delta(j, links[i], site)
                yield curl, curl, -1

    lagrangian = HALF * esum_products(squares())

    generators = []
    for site in sites:
        comps = [GeneratorComponent(a0[site], 1, ONE)]
        for i in (1, 2, 3):
            back = _shift(site, i, n, step=-1)
            if back == site:  # N=1: the difference of a site with itself
                continue
            comps.append(GeneratorComponent(links[i][back], 0, ONE))
            comps.append(GeneratorComponent(links[i][site], 0, MINUS_ONE))
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

def _read(key, value, default):
    """A parameter read as the type of its default: a bool, or an int."""
    if isinstance(default, bool):
        text = str(value).lower() if isinstance(value, (bool, str)) else None
        if text in ("true", "false", "1", "0"):
            return text in ("true", "1")
        raise BadParameter(f"{key} must be a boolean, got {value!r}")
    if isinstance(value, str) or type(value) is int:  # never a bool or a float
        try:
            return int(value)
        except ValueError:
            pass
    raise BadParameter(f"{key} must be an integer, got {value!r}")


# name: (factory, its parameters with their defaults, list-builtins description)
_CATALOG = {
    "toy_gauge": (_toy_gauge, {},
                  "one gauge parameter; velocity-shift invariance (no parameters)"),
    "oscillator": (_oscillator, {},
                   "regular harmonic oscillator; no constraints (no parameters)"),
    "second_class_toy": (_second_class_toy, {},
                         "purely second-class pair; multipliers get fixed (no parameters)"),
    "maxwell_lattice": (_maxwell_lattice, {"N": 2},
                        "abelian links on a periodic N^3 grid (N: int >= 1, default 2)"),
    "ym_mechanics": (_ym_mechanics, {"with_scalar": True},
                     "homogeneous su(2) gauge mechanics (with_scalar: bool, default true)"),
}

BUILTIN_MODELS = {name: description for name, (_, _, description) in _CATALOG.items()}


def builtin_model(name, params=None):
    """Instantiate a catalog model by name with key=value parameters."""
    if name not in _CATALOG:
        raise UnknownBuiltin(
            f"unknown builtin '{name}'; available: {', '.join(sorted(BUILTIN_MODELS))}")
    factory, defaults, _ = _CATALOG[name]
    params = dict(params or {})
    args = [_read(key, params.pop(key, default), default) for key, default in defaults.items()]
    if params:
        raise BadParameter(f"unknown parameter(s) for {name}: {', '.join(sorted(params))}")
    return factory(*args)
