"""Model descriptions: coordinates, Lagrangian, gauge generators, options.

A model file is line oriented with four sections::

    [vars]
    x
    y discardable
    A[0:2,0:2]

    [lagrangian]
    (x' - y)^2 / 2

    [generators]
    gen eps
    x : k=0 : 1
    y : k=1 : 1

    [options]
    seed = 1729

``#`` starts a comment.  Velocities are written with a prime (``x'``)
or the ``dot`` suffix (``xdot``); index ranges are half open.  The
parsed :class:`ModelSpec` is immutable and fully validated.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import (
    DuplicateCoordinate,
    IndexOutOfRange,
    MalformedGenerator,
    ModelSyntaxError,
    NonPolynomialLagrangian,
    UnknownSymbol,
)
from .expr import Kind, VarRef, render_expression
from .parse import default_resolver, parse_expression, parse_variable, reserved_base_reason

# the largest time-derivative order k of a gauge parameter; with the
# Lagrangian's first derivatives it bounds every jet order a model reaches
MAX_GENERATOR_ORDER = 3

# the most coordinates a model may declare: room for maxwell_lattice N=40
# (4 * 40^3); a declaration past it is refused before any is expanded
MAX_COORDINATES = 256_000

# the most surface points the numeric oracle may ask for; a failing
# sampler spends 60 attempts per point at about 15 us each, so the bound
# keeps that under a second instead of letting the count set the time
MAX_SAMPLE_COUNT = 1_000


class Options(namedtuple("Options", "max_generations sample_count numeric_tolerance seed",
                         defaults=(10, 20, 1e-9, 1729))):
    """Numeric-oracle and algorithm knobs; seeded for reproducibility.

    The one option schema: model files, the CLI and the JSON report read
    its ``_fields``; a field's default gives the type its text parses to.
    A named tuple: it equals any tuple of the same items.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_generations < 1:
            raise ModelSyntaxError("max_generations must be positive")
        if self.sample_count < 1:
            raise ModelSyntaxError("sample_count must be positive")
        if self.sample_count > MAX_SAMPLE_COUNT:
            raise ModelSyntaxError(f"sample_count must be at most {MAX_SAMPLE_COUNT}")
        if not (math.isfinite(self.numeric_tolerance) and self.numeric_tolerance > 0):
            raise ModelSyntaxError("numeric_tolerance must be finite and positive")
        return self


class CoordinateDecl(namedtuple("CoordinateDecl", "base index_ranges discardable_hint",
                                defaults=((), False))):
    """Half-open ``(lo, hi)`` index ranges; a named tuple (equal to any tuple)."""

    __slots__ = ()

    def expand(self):
        """All concrete coordinate VarRefs covered by this declaration."""
        out = [()]
        for lo, hi in self.index_ranges:
            out = [idx + (i,) for idx in out for i in range(lo, hi)]
        return tuple(VarRef(self.base, idx, Kind.COORDINATE, 0) for idx in out)


class GeneratorComponent(namedtuple("GeneratorComponent", "coordinate order coefficient")):
    """``order`` is the time-derivative order k of the gauge parameter; a
    named tuple (equal to any tuple)."""

    __slots__ = ()


class GaugeGenerator(namedtuple("GaugeGenerator", "parameter_name components")):
    """A tuple of GeneratorComponents; a named tuple (equal to any tuple)."""

    __slots__ = ()


class ModelSpec(namedtuple("ModelSpec", "name coordinates lagrangian generators options",
                           defaults=((), Options()))):
    """A validated model; a named tuple (equal to any tuple) that keeps its
    expanded coordinates (``_coords``, if already expanded) in an instance
    dict; a model file's ``_lines`` go to its errors.  Copy it with the
    ``with_`` methods: ``_replace`` skips checks."""

    def __new__(cls, *args, _coords=None, _lines=None, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._coords = _expand_coordinates(self.coordinates) if _coords is None else _coords
        _validate_model(self, _lines)
        return self

    @property
    def coordinate_vars(self):
        """Concrete coordinates in declaration order."""
        return self._coords

    @property
    def dimension(self):
        return len(self._coords)

    def canonical_pairs(self):
        """(coordinate, momentum) pairs spanning the full phase space."""
        return tuple((q, q.momentum()) for q in self._coords)

    def hinted_discardable(self):
        return tuple(q for decl in self.coordinates if decl.discardable_hint
                     for q in decl.expand())

    def with_options(self, **kwargs):
        # options check themselves, and nothing else changes
        copy = self._replace(options=Options(**{**self.options._asdict(), **kwargs}))
        copy._coords = self._coords
        return copy

    def with_generators(self, generators):
        return ModelSpec(**{**self._asdict(), "generators": tuple(generators)})


def _expand_coordinates(decls, line_nos=None):
    """The declarations' coordinates; ``line_nos`` gives each
    declaration's line in a model file, for its errors."""
    line_nos = line_nos or [0] * len(decls)
    total = 0
    for decl, line_no in zip(decls, line_nos):
        total += math.prod(max(hi - lo, 0) for lo, hi in decl.index_ranges)
        if total > MAX_COORDINATES:
            raise ModelSyntaxError(f"declaration of '{decl.base}' brings the model past "
                                   f"{MAX_COORDINATES} coordinates", line_no)
    seen = set()
    out = []
    for decl, line_no in zip(decls, line_nos):
        reason = reserved_base_reason(decl.base)
        if reason:
            raise DuplicateCoordinate(f"cannot declare '{decl.base}': {reason}", line_no)
        for lo, hi in decl.index_ranges:
            if hi <= lo:
                raise ModelSyntaxError(
                    f"empty index range {lo}:{hi} in declaration of '{decl.base}'", line_no)
        for q in decl.expand():
            if q in seen:
                raise DuplicateCoordinate(f"coordinate {q} declared twice", line_no)
            seen.add(q)
            out.append(q)
    return tuple(out)


def _lagrangian_fault(v):
    """Why a Lagrangian may not mention ``v``, or None if it may."""
    if v.kind in (Kind.MOMENTUM, Kind.MULTIPLIER):
        return f"the Lagrangian must be a function of coordinates and velocities; found {v}"
    if v.jet_order > 1:
        return f"the Lagrangian may mention at most first time derivatives; found {v}"
    return None


def _validate_model(m, lines=None):
    """Check ``m``; ``lines``, from a model file, hold the line of the
    Lagrangian and of each generator's header and components."""
    lagrangian_line, generator_lines = lines or (
        0, [(0, [0] * len(g.components)) for g in m.generators])
    coords = set(m.coordinate_vars)
    for v in m.lagrangian.variables():
        fault = _lagrangian_fault(v)
        if fault:
            raise NonPolynomialLagrangian(fault)
        if v.coordinate() not in coords:
            raise UnknownSymbol(f"Lagrangian mentions undeclared coordinate {v.coordinate()}")
    if not m.lagrangian.is_polynomial():
        raise NonPolynomialLagrangian(
            "the Lagrangian must be polynomial in coordinates and velocities", lagrangian_line)
    names = set()
    for g, (header_line, component_lines) in zip(m.generators, generator_lines):
        if g.parameter_name in names:
            raise MalformedGenerator("gauge parameter names must be distinct", header_line)
        names.add(g.parameter_name)
        if not g.components:
            raise MalformedGenerator(f"generator '{g.parameter_name}' has no components",
                                     header_line)
        seen = set()
        for comp, line_no in zip(g.components, component_lines):
            key = (comp.coordinate, comp.order)
            if key in seen:
                raise MalformedGenerator(
                    f"generator '{g.parameter_name}' repeats component "
                    f"({comp.coordinate}, k={comp.order})", line_no)
            seen.add(key)
            if comp.coordinate not in coords:
                raise UnknownSymbol(
                    f"generator '{g.parameter_name}' targets undeclared "
                    f"coordinate {comp.coordinate}", line_no)
            if not (0 <= comp.order <= MAX_GENERATOR_ORDER):
                raise MalformedGenerator(
                    f"generator order k={comp.order} outside 0..{MAX_GENERATOR_ORDER}", line_no)
            for v in comp.coefficient.variables():
                if v.kind is not Kind.COORDINATE or v not in coords:
                    raise MalformedGenerator(
                        f"generator coefficients may mention only declared "
                        f"coordinates; found {v}", line_no)


# --- model file parsing -------------------------------------------------------

_SECTIONS = ("model", "vars", "lagrangian", "generators", "options")


def _make_resolvers(m_coords):
    """Resolvers of mentions of declared coordinates, with dot-suffix sugar,
    for ``[lagrangian]`` (rejecting what it may not mention) and ``[generators]``."""
    bases = {}
    for q in m_coords:
        bases.setdefault(q.base, set()).add(q.indices)

    def resolve(base, indices, jet_order, is_momentum, where):
        jet = jet_order
        if base not in bases and not is_momentum and base.endswith("dot"):
            # velocity sugar: xdot, xddot, ...; longest declared stem wins
            stem = base[:-3]
            extra = 1
            while stem not in bases and stem.endswith("d"):
                stem = stem[:-1]
                extra += 1
            if stem in bases:
                base = stem
                jet = jet_order + extra
        if base not in bases:
            raise UnknownSymbol(f"unknown symbol '{base}'", *where())
        if indices not in bases[base]:
            raise IndexOutOfRange(f"{base}[{','.join(map(str, indices))}] is outside the "
                                  "declared index ranges", *where())
        return default_resolver(base, indices, jet, is_momentum, where)

    def resolve_lagrangian(base, indices, jet_order, is_momentum, where):
        v = resolve(base, indices, jet_order, is_momentum, where)
        fault = _lagrangian_fault(v)
        if fault:
            raise NonPolynomialLagrangian(fault, *where())
        return v

    return resolve_lagrangian, resolve


def _parse_var_decl(text, line_no):
    words = text.split()
    discardable = False
    if len(words) == 2 and words[1] == "discardable":
        discardable = True
    elif len(words) != 1:
        raise ModelSyntaxError(f"malformed coordinate declaration '{text}'", line_no)
    decl = words[0]
    if "[" in decl:
        if not decl.endswith("]"):
            raise ModelSyntaxError(f"malformed index ranges in '{decl}'", line_no)
        base, _, inside = decl[:-1].partition("[")
        ranges = []
        for piece in inside.split(","):
            lo, sep, hi = piece.partition(":")
            try:
                if sep:
                    ranges.append((int(lo), int(hi)))
                else:
                    ranges.append((int(lo), int(lo) + 1))
            except ValueError:
                raise ModelSyntaxError(f"bad index range '{piece}'", line_no) from None
        ranges = tuple(ranges)
    else:
        base, ranges = decl, ()
    if not base.isidentifier():
        raise ModelSyntaxError(f"'{base}' is not a valid coordinate name", line_no)
    return CoordinateDecl(base, ranges, discardable)


def parse_model(source, name="model"):
    """Parse model text into a validated ModelSpec.

    Raises the specific model errors for semantic problems and
    :class:`ModelSyntaxError` for structural ones, all carrying line
    numbers.
    """
    sections = {}
    current = None
    generators = []  # per generator: (name, components)
    generator_lines = []  # per generator: (header line, component lines)
    lines = source.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ModelSyntaxError(f"unknown section '[{section}]'", line_no)
            if section in sections:
                raise ModelSyntaxError(f"duplicate section '[{section}]'", line_no)
            sections[section] = []
            current = section
            continue
        if current is None:
            raise ModelSyntaxError("content before the first section header", line_no)
        sections[current].append((line_no, line))

    if "vars" not in sections or not sections["vars"]:
        raise ModelSyntaxError("a model needs a [vars] section")
    if "lagrangian" not in sections or not sections["lagrangian"]:
        raise ModelSyntaxError("a model needs a [lagrangian] section")

    for line_no, line in sections.get("model", []):
        key, sep, value = (p.strip() for p in line.partition("="))
        if key == "name" and sep:
            name = value
        else:
            raise ModelSyntaxError(f"unknown entry '{line}' in [model]", line_no)

    decls = tuple(_parse_var_decl(text, ln) for ln, text in sections["vars"])
    coords = _expand_coordinates(decls, [ln for ln, _ in sections["vars"]])

    # the section's own lines, comments cut and leading space kept, so that
    # a position in the text is its position in the file
    first_line, last_line = sections["lagrangian"][0][0], sections["lagrangian"][-1][0]
    lagrangian_text = "\n".join(raw.partition("#")[0].rstrip()
                                for raw in lines[first_line - 1:last_line])
    lagrangian_resolver, resolver = _make_resolvers(coords)
    lagrangian = parse_expression(lagrangian_text, lagrangian_resolver,
                                  line_offset=first_line - 1)

    for line_no, line in sections.get("generators", []):
        if line.startswith("gen "):
            parameter = line[4:].strip()
            if not parameter.isidentifier():
                raise MalformedGenerator(f"bad gauge parameter name '{parameter}'", line_no)
            generators.append((parameter, []))
            generator_lines.append((line_no, []))
            continue
        if not generators:
            raise MalformedGenerator("component line before any 'gen <name>'", line_no)
        # the fields of the line as it stands in the file, the coefficient
        # behind spaces, so that a position in a field is its column
        parts = lines[line_no - 1].partition("#")[0].rstrip().split(":")
        if len(parts) != 3:
            raise MalformedGenerator("expected 'coordinate : k=<int> : coefficient'", line_no)
        coord = parse_variable(parts[0], resolver, line_offset=line_no - 1)
        if coord is None:
            raise MalformedGenerator(f"'{parts[0].strip()}' is not a single coordinate", line_no)
        if coord.kind is not Kind.COORDINATE:
            raise MalformedGenerator(
                f"generator components target coordinates, not {coord}", line_no)
        korder = parts[1].strip()
        if not korder.startswith("k=") or not korder[2:].isdigit():
            raise MalformedGenerator(f"bad derivative order '{korder}'", line_no)
        coeff = parse_expression(" " * (len(parts[0]) + len(parts[1]) + 2) + parts[2],
                                 resolver, line_offset=line_no - 1)
        generators[-1][1].append(GeneratorComponent(coord, int(korder[2:]), coeff))
        generator_lines[-1][1].append(line_no)

    option_types = {key: type(value) for key, value in Options._field_defaults.items()}
    opts = {}
    for line_no, line in sections.get("options", []):
        key, sep, value = (p.strip() for p in line.partition("="))
        if not sep:
            raise ModelSyntaxError(f"expected 'key = value', got '{line}'", line_no)
        if key not in option_types:
            raise ModelSyntaxError(f"unknown option '{key}'", line_no)
        try:
            opts[key] = option_types[key](value)
            Options(**{key: opts[key]})  # the value's own check, at its line
        except ValueError:
            raise ModelSyntaxError(f"bad value for option '{key}'", line_no) from None
        except ModelSyntaxError as exc:
            raise ModelSyntaxError(exc.args[0], line_no) from None

    return ModelSpec(
        name=name,
        coordinates=decls,
        lagrangian=lagrangian,
        generators=tuple(GaugeGenerator(n, tuple(comps)) for n, comps in generators),
        options=Options(**opts),
        _coords=coords,
        _lines=(first_line, generator_lines),
    )


def render_model(m):
    """Model text that reparses to an identical ModelSpec."""
    lines = [f"[model]", f"name = {m.name}", "", "[vars]"]
    for decl in m.coordinates:
        piece = decl.base
        if decl.index_ranges:
            piece += "[" + ",".join(f"{lo}:{hi}" for lo, hi in decl.index_ranges) + "]"
        if decl.discardable_hint:
            piece += " discardable"
        lines.append(piece)
    lines += ["", "[lagrangian]", render_expression(m.lagrangian)]
    if m.generators:
        lines += ["", "[generators]"]
        for g in m.generators:
            lines.append(f"gen {g.parameter_name}")
            for comp in g.components:
                lines.append(f"{comp.coordinate} : k={comp.order} : "
                             f"{render_expression(comp.coefficient)}")
    lines += ["", "[options]"]
    lines += [f"{key} = {value}" for key, value in m.options._asdict().items()]
    return "\n".join(lines) + "\n"
