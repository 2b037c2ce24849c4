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

from dataclasses import dataclass, replace

from .errors import (
    DuplicateCoordinate,
    IndexOutOfRange,
    MalformedGenerator,
    ModelSyntaxError,
    NonPolynomialLagrangian,
    UnknownSymbol,
)
from .expr import DEFAULT_JET_CAP, Expression, Kind, VarRef
from .parse import (
    parse_expression,
    render_expression,
    reserved_base_reason,
)


@dataclass(frozen=True)
class Options:
    """Numeric-oracle and algorithm knobs; seeded for reproducibility."""

    max_generations: int = 10
    sample_count: int = 20
    numeric_tolerance: float = 1e-9
    seed: int = 1729

    def __post_init__(self):
        if self.max_generations < 1:
            raise ModelSyntaxError("max_generations must be positive")
        if self.sample_count < 1:
            raise ModelSyntaxError("sample_count must be positive")
        if not self.numeric_tolerance > 0:
            raise ModelSyntaxError("numeric_tolerance must be positive")


@dataclass(frozen=True)
class CoordinateDecl:
    base: str
    index_ranges: tuple = ()  # tuple of (lo, hi) half-open ranges
    discardable_hint: bool = False

    def expand(self):
        """All concrete coordinate VarRefs covered by this declaration."""
        out = [()]
        for lo, hi in self.index_ranges:
            out = [idx + (i,) for idx in out for i in range(lo, hi)]
        return tuple(VarRef(self.base, idx, Kind.COORDINATE, 0) for idx in out)


@dataclass(frozen=True)
class GeneratorComponent:
    coordinate: VarRef
    order: int  # time-derivative order k of the gauge parameter
    coefficient: Expression


@dataclass(frozen=True)
class GaugeGenerator:
    parameter_name: str
    components: tuple  # of GeneratorComponent

    def coefficient(self, coordinate, order):
        for comp in self.components:
            if comp.coordinate is coordinate and comp.order == order:
                return comp.coefficient
        return None

    def max_order(self):
        return max((c.order for c in self.components), default=0)


@dataclass(frozen=True)
class ModelSpec:
    name: str
    coordinates: tuple  # of CoordinateDecl
    lagrangian: Expression
    generators: tuple = ()
    options: Options = Options()

    def __post_init__(self):
        object.__setattr__(self, "_coords", _expand_coordinates(self.coordinates))
        _validate_model(self)

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
        return replace(self, options=replace(self.options, **kwargs))

    def with_generators(self, generators):
        return replace(self, generators=tuple(generators))


def _expand_coordinates(decls):
    seen = {}
    out = []
    for decl in decls:
        reason = reserved_base_reason(decl.base)
        if reason:
            raise DuplicateCoordinate(f"cannot declare '{decl.base}': {reason}")
        for lo, hi in decl.index_ranges:
            if hi <= lo:
                raise ModelSyntaxError(
                    f"empty index range {lo}:{hi} in declaration of '{decl.base}'")
        for q in decl.expand():
            if q in seen:
                raise DuplicateCoordinate(f"coordinate {q} declared twice")
            seen[q] = decl
            out.append(q)
    return tuple(out)


def _validate_model(m):
    coords = set(m.coordinate_vars)
    for v in m.lagrangian.variables():
        if v.kind in (Kind.MOMENTUM, Kind.MULTIPLIER):
            raise NonPolynomialLagrangian(
                f"the Lagrangian must be a function of coordinates and "
                f"velocities; found {v}")
        if v.jet_order > 1:
            raise NonPolynomialLagrangian(
                f"the Lagrangian may mention at most first time derivatives; found {v}")
        if v.coordinate() not in coords:
            raise UnknownSymbol(f"Lagrangian mentions undeclared coordinate {v.coordinate()}")
    if not m.lagrangian.is_polynomial():
        raise NonPolynomialLagrangian(
            "the Lagrangian must be polynomial in coordinates and velocities")
    names = [g.parameter_name for g in m.generators]
    if len(set(names)) != len(names):
        raise MalformedGenerator("gauge parameter names must be distinct")
    for g in m.generators:
        if not g.components:
            raise MalformedGenerator(f"generator '{g.parameter_name}' has no components")
        seen = set()
        for comp in g.components:
            key = (comp.coordinate, comp.order)
            if key in seen:
                raise MalformedGenerator(
                    f"generator '{g.parameter_name}' repeats component "
                    f"({comp.coordinate}, k={comp.order})")
            seen.add(key)
            if comp.coordinate not in coords:
                raise UnknownSymbol(
                    f"generator '{g.parameter_name}' targets undeclared "
                    f"coordinate {comp.coordinate}")
            if not (0 <= comp.order <= DEFAULT_JET_CAP):
                raise MalformedGenerator(
                    f"generator order k={comp.order} outside 0..{DEFAULT_JET_CAP}")
            for v in comp.coefficient.variables():
                if v.kind is not Kind.COORDINATE or v not in coords:
                    raise MalformedGenerator(
                        f"generator coefficients may mention only declared "
                        f"coordinates; found {v}")


# --- model file parsing -------------------------------------------------------

_SECTIONS = ("model", "vars", "lagrangian", "generators", "options")


def _strip_comment(line):
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _make_resolver(m_coords, line_no):
    """Resolve mentions against declared coordinates, with dot-suffix sugar."""
    bases = {}
    for q in m_coords:
        bases.setdefault(q.base, set()).add(q.indices)

    def resolve(base, indices, jet_order, is_momentum, pos):
        line, col = pos
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
            raise UnknownSymbol(f"unknown symbol '{base}'", line=line)
        if indices not in bases[base]:
            raise IndexOutOfRange(
                f"{base}[{','.join(map(str, indices))}] is outside the declared "
                f"index ranges (line {line})")
        if is_momentum:
            return VarRef(base, indices, Kind.MOMENTUM, 0)
        if jet:
            return VarRef(base, indices, Kind.JET, jet)
        return VarRef(base, indices, Kind.COORDINATE, 0)

    return resolve


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


def _parse_core_var(text, resolver, line_no):
    e = parse_expression(text, resolver, line_offset=line_no - 1)
    vs = e.variables()
    if len(vs) != 1 or e != Expression.var(next(iter(vs))):
        raise MalformedGenerator(f"'{text}' is not a single coordinate (line {line_no})")
    v = next(iter(vs))
    if v.kind is not Kind.COORDINATE:
        raise MalformedGenerator(
            f"generator components target coordinates, not {v} (line {line_no})")
    return v


def parse_model(source, name="model"):
    """Parse model text into a validated ModelSpec.

    Raises the specific model errors for semantic problems and
    :class:`ModelSyntaxError` for structural ones, all carrying line
    numbers.
    """
    sections = {}
    current = None
    pending_gen = None
    generators = []
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw).strip()
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
    coords = _expand_coordinates(decls)

    first_line = sections["lagrangian"][0][0]
    lagrangian_text = " ".join(text for _, text in sections["lagrangian"])
    resolver = _make_resolver(coords, first_line)
    lagrangian = parse_expression(lagrangian_text, resolver,
                                  line_offset=first_line - 1)

    for line_no, line in sections.get("generators", []):
        if line.startswith("gen "):
            pending_gen = (line[4:].strip(), [])
            if not pending_gen[0].isidentifier():
                raise MalformedGenerator(
                    f"bad gauge parameter name '{pending_gen[0]}' (line {line_no})")
            generators.append(pending_gen)
            continue
        if pending_gen is None:
            raise MalformedGenerator(
                f"component line before any 'gen <name>' (line {line_no})")
        parts = line.split(":")
        if len(parts) != 3:
            raise MalformedGenerator(
                f"expected 'coordinate : k=<int> : coefficient' (line {line_no})")
        coord = _parse_core_var(parts[0].strip(), resolver, line_no)
        korder = parts[1].strip()
        if not korder.startswith("k=") or not korder[2:].isdigit():
            raise MalformedGenerator(f"bad derivative order '{korder}' (line {line_no})")
        coeff = parse_expression(parts[2].strip(), resolver, line_offset=line_no - 1)
        pending_gen[1].append(GeneratorComponent(coord, int(korder[2:]), coeff))

    opts = {}
    for line_no, line in sections.get("options", []):
        key, sep, value = (p.strip() for p in line.partition("="))
        if not sep:
            raise ModelSyntaxError(f"expected 'key = value', got '{line}'", line_no)
        try:
            if key in ("max_generations", "sample_count", "seed"):
                opts[key] = int(value)
            elif key == "numeric_tolerance":
                opts[key] = float(value)
            else:
                raise ModelSyntaxError(f"unknown option '{key}'", line_no)
        except ValueError:
            raise ModelSyntaxError(f"bad value for option '{key}'", line_no) from None

    return ModelSpec(
        name=name,
        coordinates=decls,
        lagrangian=lagrangian,
        generators=tuple(GaugeGenerator(n, tuple(comps)) for n, comps in generators),
        options=Options(**opts),
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
    o = m.options
    lines += ["", "[options]",
              f"max_generations = {o.max_generations}",
              f"sample_count = {o.sample_count}",
              f"numeric_tolerance = {o.numeric_tolerance!r}",
              f"seed = {o.seed}"]
    return "\n".join(lines) + "\n"
