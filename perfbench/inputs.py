"""Seeded inputs for the gaugeflow benchmark, each with its hand-derived answer.

Every op gets a distinct input: one name prefix shared by every coordinate
base of the model (``A0``, ``A`` -> ``u7_3_A0``, ``u7_3_A``) and its own
analysis seed, both drawn from the workload seed.  The prefix keeps the
order of the coordinates among themselves, so the work per op does not
change with it; a cache keyed on models or expressions gets no free hit
from repetition.

The program only ever sees the generated inputs: parsed ``ModelSpec``
objects for ``lattice`` and ``nonabelian``, model files for ``corpus``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

MATCH = "match"
NO_GAUGE_SECTOR = "no_gauge_sector"
INAPPLICABLE = "inapplicable"

LATTICE_N = 3
CHAIN_SITES = range(3, 17)
SHIPPED_MODELS = ("chain_maxwell", "inconsistent", "second_class_toy", "toy_gauge")

_IDENTIFIER = re.compile(r"(?<![A-Za-z0-9_])[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class KnownDefect:
    """A recorded defect that makes the program refuse a model today, and
    the exact refusal it produces: a verdict, an exit code and one
    diagnostic, by code and message prefix.  Any other refusal of the
    model is not this defect."""

    description: str
    verdict: str
    exit_code: int
    diagnostic: str
    message_prefix: str

    def explains(self, verdict, exit_code, diagnostics):
        return (verdict == self.verdict and exit_code == self.exit_code
                and any(d["code"] == self.diagnostic
                        and d["message"].startswith(self.message_prefix)
                        for d in diagnostics))


@dataclass(frozen=True)
class Expected:
    """What a correct ``compare`` gives for one model, derived by hand.

    Counts left as None are not checked.  ``primaries`` counts the
    generation-0 constraints, ``candidates`` the single-step constraints.
    ``known_defect`` records a defect that makes the program refuse this
    model today; such a model is probed, not measured (``Generator.probes``).
    """

    verdict: str
    exit_code: int
    primaries: int = None
    first_class: int = None
    second_class: int = None
    candidates: int = None
    diagnostic: str = None
    known_defect: KnownDefect = None


def lattice_expected(n):
    # one primary p_A0 per site and one Gauss law per site, all first
    # class; one single-step candidate per site gauge parameter
    sites = n ** 3
    return Expected(MATCH, 0, primaries=sites, first_class=2 * sites,
                    second_class=0, candidates=sites)


def chain_expected(k):
    # as the lattice, in one dimension: K primaries p_A0[n] and K Gauss
    # laws p_A[n-1] - p_A[n]; the Gauss laws sum to zero, but Dirac
    # admits all K (each adds rank over the primaries) and the K
    # candidates have the same span, so the counts agree
    return Expected(MATCH, 0, primaries=k, first_class=2 * k,
                    second_class=0, candidates=k)


# su(2): three primaries p_A0[a] and three non-abelian Gauss laws, all
# first class; one candidate per gauge parameter nu_1..nu_3
YM_EXPECTED = Expected(MATCH, 0, primaries=3, first_class=6, second_class=0,
                       candidates=3)

SHIPPED_EXPECTED = {
    "chain_maxwell": chain_expected(3),
    # p_y primary, p_x secondary, both first class; one candidate p_x
    "toy_gauge": Expected(MATCH, 0, primaries=1, first_class=2,
                          second_class=0, candidates=1),
    # p_x - y and p_y; their bracket is -1, so both second class and
    # both consistency conditions fix multipliers
    "second_class_toy": Expected(NO_GAUGE_SECTOR, 0, primaries=2, first_class=0,
                                 second_class=2, candidates=0),
    # L = x: preserving p_x demands 1 = 0
    "inconsistent": Expected(INAPPLICABLE, 3, primaries=1,
                             diagnostic="inconsistent-lagrangian"),
}

CIRCLE_TEXT = """\
# Particle on a circle, the radius enforced by the coordinate l.
[model]
name = circle

[vars]
x
y
l

[lagrangian]
(x'^2 + y'^2) / 2 - l * (x^2 + y^2 - 1) / 2
"""

# p_l; then x^2+y^2-1; then x p_x + y p_y; then p_x^2+p_y^2-l(x^2+y^2),
# whose preservation fixes the multiplier: four second-class
# constraints and no gauge freedom
CIRCLE_EXPECTED = Expected(
    NO_GAUGE_SECTOR, 0, primaries=1, first_class=0, second_class=4, candidates=0,
    known_defect=KnownDefect(
        "the surface sampler gives up on the non-affine constraint x^2+y^2-1; "
        "ROADMAP item 4",
        INAPPLICABLE, 4, "dirac-failed", "SurfaceSamplingFailed: "))


def chain_text(k):
    """``chain_maxwell`` generalized to a periodic chain of K sites."""
    terms = " +\n".join(f"(A[{n}]' - A0[{(n + 1) % k}] + A0[{n}])^2 / 2"
                        for n in range(k))
    gens = "\n\n".join(
        f"gen eps{n}\nA0[{n}] : k=1 : 1\nA[{(n - 1) % k}] : k=0 : 1\nA[{n}] : k=0 : -1"
        for n in range(k))
    return (f"[model]\nname = chain_maxwell_{k}\n\n[vars]\nA0[0:{k}] discardable\n"
            f"A[0:{k}]\n\n[lagrangian]\n{terms}\n\n[generators]\n{gens}\n")


def declared_bases(text):
    """Coordinate bases named in the ``[vars]`` section of model text."""
    bases = []
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
        elif line and section == "vars":
            bases.append(line.split()[0].split("[", 1)[0])
    return bases


def with_prefix(text, prefix):
    """Prepend ``prefix`` to every coordinate base in model text,
    including the ``xdot`` velocity spelling."""
    bases = set(declared_bases(text))

    def rename(match):
        word = stem = match.group(0)
        if stem not in bases and stem.endswith("dot"):
            # the parser's sugar: xdot, xddot, ... name jets of x
            stem = stem[:-3]
            while stem not in bases and stem.endswith("d"):
                stem = stem[:-1]
        return prefix + word if stem in bases else word

    return _IDENTIFIER.sub(rename, text)


@dataclass(frozen=True)
class OpInput:
    """One op's input: either a parsed ``ModelSpec`` for the library, its
    analysis ``seed`` already in its options, or a model file for the
    CLI, which passes ``seed`` on the command line."""

    label: str
    seed: int
    expected: Expected
    model: object = None
    path: Path = None


class Generator:
    """Deterministic op inputs for one workload and workload seed.

    ``rounds()`` yields lists of inputs.  ``lattice`` and ``nonabelian``
    rounds hold one input.  A ``corpus`` round holds every chain size
    K in 3..16 and the shipped model files once each, in a seeded order,
    so that every run measures the same mix.  ``probes()`` gives the
    circle, which the program refuses today for most analysis seeds; it
    is checked apart from the measured ops, so that no measured op fails.
    """

    def __init__(self, workload, seed, gaugeflow, models_dir, work_dir):
        if workload not in ("lattice", "nonabelian", "corpus"):
            raise ValueError(f"unknown workload '{workload}'")
        self.workload = workload
        self.rng = random.Random(f"perfbench/{workload}/{seed}")
        self.probe_rng = random.Random(f"perfbench/{workload}/{seed}/probe")
        self.tag = self.rng.randrange(1000)
        self.gf = gaugeflow
        self.work_dir = Path(work_dir)
        self.count = 0
        if workload == "corpus":
            self.sources = [(f"chain_{k}", chain_text(k), chain_expected(k))
                            for k in CHAIN_SITES]
            for name in SHIPPED_MODELS:
                text = (Path(models_dir) / f"{name}.model").read_text()
                self.sources.append((name, text, SHIPPED_EXPECTED[name]))
        else:
            if workload == "lattice":
                model = self.gf.builtin_model("maxwell_lattice", {"N": LATTICE_N})
                expected = lattice_expected(LATTICE_N)
            else:
                model = self.gf.builtin_model("ym_mechanics", {"with_scalar": True})
                expected = YM_EXPECTED
            self.sources = [(workload, model, expected)]

    def rounds(self):
        while True:
            order = list(self.sources)
            self.rng.shuffle(order)
            yield [self._next(*source) for source in order]

    def _next(self, label, source, expected):
        index = self.count
        self.count += 1
        return self.make(label, source, expected,
                         prefix=f"u{self.tag}_{index}_",
                         seed=self.rng.randrange(1, 2 ** 31))

    def probes(self, count):
        """``count`` circle inputs, each with its own prefix and analysis
        seed, drawn apart from the measured ops' inputs."""
        if self.workload != "corpus":
            return []
        return [self.make("circle", CIRCLE_TEXT, CIRCLE_EXPECTED,
                          prefix=f"p{self.tag}_{index}_",
                          seed=self.probe_rng.randrange(1, 2 ** 31))
                for index in range(count)]

    def make(self, label, source, expected, prefix, seed):
        if self.workload != "corpus":
            # render and parse here, outside the timed op
            text = with_prefix(self.gf.render_model(source.with_options(seed=seed)), prefix)
            return OpInput(label, seed, expected, model=self.gf.parse_model(text))
        path = self.work_dir / f"{prefix}{label}.model"
        path.write_text(with_prefix(source, prefix))
        return OpInput(label, seed, expected, path=path)

    def variant(self, op, prefix):
        """``op`` under another name prefix, with the same analysis seed."""
        source = next(s for s in self.sources if s[0] == op.label)
        return self.make(*source, prefix=prefix, seed=op.seed)
