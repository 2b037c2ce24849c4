"""Exact constraint analysis for finite-dimensional singular Lagrangians.

The package derives all phase-space constraints of a model twice, with
exact rational arithmetic throughout: once by the generational
consistency algorithm (primaries from the momentum definitions, then
brackets with the total Hamiltonian until a fixpoint), and once by a
single-step rule that contracts conjugate momenta with the model's
declared gauge generators.  A span comparison on the canonical sector
then proves or refutes that both routes cut the same surface.
"""

from .catalog import BUILTIN_MODELS, builtin_model
from .compare import (
    AnalysisReport,
    Diagnostic,
    SpanCheck,
    build_report,
    span_equivalent,
)
from .dirac import (
    Constraint,
    Contradiction,
    DiracResult,
    Identity,
    MultiplierFixed,
    NewConstraint,
    classify,
    consistency_step,
    poisson_bracket,
    run_dirac,
    total_hamiltonian,
)
from .expr import (
    Expression,
    Kind,
    VarRef,
    canonicalize,
    coordinate,
    esum,
    multiplier,
)
from .legendre import LegendreResult, compute_momenta, primary_constraints
from .model import (
    CoordinateDecl,
    GaugeGenerator,
    GeneratorComponent,
    ModelSpec,
    Options,
    parse_model,
    render_model,
)
from .noether import (
    NoetherReport,
    conjecture_constraints,
    euler_lagrange,
    independence_check,
    noether_identity_check,
)
from .parse import parse_expression, render_expression
from .reduction import WeakReducer, weak_zero_numeric

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
