"""Exception hierarchy for the constraint analysis engine.

Every error that carries algebraic evidence (a witness expression, a
sample point) stores it on the exception so reports can surface it
without re-deriving anything.  A source position is written by
:class:`GaugeflowError` alone: the model and expression parsers pass it
as ``line`` and ``column`` arguments, never as message text.
"""

from __future__ import annotations


class GaugeflowError(Exception):
    """Base class for all engine errors.

    A positioned error ends its message in ``(line L)`` or ``(line L,
    column C)``, both 1-based; ``line`` and ``column`` are 0 when absent.
    """

    def __init__(self, message, line=0, column=0):
        if line:
            message += f" (line {line}, column {column})" if column else f" (line {line})"
        super().__init__(message)
        self.line = line
        self.column = column


# --- expression kernel ------------------------------------------------------

class ExpressionError(GaugeflowError):
    pass


class MomentumInTimeDerivative(ExpressionError):
    """A total time derivative was requested for an expression that
    mentions momenta or multipliers, which live on phase space and have
    no jet successors."""


class DenominatorViolation(ExpressionError):
    """An operation produced a denominator mentioning anything other
    than order-0 coordinate variables."""


class DivisionByZero(ExpressionError):
    """Division by an expression that is identically zero, or evaluation
    at a point where a denominator vanishes."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed expression text; carries 1-based line and column."""


# --- model layer ------------------------------------------------------------

class ModelError(GaugeflowError):
    pass


class ModelSyntaxError(ModelError):
    """Structural problem in a model file (bad section, bad option...)."""


class UnknownSymbol(ModelError):
    pass


class NonPolynomialLagrangian(ModelError):
    pass


class IndexOutOfRange(ModelError):
    pass


class DuplicateCoordinate(ModelError):
    pass


class MalformedGenerator(ModelError):
    pass


class UnknownBuiltin(ModelError):
    pass


class BadParameter(ModelError):
    pass


# --- legendre stage ---------------------------------------------------------

class LegendreError(GaugeflowError):
    pass


class NonQuadraticVelocity(LegendreError):
    """The Lagrangian is more than quadratic in velocities; linear
    momentum inversion does not apply."""


# --- consistency algorithm --------------------------------------------------

class DiracError(GaugeflowError):
    pass


class InconsistentLagrangian(DiracError):
    """A consistency condition reduced to a nonzero constant.

    ``partial`` carries the (inconsistent) result assembled so far, with
    the witness attached.
    """

    def __init__(self, witness, constraint, partial):
        super().__init__(f"consistency condition reduces to the nonzero constant {witness}")
        self.witness = witness
        self.constraint = constraint
        self.partial = partial


class GenerationLimitExceeded(DiracError):
    def __init__(self, limit):
        super().__init__(f"no fixpoint after {limit} generations")
        self.limit = limit


class OddSecondClassCount(DiracError):
    def __init__(self, count):
        super().__init__(f"second-class constraint count {count} is odd; rank anomaly")
        self.count = count


class SurfaceSamplingFailed(DiracError):
    """Could not construct enough valid points on the constraint surface."""


# --- gauge identities and the single-step rule ------------------------------

class GaugeError(GaugeflowError):
    pass


class IdentityViolated(GaugeError):
    """A declared gauge generator does not annihilate the equations of
    motion; the single-step constraint rule must not be applied."""

    def __init__(self, report):
        bad = [name for name, residue in report.residues if not residue.is_zero()]
        super().__init__(f"gauge identity violated for generator(s): {', '.join(bad)}")
        self.report = report


class SamplingDegenerate(GaugeError):
    """A sampled rank could not be computed: every sampled point is a
    pole of the matrix (for example the generator columns)."""


class ConjectureInapplicable(GaugeError):
    """A generator couples a differentiated gauge parameter to a
    coordinate whose momentum does not vanish identically; the
    single-step rule is not defined for such models."""


class DegenerateGenerator(GaugeError):
    """The momentum contraction of a generator is identically zero."""
