"""Exception hierarchy.

Errors derived from bad numerical configurations (degenerate inputs,
vanishing inner products, failed genericity) are distinguished from
verification failures so the CLI can map them to distinct exit codes.
"""


class LoxpairsError(Exception):
    """Base class for all library errors."""


class DegenerateInputError(LoxpairsError):
    """Input is structurally valid but numerically degenerate."""


class DimensionMismatch(LoxpairsError):
    pass


class WrongField(LoxpairsError):
    pass


class WrongDimension(LoxpairsError):
    pass


class ZeroVector(DegenerateInputError):
    pass


class NotNegativeVector(DegenerateInputError):
    pass


class NotSimilar(DegenerateInputError):
    pass


class NotIsometry(DegenerateInputError):
    pass


class PalindromeViolation(DegenerateInputError):
    pass


class NoConvergence(LoxpairsError):
    pass


class NotLoxodromic(DegenerateInputError):
    pass


class DegenerateSpectrum(DegenerateInputError):
    pass


class RealEigenvalueClass(DegenerateInputError):
    pass


class GramSchmidtBreakdown(DegenerateInputError):
    pass


class DegenerateConfiguration(DegenerateInputError):
    pass


class NotWeaklyNonsingular(DegenerateInputError):
    pass


class NotNonsingular(DegenerateInputError):
    pass


class NormalizationImpossible(DegenerateInputError):
    pass


class PatternViolation(DegenerateInputError):
    pass


class SingularBasis(DegenerateInputError):
    pass


class VerificationFailed(LoxpairsError):
    """Invariants matched but the direct conjugation check failed."""


class InconsistentProjectivePoints(DegenerateInputError):
    pass


class IncompatibleBoundary(DegenerateInputError):
    pass


class CompatibilityFailed(DegenerateInputError):
    pass


class GraphInvalid(LoxpairsError):
    pass


class GenerationExhausted(LoxpairsError):
    pass


class ParseError(DegenerateInputError):
    pass
