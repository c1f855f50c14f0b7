"""Exception hierarchy.

Errors derived from bad numerical configurations (degenerate inputs,
vanishing inner products, failed genericity) are distinguished from
verification failures so the CLI can map them to distinct exit codes.
The CLI tells apart three classes: VerificationFailed (exit 3),
DegenerateInputError (exit 2) and any other LoxpairsError (exit 2).
The subclasses below name the stage that failed for the tests and
reports that tell them apart; any other failure raises one of the
three with its own message.
"""


class LoxpairsError(Exception):
    """Base class for all library errors."""


class DegenerateInputError(LoxpairsError):
    """Input is structurally valid but numerically degenerate."""


class WrongField(LoxpairsError):
    pass


class WrongDimension(LoxpairsError):
    pass


class NotIsometry(DegenerateInputError):
    pass


class PalindromeViolation(DegenerateInputError):
    pass


class NoConvergence(DegenerateInputError):
    pass


class NotLoxodromic(DegenerateInputError):
    pass


class DegenerateSpectrum(DegenerateInputError):
    pass


class RealEigenvalueClass(DegenerateInputError):
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


class VerificationFailed(LoxpairsError):
    """Invariants matched but the direct conjugation check failed."""


class InconsistentProjectivePoints(DegenerateInputError):
    pass


class GraphInvalid(LoxpairsError):
    pass


class ParseError(DegenerateInputError):
    pass
