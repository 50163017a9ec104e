"""Exception hierarchy shared by every module.

Three bases split errors the way the command line reports them: malformed
input, mathematics outside the rational-fixed-point scope, and tripped
resource guards.  Each class carries the CLI's exit code: 2, 3 and 4.
"""


class AdelicDynError(Exception):
    """Base class for all library errors."""

    exit_code = 2


class InputError(AdelicDynError):
    """Malformed or out-of-domain input (CLI exit code 2)."""


class MathDomainError(AdelicDynError):
    """Request outside the library's mathematical scope (CLI exit code 3)."""

    exit_code = 3


class ResourceLimitError(AdelicDynError):
    """A configured resource guard refused to continue (CLI exit code 4)."""

    exit_code = 4


class ParseError(InputError):
    """Text does not parse as a canonical rational, map or place."""


class ZeroDenominator(InputError):
    """A rational was requested with denominator zero."""


class ZeroInput(InputError):
    """Zero passed where a nonzero value is required."""


class NotPrime(InputError):
    """A finite place needs an integer prime; the given value is not one."""


class SingularMap(InputError):
    """Coefficients with ad - bc = 0 do not define a Moebius map."""


class PoleInput(InputError):
    """The map was evaluated at its pole x = -d/c."""


class DegeneratePoints(InputError):
    """Cross-ratio denominator vanishes (x1 = x4 or x2 = x3)."""


class NotAFixedPoint(InputError):
    """The map does not fix the supplied reference point."""


class NonIntegralTail(InputError):
    """An adele's shared tail value is not p-integral at an unlisted prime."""


class PoleAtPlace(InputError):
    """A componentwise adele step hit the pole at some place."""

    def __init__(self, place, message=None):
        self.place = place
        super().__init__(message or f"pole hit at place {place}")


class CIsZero(MathDomainError):
    """Affine maps (c = 0) are outside the fixed-point analysis scope."""


class NonRationalFixedPoints(MathDomainError):
    """The discriminant is not a rational square; fixed points leave Q."""


class NonSquareDeterminant(MathDomainError):
    """det is not a rational square, so no rescaling to det = 1 exists."""


class NotUnimodular(MathDomainError):
    """The operation requires det = 1."""


class CaseMismatch(MathDomainError):
    """The map does not satisfy the constraints of the requested family."""


class NotIndifferent(MathDomainError):
    """Siegel disks exist only around indifferent fixed points."""


class FactorizationIncomplete(ResourceLimitError):
    """Trial division left a cofactor that is not proven prime: it is
    composite, or it is at or above MR_LIMIT, where the strong test stops."""
