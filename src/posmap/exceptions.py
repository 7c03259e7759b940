"""Exception hierarchy for the posmap package."""


class PosmapError(Exception):
    """Base class for all errors raised by posmap."""


class NotSquareError(PosmapError):
    """A matrix that must be square is not."""


class DimensionMismatchError(PosmapError):
    """Operand shapes are incompatible with the requested operation."""


class NonFiniteError(PosmapError):
    """A matrix holds NaN or infinite entries."""


class NotHermitianError(PosmapError):
    """Hermiticity defect exceeds the allowed tolerance."""


class NotPSDError(PosmapError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class SingularMatrixError(PosmapError):
    """A matrix required to be invertible is singular at the working tolerance."""


class NoConvergenceError(PosmapError):
    """An iterative routine hit its iteration cap or failed a residual check."""


class NotInFaceFormError(PosmapError):
    """The Choi matrix violates the zero pattern of the normalized face form.

    ``offenders`` lists ``(row, col, magnitude)`` for the violating entries.
    """

    def __init__(self, message, offenders=()):
        super().__init__(message)
        self.offenders = list(offenders)


class NotUnitalFaceFormError(PosmapError):
    """Blocks do not describe a unital face-form map (a = 1, C = 0, x = 0)."""


class BadParamsError(PosmapError):
    """Parameters lie outside their admissible region."""


class BadScalarsError(PosmapError):
    """Scalars (p, q, s) violate p, q >= 0 or |s|^2 <= p*q."""


class SingularBlockError(PosmapError):
    """A block that the operation must invert is singular."""


class NotDependentError(PosmapError):
    """The row vectors Y and Z are not linearly dependent."""


class ZeroPatternViolationError(PosmapError):
    """A canonical form's forced zeros are violated beyond tolerance.

    ``residual`` is the largest offending magnitude.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotUnitVectorError(PosmapError):
    """A vector required to have unit norm does not."""


class InvalidCertificateError(PosmapError):
    """A decomposition certificate fails independent re-validation."""


class ParseError(PosmapError):
    """Input file or object does not match the matrix JSON schema."""
