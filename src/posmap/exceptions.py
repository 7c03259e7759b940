"""Exception hierarchy for the posmap package.

A :class:`PosmapError` is about the input: it is malformed or degenerate, or
it has no answer to the question asked.  A LAPACK routine that fails raises
:class:`numpy.linalg.LinAlgError`, which posmap never translates.
"""


class PosmapError(Exception):
    """Base class for all errors raised by posmap."""


class NotSquareError(PosmapError):
    """A matrix that must be square is not."""


class DimensionMismatchError(PosmapError):
    """Operand shapes are incompatible with the requested operation."""


class NonFiniteError(PosmapError):
    """A matrix holds NaN or infinite entries, or its norm overflows."""


class NotHermitianError(PosmapError):
    """Hermiticity defect exceeds the allowed tolerance."""


class NotPSDError(PosmapError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class SingularMatrixError(PosmapError):
    """A matrix that must be inverted is singular at ``matkernel.RANK_TOL``."""


class NotInFaceFormError(PosmapError):
    """The Choi matrix violates the zero pattern of the normalized face form.

    ``offenders`` lists ``(row, col, magnitude)`` for the violating entries.
    """

    def __init__(self, message, offenders=()):
        super().__init__(message)
        self.offenders = list(offenders)


class NotUnitalFaceFormError(PosmapError):
    """Blocks do not describe a unital face-form map (a = 1, C = 0, x = 0, B + U = I)."""


class BadParamsError(PosmapError):
    """Parameters lie outside their admissible region."""


class BadScalarsError(PosmapError):
    """Scalars are not finite, or (p, q, s) violate p, q >= 0 or |s|^2 <= p*q."""


class NotDependentError(PosmapError):
    """The row vectors Y and Z are not linearly dependent."""


class ZeroPatternViolationError(PosmapError):
    """A canonical form does not rebuild its input, or misses u = (|y| + |z|)^2.

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
