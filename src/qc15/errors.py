"""Exception hierarchy shared across the package."""


class QC15Error(Exception):
    """Base class for all qc15-specific errors."""


class FieldMismatch(QC15Error, ValueError):
    """Operands belong to prime fields with different moduli."""


class RingMismatch(QC15Error, ValueError):
    """Operands belong to quotient rings of different co-length or field."""


class DivisionByZero(QC15Error, ZeroDivisionError):
    """Inversion of zero or division by the zero polynomial."""


class NotCoprime(QC15Error, ValueError):
    """The co-index parameter m shares a factor with the field size."""


class NoNonzeroCoset(QC15Error, ValueError):
    """m = 1 leaves no nonzero cyclotomic coset to take a minimum over."""


class NotADivisor(QC15Error, ValueError):
    """Exact polynomial division requested but the remainder is nonzero."""


class DimensionMismatch(QC15Error, ValueError):
    """Message length does not match the code dimension."""


class EnumerationTooLarge(QC15Error, RuntimeError):
    """An exhaustive enumeration would exceed the configured ceiling."""


class ZeroCode(QC15Error, ValueError):
    """Minimum distance is undefined for the zero code."""


class EmptyTrialSet(QC15Error, ValueError):
    """A Monte-Carlo estimate was requested with zero trials."""


class DomainError(QC15Error, ValueError):
    """Argument outside the mathematical domain of an analytic function."""


class BoundOverflow(DomainError):
    """An analytic bound is finite but larger than the largest float."""
