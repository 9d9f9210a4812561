"""Exception types shared across the package."""


class FFIntervalsError(Exception):
    """Base class for all package-specific errors."""


class NotPrime(FFIntervalsError):
    """The given characteristic is composite."""


class OutOfRange(FFIntervalsError):
    """A numeric argument is outside its supported range."""


class CtxMismatch(FFIntervalsError):
    """Operands belong to different field contexts."""


class NotSquarefree(FFIntervalsError):
    """Operation requires a squarefree polynomial."""


class TooLarge(FFIntervalsError):
    """Enumeration guard tripped; input too large for exhaustive work."""


class ZeroInput(FFIntervalsError):
    """Operation is undefined for the zero polynomial."""


class EvenCharacteristic(FFIntervalsError):
    """Operation requires odd characteristic."""


class DerivativeVanishes(FFIntervalsError):
    """The formal derivative is identically zero."""


class ExtensionTooLarge(FFIntervalsError):
    """Splitting data would need an extension beyond the supported cap."""


class DegreeMismatch(FFIntervalsError):
    """Degrees of a class function and a polynomial disagree."""


class WeightsNotNormalized(FFIntervalsError):
    """Coset weights do not sum to one."""


class DichotomyViolation(FFIntervalsError):
    """Observed sums match neither branch of the cancellation dichotomy."""


class NoSuitableS(FFIntervalsError):
    """No admissible slope parameter exists for the demo construction."""


class ToleranceFileError(FFIntervalsError):
    """A tolerance fixtures file cannot be read or lacks a constant."""


class PolyParseError(FFIntervalsError):
    """Polynomial expression text is malformed.

    Carries ``offset``, the 0-based position of the offending character.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
