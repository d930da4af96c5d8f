"""Exception types shared across the toolkit.

Every error raised on a user-facing path derives directly from
QsynthError, so the command line layer can map failures to stable exit
codes; the section comments group the errors by layer.
"""


class QsynthError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------- table I/O

class MalformedDirective(QsynthError):
    """A dot-directive is missing, malformed, or out of order."""


class BadCube(QsynthError):
    """A cube row has the wrong width or an illegal symbol."""


class ConflictingRows(QsynthError):
    """Two fully specified rows assign different values to one output."""


# ------------------------------------------------------------ preprocessing

class SizeLimitExceeded(QsynthError):
    """A table or circuit grew past a configured hard cap."""


class NotInjective(QsynthError):
    """An operation required a one-to-one table and did not get one."""


class WidthMismatch(QsynthError):
    """Input and output widths disagree with what the operation needs."""


class EmptyInput(QsynthError):
    """No rows / no words / no bins were supplied."""


class AllZero(QsynthError):
    """Every value is zero: a would-be distribution's bins, or the words
    that factor normalization would divide by their largest."""


class NotPowerOfTwo(QsynthError):
    """A bin count must be a power of two and is not."""


# ---------------------------------------------------------------- synthesis

class NotComplete(QsynthError):
    """The truth table does not define every input pattern."""


class NotSquare(QsynthError):
    """The truth table is not square (input width != output width)."""


class NotBijective(QsynthError):
    """The truth table is not a permutation of its domain."""


class NoPivot(QsynthError):
    """No admissible pivot column exists for a spectral synthesis step."""


class ValueOutOfRange(QsynthError):
    """A stored angle fell outside [0, 2*pi)."""


class NotNormalized(QsynthError):
    """A distribution has a negative bin or does not sum to one."""


class NoSymmetry(QsynthError):
    """The requested symmetry is absent from the value tree."""


# --------------------------------------------------------------- simulation

class NonClassicalGate(QsynthError):
    """Reversible simulation met a gate outside the X family."""


class TooManyQubits(QsynthError):
    """Dense statevector simulation refuses circuits this wide."""


class NonConvergent(QsynthError):
    """Shot calibration hit its cap without meeting the threshold."""


# ------------------------------------------------------------------ emission

class UnsupportedGateForGateset(QsynthError):
    """A gate cannot be expressed in the requested output gate set."""


class UnsupportedStatement(QsynthError):
    """The parser met a statement outside the supported subset."""


# -------------------------------------------------------------- applications

class NoSolutions(QsynthError):
    """The search predicate marks no basis state."""


class AllSolutions(QsynthError):
    """The search predicate marks every basis state."""


class VerificationFailed(QsynthError):
    """A circuit did not reproduce its source function."""
