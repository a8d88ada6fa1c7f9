"""Exception types shared across the package."""


class PcmError(ValueError):
    """Base class for matrix validation failures."""


class NotSquareError(PcmError):
    pass


class NonPositiveEntryError(PcmError):
    """Entry (i, j) is not a positive finite real; i and j are 0-based, the message 1-based."""

    def __init__(self, i: int, j: int, value: float):
        self.i = i
        self.j = j
        self.value = value
        super().__init__(f"entry (1-based) ({i + 1}, {j + 1}) = {value!r} "
                         "is not a positive finite real")


class ReciprocityViolationError(PcmError):
    """a_ij * a_ji deviates from 1 beyond tolerance; i and j are 0-based, the message 1-based."""

    def __init__(self, i: int, j: int, product: float):
        self.i = i
        self.j = j
        self.product = product
        super().__init__(f"entries (1-based) ({i + 1}, {j + 1}) and ({j + 1}, {i + 1}) multiply "
                         f"to {product!r}, expected 1; write exact ratios as p/q (1/7, not 0.1429)")


class InvalidCaseError(PcmError):
    """A structure or generator spec that describes no valid case."""


class PotentialRangeError(PcmError):
    """A value the classification or the closed forms need lies beyond the float range.

    Either a repair the classification tries needs a potential, base ratio
    or factor that no float holds, or no closed-form eigenvector variant of
    a structure is positive and finite in floats.
    """


class NoConvergenceError(RuntimeError):
    """Power iteration failed to reach the residual tolerance."""

    def __init__(self, max_iter: int, residual: float):
        self.max_iter = max_iter
        self.residual = residual
        super().__init__(f"no convergence after {max_iter} iterations (residual {residual:.3e})")


class RootNotBracketedError(RuntimeError):
    """Upper bound computation failed to bracket the dominant root."""


class ImprovementFailedError(RuntimeError):
    """Scaling the sink of an inefficiency certificate did not dominate in floats."""


class HypothesisViolatedError(ValueError):
    """Sample does not satisfy the precondition of the requested check."""


class ParseError(ValueError):
    """Matrix file could not be parsed."""

    def __init__(self, message: str, line: int, column: int = 1):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")
