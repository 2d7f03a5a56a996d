"""Exception types shared across the library."""


class MatpiError(ValueError):
    """Base class for all errors raised by this library."""


class RingMismatchError(MatpiError):
    """Operands live over different coefficient rings."""


class UnsupportedRingError(MatpiError):
    """The operation requires a field (or another ring kind than given)."""


class DimensionError(MatpiError):
    """Matrix or block dimensions are incompatible with the operation."""


class CharacteristicError(MatpiError):
    """The field characteristic is too small for the requested method."""


class DegreeGuardError(MatpiError):
    """A degree/size guard was exceeded (t too large for the evaluator)."""


class NotBlockTriangularError(MatpiError):
    """A matrix has a nonzero entry below the block diagonal of a shape."""


class ContractViolationError(MatpiError):
    """An internal consistency condition failed; indicates a broken input
    (e.g. a span that is not multiplicatively closed) rather than a bug in
    the caller's arguments."""


class SpecFileError(MatpiError):
    """An algebra spec file failed to parse or validate.

    ``field`` names the offending entry, e.g. ``source.generators[0][1][0]``.
    """

    def __init__(self, field: str, problem: str):
        self.field = field
        self.problem = problem
        super().__init__(f"{field}: {problem}")
