"""Exception hierarchy shared across the package."""


class GraphPopError(Exception):
    """Base class for all library errors.

    Errors pickle with their type, message and attributes (``position``,
    ``line``, ``field``), so one raised in a study's worker process reaches the
    caller as itself. The default pickling would call ``__init__`` again with
    the message alone, which the formatting constructors below do not accept.
    """

    def __reduce__(self):
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls, args, attributes):
    err = cls.__new__(cls, *args)
    err.__dict__.update(attributes)
    return err


class NonSymmetricError(GraphPopError):
    def __init__(self, i, j):
        self.position = (i, j)
        super().__init__(f"adjacency matrix is not symmetric at ({i}, {j})")


class NonBinaryEntryError(GraphPopError):
    def __init__(self, i, j, value):
        self.position = (i, j)
        super().__init__(f"adjacency entry ({i}, {j}) is {value!r}, expected 0 or 1")


class NonZeroDiagonalError(GraphPopError):
    def __init__(self, i):
        self.position = (i, i)
        super().__init__(f"adjacency diagonal entry ({i}, {i}) is nonzero")


class SpaceTooLargeError(GraphPopError):
    def __init__(self, n_vertices, limit):
        super().__init__(
            f"graph space for N={n_vertices} has 2^{n_vertices * (n_vertices - 1) // 2} "
            f"elements; exhaustive operations require N <= {limit}"
        )


class InvalidSpecError(GraphPopError):
    pass


class EmptyPopulationError(GraphPopError):
    pass


class SizeMismatchError(GraphPopError):
    def __init__(self, n1, n2):
        super().__init__(f"graphs live on different vertex sets: N={n1} vs N={n2}")


class EigDecompositionFailureError(GraphPopError):
    pass


class DomainError(GraphPopError):
    pass


class InternalInconsistencyError(GraphPopError):
    pass


class StepTooLargeError(GraphPopError):
    def __init__(self, upsilon, width):
        super().__init__(
            f"random-walk step bound {upsilon} must be smaller than the interval "
            f"width {width} for a single reflection to suffice"
        )


class EmptyTraceError(GraphPopError):
    pass


class NonFiniteLogRatioError(GraphPopError):
    pass


class TooFewObservationsError(GraphPopError):
    pass


class IndivisiblePopulationError(GraphPopError):
    def __init__(self, n, k):
        super().__init__(f"population of size {n} cannot be split into {k} equal subsets")


class ParseError(GraphPopError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SchemaError(GraphPopError):
    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"field {field!r}: {message}"
        super().__init__(message)


class ConfigError(GraphPopError):
    pass
