"""Exception types shared across the library."""


class CheegerAtlasError(Exception):
    """Base class for all library errors."""


class DegenerateInput(CheegerAtlasError):
    """Input does not span a 2-dimensional region (collinear, too few points...)."""


class InvalidParam(CheegerAtlasError):
    """A shape parameter violates its admissible range."""


class Unsupported(CheegerAtlasError):
    """Requested closed form does not exist for this family."""


class Unreachable(CheegerAtlasError):
    """A parameter solve cannot reach the requested target value."""


class DomainError(CheegerAtlasError):
    """Arguments violate a formula's domain."""


class NoConvergence(CheegerAtlasError):
    """An iterative solve ran out of its step budget."""


class PolygonJsonError(CheegerAtlasError):
    """Structured rejection of a polygon JSON document.

    Carries a machine-readable ``code`` next to the human message; no
    line/column information is attached.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message

    def __reduce__(self):  # both arguments: ``parallel_map`` sends a block's exception pickled
        return type(self), (self.code, self.message)
