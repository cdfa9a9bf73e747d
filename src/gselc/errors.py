"""Exception types shared across the package."""


class GselcError(Exception):
    """Base class for all errors raised by this package."""


class SelfLoopError(GselcError, ValueError):
    """An operation would create or touch a self-loop."""


class VertexRangeError(GselcError, IndexError):
    """A vertex or qubit index is outside the valid range."""


class NotAnEdgeError(GselcError, ValueError):
    """Edge local complementation requested on a non-edge."""


class TooSmallError(GselcError, ValueError):
    """A constructor was given a size below its minimum."""


class GraphFormatError(GselcError, ValueError):
    """Graph JSON failed validation (self-loop, duplicate, bad index)."""


class SizeMismatchError(GselcError, ValueError):
    """Two state vectors live on different qubit counts."""


class BadArityError(GselcError, ValueError):
    """A gate was built with the wrong number of targets."""


class TooManyQubitsError(GselcError, ValueError):
    """A dense state would exceed the configured qubit cap."""


class OddChainError(GselcError, ValueError):
    """Logical chain construction requires an even qubit count."""
