"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all package-specific errors."""


class GroupParseError(Error, ValueError):
    pass


class NewickParseError(Error, ValueError):
    """Syntax error in Newick input; ``position`` is a 0-based text offset."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class InvalidTreeError(Error, ValueError):
    """Structurally invalid tree (labels, valencies, leaf count, ...)."""


class FlowError(Error, ValueError):
    """Leaf values of the wrong count, outside the group, or not summing to
    zero."""


class BinomialError(Error, ValueError):
    """Flow multisets do not project to equal per-edge multisets."""

    def __init__(self, message: str, edge: int | None = None):
        super().__init__(message)
        self.edge = edge


class LatticeError(Error, ValueError):
    """A lattice vector or matrix of a shape the lattice routines refuse."""


class FlowCapExceeded(Error, RuntimeError):
    """The flow enumeration would exceed the configured cap."""


class InternalError(Error, RuntimeError):
    """An internal invariant of the construction does not hold (a bug)."""
