"""Exception types shared across the package, and how a value their
messages name is printed."""


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


def digit_count(n: int) -> int:
    """Decimal digits of ``n`` >= 1, without converting it to a string."""
    d = max(1, n.bit_length() * 3 // 10)  # 0.3 < log10(2): a lower bound
    while 10 ** d <= n:
        d += 1
    return d


def as_text(value: object) -> str:
    """``str(value)`` for a message.  Where that fails on an int past
    Python's int-to-string digit limit, the int, at any depth of tuples and
    lists, is shown by its digit count; any other value that cannot be
    printed is shown by its type."""
    try:
        return str(value)
    except ValueError:
        if isinstance(value, int):
            return f"<int of {digit_count(abs(value))} digits>"
        if not isinstance(value, (tuple, list)):
            return f"<{type(value).__name__} that does not print>"
    inner = ", ".join(map(as_text, value))
    if isinstance(value, list):
        return f"[{inner}]"
    return f"({inner},)" if len(value) == 1 else f"({inner})"
