"""Exception types shared across the toolkit."""


class BgftError(Exception):
    """Base class for all toolkit errors."""


class DefectiveMatrixError(BgftError):
    """Matrix is numerically non-diagonalizable, or its eigenvector matrix V
    is too ill-conditioned to use (numerically singular, or its inverse
    fails the dual residual, as dgeev's V of a diagonalizable birth-death
    chain can): no reliable biorthogonal basis."""


class SinkNodeError(BgftError):
    """A node has out-degree zero, so no transition operator exists."""

    def __init__(self, node):
        self.node = node
        super().__init__(
            f"Found sink node (out-degree 0) at node {node}. "
            "Fix by adding small outgoing weight."
        )


class NotIrreducibleError(BgftError):
    """The chain has no unique positive stationary distribution."""


class InvalidSizeError(BgftError):
    """A size parameter is outside its allowed range."""


class InvalidNodeError(BgftError):
    """A node index is out of range or otherwise invalid."""


class EdgeListParseError(BgftError):
    """A graph file could not be parsed."""

    def __init__(self, path, line_number, message):
        self.path = path
        self.line_number = line_number
        super().__init__(f"{path}:{line_number}: {message}")


class RankDeficientError(BgftError):
    """The sampling matrix has numerically deficient column rank."""
