"""Exception types shared across the package."""


class AtsepError(Exception):
    """Base class for all package errors."""


class BadVertexId(AtsepError):
    pass


class BadBeta(AtsepError):
    """Balance parameter outside the open interval (1/2, 1)."""


class SelfLoop(AtsepError):
    pass


class DuplicateEdge(AtsepError):
    pass


class Overflow(AtsepError):
    pass


class Disconnected(AtsepError):
    """Some vertex is unreachable from the BFS root; ``reached`` counts
    the vertices that are, the root among them."""

    def __init__(self, reached: int, n: int, root: int):
        self.reached, self.n, self.root = int(reached), n, root
        super().__init__(self.message(root))

    def message(self, root_id) -> str:
        """The error's text with the root called ``root_id``."""
        return f"only {self.reached} of {self.n} vertices reachable from {root_id}"


class EmptyTerminals(AtsepError):
    pass


class EmptyTree(AtsepError):
    pass


class ZeroTotalWeight(AtsepError):
    pass


class RepairCapExceeded(AtsepError):
    """Separator repair loop hit its iteration cap; indicates a bug."""


class NotPlanar(AtsepError):
    pass


class TooLarge(AtsepError):
    pass


class Infeasible(AtsepError):
    pass


class ParseError(AtsepError):
    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no
