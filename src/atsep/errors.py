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
    pass


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
