"""Exception types shared across the package.

Every error the package raises on bad input derives from LocalDenseError,
which the CLI turns into exit code 2 and one JSON error line.
"""


class LocalDenseError(Exception):
    """Base class for all errors raised by this package."""


class NegativeWeight(LocalDenseError):
    """An edge weight was negative or not a finite number, or the weights
    sum past the float range."""


class EmptyGraph(LocalDenseError):
    """A graph construction produced no edges."""


class SideViolation(LocalDenseError):
    """A vertex set referenced indices outside the claimed side."""


class EmptySide(LocalDenseError):
    """A density computation received an empty vertex set."""


class NegativeEntry(LocalDenseError):
    """A sparse vector entry or its norm was negative or not a finite number."""


class DomainError(LocalDenseError):
    """A numeric argument fell outside its documented domain."""


class NoCandidate(LocalDenseError):
    """No candidate subgraph could be evaluated (for example, an isolated seed)."""


class UnknownVertex(LocalDenseError):
    """A seed or planted vertex id is not present in the graph."""


class TooLarge(LocalDenseError):
    """The exact oracle was asked to enumerate a side above its cap."""


class PreconditionFailed(LocalDenseError):
    """An analysis routine's input precondition did not hold."""


class ParseError(LocalDenseError):
    """An edge-list line could not be parsed.

    Attributes:
        line: 1-based line number of the offending line.
        reason: short description of what was wrong.
    """

    def __init__(self, line, reason):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason
