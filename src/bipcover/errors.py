"""Exception types shared across the package."""


class BipcoverError(Exception):
    """Base class for all bipcover errors."""


class InvalidArgumentError(BipcoverError, ValueError):
    """An argument violates a documented precondition."""


class FormatError(BipcoverError):
    """A text file does not conform to the expected format."""


class NotConnectedError(BipcoverError):
    """A vertex set that must induce a connected subgraph does not."""


class ConstructionInfeasibleError(BipcoverError):
    """An adversarial colouring cannot be built on this graph."""


class TooLargeError(BipcoverError):
    """Instance exceeds an exhaustive-search size guard."""


class StepFailureError(BipcoverError):
    """A construction step failed; ``step`` names it, so harnesses can
    aggregate failure modes, and the message starts with it."""

    def __init__(self, step: str, message: str):
        self.step = step
        super().__init__(f"{step}: {message}")


class PropertyFailureError(StepFailureError):
    """The input visibly lacks the structure the cover algorithm needs."""


class PartitionFailureError(StepFailureError):
    """A step of partition3 failed; ``step`` names it: ``opposite-roots``
    (both colours' heavy vertices in one part), ``base-edges`` or
    ``relink-degree`` (a bound broken by rounding at small n),
    ``sample-retry``, ``joker-retry`` or ``relink-retry`` (a retry loop
    out of budget).  Never raised after a partition has been produced:
    callers get either a valid partition or this error."""
