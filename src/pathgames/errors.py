"""Exception hierarchy shared across the library.

Three families matter to callers: data/format problems, violated solver
preconditions, and internal consistency failures that signal a bug in this
library rather than in the input.
"""

from __future__ import annotations


class PathgamesError(Exception):
    """Base class for all library errors."""


class GameFormatError(PathgamesError):
    """A game file or payload could not be parsed."""


class PreconditionError(PathgamesError):
    """A documented precondition of an operation does not hold."""


class NotSymmetric(PreconditionError):
    """The graph is not edge-symmetric."""


class NotPositive(PreconditionError):
    """Some edge cost is not strictly positive for some player."""


class NonPositiveCycle(PreconditionError):
    """A directed cycle has a non-positive cost sum for some player: ``cycle``,
    listed from its smallest vertex, not necessarily of minimum mean."""

    def __init__(self, player: int, cycle: tuple[int, ...]):
        self.player = player
        self.cycle = cycle
        super().__init__(
            f"cycle {list(cycle)} has non-positive cost sum for player {player}"
        )


class CIWViolated(PreconditionError):
    """Some terminal is not strictly better than the infinite play.

    ``pairs`` lists the offending (player, terminal) combinations; a terminal
    of ``None`` flags a nonzero infinite-play cost for that player.
    """

    def __init__(self, pairs: list[tuple[int, int | None]]):
        self.pairs = pairs
        super().__init__(f"infinite-play preference violations: {pairs}")


class ConditionViolated(PreconditionError):
    """A named solver precondition (TWO, SYM or CIW) fails."""

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        msg = f"condition {condition} violated"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class Unreachable(PreconditionError):
    """No terminal is reachable from the requested start vertex."""


class ZeroSumMixedCycle(PathgamesError):
    """A play ends in a zero-sum cycle carrying nonzero edge costs.

    The total-cost value of such a play is deliberately left undefined.
    """

    def __init__(self, player: int, cycle: tuple[int, ...]):
        self.player = player
        self.cycle = cycle
        super().__init__(
            f"cycle {list(cycle)} sums to zero for player {player} "
            "but has nonzero edges; play value undefined"
        )


class TooLarge(PathgamesError):
    """An exhaustive enumeration would exceed the configured cap."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"enumeration of {count} items exceeds cap {cap}")


class InternalCheckFailed(PathgamesError):
    """Base for runtime self-check failures; these indicate library bugs."""


class VerificationFailed(InternalCheckFailed):
    """A constructed object failed its post-construction verification."""


class MeasureNotDecreased(InternalCheckFailed):
    """A path-improvement step failed to shrink its termination measure."""


class PotentialNotDecreased(InternalCheckFailed):
    """An improvement step failed to shrink the termination potential."""
