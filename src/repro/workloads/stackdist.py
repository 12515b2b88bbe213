"""Model-driven trace generation by stack distance.

The *stack distance* (LRU reuse distance) of an access is the number of
distinct lines touched since the previous access to the same line (∞ for
first touches).  The histogram of stack distances fully determines the
LRU miss ratio at every cache size, which makes it a knob for generating
traces with a wanted locality profile — our replacement for proprietary
benchmark traces.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence

from repro.errors import ConfigurationError
from repro.util.rng import SeededRng
from repro.workloads.trace import Trace

INFINITE = -1  # the stack distance of a first touch


class StackDistanceModel:
    """Generate traces whose stack distances follow a given profile.

    The model draws a stack distance from a weighted distribution for
    each access and touches the line currently at that depth of an LRU
    stack (or a brand-new line for the ∞ bucket).  The resulting trace
    reproduces the requested reuse profile under LRU by construction and
    exercises other policies with realistic locality.
    """

    def __init__(
        self,
        distance_weights: Sequence[tuple[int, float]],
        new_line_weight: float,
        seed: int = 0,
    ) -> None:
        if new_line_weight < 0 or any(w < 0 for _, w in distance_weights):
            raise ConfigurationError("weights must be non-negative")
        total = new_line_weight + sum(w for _, w in distance_weights)
        if total <= 0:
            raise ConfigurationError("at least one weight must be positive")
        self._choices: list[int] = [INFINITE]
        self._cumulative: list[float] = [new_line_weight / total]
        running = self._cumulative[0]
        for distance, weight in distance_weights:
            if distance < 0:
                raise ConfigurationError("distances must be non-negative")
            running += weight / total
            self._choices.append(distance)
            self._cumulative.append(running)
        self._rng = SeededRng(seed)

    def _draw(self) -> int:
        # The first choice whose cumulative weight reaches the draw, or
        # the last one when rounding leaves the total just below 1.
        index = bisect_left(self._cumulative, self._rng.random())
        return self._choices[min(index, len(self._choices) - 1)]

    def generate(self, length: int, name: str = "stackdist", line_size: int = 64) -> Trace:
        """Generate a trace of ``length`` accesses.

        The LRU stack holds every line drawn so far with the most recent
        one last, so the line at depth ``d`` is ``stack[-1 - d]`` and an
        access moves only the ``d`` lines above it.  A new line is
        numbered ``len(stack)``.
        """
        if length < 1:
            raise ConfigurationError("length must be >= 1")
        stack: list[int] = []
        lines: list[int] = []
        for _ in range(length):
            distance = self._draw()
            if distance == INFINITE or distance >= len(stack):
                line = len(stack)
            else:
                line = stack.pop(-1 - distance)
            stack.append(line)
            lines.append(line)
        return Trace(name=name, addresses=tuple(line * line_size for line in lines))
