"""First-in first-out (round robin) replacement.

FIFO evicts the block that has been resident longest, regardless of hits.
Implemented as a queue of ways; hits leave the state untouched, which is
exactly what makes FIFO a permutation policy with identity hit
permutations.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.policies.base import ReplacementPolicy
from repro.policies.registry import register


@register(tags=("default-eval", "default-predictability"))
class FifoPolicy(ReplacementPolicy):
    """Evict in insertion order; hits do not update state."""

    NAME = "fifo"

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        # _queue[0] is the next victim; the most recently filled way is last.
        self._queue = list(range(ways))

    def touch(self, way: int) -> None:
        if not 0 <= way < self.ways:
            self._check_way(way)

    def evict(self) -> int:
        return self._queue[0]

    def fill(self, way: int) -> None:
        if not 0 <= way < self.ways:
            self._check_way(way)
        self._queue.remove(way)
        self._queue.append(way)

    def reset(self) -> None:
        self._queue = list(range(self.ways))

    def state_key(self) -> Hashable:
        return tuple(self._queue)

    def load_state(self, key: Hashable) -> None:
        self._queue = list(key)

    def clone(self) -> "FifoPolicy":
        copy = FifoPolicy(self.ways)
        copy._queue = list(self._queue)
        return copy
