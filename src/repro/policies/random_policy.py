"""Uniform random replacement."""

from __future__ import annotations

from repro.policies.base import ReplacementPolicy
from repro.policies.registry import register
from repro.util.rng import SeededRng


@register(rng=True, tags=("default-eval",))
class RandomPolicy(ReplacementPolicy):
    """Evict a uniformly random way; hits and fills keep no state."""

    NAME = "random"
    DETERMINISTIC = False

    def __init__(self, ways: int, rng: SeededRng | None = None) -> None:
        super().__init__(ways)
        self._rng = rng if rng is not None else SeededRng(0)

    def touch(self, way: int) -> None:
        if not 0 <= way < self.ways:
            self._check_way(way)

    def evict(self) -> int:
        return self._rng.randrange(self.ways)

    def fill(self, way: int) -> None:
        if not 0 <= way < self.ways:
            self._check_way(way)

    def reset(self) -> None:
        """Random replacement is stateless; nothing to reset."""

    def state_key(self) -> None:
        return None

    def clone(self) -> "RandomPolicy":
        return RandomPolicy(self.ways, rng=self._rng)
