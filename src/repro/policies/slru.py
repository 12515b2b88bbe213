"""Segmented LRU (SLRU).

The set is split into a *probationary* and a *protected* segment, each
ordered by recency:

* new blocks enter at the MRU end of the probationary segment;
* a hit promotes the block to the MRU end of the protected segment,
  demoting the protected LRU block back to probationary MRU if the
  protected segment would exceed its capacity;
* the victim is the probationary LRU block (protected blocks are only
  evicted when the probationary segment is empty).

One access therefore separates "seen once" from "reused" data, which
gives SLRU scan resistance similar in spirit to the QLRU family while
staying purely recency-based.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.errors import ConfigurationError
from repro.policies.base import ReplacementPolicy
from repro.policies.registry import register


@register
class SlruPolicy(ReplacementPolicy):
    """Segmented LRU with a configurable protected-segment capacity."""

    NAME = "slru"

    def __init__(self, ways: int, protected_ways: int | None = None) -> None:
        super().__init__(ways)
        if protected_ways is None:
            protected_ways = ways // 2
        if not 0 <= protected_ways < ways:
            raise ConfigurationError(
                f"protected_ways must be in [0, ways), got {protected_ways}"
            )
        self.protected_ways = protected_ways
        # Both lists are MRU-first; together they partition all ways.
        self._probationary = list(range(ways))
        self._protected: list[int] = []

    def _promote(self, way: int) -> None:
        if way in self._protected:
            self._protected.remove(way)
        else:
            self._probationary.remove(way)
        self._protected.insert(0, way)
        while len(self._protected) > self.protected_ways:
            demoted = self._protected.pop()
            self._probationary.insert(0, demoted)

    def touch(self, way: int) -> None:
        self._check_way(way)
        self._promote(way)

    def evict(self) -> int:
        if self._probationary:
            return self._probationary[-1]
        return self._protected[-1]

    def fill(self, way: int) -> None:
        self._check_way(way)
        if way in self._protected:
            self._protected.remove(way)
        else:
            self._probationary.remove(way)
        self._probationary.insert(0, way)

    def reset(self) -> None:
        self._probationary = list(range(self.ways))
        self._protected = []

    def state_key(self) -> Hashable:
        return (tuple(self._probationary), tuple(self._protected))

    def load_state(self, key: Hashable) -> None:
        probationary, protected = key
        self._probationary = list(probationary)
        self._protected = list(protected)

    def clone(self) -> "SlruPolicy":
        copy = SlruPolicy(self.ways, protected_ways=self.protected_ways)
        copy._probationary = list(self._probationary)
        copy._protected = list(self._protected)
        return copy
