"""Simulated performance counters.

A :class:`CounterBank` exposes the per-level event counts of a cache
hierarchy the way ``perf`` exposes ``MEM_LOAD_RETIRED.*`` events: monotone
counters that can be sampled before and after a code region.  Counter
noise (spurious events) is added by the platform at access time, so a
noisy counter is indistinguishable from the real thing to the inference
algorithms.
"""

from __future__ import annotations

from repro.cache.hierarchy import CacheHierarchy
from repro.errors import MeasurementError

EVENTS = ("access", "hit", "miss")

#: The :class:`~repro.cache.stats.CacheStats` attribute behind each event.
_ATTRIBUTES = {"access": "accesses", "hit": "hits", "miss": "misses"}


class CounterBank:
    """Monotone per-level event counters over a hierarchy."""

    def __init__(self, hierarchy: CacheHierarchy) -> None:
        # Level name -> the level's live statistics: the hierarchy resets
        # and advances these objects in place, so a read is one lookup.
        self._stats = hierarchy.stats.levels
        # Spurious event counts injected by the platform's noise model.
        self._spurious: dict[tuple[str, str], int] = {}

    def inject_spurious(self, level: str, event: str, count: int = 1) -> None:
        """Add ``count`` spurious events to a counter (noise injection)."""
        key = (level, event)
        self._spurious[key] = self._spurious.get(key, 0) + count

    def read(self, level: str, event: str) -> int:
        """Current value of the ``event`` counter of cache ``level``."""
        attribute = _ATTRIBUTES.get(event)
        if attribute is None:
            raise MeasurementError(f"unknown event {event!r}; known: {EVENTS}")
        stats = self._stats.get(level)
        if stats is None:
            raise MeasurementError(f"no cache level named {level!r}")
        return getattr(stats, attribute) + self._spurious.get((level, event), 0)

    def snapshot(self) -> dict[tuple[str, str], int]:
        """Sample every counter at once."""
        return {
            (level, event): self.read(level, event)
            for level in self._stats
            for event in EVENTS
        }

    def delta(self, level: str, event: str, before: dict[tuple[str, str], int]) -> int:
        """Events since ``before`` (a :meth:`snapshot` result)."""
        current = self.read(level, event)
        try:
            earlier = before[(level, event)]
        except KeyError:
            raise MeasurementError(
                f"snapshot has no ({level!r}, {event!r}) counter; "
                "was it taken on a different hierarchy?"
            ) from None
        return current - earlier
