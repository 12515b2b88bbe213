"""Event counters for caches and hierarchies."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """Counters accumulated by one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    fills: int = 0
    invalidations: int = 0

    @property
    def miss_ratio(self) -> float:
        """Misses per access (0.0 when no accesses happened)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_ratio(self) -> float:
        """Hits per access (0.0 when no accesses happened)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        """Zero all counters."""
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.fills = 0
        self.invalidations = 0

    def snapshot(self) -> "CacheStats":
        """Return an independent copy of the current counters."""
        return CacheStats(
            accesses=self.accesses,
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            fills=self.fills,
            invalidations=self.invalidations,
        )

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Return the counter difference ``self - earlier``."""
        return CacheStats(
            accesses=self.accesses - earlier.accesses,
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            fills=self.fills - earlier.fills,
            invalidations=self.invalidations - earlier.invalidations,
        )

    def advance(self, delta: "CacheStats") -> None:
        """Add the counts of ``delta`` (a :meth:`delta` result) in place."""
        self.accesses += delta.accesses
        self.hits += delta.hits
        self.misses += delta.misses
        self.evictions += delta.evictions
        self.fills += delta.fills
        self.invalidations += delta.invalidations


@dataclass
class HierarchyStats:
    """Per-level stats plus memory traffic for a hierarchy."""

    levels: dict[str, CacheStats] = field(default_factory=dict)
    memory_accesses: int = 0

    def reset(self) -> None:
        """Zero all per-level counters and the memory counter."""
        for stats in self.levels.values():
            stats.reset()
        self.memory_accesses = 0
