"""Multi-level cache hierarchies.

Models the memory-side behaviour relevant to the paper's measurements:
which levels a line lands in, when lower levels back-invalidate upper
ones, and how many accesses reach each level.  Timing is not modelled —
the reverse-engineering algorithms observe *event counts* (per-level hits
and misses), which is also what the hardware performance counters used by
the paper report.

Inclusion behaviour is configured per level (``CacheConfig.inclusion``,
describing the level's relation to the levels *above* it, i.e. closer to
the core):

* ``"inclusive"`` — the level is filled on every demand miss that passes
  through it, and evicting a line back-invalidates all upper levels
  (Intel L3 before Skylake-SP).
* ``"nine"`` — non-inclusive non-exclusive: filled on demand misses, no
  back-invalidation (typical Intel L2).
* ``"exclusive"`` — demand misses bypass the level; it is populated only
  by victims evicted from the level directly above, and a hit migrates
  the line upward, removing it locally (AMD-style victim cache; included
  for completeness of the evaluation).

Writes are write-allocate/write-back: a store dirties the line in L1 and
dirty victims are written back to the next level that holds the line (or
to memory).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.stats import HierarchyStats
from repro.errors import ConfigurationError
from repro.policies import PolicyFactory
from repro.util.rng import SeededRng


class HierarchyAccessResult(NamedTuple):
    """What one access did at every level."""

    address: int
    hit_level: str | None  # level name, or None for a memory access
    level_hits: tuple[tuple[str, bool], ...]  # (level name, hit) in walk order

    @property
    def served_by_memory(self) -> bool:
        """True when no cache level held the line."""
        return self.hit_level is None


class CacheHierarchy:
    """An ordered stack of caches, L1 first, backed by memory."""

    def __init__(
        self,
        configs: Sequence[CacheConfig],
        policies: Sequence[str | PolicyFactory],
        rng: SeededRng | None = None,
    ) -> None:
        if not configs:
            raise ConfigurationError("hierarchy needs at least one level")
        if len(configs) != len(policies):
            raise ConfigurationError("one policy per level is required")
        if configs[0].inclusion == "exclusive":
            raise ConfigurationError("the first level cannot be exclusive")
        names = [config.name for config in configs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate level names: {names}")
        rng = rng if rng is not None else SeededRng(0)
        self.levels = [
            Cache(config, policy, rng=rng.fork(config.name))
            for config, policy in zip(configs, policies)
        ]
        self.stats = HierarchyStats(
            levels={cache.name: cache.stats for cache in self.levels}
        )
        inclusion = [cache.config.inclusion for cache in self.levels]
        self._exclusive = [mode == "exclusive" for mode in inclusion]
        self._inclusive = [mode == "inclusive" for mode in inclusion]
        self._exclusive_below = self._exclusive[1:] + [False]
        # The walk stops at the first hit, so the hit index alone fixes
        # (hit level, level hits); index len(levels) is a memory access.
        names = self.level_names
        self._outcomes = [
            (name, tuple((upper, upper == name) for upper in names[: index + 1]))
            for index, name in enumerate(names)
        ] + [(None, tuple((name, False) for name in names))]
        # Memory accesses at the last flush, the base of a checkpoint's delta.
        self._memory_at_flush = 0

    @property
    def level_names(self) -> list[str]:
        """Names of the levels, L1 first."""
        return [cache.name for cache in self.levels]

    def level(self, name: str) -> Cache:
        """Return the cache level called ``name``."""
        for cache in self.levels:
            if cache.name == name:
                return cache
        raise KeyError(f"no cache level named {name!r}")

    # -- the access path ----------------------------------------------------
    def access(
        self, address: int, write: bool = False, demand: bool = True
    ) -> HierarchyAccessResult:
        """Perform one load (or store) and propagate fills and victims.

        Prefetchers pass ``demand=False``: the access moves cache state
        exactly like a load, but no demand counter changes — hardware
        ``MEM_LOAD_RETIRED``-style events count retired demand loads only.
        """
        levels = self.levels
        # Each level's (set index, tag), located once and reused by the
        # lookup, the presence check and the fill.
        located: list[tuple[int, int]] = []
        hit_index = len(levels)
        for index, cache in enumerate(levels):
            set_index, tag = place = cache.locate(address)
            located.append(place)
            if cache.touch_at(set_index, tag, write and index == 0, demand):
                hit_index = index
                break
        if hit_index == len(levels):
            if demand:
                self.stats.memory_accesses += 1
        elif self._exclusive[hit_index]:
            # Exclusive hit: the line migrates upward.
            levels[hit_index].invalidate(address)
        self._fill_upwards(located, hit_index, write=write, demand=demand)
        hit_level, level_hits = self._outcomes[hit_index]
        return HierarchyAccessResult(address, hit_level, level_hits)

    def _fill_upwards(
        self,
        located: list[tuple[int, int]],
        source_index: int,
        write: bool,
        demand: bool = True,
    ) -> None:
        """Fill the line into levels above ``source_index`` (exclusive skip).

        ``located[i]`` is the line's (set index, tag) in level ``i``.
        """
        levels = self.levels
        for index in range(source_index - 1, -1, -1):
            if self._exclusive[index]:
                continue  # populated by victims only
            cache = levels[index]
            set_index, tag = located[index]
            if cache.sets[set_index].lookup(tag) is not None:
                continue  # already present (e.g. refilled via back path)
            _, evicted_tag, dirty = cache.fill_at(
                set_index, tag, write and index == 0, demand
            )
            if evicted_tag is None:
                continue
            # A clean victim above a non-exclusive level just leaves; its
            # address is needed only to back-invalidate it above an
            # inclusive level.
            routed = dirty or self._exclusive_below[index]
            if routed or self._inclusive[index]:
                victim = cache.codec.compose(evicted_tag, set_index)
                if routed:
                    self._handle_victim(index, victim, dirty)
                if self._inclusive[index]:
                    self._back_invalidate(index, victim)

    def _handle_victim(self, level_index: int, victim: int, dirty: bool) -> None:
        """Route a victim evicted from ``level_index`` downwards."""
        next_index = level_index + 1
        if self._exclusive_below[level_index]:
            next_cache = self.levels[next_index]
            if not next_cache.probe(victim):
                result = next_cache.fill(victim, write=dirty)
                if result.evicted_address is not None:
                    self._handle_victim(next_index, result.evicted_address, result.evicted_dirty)
            elif dirty:
                next_cache.mark_dirty(victim)
            return
        if dirty:
            self._writeback(next_index, victim)

    def _writeback(self, start_index: int, victim: int) -> None:
        """Write a dirty victim into the first lower level holding it."""
        for index in range(start_index, len(self.levels)):
            if self.levels[index].mark_dirty(victim):
                return
        self.stats.memory_accesses += 1

    def _back_invalidate(self, level_index: int, address: int) -> None:
        """Inclusive eviction: remove the line from all upper levels."""
        for index in range(level_index - 1, -1, -1):
            self.levels[index].invalidate(address)

    # -- maintenance ----------------------------------------------------------
    def flush(self) -> int:
        """Flush every level (statistics are kept); return the sets reset."""
        self._memory_at_flush = self.stats.memory_accesses
        return sum(cache.flush() for cache in self.levels)

    def checkpoint(self) -> tuple[tuple, int]:
        """The state the accesses since the last flush built.

        Every level's :meth:`Cache.checkpoint` plus the memory accesses
        since the flush.  Only as faithful as the levels' checkpoints:
        every level's policy must draw no randomness.
        """
        return (
            tuple(cache.checkpoint() for cache in self.levels),
            self.stats.memory_accesses - self._memory_at_flush,
        )

    def restore(self, checkpoint: tuple[tuple, int]) -> None:
        """Rebuild a :meth:`checkpoint` right after a flush.

        Every level installs its sets and advances its statistics, and
        the memory-access counter advances by the recorded delta.
        """
        levels, memory_accesses = checkpoint
        for cache, state in zip(self.levels, levels):
            cache.restore(state)
        self.stats.memory_accesses += memory_accesses

    def reset(self) -> None:
        """Flush every level and zero all statistics."""
        self.stats.reset()
        self.flush()

    def check_inclusion_invariants(self) -> list[str]:
        """Return a list of inclusion violations (empty = consistent).

        Used by tests and by :mod:`repro.hardware` self-checks:

        * every line in a level above an *inclusive* level must also be in
          the inclusive level;
        * a line may never be resident both in an *exclusive* level and in
          any level above it.
        """
        violations = []
        for index, cache in enumerate(self.levels):
            if cache.config.inclusion == "inclusive":
                below = cache.resident_addresses()
                for upper in self.levels[:index]:
                    for address in upper.resident_addresses():
                        if address not in below:
                            violations.append(
                                f"{upper.name} holds {address:#x} not in inclusive {cache.name}"
                            )
            if cache.config.inclusion == "exclusive":
                resident = cache.resident_addresses()
                for upper in self.levels[:index]:
                    overlap = resident & upper.resident_addresses()
                    for address in sorted(overlap):
                        violations.append(
                            f"{address:#x} resident in exclusive {cache.name} and in {upper.name}"
                        )
        return violations
