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

Every access is a load, as the paper's measurements are: a miss fills
each level above the one that hit, and a victim simply leaves its level
(back-invalidating the levels above an inclusive one).

:meth:`CacheHierarchy.access_all` walks a whole sequence of loads in
one call, reading each level's address split, sets and statistics from a
table built at construction; :meth:`CacheHierarchy.access` is its
one-address case, so there is one walk.  The walk reads each set's tag
map itself.  A level whose policy is deterministic runs on its automaton
(:attr:`Cache.automaton <repro.cache.cache.Cache.automaton>`): there the
walk advances each set's state id by table lookups and calls the set's
:class:`~repro.kernels.automaton.AutomatonPolicy` only on an unexpanded
``-1``.  A DIP or random level keeps one policy object per set, which
the walk touches and fills through.  The branch follows the level's
policy; there is no switch.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import NamedTuple

from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.stats import HierarchyStats
from repro.errors import ConfigurationError
from repro.policies import PolicyFactory
from repro.util.rng import SeededRng


class HierarchyAccessResult(NamedTuple):
    """What one access did at every level.

    The walk stops at the first hit, so the hit level alone fixes the
    result: a hierarchy builds one per outcome and every access returns
    one of those.
    """

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
        # What the walk reads of each level, built once: a cache changes
        # its sets, stats and filled record in place and never rebinds
        # them, and an automaton grows its tables in place.  A level of
        # policy objects has no tables (None).  The lookup step of each
        # level, L1 first: (locate, sets, stats, ways, hit table);
        automata = [cache.automaton for cache in self.levels]
        self._lookups = tuple(
            (
                cache.locate,
                cache.sets,
                cache.stats,
                cache.config.ways,
                None if automaton is None else automaton.hit_next,
            )
            for cache, automaton in zip(self.levels, automata)
        )
        # and, for a hit at level index h (len(levels) for memory), the
        # fill step of each level above h, lowest first: (index, sets,
        # stats, filled, compose, inclusive, ways, (fill, miss victim,
        # miss next) tables).
        fill_steps = [
            (
                index,
                cache.sets,
                cache.stats,
                cache.filled,
                cache.codec.compose,
                cache.config.inclusion == "inclusive",
                cache.config.ways,
                None
                if automaton is None
                else (automaton.fill_next, automaton.miss_victim, automaton.miss_next),
            )
            for index, (cache, automaton) in enumerate(zip(self.levels, automata))
        ]
        self._fills = [
            tuple(reversed(fill_steps[:hit])) for hit in range(len(self.levels) + 1)
        ]
        # The result of a hit at each level index; index len(levels) is a
        # memory access.
        names = self.level_names
        self._results = [
            HierarchyAccessResult(
                name, tuple((upper, upper == name) for upper in names[: index + 1])
            )
            for index, name in enumerate(names)
        ] + [HierarchyAccessResult(None, tuple((name, False) for name in names))]
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
    def access(self, address: int, demand: bool = True) -> HierarchyAccessResult:
        """Perform one load and propagate fills and back-invalidations.

        The one-address case of :meth:`access_all`.
        """
        return self.access_all((address,), demand)

    def access_all(
        self, addresses: Iterable[int], demand: bool = True
    ) -> HierarchyAccessResult | None:
        """Perform a sequence of loads, in order.

        Each load walks the levels down to the first hit, then fills the
        levels above it; a victim evicted from an inclusive level is
        back-invalidated above it, any other victim just leaves.
        Prefetchers pass ``demand=False``: the access moves cache state
        exactly like a load, but no demand counter changes — hardware
        ``MEM_LOAD_RETIRED``-style events count retired demand loads only.

        The walk touches and fills each level's sets directly (on an
        automaton level, by its tables) and keeps the level's statistics
        and filled-set record itself.  Returns the last access's result
        (None for an empty sequence).
        """
        lookups = self._lookups
        fills = self._fills
        hierarchy_stats = self.stats
        # The (set index, tag) of each level missed, located once and
        # reused by the fill.
        located: list[tuple[int, int]] = [(0, 0)] * len(self.levels)
        index = -1
        for address in addresses:
            index = 0
            for locate, sets, stats, ways, hit_next in lookups:
                set_index, tag = place = locate(address)
                cache_set = sets[set_index]
                way = cache_set._way_of.get(tag)
                if way is not None:
                    policy = cache_set.policy
                    if hit_next is None:
                        policy.touch(way)
                    else:
                        state = hit_next[policy.state * ways + way]
                        if state < 0:
                            policy.touch(way)
                        else:
                            policy.state = state
                    if demand:
                        stats.accesses += 1
                        stats.hits += 1
                    break
                if demand:
                    stats.accesses += 1
                    stats.misses += 1
                located[index] = place
                index += 1
            else:
                if demand:
                    hierarchy_stats.memory_accesses += 1
            # Fill the levels above the hit, lowest first.  None of them
            # gained the line since the walk missed it there: fills only
            # add the line being loaded, and back-invalidations only remove.
            steps = fills[index]
            for upper, sets, stats, filled, compose, inclusive, ways, tables in steps:
                set_index, tag = located[upper]
                cache_set = sets[set_index]
                if tables is None:
                    _, evicted_tag = cache_set.fill_way(tag)
                else:
                    # CacheSet.fill_way on the automaton's tables.
                    fill_next, miss_victim, miss_next = tables
                    tags = cache_set._tags
                    way_of = cache_set._way_of
                    policy = cache_set.policy
                    state = policy.state
                    if len(way_of) == ways:
                        way = miss_victim[state]
                        if way < 0:
                            way = policy.evict()
                            policy.fill(way)
                        else:
                            policy.state = miss_next[state]
                        evicted_tag = tags[way]
                        del way_of[evicted_tag]
                    else:
                        evicted_tag = None
                        way = tags.index(None)
                        state = fill_next[state * ways + way]
                        if state < 0:
                            policy.fill(way)
                        else:
                            policy.state = state
                    tags[way] = tag
                    way_of[tag] = way
                filled.add(set_index)
                if demand:
                    stats.fills += 1
                    if evicted_tag is not None:
                        stats.evictions += 1
                # A victim's address is needed only to back-invalidate it
                # above an inclusive level; any other victim just leaves.
                if inclusive and evicted_tag is not None:
                    victim = compose(evicted_tag, set_index)
                    for above in self.levels[:upper]:
                        above.invalidate(victim)
        return None if index < 0 else self._results[index]

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

        The tests' oracle: every line in a level above an *inclusive*
        level must also be in the inclusive level.
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
        return violations
