"""Eviction-set discovery for hashed (sliced) caches.

The paper's set targeting computes a line's set from its address bits.
Modern sliced LLCs break that: the set/slice is a hash of many address
bits (``CacheConfig.index_hash = "xor-fold"`` in this library), so
conflicting addresses must be *discovered*, not computed.  This module
implements the classic group-testing reduction (Vila et al.) on top of
the platform's load/counter interface (one eviction test is two load
sequences: the victim and every candidate pass, then the victim again
between two counter reads):

1. start from a large candidate pool that evicts the victim as a whole;
2. while the set is larger than the target size, partition it into
   ``target + 1`` groups — at least one group is redundant (the other
   groups still contain a full eviction set) and can be dropped;
3. when group testing stalls (non-LRU policies may need slack), fall
   back to dropping single elements.

The result is a minimal eviction set: every member maps to the victim's
cache set, and for an A-way LRU cache it has exactly A members.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.errors import MeasurementError
from repro.hardware.platform import HardwarePlatform


class EvictionTester(ABC):
    """The one primitive discovery needs: does this set evict the victim?"""

    #: Number of eviction tests performed (cost accounting).
    tests: int = 0

    @abstractmethod
    def evicts(self, candidates: Sequence[int], victim: int) -> bool:
        """True if accessing ``candidates`` evicts a fresh ``victim``."""


class PlatformEvictionTester(EvictionTester):
    """Eviction testing against one level of a simulated platform.

    Each test starts from a flushed hierarchy, loads the victim, streams
    the candidate set twice (two passes force eviction decisions under
    any of the library's deterministic policies), and re-probes the
    victim while watching the level's demand-miss counter.
    """

    def __init__(self, platform: HardwarePlatform, level: str, passes: int = 2) -> None:
        if passes < 1:
            raise MeasurementError("passes must be >= 1")
        self.platform = platform
        self.level = level
        self.passes = passes
        self.tests = 0

    def evicts(self, candidates: Sequence[int], victim: int) -> bool:
        self.tests += 1
        platform = self.platform
        platform.wbinvd()
        loads = [victim]
        for _ in range(self.passes):
            loads += candidates
        platform.load_all(loads)
        before = platform.counters.snapshot()
        platform.load(victim)
        return platform.counters.delta(self.level, "miss", before) > 0


def find_eviction_set(
    tester: EvictionTester,
    victim: int,
    candidate_pool: Sequence[int],
    target_size: int,
) -> list[int]:
    """Reduce ``candidate_pool`` to a minimal eviction set for ``victim``.

    Raises:
        MeasurementError: if the full pool does not evict the victim
            (enlarge the pool) or reduction stalls above ``target_size``.
    """
    if target_size < 1:
        raise MeasurementError("target_size must be >= 1")
    working = [address for address in candidate_pool if address != victim]
    if not tester.evicts(working, victim):
        raise MeasurementError(
            f"candidate pool of {len(working)} lines does not evict the victim; "
            "use a larger pool"
        )
    # Phase 1: group-testing reduction.
    while len(working) > target_size:
        group_count = min(target_size + 1, len(working))
        size = -(-len(working) // group_count)
        groups = [working[i : i + size] for i in range(0, len(working), size)]
        for group in groups:
            dropped = set(group)
            without = [address for address in working if address not in dropped]
            if without and tester.evicts(without, victim):
                working = without
                break
        else:
            break  # no whole group droppable: switch to single elements
    # Phase 2: one-by-one minimisation (also proves minimality).
    index = 0
    while index < len(working) and len(working) > target_size:
        without = working[:index] + working[index + 1 :]
        if without and tester.evicts(without, victim):
            working = without
        else:
            index += 1
    if len(working) > target_size:
        raise MeasurementError(
            f"reduction stalled at {len(working)} > target {target_size}; the "
            "policy may need a larger eviction set than the associativity"
        )
    return working
