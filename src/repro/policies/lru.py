"""Least recently used (LRU) and its insertion-policy variants LIP/BIP/DIP.

LRU keeps the ways of a set in a recency stack; the least recently used
way is evicted.  The insertion-policy variants from Qureshi et al. (ISCA
2007) reuse the LRU stack but change where a *newly inserted* block lands:

* **LIP** (LRU insertion policy) inserts at the LRU position, so a block
  must be re-referenced once before it is protected — streaming data
  evicts itself.
* **BIP** (bimodal insertion policy) inserts at the MRU position with a
  small probability ``epsilon`` and at the LRU position otherwise.
* **DIP** (dynamic insertion policy) chooses between LRU and BIP with set
  dueling: a few leader sets always use one of the two component policies
  and a saturating counter of their misses steers all follower sets.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.policies.base import ReplacementPolicy, SharedContext
from repro.policies.dueling import DuelController
from repro.policies.registry import register
from repro.util.rng import SeededRng


@register(tags=("default-eval", "default-predictability"))
class LruPolicy(ReplacementPolicy):
    """Classic least recently used replacement."""

    NAME = "lru"

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        # _stack[0] is the most recently used way, _stack[-1] the LRU way.
        self._stack = list(range(ways))

    def touch(self, way: int) -> None:
        self._check_way(way)
        self._stack.remove(way)
        self._stack.insert(0, way)

    def evict(self) -> int:
        return self._stack[-1]

    def fill(self, way: int) -> None:
        self._check_way(way)
        self._stack.remove(way)
        self._stack.insert(0, way)

    def reset(self) -> None:
        self._stack = list(range(self.ways))

    def state_key(self) -> Hashable:
        return tuple(self._stack)

    def load_state(self, key: Hashable) -> None:
        self._stack = list(key)

    def clone(self) -> "LruPolicy":
        copy = LruPolicy(self.ways)
        copy._stack = list(self._stack)
        return copy


@register
class LipPolicy(LruPolicy):
    """LRU stack with insertion at the LRU position (LIP)."""

    NAME = "lip"

    def fill(self, way: int) -> None:
        self._check_way(way)
        self._stack.remove(way)
        self._stack.append(way)

    def clone(self) -> "LipPolicy":
        copy = LipPolicy(self.ways)
        copy._stack = list(self._stack)
        return copy


@register(rng=True)
class BipPolicy(LruPolicy):
    """Bimodal insertion: MRU insertion with probability ``epsilon``."""

    NAME = "bip"
    DETERMINISTIC = False

    def __init__(self, ways: int, rng: SeededRng | None = None, epsilon: float = 1 / 32) -> None:
        super().__init__(ways)
        self._rng = rng if rng is not None else SeededRng(0)
        self.epsilon = epsilon

    def fill(self, way: int) -> None:
        self._check_way(way)
        self._stack.remove(way)
        if self._rng.random() < self.epsilon:
            self._stack.insert(0, way)
        else:
            self._stack.append(way)

    def state_key(self) -> None:
        return None

    def clone(self) -> "BipPolicy":
        copy = BipPolicy(self.ways, rng=self._rng, epsilon=self.epsilon)
        copy._stack = list(self._stack)
        return copy


class DipSharedContext(SharedContext):
    """Cache-global duel state for DIP."""

    def __init__(self, num_sets: int, rng: SeededRng | None) -> None:
        self.controller = DuelController(num_sets)
        self.rng = rng if rng is not None else SeededRng(0)

    def reset(self) -> None:
        self.controller.reset()


@register(dueling=True)
class DipPolicy(ReplacementPolicy):
    """Dynamic insertion policy: set dueling between LRU and BIP.

    A standalone instance (no shared context) acts as a follower of a
    private controller, which makes it behave like LRU until misses steer
    it; embedded in a cache, leader sets are chosen by the controller.
    """

    NAME = "dip"
    DETERMINISTIC = False

    def __init__(
        self,
        ways: int,
        rng: SeededRng | None = None,
        shared: DipSharedContext | None = None,
        set_index: int = 0,
        epsilon: float = 1 / 32,
    ) -> None:
        super().__init__(ways)
        if shared is None:
            shared = DipSharedContext(num_sets=1, rng=rng)
        self._shared = shared
        self._set_index = set_index
        self._lru = LruPolicy(ways)
        self._bip = BipPolicy(ways, rng=shared.rng.fork(f"bip-{set_index}"), epsilon=epsilon)
        self.epsilon = epsilon

    @classmethod
    def create_shared(cls, num_sets: int, rng: SeededRng | None = None) -> DipSharedContext:
        return DipSharedContext(num_sets, rng)

    def _active(self) -> LruPolicy:
        if self._shared.controller.use_primary(self._set_index):
            return self._lru
        return self._bip

    def touch(self, way: int) -> None:
        # Both component stacks track recency identically on hits so that
        # switching the winner mid-run keeps a coherent state.
        self._lru.touch(way)
        self._bip.touch(way)

    def evict(self) -> int:
        self._shared.controller.record_miss(self._set_index)
        return self._active().evict()

    def fill(self, way: int) -> None:
        if self._active() is self._lru:
            self._lru.fill(way)
            # Mirror the placement into the BIP stack deterministically so
            # the two stacks hold the same set of ways.
            self._bip._stack.remove(way)
            self._bip._stack.insert(0, way)
        else:
            self._bip.fill(way)
            mru_inserted = self._bip._stack[0] == way
            self._lru._stack.remove(way)
            if mru_inserted:
                self._lru._stack.insert(0, way)
            else:
                self._lru._stack.append(way)

    def reset(self) -> None:
        self._lru.reset()
        self._bip.reset()

    def state_key(self) -> None:
        return None

    def clone(self) -> "DipPolicy":
        copy = DipPolicy(
            self.ways,
            shared=self._shared,
            set_index=self._set_index,
            epsilon=self.epsilon,
        )
        copy._lru = self._lru.clone()
        copy._bip = self._bip.clone()
        return copy
