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

    LRU and BIP differ only in where a fill lands, so one recency stack
    serves both: a hit moves the way to the front, the victim is the
    back, and a fill goes to the front when the set runs LRU or BIP's
    ``epsilon`` draw says so, to the back otherwise.  BIP's stream is
    drawn only on fills that BIP decides, and a clone shares it.

    A standalone instance (no shared context) gets a private one-set
    controller, in which set 0 leads for LRU; embedded in a cache,
    leader sets are chosen by the cache's controller.
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
        self.epsilon = epsilon
        self._rng = shared.rng.fork(f"bip-{set_index}")
        # _stack[0] is the most recently used way, _stack[-1] the victim.
        self._stack = list(range(ways))

    @classmethod
    def create_shared(cls, num_sets: int, rng: SeededRng | None = None) -> DipSharedContext:
        return DipSharedContext(num_sets, rng)

    def touch(self, way: int) -> None:
        self._check_way(way)
        self._stack.remove(way)
        self._stack.insert(0, way)

    def evict(self) -> int:
        self._shared.controller.record_miss(self._set_index)
        return self._stack[-1]

    def fill(self, way: int) -> None:
        self._check_way(way)
        self._stack.remove(way)
        if (
            self._shared.controller.use_primary(self._set_index)
            or self._rng.random() < self.epsilon
        ):
            self._stack.insert(0, way)
        else:
            self._stack.append(way)

    def reset(self) -> None:
        self._stack = list(range(self.ways))

    def state_key(self) -> None:
        return None

    def clone(self) -> "DipPolicy":
        copy = DipPolicy(
            self.ways,
            shared=self._shared,
            set_index=self._set_index,
            epsilon=self.epsilon,
        )
        copy._rng = self._rng
        copy._stack = list(self._stack)
        return copy
