"""One-bit recency policies: bit-PLRU ("MRU") and NRU.

Both keep a single *recently used* bit per way and evict a way whose bit
is clear.  They differ in when the bits saturate:

* **Bit-PLRU / MRU**: setting the last remaining zero bit immediately
  clears all *other* bits (the accessed way keeps its set bit).  This is
  the "MRU" policy in the nanoBench taxonomy.
* **NRU**: bits saturate silently; only when a victim is needed and no
  zero bit exists are all bits cleared, then the leftmost way is evicted.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.policies.base import ReplacementPolicy
from repro.policies.registry import register


@register(tags=("default-eval", "default-predictability"))
class BitPlruPolicy(ReplacementPolicy):
    """Bit-PLRU (a.k.a. MRU replacement): eager bit reset on saturation."""

    NAME = "bitplru"

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._bits = [0] * ways

    def _mark(self, way: int) -> None:
        self._bits[way] = 1
        if all(self._bits):
            self._bits = [0] * self.ways
            self._bits[way] = 1

    def touch(self, way: int) -> None:
        if not 0 <= way < self.ways:
            self._check_way(way)
        self._mark(way)

    def evict(self) -> int:
        for way, bit in enumerate(self._bits):
            if bit == 0:
                return way
        raise AssertionError("bit-PLRU invariant violated: no zero bit")

    def fill(self, way: int) -> None:
        if not 0 <= way < self.ways:
            self._check_way(way)
        self._mark(way)

    def reset(self) -> None:
        self._bits = [0] * self.ways

    def state_key(self) -> Hashable:
        return tuple(self._bits)

    def load_state(self, key: Hashable) -> None:
        self._bits = list(key)

    def clone(self) -> "BitPlruPolicy":
        copy = BitPlruPolicy(self.ways)
        copy._bits = list(self._bits)
        return copy


@register(tags=("default-predictability",))
class NruPolicy(ReplacementPolicy):
    """Not-recently-used: lazy bit reset during victim search."""

    NAME = "nru"

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._bits = [0] * ways

    def touch(self, way: int) -> None:
        if not 0 <= way < self.ways:
            self._check_way(way)
        self._bits[way] = 1

    def evict(self) -> int:
        for way, bit in enumerate(self._bits):
            if bit == 0:
                return way
        # All ways recently used: clear every bit and restart the search.
        self._bits = [0] * self.ways
        return 0

    def fill(self, way: int) -> None:
        if not 0 <= way < self.ways:
            self._check_way(way)
        self._bits[way] = 1

    def reset(self) -> None:
        self._bits = [0] * self.ways

    def state_key(self) -> Hashable:
        return tuple(self._bits)

    def load_state(self, key: Hashable) -> None:
        self._bits = list(key)

    def clone(self) -> "NruPolicy":
        copy = NruPolicy(self.ways)
        copy._bits = list(self._bits)
        return copy
