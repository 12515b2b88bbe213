"""CLOCK (second chance) replacement.

The classic one-bit approximation of LRU with a rotating hand: every way
has a reference bit, set on access.  The victim search sweeps the hand
around the set, clearing reference bits, until it finds a way whose bit
is already clear — so a referenced line gets a "second chance" of one
full revolution.  Unlike NRU/bit-PLRU the victim choice depends on the
hand position, which makes CLOCK observably distinct from both (the
distinguishing-sequence search in :mod:`repro.core.distinguish` finds
short witnesses).
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.policies.base import ReplacementPolicy
from repro.policies.registry import register


@register
class ClockPolicy(ReplacementPolicy):
    """Second-chance replacement with a per-set hand."""

    NAME = "clock"

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._referenced = [0] * ways
        self._hand = 0

    def touch(self, way: int) -> None:
        self._check_way(way)
        self._referenced[way] = 1

    def evict(self) -> int:
        # At most two sweeps: the first clears bits, the second must find
        # a zero at the original hand position.
        for _ in range(2 * self.ways):
            if self._referenced[self._hand] == 0:
                return self._hand
            self._referenced[self._hand] = 0
            self._hand = (self._hand + 1) % self.ways
        raise AssertionError("CLOCK sweep failed to find a victim")

    def fill(self, way: int) -> None:
        self._check_way(way)
        self._referenced[way] = 1
        if way == self._hand:
            self._hand = (self._hand + 1) % self.ways

    def reset(self) -> None:
        self._referenced = [0] * self.ways
        self._hand = 0

    def state_key(self) -> Hashable:
        return (tuple(self._referenced), self._hand)

    def load_state(self, key: Hashable) -> None:
        referenced, self._hand = key
        self._referenced = list(referenced)

    def clone(self) -> "ClockPolicy":
        copy = ClockPolicy(self.ways)
        copy._referenced = list(self._referenced)
        copy._hand = self._hand
        return copy
