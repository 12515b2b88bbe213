"""Tree-based pseudo-LRU (PLRU), the L1 policy of the Intel processors
examined by the paper.

The state is a complete binary tree of ``ways - 1`` direction bits stored
in heap order (node ``k`` has children ``2k + 1`` and ``2k + 2``; the
leaves, left to right, are the ways).  A bit value of 0 points left and 1
points right towards the *next victim*.  Every access (hit or fill) to a
way flips the bits on the root-to-leaf path so that they point *away*
from the accessed way, which approximates recency with one bit per tree
node instead of a full ordering.

PLRU is a permutation policy (Abel & Reineke, RTAS 2013); the derivation
of its permutation vectors from this implementation lives in
:func:`repro.core.permutation.derive_spec_from_policy` and is checked by
the test suite.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.errors import ConfigurationError
from repro.policies.base import ReplacementPolicy
from repro.policies.registry import register
from repro.util.bits import ilog2, is_power_of_two


@register(tags=("default-eval", "default-predictability"))
class PlruPolicy(ReplacementPolicy):
    """Tree pseudo-LRU for power-of-two associativities."""

    NAME = "plru"

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        if not is_power_of_two(ways):
            raise ConfigurationError(f"tree PLRU requires power-of-two ways, got {ways}")
        self._levels = ilog2(ways)
        self._bits = [0] * (ways - 1)

    def _path_nodes(self, way: int) -> list[tuple[int, int]]:
        """Return (node, direction) pairs on the root-to-leaf path of ``way``.

        ``direction`` is 0 if the path continues into the left child and 1
        for the right child.
        """
        nodes = []
        node = 0
        for level in range(self._levels - 1, -1, -1):
            direction = (way >> level) & 1
            nodes.append((node, direction))
            node = 2 * node + 1 + direction
        return nodes

    def _point_away(self, way: int) -> None:
        for node, direction in self._path_nodes(way):
            self._bits[node] = 1 - direction

    def touch(self, way: int) -> None:
        self._check_way(way)
        self._point_away(way)

    def evict(self) -> int:
        node = 0
        for _ in range(self._levels):
            node = 2 * node + 1 + self._bits[node]
        return node - (self.ways - 1)

    def fill(self, way: int) -> None:
        self._check_way(way)
        self._point_away(way)

    def reset(self) -> None:
        self._bits = [0] * (self.ways - 1)

    def state_key(self) -> Hashable:
        return tuple(self._bits)

    def load_state(self, key: Hashable) -> None:
        self._bits = list(key)

    def clone(self) -> "PlruPolicy":
        copy = PlruPolicy(self.ways)
        copy._bits = list(self._bits)
        return copy
