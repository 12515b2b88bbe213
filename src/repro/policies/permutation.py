"""Permutation policies: the formal policy class of the paper.

A permutation policy of associativity *A* orders the blocks of a set in
*positions* ``0 .. A-1``.  Position ``A-1`` is the eviction position.  The
policy is fully described by:

* ``hit_perms`` — *A* permutations; a hit on the block in position ``i``
  moves every block from its old position ``p`` to ``hit_perms[i][p]``;
* ``miss_perm`` — one permutation; on a miss the block in position
  ``A-1`` is evicted, every surviving block moves from ``p`` to
  ``miss_perm[p]``, and the incoming block takes position
  ``miss_perm[A-1]``.

The classic policies are instances:

* LRU: a hit promotes to position 0, a miss inserts at position 0
  (``miss_perm = (1, 2, ..., A-1, 0)``).
* FIFO: hits are the identity, misses insert at position 0.
* Tree-PLRU: also a permutation policy (Abel & Reineke, RTAS 2013); its
  vectors are *derived computationally* from the tree implementation by
  :func:`repro.core.permutation.derive_spec_from_policy`.

Because the class is finitely parameterised and the state is observable
through hits and misses alone, permutation policies are learnable from
black-box measurements — the core idea the paper exploits.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass

from repro.errors import ConfigurationError, UnknownPolicyError
from repro.policies.base import ReplacementPolicy
from repro.policies.registry import register_builder


def _is_permutation(vector: Sequence[int], size: int) -> bool:
    return len(vector) == size and sorted(vector) == list(range(size))


def apply_permutation(order: Sequence, perm: Sequence[int]) -> list:
    """Move item at position ``p`` to position ``perm[p]`` for all p."""
    result = [None] * len(order)
    for position, item in enumerate(order):
        result[perm[position]] = item
    return result


def compose(outer: Sequence[int], inner: Sequence[int]) -> tuple[int, ...]:
    """Return the permutation "apply ``inner`` first, then ``outer``"."""
    return tuple(outer[inner[p]] for p in range(len(inner)))


def invert(perm: Sequence[int]) -> tuple[int, ...]:
    """Return the inverse permutation."""
    result = [0] * len(perm)
    for position, target in enumerate(perm):
        result[target] = position
    return tuple(result)


def identity(size: int) -> tuple[int, ...]:
    """Return the identity permutation of the given size."""
    return tuple(range(size))


@dataclass(frozen=True)
class PermutationSpec:
    """Immutable description of a permutation policy.

    Attributes:
        ways: associativity A.
        hit_perms: A permutations; ``hit_perms[i][p]`` is the new position
            of the block that was in position ``p`` when the block in
            position ``i`` is hit.
        miss_perm: movement of blocks on a miss; ``miss_perm[ways - 1]``
            is the position the incoming block is inserted at.
    """

    ways: int
    hit_perms: tuple[tuple[int, ...], ...]
    miss_perm: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.ways < 1:
            raise ConfigurationError("ways must be >= 1")
        if len(self.hit_perms) != self.ways:
            raise ConfigurationError(
                f"need {self.ways} hit permutations, got {len(self.hit_perms)}"
            )
        for i, perm in enumerate(self.hit_perms):
            if not _is_permutation(perm, self.ways):
                raise ConfigurationError(f"hit_perms[{i}] = {perm} is not a permutation")
        if not _is_permutation(self.miss_perm, self.ways):
            raise ConfigurationError(f"miss_perm = {self.miss_perm} is not a permutation")

    @property
    def eviction_position(self) -> int:
        """The position whose occupant is evicted on a miss (always A-1)."""
        return self.ways - 1

    @property
    def insertion_position(self) -> int:
        """The position a newly inserted block receives."""
        return self.miss_perm[self.ways - 1]

    def conjugate(self, relabel: Sequence[int]) -> "PermutationSpec":
        """Rename positions by ``relabel`` (old position -> new position).

        The relabeling must fix the eviction position; otherwise the
        resulting spec would not describe the same observable behaviour.
        """
        if not _is_permutation(relabel, self.ways):
            raise ConfigurationError(f"{relabel} is not a permutation")
        if relabel[self.ways - 1] != self.ways - 1:
            raise ConfigurationError("relabeling must fix the eviction position")
        inverse = invert(relabel)
        new_hits = [None] * self.ways
        for i in range(self.ways):
            # A hit on new position j is a hit on old position inverse[j].
            new_hits[relabel[i]] = compose(relabel, compose(self.hit_perms[i], inverse))
        new_miss = compose(relabel, compose(self.miss_perm, inverse))
        return PermutationSpec(self.ways, tuple(new_hits), new_miss)

    def describe(self) -> str:
        """Multi-line human-readable rendering of the vectors."""
        lines = [f"permutation policy, {self.ways} ways"]
        for i, perm in enumerate(self.hit_perms):
            lines.append(f"  hit@{i}:  {list(perm)}")
        lines.append(f"  miss:   {list(self.miss_perm)} (insert at {self.insertion_position})")
        return "\n".join(lines)


def lru_spec(ways: int) -> PermutationSpec:
    """The LRU policy as a permutation spec."""
    hits = []
    for i in range(ways):
        perm = [0] * ways
        for p in range(ways):
            if p == i:
                perm[p] = 0
            elif p < i:
                perm[p] = p + 1
            else:
                perm[p] = p
        hits.append(tuple(perm))
    miss = tuple(list(range(1, ways)) + [0])
    return PermutationSpec(ways, tuple(hits), miss)


def fifo_spec(ways: int) -> PermutationSpec:
    """The FIFO policy as a permutation spec."""
    hits = tuple(identity(ways) for _ in range(ways))
    miss = tuple(list(range(1, ways)) + [0])
    return PermutationSpec(ways, hits, miss)


class PermutationPolicy(ReplacementPolicy):
    """Replacement policy driven by a :class:`PermutationSpec`.

    The state is the list ``order`` with ``order[p]`` the way currently in
    position ``p``.  Filling a way that is not in the eviction position
    (an invalid-way fill) first swaps that way into the eviction position;
    since invalid ways carry no meaningful history this matches hardware
    behaviour, and fills that follow :meth:`evict` are unaffected.
    """

    NAME = "permutation"

    # State is kept twice: ``_order[p]`` is the way in position ``p`` and
    # ``_position[w]`` is the position of way ``w``.  The inverse map
    # turns the ``list.index`` scan that used to start every touch/fill
    # into one list lookup; both maps are rebuilt in the single pass that
    # applies a permutation, so the invariant costs nothing extra.

    def __init__(self, ways: int, spec: PermutationSpec) -> None:
        super().__init__(ways)
        if spec.ways != ways:
            raise ConfigurationError(f"spec is for {spec.ways} ways, policy has {ways}")
        self.spec = spec
        self._order = list(range(ways))
        self._position = list(range(ways))

    def position_of(self, way: int) -> int:
        """Return the current position of ``way`` (0 = most protected side)."""
        self._check_way(way)
        return self._position[way]

    def _permute(self, perm: Sequence[int]) -> None:
        """Apply ``perm`` to the order, updating both maps in one pass."""
        new_order = [0] * self.ways
        position = self._position
        for old_position, way in enumerate(self._order):
            new_position = perm[old_position]
            new_order[new_position] = way
            position[way] = new_position
        self._order = new_order

    def touch(self, way: int) -> None:
        self._check_way(way)
        self._permute(self.spec.hit_perms[self._position[way]])

    def evict(self) -> int:
        return self._order[self.spec.eviction_position]

    def fill(self, way: int) -> None:
        self._check_way(way)
        position = self._position[way]
        evict_pos = self.spec.eviction_position
        if position != evict_pos:
            order = self._order
            other = order[evict_pos]
            order[position], order[evict_pos] = other, way
            self._position[way] = evict_pos
            self._position[other] = position
        self._permute(self.spec.miss_perm)

    def reset(self) -> None:
        self._order = list(range(self.ways))
        self._position = list(range(self.ways))

    def state_key(self) -> Hashable:
        return tuple(self._order)

    def load_state(self, key: Hashable) -> None:
        self._order = list(key)
        for position, way in enumerate(key):
            self._position[way] = position

    def clone(self) -> "PermutationPolicy":
        copy = PermutationPolicy(self.ways, self.spec)
        copy._order = list(self._order)
        copy._position = list(self._position)
        return copy


def _build_from_spec(ways, set_index, shared, rng, params):
    spec = params.get("spec")
    if spec is None:
        raise UnknownPolicyError("the 'permutation' policy requires a spec= parameter")
    return PermutationPolicy(ways, spec)


register_builder("permutation", PermutationPolicy, _build_from_spec)
