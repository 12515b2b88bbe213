"""One set of a set-associative cache."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.policies.base import ReplacementPolicy


@dataclass(frozen=True)
class SetAccessResult:
    """Outcome of one access to a set."""

    hit: bool
    way: int
    evicted_tag: int | None


class CacheSet:
    """Tag store and replacement state for one set.

    Invalid ways are filled first, in ascending way order, matching the
    behaviour of the Intel caches the paper probes (and the assumption the
    inference algorithms rely on when they warm a set up from cold).
    """

    def __init__(self, ways: int, policy: ReplacementPolicy) -> None:
        if policy.ways != ways:
            raise SimulationError(f"policy is {policy.ways}-way but set has {ways} ways")
        self.ways = ways
        self.policy = policy
        self._tags: list[int | None] = [None] * ways
        # Inverse index of _tags; every access starts with a lookup, so the
        # O(ways) scan here used to dominate whole-trace simulation time.
        self._way_of: dict[int, int] = {}

    # -- queries that do not disturb state --------------------------------
    def lookup(self, tag: int) -> int | None:
        """Return the way holding ``tag``, or None, without side effects."""
        return self._way_of.get(tag)

    def contents(self) -> list[int | None]:
        """Return the tag in each way (None = invalid)."""
        return list(self._tags)

    def resident_tags(self) -> set[int]:
        """Return the set of valid tags."""
        return set(self._way_of)

    @property
    def full(self) -> bool:
        """True when every way holds a valid line."""
        return len(self._way_of) == self.ways

    # -- state-changing operations ----------------------------------------
    def touch_tag(self, tag: int) -> int | None:
        """Touch ``tag`` if resident (hit path only); return its way.

        Unlike :meth:`access` this never fills, which is what a hierarchy
        walk needs: lower levels are only filled along the chosen fill
        path, not implicitly by the lookup.
        """
        way = self._way_of.get(tag)
        if way is None:
            return None
        self.policy.touch(way)
        return way

    def access(self, tag: int) -> SetAccessResult:
        """Perform one access; fill on miss; return what happened."""
        way = self.lookup(tag)
        if way is not None:
            self.policy.touch(way)
            return SetAccessResult(hit=True, way=way, evicted_tag=None)
        return self.fill(tag)

    def fill(self, tag: int) -> SetAccessResult:
        """Install ``tag`` without a prior lookup (miss path)."""
        way, evicted_tag = self.fill_way(tag)
        return SetAccessResult(hit=False, way=way, evicted_tag=evicted_tag)

    def fill_way(self, tag: int) -> tuple[int, int | None]:
        """:meth:`fill` without the result object.

        Returns ``(way, evicted tag or None)``; the hierarchy walk fills
        through here.  A set with an invalid way fills the lowest one;
        only a full set asks the policy for a victim.
        """
        way_of = self._way_of
        if tag in way_of:
            raise SimulationError(f"fill of tag {tag} that is already resident")
        tags = self._tags
        evicted_tag: int | None = None
        if len(way_of) == self.ways:
            way = self.policy.evict()
            evicted_tag = tags[way]
            del way_of[evicted_tag]
        else:
            way = tags.index(None)
        tags[way] = tag
        way_of[tag] = way
        self.policy.fill(way)
        return way, evicted_tag

    def invalidate(self, tag: int) -> bool:
        """Drop ``tag`` if present; replacement bits are left untouched.

        Returns True if the line was present.  Real hardware also keeps its
        replacement metadata on invalidations, so the policy is not told.
        """
        way = self.lookup(tag)
        if way is None:
            return False
        self._tags[way] = None
        del self._way_of[tag]
        return True

    def flush(self) -> None:
        """Invalidate every line and reset the replacement state."""
        self._tags = [None] * self.ways
        self._way_of = {}
        self.policy.reset()

    def preload(self, tags: list[int | None]) -> None:
        """Place ``tags[w]`` in way ``w`` without touching replacement state.

        Used by analyses that reconstruct a known state (e.g. aligning an
        inferred spec with a measured establishment arrangement).
        """
        if len(tags) != self.ways:
            raise SimulationError(f"need {self.ways} tags, got {len(tags)}")
        valid = [tag for tag in tags if tag is not None]
        if len(set(valid)) != len(valid):
            raise SimulationError("duplicate tags in preload")
        self._tags = list(tags)
        self._way_of = {tag: way for way, tag in enumerate(tags) if tag is not None}

    def clone(self) -> "CacheSet":
        """Deep copy: cloned policy, copied tags."""
        copy = CacheSet(self.ways, self.policy.clone())
        copy._tags = list(self._tags)
        copy._way_of = dict(self._way_of)
        return copy

    def state_key(self):
        """Hashable (tags, policy state) pair for state-space searches.

        Returns None when the policy is randomized.
        """
        policy_key = self.policy.state_key()
        if policy_key is None:
            return None
        return (tuple(self._tags), policy_key)
