"""Tests for CacheSet mechanics."""

import pytest

from repro.cache.set import CacheSet
from repro.errors import SimulationError
from repro.policies import LruPolicy


def make_set(ways=4):
    return CacheSet(ways, LruPolicy(ways))


class TestFillOrder:
    def test_invalid_ways_filled_ascending(self):
        cache_set = make_set()
        ways = [cache_set.access(tag).way for tag in (10, 11, 12, 13)]
        assert ways == [0, 1, 2, 3]

    def test_no_eviction_until_full(self):
        cache_set = make_set()
        for tag in (10, 11, 12):
            assert cache_set.access(tag).evicted_tag is None
        assert not cache_set.full
        cache_set.access(13)
        assert cache_set.full


class TestAccess:
    def test_hit_does_not_change_occupancy(self):
        cache_set = make_set()
        for tag in (1, 2, 3, 4):
            cache_set.access(tag)
        before = cache_set.resident_tags()
        cache_set.access(2)
        assert cache_set.resident_tags() == before

    def test_no_duplicate_tags(self):
        import random

        rng = random.Random(0)
        cache_set = make_set()
        for _ in range(500):
            cache_set.access(rng.randrange(8))
            contents = [t for t in cache_set.contents() if t is not None]
            assert len(contents) == len(set(contents))

    def test_fill_of_resident_tag_rejected(self):
        cache_set = make_set()
        cache_set.access(1)
        with pytest.raises(SimulationError):
            cache_set.fill(1)


class TestTouchTag:
    def test_touch_miss_does_not_fill(self):
        cache_set = make_set()
        assert cache_set.touch_tag(9) is None
        assert cache_set.resident_tags() == set()

    def test_touch_hit_updates_recency(self):
        cache_set = make_set(2)
        cache_set.access(1)
        cache_set.access(2)
        cache_set.touch_tag(1)
        assert cache_set.access(3).evicted_tag == 2


class TestMaintenance:
    def test_invalidate(self):
        cache_set = make_set()
        cache_set.access(1)
        assert cache_set.invalidate(1) is True
        assert cache_set.invalidate(1) is False
        assert 1 not in cache_set.resident_tags()

    def test_flush(self):
        cache_set = make_set()
        for tag in (1, 2, 3, 4):
            cache_set.access(tag)
        cache_set.flush()
        assert cache_set.resident_tags() == set()
        assert cache_set.policy.state_key() == (0, 1, 2, 3)

    def test_preload(self):
        cache_set = make_set()
        cache_set.preload([7, 8, None, 9])
        assert cache_set.contents() == [7, 8, None, 9]

    def test_preload_rejects_duplicates(self):
        cache_set = make_set()
        with pytest.raises(SimulationError):
            cache_set.preload([1, 1, 2, 3])

    def test_preload_rejects_wrong_length(self):
        cache_set = make_set()
        with pytest.raises(SimulationError):
            cache_set.preload([1, 2])

    def test_clone_deep(self):
        cache_set = make_set(2)
        cache_set.access(1)
        copy = cache_set.clone()
        cache_set.access(2)
        cache_set.access(3)
        assert copy.resident_tags() == {1}

    def test_state_key(self):
        cache_set = make_set(2)
        cache_set.access(5)
        key = cache_set.state_key()
        assert key == ((5, None), (0, 1))

    def test_policy_ways_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            CacheSet(4, LruPolicy(2))
