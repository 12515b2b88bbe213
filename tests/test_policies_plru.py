"""Tests for tree pseudo-LRU."""

import pytest

from repro.cache.set import CacheSet
from repro.errors import ConfigurationError
from repro.policies import LruPolicy, PlruPolicy


class TestConstruction:
    def test_requires_power_of_two(self):
        with pytest.raises(ConfigurationError):
            PlruPolicy(6)

    def test_valid_sizes(self):
        for ways in (2, 4, 8, 16):
            assert PlruPolicy(ways).ways == ways


class TestTwoWayEqualsLru:
    def test_identical_behaviour(self):
        # With one tree bit, PLRU and LRU are the same policy.
        import random

        rng = random.Random(0)
        plru_set = CacheSet(2, PlruPolicy(2))
        lru_set = CacheSet(2, LruPolicy(2))
        for _ in range(500):
            tag = rng.randrange(4)
            assert plru_set.access(tag).hit == lru_set.access(tag).hit


class TestTreeBehaviour:
    def test_victim_follows_bits(self):
        policy = PlruPolicy(4)
        # All bits zero -> leftmost leaf is the victim.
        assert policy.evict() == 0

    def test_access_points_away(self):
        policy = PlruPolicy(4)
        policy.touch(0)
        # After touching way 0, the victim must be in the right subtree.
        assert policy.evict() in (2, 3)
        for ways in (16, 32, 64):
            policy = PlruPolicy(ways)
            for way in range(ways):
                policy.touch(way)
                bits = policy.state_key()
                # Walk the way's root-to-leaf path in heap order: every
                # node on it points into the subtree the path leaves.
                node, low, size = 0, 0, ways
                while size > 1:
                    size //= 2
                    direction = int(way >= low + size)
                    assert bits[node] == 1 - direction, (ways, way, node)
                    node = 2 * node + 1 + direction
                    low += direction * size
                assert (policy.evict() < ways // 2) != (way < ways // 2)

    def test_fill_sequence_cycles_subtrees(self):
        policy = PlruPolicy(4)
        victims = []
        for _ in range(4):
            victim = policy.evict()
            victims.append(victim)
            policy.fill(victim)
        # Successive victims alternate between the two subtrees.
        subtrees = [v // 2 for v in victims]
        assert subtrees[0] != subtrees[1]
        assert subtrees[1] != subtrees[2] or subtrees[0] != subtrees[1]

    def test_not_true_lru(self):
        # The classic PLRU anomaly: a hit can protect a line that true
        # LRU would evict; find a divergence on some trace.
        import random

        rng = random.Random(1)
        diverged = False
        plru_set = CacheSet(4, PlruPolicy(4))
        lru_set = CacheSet(4, LruPolicy(4))
        for _ in range(2000):
            tag = rng.randrange(6)
            if plru_set.access(tag).hit != lru_set.access(tag).hit:
                diverged = True
                break
        assert diverged

    def test_hit_and_fill_update_identically(self):
        a, b = PlruPolicy(8), PlruPolicy(8)
        a.touch(5)
        b.fill(5)
        assert a.state_key() == b.state_key()

    def test_clone_reset(self):
        policy = PlruPolicy(8)
        policy.touch(3)
        copy = policy.clone()
        policy.reset()
        assert policy.state_key() == tuple([0] * 7)
        assert copy.state_key() != policy.state_key()
