"""Tests for multi-level hierarchies."""

import dataclasses
import hashlib
import random

import pytest

from repro.cache import CacheConfig, CacheHierarchy
from repro.errors import ConfigurationError
from repro.kernels import automaton
from repro.policies import DipPolicy


def two_level():
    return CacheHierarchy(
        [
            CacheConfig("L1", 512, 2),  # 4 sets
            CacheConfig("L2", 2048, 4),  # 8 sets
        ],
        ["lru", "lru"],
    )


def three_level():
    return CacheHierarchy(
        [
            CacheConfig("L1", 512, 2),
            CacheConfig("L2", 2048, 4),
            CacheConfig("L3", 8192, 8, inclusion="inclusive"),
        ],
        ["lru", "lru", "lru"],
    )


class TestConstruction:
    def test_requires_levels(self):
        with pytest.raises(ConfigurationError):
            CacheHierarchy([], [])

    def test_policy_count_must_match(self):
        with pytest.raises(ConfigurationError):
            CacheHierarchy([CacheConfig("L1", 512, 2)], ["lru", "lru"])

    def test_first_level_cannot_be_exclusive(self):
        with pytest.raises(ConfigurationError):
            CacheHierarchy(
                [CacheConfig("L1", 512, 2, inclusion="exclusive")], ["lru"]
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheHierarchy(
                [CacheConfig("L1", 512, 2), CacheConfig("L1", 2048, 4)],
                ["lru", "lru"],
            )

    def test_level_lookup(self):
        hierarchy = two_level()
        assert hierarchy.level("L2").config.size == 2048
        with pytest.raises(KeyError):
            hierarchy.level("L9")


class TestAccessRouting:
    def test_cold_miss_reaches_memory_and_fills_all(self):
        hierarchy = two_level()
        result = hierarchy.access(0x100)
        assert result.served_by_memory
        assert hierarchy.level("L1").probe(0x100)
        assert hierarchy.level("L2").probe(0x100)
        assert hierarchy.stats.memory_accesses == 1

    def test_l1_hit_stops_walk(self):
        hierarchy = two_level()
        hierarchy.access(0x100)
        result = hierarchy.access(0x100)
        assert result.hit_level == "L1"
        assert hierarchy.level("L2").stats.accesses == 1  # only the first walk

    def test_l2_hit_refills_l1(self):
        hierarchy = two_level()
        hierarchy.access(0x100)
        hierarchy.level("L1").invalidate(0x100)
        result = hierarchy.access(0x100)
        assert result.hit_level == "L2"
        assert hierarchy.level("L1").probe(0x100)

    def test_level_hits_recorded_in_walk_order(self):
        hierarchy = two_level()
        result = hierarchy.access(0x100)
        assert [name for name, _ in result.level_hits] == ["L1", "L2"]
        assert [hit for _, hit in result.level_hits] == [False, False]


class TestInclusive:
    def test_l3_eviction_back_invalidates(self):
        hierarchy = three_level()
        l3 = hierarchy.level("L3")
        stride = l3.config.way_size
        victim_address = 0
        hierarchy.access(victim_address)
        # Thrash the same L3 set until the first line is evicted.
        for k in range(1, l3.config.ways + 1):
            hierarchy.access(victim_address + k * stride)
        assert not l3.probe(victim_address)
        assert not hierarchy.level("L1").probe(victim_address)
        assert not hierarchy.level("L2").probe(victim_address)

    def test_inclusion_invariant_holds_under_random_traffic(self):
        import random

        rng = random.Random(0)
        hierarchy = three_level()
        for _ in range(5000):
            hierarchy.access(rng.randrange(1 << 16) & ~0x3F)
        assert hierarchy.check_inclusion_invariants() == []


class TestAutomatonLevels:
    def test_hit_updates_recency(self):
        # One 2-way LRU set: a hit on the older line makes the other the victim.
        hierarchy = CacheHierarchy([CacheConfig("L1", 128, 2)], ["lru"])
        l1 = hierarchy.level("L1")
        assert l1.automaton is not None
        hierarchy.access_all([0x000, 0x040, 0x000, 0x080])
        assert l1.resident_addresses() == {0x000, 0x080}
        assert l1.sets[0].state_key() == ((0, 2), (1, 0))

    def test_randomized_levels_keep_policy_objects(self):
        hierarchy = CacheHierarchy(
            [CacheConfig("L1", 512, 2), CacheConfig("L2", 2048, 4)], ["plru", "dip"]
        )
        l1, l2 = hierarchy.levels
        assert l1.automaton is not None and l2.automaton is None
        assert {type(cache_set.policy) for cache_set in l2.sets} == {DipPolicy}

    def test_levels_of_one_policy_and_ways_share_an_automaton(self, monkeypatch):
        monkeypatch.setattr(automaton, "_LEVEL_CACHE", {})
        first = CacheHierarchy(
            [CacheConfig("L1", 512, 2), CacheConfig("L2", 2048, 4)], ["lru", "lru"]
        )
        second = CacheHierarchy([CacheConfig("L1", 1024, 2)], ["lru"])
        assert second.levels[0].automaton is first.levels[0].automaton
        assert first.levels[1].automaton is not first.levels[0].automaton
        # A level under another budget grows its own.
        monkeypatch.setattr(automaton, "DEFAULT_BUDGET", 4)
        third = CacheHierarchy([CacheConfig("L1", 512, 2)], ["lru"])
        assert third.levels[0].automaton is not first.levels[0].automaton
        assert third.levels[0].automaton.budget == 4


class TestMaintenance:
    def test_reset(self):
        hierarchy = two_level()
        hierarchy.access(0x100)
        hierarchy.reset()
        assert hierarchy.stats.memory_accesses == 0
        assert hierarchy.level("L1").stats.accesses == 0
        assert not hierarchy.level("L1").probe(0x100)


class TestHashedLastLevel:
    def test_hashed_l3_hierarchy_consistent(self):
        import random

        hierarchy = CacheHierarchy(
            [
                CacheConfig("L1", 512, 2),
                CacheConfig("L2", 2048, 4),
                CacheConfig(
                    "L3", 8192, 8, inclusion="inclusive", index_hash="xor-fold"
                ),
            ],
            ["lru", "lru", "lru"],
        )
        rng = random.Random(3)
        for _ in range(5000):
            hierarchy.access(rng.randrange(1 << 16) & ~0x3F)
        assert hierarchy.check_inclusion_invariants() == []

    def test_back_invalidation_with_hashed_index(self):
        hierarchy = CacheHierarchy(
            [
                CacheConfig("L1", 512, 2),
                CacheConfig(
                    "L2", 2048, 4, inclusion="inclusive", index_hash="xor-fold"
                ),
            ],
            ["lru", "lru"],
        )
        codec = hierarchy.level("L2").codec
        victim = 0
        hierarchy.access(victim)
        # Thrash the victim's hashed L2 set until it is evicted there.
        partners = [codec.same_set_address(codec.decompose(victim).set_index, k)
                    for k in range(1, 6)]
        for address in partners:
            hierarchy.access(address)
        assert not hierarchy.level("L2").probe(victim)
        assert not hierarchy.level("L1").probe(victim)


# The walk pinned to recorded results: an inclusive pair, a stack with a
# NINE middle level above an inclusive one and a single hashed level,
# driven by demand and non-demand loads across a checkpoint, a restore
# and a flush.  Each digest covers every access's outcome and each
# level's final statistics and contents.
RECORDED_WALKS = {
    "nine-inclusive": "81b1888b25432b2eac06113f801f00196fa0441ec99519fe835654a625ca5d48",
    "nine-nine-inclusive": "fc5b33f8b582fd8f579f86b302ca81cc5101e15a96755ead5f9c740c045b09b3",
    "xor-fold": "c0b7b6e9da13606ec4b06c9194546720f50b50fcb8b65b10912f95cda7ef8355",
}


def _recorded_hierarchy(name):
    if name == "nine-inclusive":
        return CacheHierarchy(
            [
                CacheConfig("L1", 512, 2),
                CacheConfig("L2", 2048, 4, inclusion="inclusive"),
            ],
            ["plru", "lru"],
        )
    if name == "nine-nine-inclusive":
        return CacheHierarchy(
            [
                CacheConfig("L1", 512, 2),
                CacheConfig("L2", 1024, 4, inclusion="nine"),
                CacheConfig("L3", 4096, 8, inclusion="inclusive"),
            ],
            ["lru", "fifo", "plru"],
        )
    return CacheHierarchy(
        [CacheConfig("LLC", 4096, 4, index_hash="xor-fold")], ["lru"]
    )


def _walk_digest(hierarchy, seed):
    rng = random.Random(seed)
    hasher = hashlib.sha256()

    def run(count):
        for _ in range(count):
            # Windows of 1, 4 and 64 KiB, so that every level hits and
            # lines that hit above age out of an inclusive level below.
            span = 1 << rng.choice((10, 10, 12, 12, 16))
            address = rng.randrange(span) & ~0x3F
            demand = rng.random() >= 0.15
            result = hierarchy.access(address, demand=demand)
            hasher.update(repr((result.hit_level, result.level_hits)).encode())

    run(400)
    checkpoint = hierarchy.checkpoint()
    run(200)
    hierarchy.flush()
    hierarchy.restore(checkpoint)
    run(400)
    hierarchy.flush()
    run(200)
    for cache in hierarchy.levels:
        hasher.update(repr((
            cache.name,
            dataclasses.astuple(cache.stats),
            sorted(cache.resident_addresses()),
        )).encode())
    hasher.update(repr(hierarchy.stats.memory_accesses).encode())
    return hasher.hexdigest()


@pytest.mark.parametrize("name", sorted(RECORDED_WALKS))
def test_walk_matches_the_recording(name):
    assert _walk_digest(_recorded_hierarchy(name), seed=11) == RECORDED_WALKS[name]
