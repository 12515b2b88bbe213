"""Tests for hashed indexing and eviction-set discovery."""

import pytest

from repro.cache import AddressCodec, Cache, CacheConfig
from repro.core.evictionsets import (
    EvictionTester,
    PlatformEvictionTester,
    find_eviction_set,
)
from repro.errors import ConfigurationError, MeasurementError
from repro.hardware import HardwarePlatform, LevelSpec, ProcessorSpec


def hashed_config(size=8 * 1024, ways=4):
    return CacheConfig("LLC", size, ways, index_hash="xor-fold")


def sliced_platform(size=8 * 1024, ways=4, policy="lru"):
    spec = ProcessorSpec(
        name="sliced",
        description="hashed LLC testbench",
        levels=(LevelSpec(hashed_config(size, ways), policy),),
    )
    return HardwarePlatform(spec)


class TestHashedCodec:
    def test_hash_differs_from_bits(self):
        hashed = AddressCodec(hashed_config())
        plain = AddressCodec(CacheConfig("LLC", 8 * 1024, 4))
        differing = sum(
            1
            for line in range(4096)
            if hashed.decompose(line * 64).set_index
            != plain.decompose(line * 64).set_index
        )
        assert differing > 1000  # high bits feed the hashed index

    def test_same_low_bits_different_sets(self):
        # The defining property of sliced addressing: equal index bits no
        # longer imply equal sets.
        codec = AddressCodec(hashed_config())
        way_size = hashed_config().way_size
        sets = {codec.decompose(k * way_size).set_index for k in range(16)}
        assert len(sets) > 1

    def test_compose_round_trip(self):
        codec = AddressCodec(hashed_config())
        for address in (0, 0x40, 0x12345, 1 << 22):
            d = codec.decompose(address)
            assert codec.compose(d.tag, d.set_index, d.offset) == address

    def test_compose_rejects_wrong_set(self):
        codec = AddressCodec(hashed_config())
        d = codec.decompose(0x12340)
        wrong = (d.set_index + 1) % codec.config.num_sets
        with pytest.raises(ValueError):
            codec.compose(d.tag, wrong, 0)

    def test_same_set_address_scans(self):
        codec = AddressCodec(hashed_config())
        addresses = [codec.same_set_address(3, k) for k in range(6)]
        assert len(set(addresses)) == 6
        assert all(codec.decompose(a).set_index == 3 for a in addresses)

    def test_unknown_hash_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("LLC", 8 * 1024, 4, index_hash="sha256")

    def test_hashed_cache_simulates(self):
        cache = Cache(hashed_config(), "lru")
        import random

        rng = random.Random(0)
        for _ in range(3000):
            cache.access(rng.randrange(1 << 20) & ~0x3F)
        assert cache.stats.accesses == 3000


class _FakeTester(EvictionTester):
    """Ground-truth tester over a known set mapping (fast unit tests)."""

    def __init__(self, codec: AddressCodec, ways: int) -> None:
        self.codec = codec
        self.ways = ways
        self.tests = 0

    def evicts(self, candidates, victim) -> bool:
        self.tests += 1
        victim_set = self.codec.decompose(victim).set_index
        conflicts = sum(
            1
            for address in candidates
            if self.codec.decompose(address).set_index == victim_set
        )
        return conflicts >= self.ways


class TestFindEvictionSet:
    def setup_method(self):
        self.codec = AddressCodec(hashed_config())
        self.tester = _FakeTester(self.codec, ways=4)
        self.pool = [line * 64 for line in range(2048)]
        self.victim = 1 << 21

    def test_reduces_to_target_size(self):
        found = find_eviction_set(self.tester, self.victim, self.pool, target_size=4)
        assert len(found) == 4
        victim_set = self.codec.decompose(self.victim).set_index
        assert all(
            self.codec.decompose(a).set_index == victim_set for a in found
        )

    def test_pool_too_small_rejected(self):
        with pytest.raises(MeasurementError, match="pool"):
            find_eviction_set(self.tester, self.victim, [64, 128], target_size=4)

    def test_victim_excluded_from_pool(self):
        found = find_eviction_set(
            self.tester, self.victim, self.pool + [self.victim], target_size=4
        )
        assert self.victim not in found

    def test_group_testing_beats_linear(self):
        # The group reduction needs far fewer tests than one-by-one.
        found = find_eviction_set(self.tester, self.victim, self.pool, target_size=4)
        assert self.tester.tests < len(self.pool) // 2

    def test_bad_target_rejected(self):
        with pytest.raises(MeasurementError):
            find_eviction_set(self.tester, self.victim, self.pool, target_size=0)


class TestPlatformTester:
    def test_end_to_end_on_simulated_hardware(self):
        platform = sliced_platform()
        buffer = platform.allocate(1 << 21)
        pool = list(range(buffer.base, buffer.base + (1 << 19), 64))
        victim = buffer.base + (1 << 20)
        tester = PlatformEvictionTester(platform, "LLC")
        found = find_eviction_set(tester, victim, pool, target_size=4)
        assert len(found) == 4
        codec = platform.hierarchy.level("LLC").codec
        victim_set = codec.decompose(platform.translate(victim)).set_index
        member_sets = {
            codec.decompose(platform.translate(a)).set_index for a in found
        }
        assert member_sets == {victim_set}

    def test_found_set_is_minimal(self):
        platform = sliced_platform()
        buffer = platform.allocate(1 << 21)
        pool = list(range(buffer.base, buffer.base + (1 << 19), 64))
        victim = buffer.base + (1 << 20)
        tester = PlatformEvictionTester(platform, "LLC")
        found = find_eviction_set(tester, victim, pool, target_size=4)
        for index in range(len(found)):
            reduced = found[:index] + found[index + 1 :]
            assert not tester.evicts(reduced, victim)

    def test_passes_validated(self):
        with pytest.raises(MeasurementError):
            PlatformEvictionTester(sliced_platform(), "LLC", passes=0)
