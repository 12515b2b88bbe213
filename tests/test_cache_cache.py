"""Tests for the single-level Cache."""

from repro.cache import Cache, CacheConfig
from repro.policies import PolicyFactory


def small_cache(policy="lru"):
    return Cache(CacheConfig("L1", 1024, 2), policy)  # 8 sets, 2-way


class TestAccessPath:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.access(0x100).hit is False
        assert cache.access(0x100).hit is True

    def test_same_line_offsets_hit(self):
        cache = small_cache()
        cache.access(0x100)
        assert cache.access(0x13F).hit is True  # same 64-byte line
        assert cache.access(0x140).hit is False  # next line

    def test_sets_isolated(self):
        cache = small_cache()
        cache.access(0x000)
        cache.access(0x040)  # different set
        assert cache.stats.misses == 2
        assert cache.access(0x000).hit

    def test_eviction_reports_address(self):
        cache = small_cache()
        stride = cache.config.way_size
        cache.access(0)
        cache.access(stride)
        result = cache.access(2 * stride)
        assert result.evicted_address == 0

    def test_stats_accumulate(self):
        cache = small_cache()
        for address in (0, 64, 0, 128, 0):
            cache.access(address)
        assert cache.stats.accesses == 5
        assert cache.stats.hits == 2
        assert cache.stats.misses == 3
        assert cache.stats.fills == 3

    def test_write_and_writeback(self):
        cache = small_cache()
        stride = cache.config.way_size
        cache.access(0, write=True)
        cache.access(stride)
        cache.access(2 * stride)  # evicts dirty line 0
        assert cache.stats.writebacks == 1


class TestMaintenance:
    def test_probe_no_side_effects(self):
        cache = small_cache()
        cache.access(0x100)
        before = cache.stats.snapshot()
        assert cache.probe(0x100) is True
        assert cache.stats.accesses == before.accesses

    def test_invalidate(self):
        cache = small_cache()
        cache.access(0x100)
        assert cache.invalidate(0x100) is True
        assert cache.probe(0x100) is False
        assert cache.stats.invalidations == 1

    def test_resident_addresses(self):
        cache = small_cache()
        cache.access(0x100)
        cache.access(0x240)
        assert cache.resident_addresses() == {0x100, 0x240}

    def test_flush_keeps_stats(self):
        cache = small_cache()
        cache.access(0x100)
        cache.flush()
        assert cache.probe(0x100) is False
        assert cache.stats.accesses == 1

    def test_flush_resets_the_sets_filled_since_the_last_flush(self):
        cache = small_cache()
        cache.access(0x100)
        cache.access(0x140)
        cache.access(0x100)
        assert cache.flush() == 2
        assert cache.flush() == 0
        assert all(s.contents() == [None] * s.ways for s in cache.sets)

    def test_reset_clears_stats(self):
        cache = small_cache()
        cache.access(0x100)
        cache.reset()
        assert cache.stats.accesses == 0


class TestPolicyIntegration:
    def test_policy_by_factory(self):
        cache = Cache(CacheConfig("L1", 1024, 2), PolicyFactory("srrip", rrpv_bits=3))
        cache.access(0)
        assert cache.policy_factory.name == "srrip"

    def test_dueling_policy_in_cache(self):
        cache = Cache(CacheConfig("L1", 4096, 4), "dip")
        for address in range(0, 64 * 200, 64):
            cache.access(address)
        assert cache.stats.accesses == 200
