"""Tests for CacheConfig validation and derived geometry."""

import pytest

from repro.cache import CacheConfig
from repro.errors import ConfigurationError


class TestValidation:
    def test_standard_l1(self):
        config = CacheConfig("L1", 32 * 1024, 8)
        assert config.num_sets == 64
        assert config.offset_bits == 6
        assert config.index_bits == 6
        assert config.way_size == 4096

    def test_non_power_of_two_size_allowed(self):
        # Atom's 24 KiB 6-way L1: 64 sets, perfectly valid.
        config = CacheConfig("L1", 24 * 1024, 6)
        assert config.num_sets == 64

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigurationError, match="sets"):
            CacheConfig("bad", 3 * 64 * 8, 8, line_size=64)  # 3 sets

    def test_rejects_indivisible_size(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("bad", 1000, 8)

    def test_rejects_bad_line_size(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("bad", 32 * 1024, 8, line_size=48)

    def test_rejects_zero_ways(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("bad", 32 * 1024, 0)

    def test_rejects_unknown_inclusion(self):
        for inclusion in ("mostly", "exclusive"):
            with pytest.raises(ConfigurationError):
                CacheConfig("bad", 32 * 1024, 8, inclusion=inclusion)

    def test_describe(self):
        text = CacheConfig("L2", 256 * 1024, 8, inclusion="nine").describe()
        assert "L2" in text and "256" in text and "8-way" in text


class TestGeometry:
    def test_direct_mapped(self):
        config = CacheConfig("dm", 4096, 1)
        assert config.num_sets == 64

    def test_fully_associative(self):
        config = CacheConfig("fa", 4096, 64)
        assert config.num_sets == 1
        assert config.index_bits == 0
