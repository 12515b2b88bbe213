"""Tests for address decomposition."""

import random

import pytest

from repro.cache import AddressCodec, CacheConfig


class TestDecompose:
    def test_known_layout(self):
        codec = AddressCodec(CacheConfig("L1", 32 * 1024, 8))  # 64 sets
        decomposed = codec.decompose(0x12345)
        assert decomposed.offset == 0x12345 & 0x3F
        assert decomposed.set_index == (0x12345 >> 6) & 0x3F
        assert decomposed.tag == 0x12345 >> 12

    def test_rejects_negative(self):
        codec = AddressCodec(CacheConfig("L1", 32 * 1024, 8))
        with pytest.raises(ValueError):
            codec.decompose(-1)


class TestCompose:
    def test_round_trip(self):
        codec = AddressCodec(CacheConfig("L1", 32 * 1024, 8))
        for address in (0, 0x3F, 0x40, 0xFFF, 0x12345678, (1 << 40) + 12345):
            d = codec.decompose(address)
            assert codec.compose(d.tag, d.set_index, d.offset) == address

    def test_bounds_checked(self):
        codec = AddressCodec(CacheConfig("L1", 32 * 1024, 8))
        with pytest.raises(ValueError):
            codec.compose(0, 64, 0)
        with pytest.raises(ValueError):
            codec.compose(0, 0, 64)


class TestHelpers:
    def test_line_address(self):
        codec = AddressCodec(CacheConfig("L1", 32 * 1024, 8))
        assert codec.line_address(0x12345) == 0x12340
        assert codec.line_address(0x12340) == 0x12340

    def test_same_set_addresses_distinct_and_same_set(self):
        codec = AddressCodec(CacheConfig("L1", 32 * 1024, 8))
        addresses = [codec.same_set_address(17, k) for k in range(10)]
        assert len(set(addresses)) == 10
        assert all(codec.decompose(a).set_index == 17 for a in addresses)


class TestHashedLocate:
    @pytest.mark.parametrize("index_bits", [0, 1, 6, 10])
    def test_locate_folds_like_hash_index(self, index_bits):
        codec = AddressCodec(
            CacheConfig("llc", (4 << index_bits) * 64, 4, index_hash="xor-fold")
        )
        assert codec.config.index_bits == index_bits
        rng = random.Random(index_bits)
        lines = [0, 1, (1 << 64) - 1, 1 << 64, (1 << 64) + 12345]
        lines += [rng.getrandbits(40) for _ in range(300)]
        lines += [rng.getrandbits(100) for _ in range(100)]
        for line_number in lines:
            address = (line_number << 6) | rng.randrange(64)
            assert codec.locate(address) == (codec._hash_index(line_number), line_number)
            set_index, tag = codec.locate(address)
            assert codec.compose(tag, set_index) == address & ~63

    def test_locate_rejects_negative(self):
        codec = AddressCodec(CacheConfig("llc", 256 * 64, 4, index_hash="xor-fold"))
        with pytest.raises(ValueError):
            codec.locate(-1)
