"""Tests for distinguishing-sequence search."""

import pytest

from repro.core.distinguish import (
    bfs_distinguishing_sequence,
    established_set,
    miss_count,
    random_distinguishing_sequence,
    response,
)
from repro.policies import (
    BitPlruPolicy,
    FifoPolicy,
    LruPolicy,
    NruPolicy,
    PlruPolicy,
    get,
)


class TestEstablishedSet:
    def test_contains_establishment_blocks(self):
        cache_set = established_set(LruPolicy(4))
        assert cache_set.resident_tags() == {0, 1, 2, 3}

    def test_deterministic(self):
        a = established_set(PlruPolicy(4))
        b = established_set(PlruPolicy(4))
        assert a.state_key() == b.state_key()


class TestResponse:
    def test_known_lru_response(self):
        assert response(LruPolicy(2), [0, 1, 5, 0]) == (True, True, False, False)

    def test_miss_count_consistent(self):
        probe = [0, 1, 5, 0, 6]
        outcomes = response(LruPolicy(2), probe)
        assert miss_count(LruPolicy(2), probe) == sum(1 for h in outcomes if not h)


class TestBfsSearch:
    def test_lru_vs_fifo_short_sequence(self):
        probe = bfs_distinguishing_sequence(LruPolicy(2), FifoPolicy(2))
        assert probe is not None
        assert len(probe) <= 4
        assert response(LruPolicy(2), probe) != response(FifoPolicy(2), probe)

    def test_equivalent_policies_yield_none(self):
        # PLRU(2) and LRU(2) are the same policy.
        assert bfs_distinguishing_sequence(PlruPolicy(2), LruPolicy(2)) is None

    def test_plru_vs_lru_found(self):
        probe = bfs_distinguishing_sequence(PlruPolicy(4), LruPolicy(4))
        assert probe is not None
        assert response(PlruPolicy(4), probe) != response(LruPolicy(4), probe)

    def test_ways_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bfs_distinguishing_sequence(LruPolicy(2), LruPolicy(4))


class TestRandomSearch:
    @pytest.mark.parametrize(
        "first,second",
        [
            ("lru", "fifo"),
            ("lru", "plru"),
            ("bitplru", "nru"),
            ("qlru_h00_m1", "qlru_h00_m2"),
            ("srrip", "lru"),
        ],
    )
    def test_finds_discriminator(self, first, second):
        probe = random_distinguishing_sequence(
            get(first, 4), get(second, 4)
        )
        assert probe is not None
        assert miss_count(get(first, 4), probe) != miss_count(
            get(second, 4), probe
        )

    def test_identical_policies_yield_none(self):
        probe = random_distinguishing_sequence(
            LruPolicy(4), LruPolicy(4), tries=50, length=20
        )
        assert probe is None

    def test_truncation_keeps_discrimination(self):
        probe = random_distinguishing_sequence(LruPolicy(4), FifoPolicy(4))
        # The returned prefix must already discriminate by miss count.
        assert miss_count(LruPolicy(4), probe) != miss_count(FifoPolicy(4), probe)
