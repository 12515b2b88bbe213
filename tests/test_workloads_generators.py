"""Tests for elementary trace generators."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.util.rng import SeededRng
from repro.workloads import (
    cyclic_loop,
    hot_cold,
    pointer_chase,
    random_uniform,
    sequential_scan,
    strided,
    workload_suite,
    zipf,
)


def _reference_zipf_lines(num_lines, length, alpha, seed):
    """The lines ``zipf`` drew with its own binary search, the reference."""
    rng = SeededRng(seed)
    weights = [1.0 / (rank**alpha) for rank in range(1, num_lines + 1)]
    total = sum(weights)
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cumulative.append(running)
    lines = []
    for _ in range(length):
        point = rng.random()
        low, high = 0, num_lines - 1
        while low < high:
            mid = (low + high) // 2
            if cumulative[mid] < point:
                low = mid + 1
            else:
                high = mid
        lines.append(low)
    return lines


class TestSequentialScan:
    def test_length_and_footprint(self):
        trace = sequential_scan(10, passes=3)
        assert len(trace) == 30
        assert trace.footprint_lines == 10

    def test_line_granular(self):
        trace = sequential_scan(4)
        assert list(trace) == [0, 64, 128, 192]

    def test_base_offset(self):
        trace = sequential_scan(2, base=1 << 20)
        assert trace.addresses[0] == 1 << 20

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sequential_scan(0)


class TestCyclicLoop:
    def test_is_repeated_scan(self):
        loop = cyclic_loop(5, iterations=4)
        scan = sequential_scan(5, passes=4)
        assert loop.addresses == scan.addresses


class TestRandomUniform:
    def test_deterministic_by_seed(self):
        assert random_uniform(10, 100, seed=5) == random_uniform(10, 100, seed=5)
        assert random_uniform(10, 100, seed=5) != random_uniform(10, 100, seed=6)

    def test_footprint_bounded(self):
        trace = random_uniform(8, 500)
        assert trace.footprint_lines <= 8


class TestZipf:
    def test_skew(self):
        trace = zipf(100, 5000, alpha=1.2, seed=0)
        from collections import Counter

        counts = Counter(trace.addresses)
        ranked = [count for _, count in counts.most_common()]
        # The most popular line dominates the tail.
        assert ranked[0] > 5 * ranked[-1]

    def test_alpha_validation(self):
        with pytest.raises(ConfigurationError):
            zipf(10, 10, alpha=0)

    def test_no_lines_gives_line_zero(self):
        assert zipf(0, 20, seed=1).addresses == (0,) * 20


@given(
    num_lines=st.integers(min_value=0, max_value=50),
    alpha=st.floats(min_value=0.1, max_value=3.0),
    seed=st.integers(),
    length=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=150, deadline=None)
def test_zipf_matches_the_reference_search(num_lines, alpha, seed, length):
    trace = zipf(num_lines, length, alpha=alpha, seed=seed, line_size=64)
    expected = _reference_zipf_lines(num_lines, length, alpha, seed)
    assert trace.addresses == tuple(line * 64 for line in expected)


#: sha256 of every trace's name and addresses in ``workload_suite``,
#: recorded before zipf and the stack-distance model called bisect and
#: the model kept its most recent line last: (cache_lines, seed) -> digest.
RECORDED_SUITE_DIGESTS = {
    (64, 0): "27e8f76dd501502f23f4745caefb7a943f42a5b327b6b2c62a22cc22aafff129",
    (64, 1): "d21f17b9988f031f9999b09ee3852235196ab4a2d143b0ae7bc942daa27bcca2",
    (64, 3): "5b52d98f27e7414333b7b0749f20b91ccaffe23d37be2d0491a155adf6198bdc",
    (512, 0): "dcf01e991c67a847d75e101246ad57d1af9b8a485a8bdd4d6b2986c5b1f0fa53",
    (512, 1): "3b5cc70469ee6984b047c0304cfbf112d9ef2563951e0d5830578ef37126bca6",
    (512, 3): "82604b8f7d3e2eb904d0487b8c409ccadd2c0fbd430a4e42256a12b87614f771",
    (4096, 0): "c042090ea9e9674e20147f0e73ae846e7d3146d8f3123efe7f742d9fe9e06986",
    (4096, 1): "9bb8579cea0c75827afe76f252d9874aeaf1159c4e3a073b2258a8f5e1f3f844",
    (4096, 3): "32d96408117d7cc8271a68f24f45404a9ab987b8161797cc02a8502ea4afbf96",
}


@pytest.mark.parametrize("cache_lines,seed", sorted(RECORDED_SUITE_DIGESTS))
def test_workload_suite_matches_the_recording(cache_lines, seed):
    hasher = hashlib.sha256()
    for trace in workload_suite(cache_lines, seed):
        hasher.update(trace.name.encode())
        hasher.update(repr(trace.addresses).encode())
    assert hasher.hexdigest() == RECORDED_SUITE_DIGESTS[(cache_lines, seed)]


class TestStrided:
    def test_wraps_in_footprint(self):
        trace = strided(3, 10, footprint_lines=7)
        lines = [a // 64 for a in trace]
        assert all(0 <= line < 7 for line in lines)
        assert lines[0] == 0 and lines[1] == 3 and lines[2] == 6 and lines[3] == 2


class TestPointerChase:
    def test_cycle_revisits_every_n(self):
        trace = pointer_chase(10, 40, seed=1)
        lines = [a // 64 for a in trace]
        assert lines[0] == lines[10] == lines[20]
        assert len(set(lines[:10])) == 10  # a full permutation per lap


class TestHotCold:
    def test_hot_set_dominates(self):
        trace = hot_cold(4, 100, 2000, hot_fraction=0.9, seed=0)
        hot_accesses = sum(1 for a in trace if a // 64 < 4)
        assert hot_accesses > 0.8 * len(trace)

    def test_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            hot_cold(4, 10, 10, hot_fraction=1.0)
