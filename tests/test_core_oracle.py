"""Tests for measurement oracles."""

import pytest

from repro.core import CachingOracle, SimulatedSetOracle, VotingOracle
from repro.errors import MeasurementError
from repro.obs import metrics as obs_metrics
from repro.policies import LruPolicy


class TestSimulatedSetOracle:
    def test_counts_misses_from_fresh_state(self):
        oracle = SimulatedSetOracle(LruPolicy(2))
        assert oracle.count_misses([], [1, 2, 1]) == 2
        # Measurements are independent: the same call repeats identically.
        assert oracle.count_misses([], [1, 2, 1]) == 2

    def test_setup_not_counted(self):
        oracle = SimulatedSetOracle(LruPolicy(2))
        assert oracle.count_misses([1, 2], [1, 2]) == 0
        assert oracle.count_misses([1, 2], [3]) == 1

    def test_cost_accounting(self):
        oracle = SimulatedSetOracle(LruPolicy(2))
        oracle.count_misses([1], [2, 3])
        oracle.count_misses([], [4])
        assert oracle.measurements == 2
        assert oracle.accesses == 4
        oracle.reset_cost()
        assert oracle.measurements == 0
        assert oracle.accesses == 0

    def test_ways_exposure(self):
        assert SimulatedSetOracle(LruPolicy(4)).ways == 4
        assert SimulatedSetOracle(LruPolicy(4), expose_ways=False).ways is None

    def test_query_dedup_preserves_accounting(self):
        """Duplicate requests are measured once by the kernel, yet oracle.*
        counters (and the oracle's own cost fields) stay per-request."""
        requests = [([1, 2], [1, 3])] * 6 + [([], [4])] * 3
        oracle = SimulatedSetOracle(LruPolicy(4))
        obs_metrics.DEFAULT.reset()
        counts = oracle.query(requests)
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters["oracle.measurements"] == len(requests)
        assert counters["oracle.accesses"] == sum(
            len(setup) + len(probe) for setup, probe in requests
        )
        assert oracle.measurements == len(requests)
        assert counts == [
            oracle.count_misses(setup, probe) for setup, probe in requests
        ]


class _FlakyOracle(SimulatedSetOracle):
    """Returns a wrong count every other measurement."""

    def __init__(self, policy):
        super().__init__(policy)
        self._calls = 0

    def count_misses(self, setup, probe):
        true_value = super().count_misses(setup, probe)
        self._calls += 1
        if self._calls % 2 == 0:
            return true_value + 1
        return true_value


class TestVotingOracle:
    def test_majority_suppresses_minority_noise(self):
        flaky = _FlakyOracle(LruPolicy(2))
        voting = VotingOracle(flaky, repetitions=5)
        # 3 of 5 votes are correct.
        assert voting.count_misses([], [1, 2, 1]) == 2

    def test_repetitions_validated(self):
        with pytest.raises(MeasurementError):
            VotingOracle(SimulatedSetOracle(LruPolicy(2)), repetitions=0)

    def test_majority_short_circuits_at_strict_majority(self):
        # A noiseless oracle reaches floor(3/2)+1 = 2 identical votes
        # after two repetitions; the third cannot change the outcome and
        # is skipped.
        inner = SimulatedSetOracle(LruPolicy(2))
        voting = VotingOracle(inner, repetitions=3)
        voting.count_misses([], [1])
        assert voting.measurements == 2
        voting.reset_cost()
        assert voting.measurements == 0

    def test_min_counts_every_repetition(self):
        # Only majority can stop early; min/median need every sample.
        inner = SimulatedSetOracle(LruPolicy(2))
        voting = VotingOracle(inner, repetitions=3, aggregate="min")
        voting.count_misses([], [1])
        assert voting.measurements == 3

    def test_majority_short_circuit_preserves_result(self):
        # The short-circuited vote equals the full vote on a noisy inner
        # oracle: once a count holds a strict majority the remaining
        # repetitions are arithmetically irrelevant.
        for reps in (3, 5, 7):
            flaky = _FlakyOracle(LruPolicy(2))
            voting = VotingOracle(flaky, repetitions=reps)
            assert voting.count_misses([], [1, 2, 1]) == 2

    def test_forwards_ways(self):
        voting = VotingOracle(SimulatedSetOracle(LruPolicy(8)))
        assert voting.ways == 8


class TestCachingOracle:
    def test_repeats_served_from_cache(self):
        inner = SimulatedSetOracle(LruPolicy(2))
        oracle = CachingOracle(inner)
        assert oracle.count_misses([], [1, 2, 1]) == 2
        assert oracle.count_misses([], [1, 2, 1]) == 2
        # The second call never reached the inner oracle.
        assert inner.measurements == 1
        assert oracle.cache_hits == 1
        assert oracle.cache_misses == 1

    def test_distinct_queries_all_measured(self):
        oracle = CachingOracle(SimulatedSetOracle(LruPolicy(2)))
        oracle.count_misses([], [1])
        oracle.count_misses([1], [1])
        oracle.count_misses([], [2])
        assert oracle.cache_hits == 0
        assert oracle.cache_misses == 3

    def test_query_dedupes_within_batch(self):
        oracle = CachingOracle(SimulatedSetOracle(LruPolicy(2)))
        results = oracle.query(
            [([], [1, 2, 1]), ([], [1, 2, 1]), ([1, 2], [3])]
        )
        assert results == [2, 2, 1]
        assert oracle.measurements == 2

    def test_clear_cache(self):
        oracle = CachingOracle(SimulatedSetOracle(LruPolicy(2)))
        oracle.count_misses([], [1])
        oracle.clear_cache()
        assert oracle.cache_hits == 0 and oracle.cache_misses == 0
        oracle.count_misses([], [1])
        assert oracle.measurements == 2  # re-measured after the clear

    def test_cost_accounting_delegates(self):
        oracle = CachingOracle(SimulatedSetOracle(LruPolicy(2)))
        oracle.count_misses([1], [2, 3])
        assert oracle.measurements == 1
        assert oracle.accesses == 3
        oracle.count_misses([1], [2, 3])  # cached: cost must not move
        assert oracle.measurements == 1
        assert oracle.accesses == 3
        oracle.reset_cost()
        assert oracle.measurements == 0
        assert oracle.accesses == 0

    def test_forwards_ways(self):
        assert CachingOracle(SimulatedSetOracle(LruPolicy(8))).ways == 8

    def test_voting_inside_cache_memoizes_denoised_values(self):
        # The documented composition for noisy oracles: denoise first,
        # memoize the stable value.
        flaky = _FlakyOracle(LruPolicy(2))
        oracle = CachingOracle(VotingOracle(flaky, repetitions=5))
        first = oracle.count_misses([], [1, 2, 1])
        assert first == 2
        assert oracle.count_misses([], [1, 2, 1]) == first
        assert oracle.cache_hits == 1


class _AdditiveNoiseOracle(SimulatedSetOracle):
    """Adds a deterministic positive bias on some repetitions."""

    def __init__(self, policy, extras):
        super().__init__(policy)
        self._extras = list(extras)
        self._call = 0

    def count_misses(self, setup, probe):
        true_value = super().count_misses(setup, probe)
        extra = self._extras[self._call % len(self._extras)]
        self._call += 1
        return true_value + extra


class TestVotingAggregates:
    def test_min_recovers_truth_under_additive_noise(self):
        # Majority would return a polluted mode here; min cannot.
        noisy = _AdditiveNoiseOracle(LruPolicy(2), extras=[2, 1, 0, 3, 2])
        voting = VotingOracle(noisy, repetitions=5, aggregate="min")
        assert voting.count_misses([], [1, 2, 1]) == 2

    def test_median_robust_to_outliers(self):
        noisy = _AdditiveNoiseOracle(LruPolicy(2), extras=[0, 0, 9])
        voting = VotingOracle(noisy, repetitions=3, aggregate="median")
        assert voting.count_misses([], [1, 2, 1]) == 2

    def test_majority_with_mostly_clean_runs(self):
        noisy = _AdditiveNoiseOracle(LruPolicy(2), extras=[0, 0, 0, 5, 7])
        voting = VotingOracle(noisy, repetitions=5, aggregate="majority")
        assert voting.count_misses([], [1, 2, 1]) == 2

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(MeasurementError):
            VotingOracle(SimulatedSetOracle(LruPolicy(2)), aggregate="mean")
