"""The unified OracleProtocol surface: batched query + provenance.

Covers the API-redesign contract: ``query`` is the canonical batched
entry point on every oracle, results are bit-identical to the scalar
``count_misses`` loop, and ``provenance`` exists exactly when answers
are a pure function of the request.
"""

from __future__ import annotations

from collections.abc import Sequence

import pytest

from repro.core.oracle import (
    CachingOracle,
    MissCountOracle,
    OracleProtocol,
    SimulatedSetOracle,
    VotingOracle,
    policy_provenance,
)
from repro.errors import MeasurementError
from repro.hardware import HardwarePlatform, HardwareSetOracle, NoiseModel, get_processor
from repro.policies import PermutationPolicy, make_policy
from repro.policies.permutation import lru_spec
from repro.util.rng import SeededRng


def lru_oracle(ways: int = 4) -> SimulatedSetOracle:
    return SimulatedSetOracle(make_policy("lru", ways))


REQUESTS = [
    ([], [0, 1, 2, 3]),
    ([0, 1, 2, 3], [0, 1, 2, 3]),
    ([0, 1, 2, 3, 4], [0]),
    ([0, 1, 2, 3], [4, 0, 1, 2]),
    ([0, 1, 2, 3, 4], [0]),  # duplicate of an earlier request
]


class CountingOracle(MissCountOracle):
    """Deterministic scalar-only inner that counts protocol traffic."""

    def __init__(self, ways: int = 4) -> None:
        self.ways = ways
        self._inner = lru_oracle(ways)
        self.scalar_calls = 0
        self.query_calls = 0
        self.query_requests = 0

    def provenance(self) -> str | None:
        return self._inner.provenance()

    def count_misses(self, setup: Sequence[int], probe: Sequence[int]) -> int:
        self.scalar_calls += 1
        return self._inner.count_misses(setup, probe)

    def query(self, requests):
        self.query_calls += 1
        self.query_requests += len(requests)
        return super().query(requests)


class TestProtocolShape:
    def test_every_oracle_is_an_oracle_protocol(self):
        sim = lru_oracle()
        assert isinstance(sim, OracleProtocol)
        assert isinstance(VotingOracle(sim), OracleProtocol)
        assert isinstance(CachingOracle(sim), OracleProtocol)
        platform = HardwarePlatform(get_processor("atom-d525-like"))
        hw = HardwareSetOracle(platform, "L1", max_blocks=16)
        assert isinstance(hw, OracleProtocol)
        assert isinstance(hw, MissCountOracle)

    def test_query_empty_batch(self):
        assert lru_oracle().query([]) == []
        assert VotingOracle(lru_oracle()).query([]) == []

    def test_scalar_override_still_governs_query(self):
        # Subclasses that only override the scalar primitive (the test
        # suite's noisy stubs do) must see every batched request routed
        # through their override.
        oracle = CountingOracle()
        result = oracle.query(REQUESTS)
        assert oracle.scalar_calls == len(REQUESTS)
        assert result == lru_oracle().query(REQUESTS)


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("name", ["lru", "fifo", "plru", "srrip"])
    def test_simulated(self, name):
        batched = SimulatedSetOracle(make_policy(name, 4)).query(REQUESTS)
        scalar_oracle = SimulatedSetOracle(make_policy(name, 4))
        scalar = [scalar_oracle.count_misses(s, p) for s, p in REQUESTS]
        assert batched == scalar

    def test_simulated_cost_accounting_matches(self):
        batched = lru_oracle()
        batched.query(REQUESTS)
        scalar = lru_oracle()
        for setup, probe in REQUESTS:
            scalar.count_misses(setup, probe)
        assert (batched.measurements, batched.accesses) == (
            scalar.measurements,
            scalar.accesses,
        )

    def test_caching(self):
        batched = CachingOracle(lru_oracle())
        scalar = CachingOracle(lru_oracle())
        assert batched.query(REQUESTS) == [
            scalar.count_misses(s, p) for s, p in REQUESTS
        ]
        assert (batched.cache_hits, batched.cache_misses) == (
            scalar.cache_hits,
            scalar.cache_misses,
        )

    def test_hardware(self):
        platform = HardwarePlatform(get_processor("atom-d525-like"))
        oracle = HardwareSetOracle(platform, "L1", max_blocks=16)
        batched = oracle.query(REQUESTS)
        fresh = HardwareSetOracle(
            HardwarePlatform(get_processor("atom-d525-like")), "L1", max_blocks=16
        )
        assert batched == [fresh.count_misses(s, p) for s, p in REQUESTS]


class TestVotingBatchPath:
    @pytest.mark.parametrize("aggregate", ["majority", "min", "median"])
    def test_parity_with_scalar(self, aggregate):
        batched = VotingOracle(lru_oracle(), repetitions=5, aggregate=aggregate)
        scalar = VotingOracle(lru_oracle(), repetitions=5, aggregate=aggregate)
        assert batched.query(REQUESTS) == [
            scalar.count_misses(s, p) for s, p in REQUESTS
        ]

    @pytest.mark.parametrize("aggregate", ["majority", "min", "median"])
    def test_inner_sample_count_matches_scalar(self, aggregate):
        # The majority short-circuit must survive batching: a request
        # decided in round k consumes k samples, exactly as the scalar
        # loop's early exit does.
        batched_inner = CountingOracle()
        VotingOracle(batched_inner, repetitions=5, aggregate=aggregate).query(REQUESTS)
        scalar_inner = CountingOracle()
        voter = VotingOracle(scalar_inner, repetitions=5, aggregate=aggregate)
        for setup, probe in REQUESTS:
            voter.count_misses(setup, probe)
        assert batched_inner.query_requests == scalar_inner.scalar_calls

    def test_majority_short_circuit_saves_rounds(self):
        inner = CountingOracle()
        VotingOracle(inner, repetitions=5).query(REQUESTS)
        # Deterministic inner: every request decided after 3 of 5 rounds.
        assert inner.query_requests == 3 * len(REQUESTS)


class TestProvenance:
    def test_registry_policy(self):
        assert policy_provenance(make_policy("lru", 4)) == "policy:lru|()|ways=4"

    def test_ways_distinguish(self):
        assert policy_provenance(make_policy("lru", 4)) != policy_provenance(
            make_policy("lru", 8)
        )

    def test_randomized_policy_has_none(self):
        policy = make_policy("random", 4, rng=SeededRng(0))
        assert policy_provenance(policy) is None

    def test_permutation_policy_digest(self):
        first = policy_provenance(PermutationPolicy(4, lru_spec(4)))
        second = policy_provenance(PermutationPolicy(4, lru_spec(4)))
        assert first == second
        assert first is not None and first.startswith("spec:")
        from repro.policies.permutation import fifo_spec

        assert policy_provenance(PermutationPolicy(4, fifo_spec(4))) != first

    def test_simulated_oracle(self):
        assert lru_oracle().provenance() == "sim|policy:lru|()|ways=4"
        random_policy = make_policy("random", 4, rng=SeededRng(0))
        assert SimulatedSetOracle(random_policy).provenance() is None

    def test_voting_oracle_wraps_inner(self):
        voter = VotingOracle(lru_oracle(), repetitions=3, aggregate="min")
        assert voter.provenance() == "vote[minx3]|sim|policy:lru|()|ways=4"
        noisy = SimulatedSetOracle(make_policy("random", 4, rng=SeededRng(0)))
        assert VotingOracle(noisy).provenance() is None

    def test_caching_oracle_passes_through(self):
        assert CachingOracle(lru_oracle()).provenance() == lru_oracle().provenance()

    def test_hardware_oracle_noise_free(self):
        platform = HardwarePlatform(get_processor("atom-d525-like"), seed=3)
        oracle = HardwareSetOracle(platform, "L1", max_blocks=16)
        provenance = oracle.provenance()
        assert provenance is not None
        assert provenance.startswith("hw|atom-d525-like|L1|")
        assert "seed=3" in provenance

    def test_hardware_oracle_noisy_has_none(self):
        spec = get_processor("atom-d525-like")
        noisy = type(spec)(
            name=spec.name,
            description=spec.description,
            levels=spec.levels,
            page_size=spec.page_size,
            noise=NoiseModel(counter_noise_rate=0.01),
        )
        oracle = HardwareSetOracle(HardwarePlatform(noisy), "L1", max_blocks=16)
        assert oracle.provenance() is None

    def test_voting_repetitions_validated(self):
        with pytest.raises(MeasurementError):
            VotingOracle(lru_oracle(), repetitions=0)
