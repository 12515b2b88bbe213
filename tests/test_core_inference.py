"""Tests for measurement-based permutation inference."""

import pytest

from repro.core import (
    InferenceConfig,
    PermutationInference,
    SimulatedSetOracle,
    VotingOracle,
    equivalent,
)
from repro.core.permutation import derive_spec_from_policy
from repro.errors import InferenceError
from repro.policies import (
    BitPlruPolicy,
    FifoPolicy,
    LruPolicy,
    PermutationPolicy,
    PlruPolicy,
    RandomPolicy,
    get,
    lru_spec,
)


class TestAssociativityInference:
    @pytest.mark.parametrize("ways", [1, 2, 3, 4, 6, 8, 16])
    def test_lru(self, ways):
        oracle = SimulatedSetOracle(LruPolicy(ways), expose_ways=False)
        assert PermutationInference(oracle).infer_associativity() == ways

    @pytest.mark.parametrize("policy_name", ["fifo", "plru", "bitplru", "srrip"])
    def test_other_policies(self, policy_name):
        oracle = SimulatedSetOracle(get(policy_name, 8), expose_ways=False)
        assert PermutationInference(oracle).infer_associativity() == 8


class TestInferencePositive:
    @pytest.mark.parametrize("ways", [2, 3, 4, 8])
    def test_lru_recovered(self, ways):
        oracle = SimulatedSetOracle(LruPolicy(ways))
        result = PermutationInference(oracle).infer()
        assert result.succeeded
        assert equivalent(result.spec, lru_spec(ways))

    @pytest.mark.parametrize("ways", [2, 4, 8])
    def test_fifo_recovered(self, ways):
        oracle = SimulatedSetOracle(FifoPolicy(ways))
        result = PermutationInference(oracle).infer()
        assert result.succeeded
        identity = tuple(range(ways))
        assert all(perm == identity for perm in result.spec.hit_perms)

    @pytest.mark.parametrize("ways", [4, 8])
    def test_plru_recovered(self, ways):
        oracle = SimulatedSetOracle(PlruPolicy(ways))
        result = PermutationInference(oracle).infer()
        assert result.succeeded
        truth = derive_spec_from_policy(PlruPolicy(ways))
        assert equivalent(result.spec, truth)

    def test_synthetic_permutation_round_trip(self):
        # Take LRU, conjugate it into an unfamiliar representation, run
        # it as a black box, and check inference recovers an equivalent.
        spec = lru_spec(4).conjugate((2, 0, 1, 3))
        oracle = SimulatedSetOracle(PermutationPolicy(4, spec))
        result = PermutationInference(oracle).infer()
        assert result.succeeded
        assert equivalent(result.spec, spec)


class TestInferenceNegative:
    def test_bitplru_rejected_with_reason(self):
        oracle = SimulatedSetOracle(BitPlruPolicy(4))
        result = PermutationInference(oracle).infer()
        assert not result.succeeded
        assert result.spec is None
        assert result.failure_reason

    def test_qlru_rejected_by_verification(self):
        oracle = SimulatedSetOracle(get("qlru_h00_m1", 4))
        result = PermutationInference(oracle).infer()
        assert not result.succeeded

    def test_random_policy_rejected(self):
        oracle = SimulatedSetOracle(RandomPolicy(4))
        result = PermutationInference(oracle).infer()
        assert not result.succeeded


class TestStrategies:
    def test_binary_matches_linear(self):
        linear = PermutationInference(
            SimulatedSetOracle(PlruPolicy(8)), config=InferenceConfig(strategy="linear")
        ).infer()
        binary = PermutationInference(
            SimulatedSetOracle(PlruPolicy(8)), config=InferenceConfig(strategy="binary")
        ).infer()
        assert linear.succeeded and binary.succeeded
        assert equivalent(linear.spec, binary.spec)

    def test_binary_uses_fewer_measurements(self):
        results = {}
        for strategy in ("linear", "binary"):
            oracle = SimulatedSetOracle(LruPolicy(16))
            results[strategy] = PermutationInference(
                oracle, config=InferenceConfig(strategy=strategy)
            ).infer()
        assert results["binary"].measurements < results["linear"].measurements

    def test_unknown_strategy_rejected(self):
        with pytest.raises(InferenceError):
            InferenceConfig(strategy="psychic")


class TestCostAccounting:
    def test_measurement_counts_reported(self):
        oracle = SimulatedSetOracle(LruPolicy(4))
        result = PermutationInference(oracle).infer()
        assert result.measurements > 0
        assert result.accesses > result.measurements

    def test_position_tables_exposed(self):
        oracle = SimulatedSetOracle(LruPolicy(4))
        result = PermutationInference(oracle).infer()
        assert len(result.position_tables) == 4
        for table in result.position_tables:
            assert sorted(table) == [0, 1, 2, 3]


class TestVotingIntegration:
    def test_inference_through_voting_oracle(self):
        oracle = VotingOracle(SimulatedSetOracle(PlruPolicy(4)), repetitions=3)
        result = PermutationInference(oracle).infer()
        assert result.succeeded
