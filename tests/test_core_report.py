"""Tests for the combined reverse-engineering pipeline."""

import pytest

from repro.core import SimulatedSetOracle, reverse_engineer
from repro.core.identify import IdentificationConfig
from repro.core.inference import InferenceConfig
from repro.policies import LruPolicy, PlruPolicy, RandomPolicy, get


class TestReverseEngineer:
    def test_permutation_route(self):
        finding = reverse_engineer(SimulatedSetOracle(PlruPolicy(4)))
        assert finding.method == "permutation"
        assert finding.policy_name == "plru"
        assert finding.spec is not None
        assert finding.identified
        assert "plru" in finding.summary()

    def test_candidate_route(self):
        finding = reverse_engineer(SimulatedSetOracle(get("bitplru", 4)))
        assert finding.method == "candidate"
        assert finding.policy_name == "bitplru"
        assert finding.spec is None
        assert "candidate" in finding.summary()

    def test_random_policy_unidentified(self):
        finding = reverse_engineer(SimulatedSetOracle(RandomPolicy(4)))
        assert finding.method == "unknown"
        assert not finding.identified
        assert "unidentified" in finding.summary()

    def test_cost_accumulates_over_both_stages(self):
        permutation_only = reverse_engineer(SimulatedSetOracle(LruPolicy(4)))
        fallback = reverse_engineer(SimulatedSetOracle(get("nru", 4)))
        assert fallback.measurements > 0
        assert permutation_only.measurements > 0

    def test_configs_forwarded(self):
        finding = reverse_engineer(
            SimulatedSetOracle(LruPolicy(4)),
            inference_config=InferenceConfig(verify_sequences=5),
            identification_config=IdentificationConfig(screening_sequences=5),
        )
        assert finding.policy_name == "lru"

    def test_ways_override(self):
        oracle = SimulatedSetOracle(LruPolicy(4), expose_ways=False)
        finding = reverse_engineer(oracle, ways=4)
        assert finding.ways == 4
        assert finding.policy_name == "lru"
