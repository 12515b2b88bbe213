"""Tests for candidate-set identification."""

import pytest

from repro.core import (
    CandidateIdentification,
    IdentificationConfig,
    SimulatedSetOracle,
    default_candidates,
)
from repro.policies import LruPolicy, get


class TestDefaultCandidates:
    def test_contains_core_policies(self):
        candidates = default_candidates(8)
        for name in ("lru", "fifo", "plru", "bitplru", "nru", "srrip"):
            assert name in candidates

    def test_excludes_randomized(self):
        candidates = default_candidates(8)
        for name in ("random", "bip", "dip", "brrip", "drrip"):
            assert name not in candidates

    def test_plru_skipped_for_non_power_of_two(self):
        candidates = default_candidates(6)
        assert "plru" not in candidates
        assert "lru" in candidates


class TestIdentification:
    @pytest.mark.parametrize(
        "name", ["lru", "fifo", "plru", "bitplru", "nru", "qlru_h00_m1", "qlru_h11_m2"]
    )
    def test_identifies_registry_policies(self, name):
        oracle = SimulatedSetOracle(get(name, 4))
        result = CandidateIdentification(oracle, ways=4).identify()
        assert result.succeeded
        # Behaviourally identical aliases may win the name tie-break, but
        # the true policy must be among the validated survivors.
        assert name in result.survivors

    def test_srrip_alias_reported_in_survivors(self):
        # SRRIP == qlru_h00_m2 by construction; both must survive.
        oracle = SimulatedSetOracle(get("srrip", 4))
        result = CandidateIdentification(oracle, ways=4).identify()
        assert result.succeeded
        assert "srrip" in result.survivors
        assert "qlru_h00_m2" in result.survivors

    def test_unknown_policy_eliminates_everything(self):
        # A permutation policy deliberately outside the candidate pool:
        # hits at the top two positions swap them, all else identity.
        from repro.core.permutation import standard_miss_perm
        from repro.policies import PermutationPolicy, PermutationSpec
        from repro.policies.permutation import identity

        odd_spec = PermutationSpec(
            4,
            ((1, 0, 2, 3), (1, 0, 2, 3), identity(4), identity(4)),
            standard_miss_perm(4),
        )
        oracle = SimulatedSetOracle(PermutationPolicy(4, odd_spec))
        result = CandidateIdentification(oracle, ways=4).identify()
        assert not result.succeeded
        assert result.survivors == []

    def test_nearly_identical_variants_may_validate_as_alias(self):
        # Identification is consistency-based, not proof: a rightmost
        # victim rule differs from leftmost only when several lines tie
        # at age 3 in a discriminating arrangement, which random
        # screening may never produce.  The library then reports a
        # behaviourally consistent alias, like the paper's methodology
        # would.  What must NOT happen is a validated answer that
        # disagrees with the target on the validation set itself.
        target = get("qlru_h00_m1", 4, victim_rule="rightmost")
        oracle = SimulatedSetOracle(target)
        result = CandidateIdentification(oracle, ways=4).identify()
        if result.succeeded:
            assert result.name.startswith("qlru_h00_m1")

    def test_spec_candidate_can_be_added(self):
        from repro.policies import lru_spec

        oracle = SimulatedSetOracle(LruPolicy(4))
        identification = CandidateIdentification(oracle, ways=4, candidates={})
        identification.add_spec_candidate("mystery", lru_spec(4))
        result = identification.identify()
        assert result.succeeded
        assert result.name == "mystery"

    def test_elimination_records_stage(self):
        oracle = SimulatedSetOracle(LruPolicy(4))
        result = CandidateIdentification(oracle, ways=4).identify()
        assert result.succeeded
        assert "fifo" in result.eliminated

    def test_cost_reported(self):
        oracle = SimulatedSetOracle(LruPolicy(4))
        result = CandidateIdentification(oracle, ways=4).identify()
        assert result.measurements > 0
        assert result.accesses > 0

    def test_config_respected(self):
        oracle = SimulatedSetOracle(LruPolicy(4))
        config = IdentificationConfig(screening_sequences=2, validation_sequences=1)
        result = CandidateIdentification(oracle, ways=4, config=config).identify()
        assert result.succeeded
