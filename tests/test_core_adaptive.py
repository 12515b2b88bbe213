"""Tests for adaptivity (set dueling) detection."""

import pytest

from repro.cache import CacheConfig
from repro.core import SimulatedSetOracle
from repro.core.adaptive import (
    AdaptivityReport,
    AdaptivitySurvey,
    SetClassification,
    detect_nondeterminism,
)
from repro.hardware import HardwarePlatform, HardwareSetOracle, LevelSpec, ProcessorSpec
from repro.policies import BipPolicy, LruPolicy, PlruPolicy, get
from repro.util.rng import SeededRng


class TestDetectNondeterminism:
    def test_deterministic_policies_pass(self):
        for name in ("lru", "fifo", "plru", "bitplru", "srrip"):
            oracle = SimulatedSetOracle(get(name, 4))
            assert detect_nondeterminism(oracle, ways=4) is False

    def test_random_policy_flagged(self):
        oracle = SimulatedSetOracle(get("random", 4, rng=SeededRng(0)))
        assert detect_nondeterminism(oracle, ways=4) is True

    def test_bip_flagged(self):
        oracle = SimulatedSetOracle(BipPolicy(4, rng=SeededRng(0)))
        assert detect_nondeterminism(oracle, ways=4) is True

    def test_dip_l3_flagged_through_the_hardware_path(self):
        # A DIP level makes the platform non-replayable: every repeat is
        # simulated afresh, so the bimodal insertion's draws show.
        spec = ProcessorSpec(
            name="dip-l3",
            description="test-only: PLRU L1, LRU L2, inclusive DIP L3",
            levels=(
                LevelSpec(CacheConfig("L1", 1024, 2), "plru"),
                LevelSpec(CacheConfig("L2", 4096, 4), "lru"),
                LevelSpec(CacheConfig("L3", 16 * 1024, 8, inclusion="inclusive"), "dip"),
            ),
        )
        oracle = HardwareSetOracle(HardwarePlatform(spec), "L3", max_blocks=64)
        assert not oracle.platform.replayable
        assert detect_nondeterminism(oracle, ways=oracle.ways) is True


class TestReport:
    def test_uniform_named_is_fixed(self):
        report = AdaptivityReport(
            "L3",
            (
                SetClassification(0, "named", "lru"),
                SetClassification(5, "named", "lru"),
            ),
        )
        assert not report.adaptive
        assert report.fixed_policy == "lru"
        assert "fixed policy: lru" in report.summary()

    def test_mixed_names_is_adaptive(self):
        report = AdaptivityReport(
            "L3",
            (
                SetClassification(0, "named", "lru"),
                SetClassification(5, "named", "bitplru"),
                SetClassification(9, "named", "lru"),
            ),
        )
        assert report.adaptive
        assert report.fixed_policy is None
        leaders = report.suspected_leaders()
        assert [c.set_index for c in leaders] == [5]

    def test_mixed_kinds_is_adaptive(self):
        report = AdaptivityReport(
            "L3",
            (
                SetClassification(0, "named", "lru"),
                SetClassification(5, "nondeterministic", None),
                SetClassification(9, "nondeterministic", None),
            ),
        )
        assert report.adaptive
        assert [c.set_index for c in report.suspected_leaders()] == [0]
        assert "ADAPTIVE" in report.summary()


class TestSurvey:
    def test_survey_on_fixed_policy(self):
        # Every "set" is an independent PLRU instance: not adaptive.
        def factory(set_index):
            return SimulatedSetOracle(PlruPolicy(4))

        survey = AdaptivitySurvey(factory, ways=4, level="L1")
        report = survey.survey([0, 1, 2])
        assert not report.adaptive
        assert report.fixed_policy == "plru"

    def test_survey_on_simulated_dueling(self):
        # Emulate a DIP-like cache: set 0 runs LRU (leader), the rest BIP.
        def factory(set_index):
            if set_index == 0:
                return SimulatedSetOracle(LruPolicy(4))
            return SimulatedSetOracle(BipPolicy(4, rng=SeededRng(set_index)))

        survey = AdaptivitySurvey(factory, ways=4, level="L3")
        report = survey.survey([0, 3, 7, 11])
        assert report.adaptive
        assert [c.set_index for c in report.suspected_leaders()] == [0]
        leader = report.classifications[0]
        assert leader.kind == "named" and leader.policy_name == "lru"
