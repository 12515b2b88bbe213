"""Tests for the minimum-life-span metric and the generic analysis."""

import pytest

from repro.analysis import generic_analysis, mls_metric_policy
from repro.analysis.generic import mls_metric_spec
from repro.analysis import ALWAYS_HIT, analyze, check_soundness, simple_loop, straight_line
from repro.cache import CacheConfig
from repro.core.permutation import derive_spec_from_policy
from repro.errors import ConfigurationError
from repro.policies import PlruPolicy, get, lru_spec

CONFIG = CacheConfig("L1", 1024, 4)  # 4 sets, 4-way


class TestMlsKnownValues:
    @pytest.mark.parametrize("ways", [2, 4, 8, 16])
    def test_lru_is_ways(self, ways):
        assert mls_metric_policy(get("lru", ways)) == ways

    @pytest.mark.parametrize("ways", [2, 4, 8])
    def test_fifo_is_one(self, ways):
        assert mls_metric_policy(get("fifo", ways)) == 1

    @pytest.mark.parametrize("ways,expected", [(2, 2), (4, 3), (8, 4), (16, 5)])
    def test_plru_is_log2_plus_one(self, ways, expected):
        # The classic result: k-way PLRU guarantees only as much as a
        # (log2 k + 1)-way LRU.
        assert mls_metric_policy(PlruPolicy(ways)) == expected

    @pytest.mark.parametrize("ways", [2, 4, 8])
    def test_bitplru_is_two(self, ways):
        assert mls_metric_policy(get("bitplru", ways)) == 2

    def test_randomized_is_none(self):
        assert mls_metric_policy(get("random", 4)) is None

    def test_single_way(self):
        assert mls_metric_policy(get("lru", 1)) == 1

    def test_spec_path_matches_policy_path(self):
        spec = derive_spec_from_policy(PlruPolicy(4))
        assert mls_metric_spec(spec) == 3
        assert mls_metric_spec(lru_spec(4)) == 4


class TestGenericAnalysis:
    def loop_program(self, config=CONFIG):
        # A loop reusing two lines in one set plus preheader warmup.
        stride = config.way_size
        return simple_loop([0, stride], [0, stride])

    def test_lru_guarantees_loop_hits(self):
        result = generic_analysis(self.loop_program(), CONFIG, get("lru", 4))
        assert result.verdict_of("body", 0) == ALWAYS_HIT
        assert result.verdict_of("body", 1) == ALWAYS_HIT

    def test_fifo_guarantees_nothing_across_conflicts(self):
        result = generic_analysis(self.loop_program(), CONFIG, get("fifo", 4))
        # With mls(FIFO)=1, a line is only guaranteed until the next
        # distinct access in its set.
        assert result.verdict_of("body", 0) != ALWAYS_HIT

    def test_plru_between_the_two(self):
        # mls(PLRU,4) = 3: two conflicting lines stay guaranteed.
        result = generic_analysis(self.loop_program(), CONFIG, PlruPolicy(4))
        assert result.verdict_of("body", 0) == ALWAYS_HIT

    @pytest.mark.parametrize("policy_name", ["lru", "fifo", "plru", "bitplru", "nru"])
    def test_sound_against_simulation(self, policy_name):
        program = self.loop_program()
        policy = get(policy_name, 4)
        result = generic_analysis(program, CONFIG, policy)
        violations = check_soundness(
            program, CONFIG, result, policy=policy_name, paths=40
        )
        assert violations == []

    def test_ways_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            generic_analysis(self.loop_program(), CONFIG, get("lru", 8))

    @pytest.mark.parametrize("ways", [4, 8])
    def test_generic_lru_equals_plain_analysis(self, ways):
        # The may bound takes LRU's spec game, as E5 does; LRU's 8-way
        # game in way space exceeds the state budget.
        config = CacheConfig("L1", ways * 1024, ways)
        program = self.loop_program(config)
        plain = analyze(program, config)
        generic = generic_analysis(program, config, get("lru", ways))
        assert plain.classifications == generic.classifications
