"""Tests for the evict/fill predictability metrics."""

import pytest

from repro.analysis.generic import mls_metric_policy
from repro.core.permutation import derive_spec_from_policy
from repro.errors import ConfigurationError
from repro.eval.predictability import (
    collapse_depth_policy,
    collapse_depth_spec,
    evict_metric_policy,
    evict_metric_spec,
    full_set_states,
    predictability_of_policy,
    predictability_of_spec,
)
from repro.kernels import automaton, clear_compile_cache, compile_policy, store
from repro.policies import (
    BitPlruPolicy,
    FifoPolicy,
    LruPolicy,
    NruPolicy,
    PlruPolicy,
    RandomPolicy,
    ReplacementPolicy,
    fifo_spec,
    get,
    lru_spec,
)


class CountdownZero(ReplacementPolicy):
    """Always evicts way 0; a hit on way ``w`` sets a countdown to
    ``ways + w`` and every fill counts it down, so ``2 * ways - 1``
    evicting misses bring every full-set state to one."""

    NAME = "_countdown_zero"

    def __init__(self, ways):
        super().__init__(ways)
        self.countdown = 0

    def touch(self, way):
        self.countdown = self.ways + way

    def evict(self):
        return 0

    def fill(self, way):
        self.countdown = max(self.countdown - 1, 0)

    def reset(self):
        self.countdown = 0

    def state_key(self):
        return self.countdown

    def load_state(self, key):
        self.countdown = key

    def clone(self):
        twin = type(self)(self.ways)
        twin.countdown = self.countdown
        return twin


class TestEvictKnownValues:
    """The literature values (Reineke et al.) as ground truth."""

    @pytest.mark.parametrize("ways", [2, 4, 8])
    def test_lru_is_ways(self, ways):
        assert evict_metric_spec(lru_spec(ways)) == ways

    @pytest.mark.parametrize("ways", [2, 4, 8])
    def test_fifo_is_2k_minus_1(self, ways):
        assert evict_metric_spec(fifo_spec(ways)) == 2 * ways - 1

    @pytest.mark.parametrize("ways,expected", [(2, 2), (4, 5), (8, 13)])
    def test_plru_formula(self, ways, expected):
        # evict(PLRU, k) = (k/2) * log2(k) + 1
        spec = derive_spec_from_policy(PlruPolicy(ways))
        assert evict_metric_spec(spec) == expected

    def test_spec_and_policy_paths_agree(self):
        for policy, spec in ((LruPolicy(4), lru_spec(4)), (FifoPolicy(4), fifo_spec(4))):
            assert evict_metric_policy(policy) == evict_metric_spec(spec)


class TestFill:
    def test_fill_is_evict_plus_ways_for_standard_miss(self):
        result = predictability_of_spec("lru", lru_spec(4))
        assert result.fill == result.evict + 4

    def test_collapse_depth_standard(self):
        assert collapse_depth_spec(lru_spec(8)) == 8

    def test_one_bit_policies_never_collapse(self):
        for policy in (BitPlruPolicy(4), NruPolicy(4)):
            result = predictability_of_policy(policy.NAME, policy)
            assert result.evict is not None
            assert result.fill is None


class TestPolicyPathDispatch:
    def test_permutation_policies_use_spec_path(self):
        # Way-symmetric policies must not be punished by way-labeled
        # collapse: LRU's fill is finite.
        result = predictability_of_policy("lru", LruPolicy(4))
        assert result.fill == 8

    def test_random_is_unbounded(self):
        result = predictability_of_policy("random", RandomPolicy(4))
        assert result.evict is None and result.fill is None

    def test_evict_metric_takes_the_spec_game_first(self):
        # LRU's way-space game at 8 ways exceeds the state budget; its
        # spec game answers.
        assert predictability_of_policy("lru", get("lru", 8)).row() == ["lru", 8, 8, 16, ""]

    def test_policy_without_automaton_names_the_cause(self):
        class Unloadable(CountdownZero):
            def state_key(self):  # no load_state of its own: no automaton
                return ("unloadable", self.countdown)

        result = predictability_of_policy("unloadable", Unloadable(4))
        assert result.row() == ["unloadable", 4, "-", "-", "no automaton"]

    def test_closure_past_its_budget_reads_budget_exceeded(self):
        policy = NruPolicy(4)
        automaton._INSTANCE_CACHE[policy] = compile_policy(policy, budget=3)
        result = predictability_of_policy("nru", policy)
        assert result.row() == ["nru", 4, "-", "-", "state budget exceeded"]


class TestReachableStates:
    def test_lru_reaches_all_orders(self):
        _, states = full_set_states(LruPolicy(3))
        assert len(states) == 6  # 3! recency orders

    def test_plru_reaches_all_bit_patterns(self):
        _, states = full_set_states(PlruPolicy(4))
        assert len(states) == 8  # 2^3 tree-bit patterns

    def test_budget_enforced(self):
        with pytest.raises(ConfigurationError):
            evict_metric_policy(LruPolicy(4), max_states=10)


#: (policy, ways, evict, collapse, mls) of every deterministic registered
#: policy but ``permutation``, as the way-space games on cloned policy
#: objects answered them before the games moved onto the automaton
#: tables (mls with the spec shortcut off).
GOLDEN_GAMES = [
    ("bitplru", 2, 2, None, 2),
    ("clock", 2, 3, None, 1),
    ("fifo", 2, 3, None, 1),
    ("lip", 2, None, None, 1),
    ("lru", 2, 2, None, 2),
    ("nru", 2, 3, None, 1),
    ("plru", 2, 2, None, 2),
    ("qlru_h00_m0", 2, 3, None, 1),
    ("qlru_h00_m1", 2, 3, None, 1),
    ("qlru_h00_m2", 2, 4, None, 1),
    ("qlru_h00_m3", 2, None, None, 1),
    ("qlru_h01_m0", 2, 3, None, 1),
    ("qlru_h01_m1", 2, 3, None, 1),
    ("qlru_h01_m2", 2, 4, None, 1),
    ("qlru_h01_m3", 2, None, None, 1),
    ("qlru_h11_m0", 2, 3, None, 1),
    ("qlru_h11_m1", 2, 3, None, 1),
    ("qlru_h11_m2", 2, 4, None, 1),
    ("qlru_h11_m3", 2, None, None, 1),
    ("qlru_h21_m0", 2, 3, None, 1),
    ("qlru_h21_m1", 2, 3, None, 1),
    ("qlru_h21_m2", 2, 4, None, 1),
    ("qlru_h21_m3", 2, None, None, 1),
    ("slru", 2, None, None, 1),
    ("srrip", 2, 4, None, 1),
    ("bitplru", 4, 6, None, 2),
    ("clock", 4, 7, None, 1),
    ("fifo", 4, 7, None, 1),
    ("lip", 4, None, None, 1),
    ("lru", 4, 4, None, 4),
    ("nru", 4, 7, None, 1),
    ("plru", 4, 5, None, 3),
    ("qlru_h00_m0", 4, 7, None, 1),
    ("qlru_h00_m1", 4, 7, None, 1),
    ("qlru_h00_m2", 4, 12, None, 1),
    ("qlru_h00_m3", 4, None, None, 1),
    ("qlru_h01_m0", 4, 7, None, 1),
    ("qlru_h01_m1", 4, 7, None, 1),
    ("qlru_h01_m2", 4, 12, None, 1),
    ("qlru_h01_m3", 4, None, None, 1),
    ("qlru_h11_m0", 4, 7, None, 1),
    ("qlru_h11_m1", 4, 7, None, 1),
    ("qlru_h11_m2", 4, 12, None, 1),
    ("qlru_h11_m3", 4, None, None, 1),
    ("qlru_h21_m0", 4, 7, None, 1),
    ("qlru_h21_m1", 4, 7, None, 1),
    ("qlru_h21_m2", 4, 10, None, 1),
    ("qlru_h21_m3", 4, None, None, 1),
    ("slru", 4, None, None, 2),
    ("srrip", 4, 12, None, 1),
]


@pytest.mark.parametrize("source", ["compiled", "stored"])
@pytest.mark.parametrize("name,ways,evict,collapse,mls", GOLDEN_GAMES)
def test_games_match_the_recorded_values(monkeypatch, source, name, ways, evict, collapse, mls):
    clear_compile_cache()
    if source == "stored":
        store.warm([(name, (), ways)])
        clear_compile_cache()
    # Play mls in way space for permutation policies too.
    monkeypatch.setattr(
        "repro.analysis.generic.derive_spec_from_policy", lambda policy: None
    )
    policy = get(name, ways)
    assert full_set_states(policy)[0].frozen == (source == "stored")
    assert evict_metric_policy(policy) == evict
    assert collapse_depth_policy(policy) == collapse
    assert mls_metric_policy(policy) == mls
    clear_compile_cache()


class ForgetfulZero(CountdownZero):
    """A fill forgets every hit, so one evicting miss decides the state."""

    def fill(self, way):
        self.countdown = 0


def test_finite_way_space_collapse():
    # Values recorded from the clone-based games.
    policy = CountdownZero(4)
    assert collapse_depth_policy(policy) == 7
    assert evict_metric_policy(policy) is None  # misses only ever clear way 0
    assert mls_metric_policy(policy) == 1
    # The last ``ways`` fills are part of the known state, so a collapse
    # takes at least ``ways`` misses.
    assert collapse_depth_policy(ForgetfulZero(4)) == 4
