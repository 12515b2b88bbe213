"""Unit tests for the compiled policy-automaton kernel (repro.kernels)."""

import hashlib
import random
from array import array

import pytest

from repro.cache import Cache, CacheConfig
from repro.cache.set import CacheSet
from repro.core import SimulatedSetOracle
from repro.core.permutation import derive_spec_from_policy
from repro.errors import KernelUnsupported
from repro.kernels import (
    DEFAULT_BUDGET,
    clear_compile_cache,
    compile_policy,
    compiled_for,
    compiled_for_factory,
    compiled_for_spec,
    count_misses_kernel,
    count_misses_preloaded,
    mark_factory_unsupported,
    mark_spec_unsupported,
    mark_unsupported,
    sequence_hits,
    simulate_sequence,
    try_simulate_trace,
)
from repro.kernels import automaton
from repro.obs import metrics as obs_metrics
from repro.policies import (
    LruPolicy,
    PlruPolicy,
    RandomPolicy,
    ReplacementPolicy,
    get,
    lru_spec,
)
from repro.util.rng import SeededRng
from repro.workloads.trace import Trace
from tests.conftest import (
    all_deterministic_policies,
    interpreted_misses,
    interpreted_stats,
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Compilation caches are process-global; isolate every test."""
    clear_compile_cache()
    yield
    clear_compile_cache()


class TestCompilePolicy:
    def test_compile_from_instance(self):
        compiled = compile_policy(LruPolicy(4))
        assert compiled.ways == 4
        assert compiled.num_states == 1  # lazy: only the reset state so far

    def test_compile_from_name(self):
        assert compile_policy("fifo", 4).ways == 4

    def test_compile_from_name_needs_ways(self):
        with pytest.raises(KernelUnsupported):
            compile_policy("lru")

    def test_compile_from_spec(self):
        compiled = compile_policy(lru_spec(4))
        assert compiled.ways == 4

    def test_ways_mismatch_rejected(self):
        with pytest.raises(KernelUnsupported):
            compile_policy(LruPolicy(4), ways=8)

    def test_randomized_policy_unsupported(self):
        with pytest.raises(KernelUnsupported):
            compile_policy(RandomPolicy(4))
        with pytest.raises(KernelUnsupported):
            compile_policy("dip", 4)

    def test_expand_all_closes_the_automaton(self):
        # Closed-form state spaces: LRU reaches every permutation of its
        # recency stack, tree PLRU every setting of ways-1 bits, and FIFO
        # only the rotations of its queue that in-order fills and
        # evicting misses make.
        assert compile_policy("lru", 3).expand_all() == 6
        assert compile_policy("plru", 4).expand_all() == 8
        for ways in range(2, 9):
            assert compile_policy("fifo", ways).expand_all() == ways
        for name, ways in (("lru", 3), ("fifo", 4), ("plru", 4), ("srrip", 4)):
            compiled = compile_policy(name, ways)
            total = compiled.expand_all()
            assert total == compiled.num_states
            events = _reachable_events(compiled)
            # Exactly the events a set takes from either root are
            # expanded; every other entry is left -1.
            expanded = {
                (table, index)
                for table in ("hit_next", "fill_next", "miss_next")
                for index, entry in enumerate(getattr(compiled, table))
                if entry >= 0
            }
            assert expanded == events, name
            assert [v >= 0 for v in compiled.miss_victim] == [
                n >= 0 for n in compiled.miss_next
            ]

    def test_budget_exceeded_raises(self):
        compiled = compile_policy(LruPolicy(4), budget=3)
        with pytest.raises(KernelUnsupported):
            compiled.expand_all()

    def test_default_budget_bounds_lazy_growth(self):
        compiled = compile_policy(LruPolicy(4))
        assert compiled.budget == DEFAULT_BUDGET


def _reachable_events(compiled):
    """``(table, index)`` of every event a set takes, walked on the tables.

    Starts from the reset state with an empty and with a full set, and
    asserts on the way that each event it needs is expanded.
    """
    ways = compiled.ways
    todo = [(0, 0), (0, ways)]
    seen = set(todo)
    events = set()
    while todo:
        state, valid = todo.pop()
        steps = [("hit_next", state * ways + way, valid) for way in range(valid)]
        if valid < ways:
            steps.append(("fill_next", state * ways + valid, valid + 1))
        else:
            assert compiled.miss_victim[state] >= 0, (state, valid)
            steps.append(("miss_next", state, ways))
        for table, index, after in steps:
            successor = getattr(compiled, table)[index]
            assert successor >= 0, (table, state, valid)
            events.add((table, index))
            if (successor, after) not in seen:
                seen.add((successor, after))
                todo.append((successor, after))
    return events


def _fingerprint_cases():
    for ways in (2, 4):
        for name, policy in all_deterministic_policies(ways):
            yield f"{name}@{ways}", policy
    for name in ("plru", "bitplru", "nru", "clock", "lru"):
        yield f"{name}@8", get(name, 8)
    yield "derived-plru@4", derive_spec_from_policy(PlruPolicy(4))


def test_expanded_automaton_fingerprint():
    """State ids and tables are pinned, lazy-then-eager expansion included.

    Each automaton first expands the first cold fills of an empty set
    out of closure order, as a running engine would (fill way 0, then
    way 1 from there, then way 2), then closes under ``expand_all()``.
    The digest covers the state count and all four tables of every case,
    so any change to how states are discovered, numbered or stepped
    shows up here; the store's artifacts are these tables byte for byte.
    """
    digest = hashlib.sha256()
    for label, target in _fingerprint_cases():
        compiled = compile_policy(target)
        state = 0
        for way in range(min(3, compiled.ways)):
            state = compiled.expand_fill(state, way)
        compiled.expand_all()
        digest.update(f"{label}:{compiled.num_states};".encode())
        for table in (
            compiled.hit_next,
            compiled.fill_next,
            compiled.miss_victim,
            compiled.miss_next,
        ):
            digest.update(array("i", table).tobytes())
    assert digest.hexdigest() == (
        "94bc8a0eee3903088c009b4610660fbf10cfdd425d9533930817f6cd3e58d8dc"
    )


class _RoundRobin(ReplacementPolicy):
    """Deterministic, with a state key but no ``load_state``."""

    NAME = "test-round-robin"

    def __init__(self, ways):
        super().__init__(ways)
        self._hand = 0

    def touch(self, way):
        self._check_way(way)

    def evict(self):
        return self._hand

    def fill(self, way):
        self._check_way(way)
        if way == self._hand:
            self._hand = (self._hand + 1) % self.ways

    def reset(self):
        self._hand = 0

    def state_key(self):
        return self._hand

    def clone(self):
        copy = _RoundRobin(self.ways)
        copy._hand = self._hand
        return copy


class _AlternatingLru(LruPolicy):
    """LRU that inserts every other fill at the LRU end.

    Its key adds the fill parity to the stack, so the ``load_state`` it
    inherits from :class:`LruPolicy` would restore only half of it.
    """

    NAME = "test-alternating-lru"

    def __init__(self, ways):
        super().__init__(ways)
        self._odd = False

    def fill(self, way):
        self._check_way(way)
        self._stack.remove(way)
        if self._odd:
            self._stack.append(way)
        else:
            self._stack.insert(0, way)
        self._odd = not self._odd

    def reset(self):
        super().reset()
        self._odd = False

    def state_key(self):
        return (tuple(self._stack), self._odd)

    def clone(self):
        copy = _AlternatingLru(self.ways)
        copy._stack = list(self._stack)
        copy._odd = self._odd
        return copy


@pytest.mark.parametrize("policy_class", [_RoundRobin, _AlternatingLru])
def test_policy_without_own_load_state_runs_on_interpreter(policy_class):
    obs_metrics.DEFAULT.reset()
    assert compiled_for(policy_class(4)) is None
    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    assert counters.get("kernel.compile.unsupported") == 1
    assert counters.get("kernel.compile.miss", 0) == 0

    requests = [
        (list(range(4)), [5, 0, 6, 1, 2, 7]),
        ([3, 1, 4, 1, 5], [9, 2, 6, 5, 3, 5, 8]),
        ([], [0, 1, 2, 3, 4, 0, 1, 5, 2, 6]),
    ]
    answers = SimulatedSetOracle(policy_class(4)).query(requests)
    assert answers == [
        interpreted_misses(policy_class(4), setup, probe) for setup, probe in requests
    ]


class TestCompileCaches:
    def test_instance_cache_returns_same_automaton(self):
        policy = LruPolicy(4)
        first = compiled_for(policy)
        assert first is not None
        assert compiled_for(policy) is first

    def test_instance_cache_none_for_randomized(self):
        policy = RandomPolicy(4)
        assert compiled_for(policy) is None
        # The failed probe is remembered, not retried.
        assert compiled_for(policy) is None

    def test_mark_unsupported_stops_retries(self):
        policy = LruPolicy(4)
        assert compiled_for(policy) is not None
        mark_unsupported(policy)
        assert compiled_for(policy) is None

    def test_factory_cache(self):
        first = compiled_for_factory("plru", (), 8)
        assert first is not None
        assert compiled_for_factory("plru", (), 8) is first
        assert compiled_for_factory("random", (), 8) is None
        mark_factory_unsupported("plru", (), 8)
        assert compiled_for_factory("plru", (), 8) is None

    def test_spec_cache(self):
        spec = lru_spec(4)
        first = compiled_for_spec(spec)
        assert first is not None
        assert compiled_for_spec(spec) is first
        mark_spec_unsupported(spec)
        assert compiled_for_spec(spec) is None

    def test_clear_compile_cache(self):
        policy = LruPolicy(4)
        first = compiled_for(policy)
        clear_compile_cache()
        assert compiled_for(policy) is not first


class TestSingleSetEngine:
    def test_count_misses_matches_oracle(self):
        compiled = compile_policy(LruPolicy(2))
        for setup, probe in (([], [1, 2, 1]), ([1, 2], [3, 1])):
            assert count_misses_kernel(compiled, setup, probe) == interpreted_misses(
                LruPolicy(2), setup, probe
            )

    def test_sequence_hits_detail(self):
        compiled = compile_policy(LruPolicy(2))
        assert sequence_hits(compiled, [], [1, 2, 1, 3, 2]) == (
            False,
            False,
            True,
            False,
            False,
        )

    def test_simulate_sequence_matches_cache_set(self):
        blocks = [1, 2, 3, 1, 4, 2, 1, 5, 3]
        compiled = compile_policy("plru", 4)
        cache_set = CacheSet(4, get("plru", 4))
        assert simulate_sequence(compiled, blocks) == [
            cache_set.access(block) for block in blocks
        ]

    def test_preloaded_matches_preloaded_set(self):
        tags = [10, 11, 12, 13]
        probe = [14, 10, 15, 11, 12]
        compiled = compile_policy("srrip", 4)
        cache_set = CacheSet(4, get("srrip", 4))
        cache_set.preload(tags)
        expected = sum(1 for block in probe if not cache_set.access(block).hit)
        assert count_misses_preloaded(compiled, tags, probe) == expected

    def test_preloaded_validates_length(self):
        compiled = compile_policy(LruPolicy(4))
        with pytest.raises(KernelUnsupported):
            count_misses_preloaded(compiled, [1, 2], [3])


class TestAutomatonPolicy:
    """One set's policy as a state id of a shared automaton, the way a
    hierarchy level's sets run, against the policy it was compiled from."""

    NAMES = [name for name, _ in all_deterministic_policies(4)]

    @pytest.mark.parametrize("budget", [DEFAULT_BUDGET, 3])
    @pytest.mark.parametrize("name", NAMES)
    def test_events_match_the_policy(self, name, budget):
        rng = random.Random(name)
        policy = get(name, 4)
        compiled = compile_policy(get(name, 4), budget=budget)
        ours = automaton.AutomatonPolicy(compiled)
        copies = []
        obs_metrics.DEFAULT.reset()
        for _ in range(400):
            event = rng.random()
            way = rng.randrange(4)
            if event < 0.4:
                ours.touch(way)
                policy.touch(way)
            elif event < 0.7:
                victim = policy.evict()
                assert ours.evict() == victim
                ours.fill(victim)
                policy.fill(victim)
            elif event < 0.9:
                # Any way, as a fill into a hole an invalidation left.
                ours.fill(way)
                policy.fill(way)
            elif event < 0.95:
                copies.append((ours.clone(), policy.clone()))
            else:
                ours = automaton.AutomatonPolicy(compiled)
                ours.load_state(policy.state_key())
            assert ours.state_key() == policy.state_key()
        for copy, reference in copies:  # untouched by what came after
            assert copy.state_key() == reference.state_key()
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        blown = compiled.num_states > budget
        assert ("kernel.budget_fallbacks" in counters) == blown
        ours.reset()
        policy.reset()
        assert ours.state_key() == policy.state_key()


class TestRouting:
    CONFIG = CacheConfig("tiny", 2 * 1024, 4)  # 8 sets

    def _trace(self):
        return Trace("t", tuple((i % 96) * 64 for i in range(300)))

    def test_try_simulate_trace_matches_interpreter(self):
        trace = self._trace()
        stats = try_simulate_trace(trace, self.CONFIG, "lru")
        assert stats is not None
        assert stats == interpreted_stats(trace, self.CONFIG, "lru")

    def test_try_simulate_trace_direct_mode_for_randomized(self):
        # Randomized policies cannot compile, but direct mode still
        # fast-paths them — bit-identically, rng draws included.
        trace = self._trace()
        stats = try_simulate_trace(trace, self.CONFIG, "random", seed=3)
        assert stats is not None
        cache = Cache(self.CONFIG, "random", rng=SeededRng(3))
        for address in trace:
            cache.access(address)
        assert stats == cache.stats

    def test_oracle_routing_is_transparent(self):
        setup = list(range(4))
        probe = [5, 0, 6, 1, 2, 7]
        fast = SimulatedSetOracle(get("plru", 4))
        fast_count = fast.count_misses(setup, probe)
        assert interpreted_misses(get("plru", 4), setup, probe) == fast_count
        # Cost metrics count the one measurement, as the interpreter's would.
        assert fast.measurements == 1
        assert fast.accesses == len(setup) + len(probe)


class TestKernelCounters:
    CONFIG = CacheConfig("tiny", 2 * 1024, 4)  # 8 sets

    def _trace(self):
        return Trace("t", tuple((i % 96) * 64 for i in range(300)))

    def test_trace_mode_flushes_counters(self):
        obs_metrics.DEFAULT.reset()
        stats = try_simulate_trace(self._trace(), self.CONFIG, "lru")
        assert stats is not None
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters["kernel.calls"] == 1
        assert counters["kernel.calls.trace"] == 1
        assert counters["kernel.accesses"] == stats.accesses
        assert counters["kernel.hits"] == stats.hits
        assert counters["kernel.misses"] == stats.misses
        assert counters["kernel.evictions"] == stats.evictions

    def test_direct_mode_flushes_counters(self):
        obs_metrics.DEFAULT.reset()
        stats = try_simulate_trace(self._trace(), self.CONFIG, "random", seed=3)
        assert stats is not None
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters["kernel.calls"] == 1
        assert counters["kernel.calls.direct"] == 1
        assert counters["kernel.accesses"] == stats.accesses

    def test_budget_blown_mid_measurement_is_counted(self):
        """An automaton that outgrows its budget during a measurement
        sends the oracle to the interpreter and counts the fallback."""
        policy = get("plru", 4)
        automaton._INSTANCE_CACHE[policy] = compile_policy(policy, budget=3)
        obs_metrics.DEFAULT.reset()
        setup, probe = [0, 1, 2, 3], [4, 0, 5, 1]
        misses = SimulatedSetOracle(policy).count_misses(setup, probe)
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters["kernel.budget_fallbacks"] == 1
        assert interpreted_misses(get("plru", 4), setup, probe) == misses
        # The blown automaton is not offered again.
        assert compiled_for(policy) is None

    def test_budget_blown_mid_trace_is_counted(self):
        """A whole-trace run whose automaton outgrows its budget re-runs
        in direct mode, bit-identically, and counts the fallback."""
        automaton._FACTORY_CACHE[("plru", (), 4)] = compile_policy(
            "plru", 4, budget=3
        )
        obs_metrics.DEFAULT.reset()
        trace = self._trace()
        stats = try_simulate_trace(trace, self.CONFIG, "plru")
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters["kernel.budget_fallbacks"] == 1
        assert counters["kernel.calls.direct"] == 1
        assert stats == interpreted_stats(trace, self.CONFIG, "plru")
        assert compiled_for_factory("plru", (), 4) is None

    def test_no_budget_fallback_on_a_fitting_automaton(self):
        obs_metrics.DEFAULT.reset()
        assert try_simulate_trace(self._trace(), self.CONFIG, "plru") is not None
        assert SimulatedSetOracle(get("plru", 4)).count_misses([0, 1], [2, 0]) == 1
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert "kernel.budget_fallbacks" not in counters

