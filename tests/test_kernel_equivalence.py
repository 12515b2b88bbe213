"""Property-based kernel/interpreter equivalence suite.

The compiled kernel's whole claim is *bit-identity*: whatever the
interpreted :class:`~repro.cache.set.CacheSet` / :class:`~repro.cache.Cache`
would produce — per-access hit/miss, filled way, eviction order, whole
cache statistics — the table-driven engine must produce too, for every
deterministic policy in the registry and for arbitrary permutation
specs.  Hypothesis supplies the traces and the specs; the interpreter is
the reference implementation in every assertion.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.cache import Cache, CacheConfig
from repro.cache.set import CacheSet
from repro.core import PermutationInference, SimulatedSetOracle
from repro.core.permutation import standard_miss_perm
from repro.kernels import (
    clear_compile_cache,
    compile_policy,
    count_misses_batch,
    count_misses_kernel,
    sequence_hits_batch,
    sequence_hits_preloaded_batch,
    simulate_sequence,
    simulate_trace_direct,
    store,
    try_simulate_trace,
    vector,
)
from repro.kernels.engine import _simulate_trace_scalar
from repro.obs import metrics as obs_metrics
from repro.policies import (
    PermutationPolicy,
    PermutationSpec,
    PolicyFactory,
    available,
    get,
    lru_spec,
)
from repro.util.rng import SeededRng
from repro.workloads.trace import Trace
from tests.conftest import (
    RANDOMIZED,
    all_deterministic_policies,
    interpreted_misses,
    interpreted_stats,
)

WAYS = 4

policy_names = st.sampled_from([name for name, _ in all_deterministic_policies(WAYS)])
block_sequences = st.lists(
    st.integers(min_value=0, max_value=11), min_size=1, max_size=120
)


@st.composite
def random_specs(draw, ways=WAYS):
    """Random standard-miss specs (the class inference targets)."""
    hits = tuple(
        tuple(draw(st.permutations(list(range(ways))))) for _ in range(ways)
    )
    return PermutationSpec(ways, hits, standard_miss_perm(ways))


def build(name, ways=WAYS):
    if name == "permutation":
        from repro.policies import lru_spec

        return get(name, ways, spec=lru_spec(ways))
    return get(name, ways)


@given(name=policy_names, blocks=block_sequences)
@settings(max_examples=150, deadline=None)
def test_registry_policies_bit_identical(name, blocks):
    """Every deterministic policy: full per-access detail matches."""
    compiled = compile_policy(build(name))
    cache_set = CacheSet(WAYS, build(name))
    assert simulate_sequence(compiled, blocks) == [
        cache_set.access(block) for block in blocks
    ]


@given(spec=random_specs(), blocks=block_sequences)
@settings(max_examples=100, deadline=None)
def test_random_specs_bit_identical(spec, blocks):
    """Arbitrary permutation specs: full per-access detail matches."""
    compiled = compile_policy(spec)
    cache_set = CacheSet(WAYS, PermutationPolicy(WAYS, spec))
    assert simulate_sequence(compiled, blocks) == [
        cache_set.access(block) for block in blocks
    ]


@given(
    name=policy_names,
    setup=st.lists(st.integers(min_value=0, max_value=11), max_size=30),
    probe=block_sequences,
)
@settings(max_examples=100, deadline=None)
def test_miss_counts_match_oracle(name, setup, probe):
    """Kernel miss counts equal the interpreter's."""
    compiled = compile_policy(build(name))
    assert count_misses_kernel(compiled, setup, probe) == interpreted_misses(
        build(name), setup, probe
    )


def _random_trace(lines: int, length: int, seed: int) -> Trace:
    rng = SeededRng(seed).fork("trace")
    return Trace(
        f"rand-{seed}",
        tuple(rng.randrange(lines) * 64 for _ in range(length)),
    )


@pytest.mark.parametrize("name", sorted(available()))
@pytest.mark.parametrize("index_hash", ["bits", "xor-fold"])
def test_whole_cache_stats_bit_identical(name, index_hash):
    """try_simulate_trace == interpreted Cache for every registry policy.

    Covers both index hashes and both kernel modes: compiled automata
    for deterministic policies, direct mode for the randomized and
    set-dueling ones (same rng construction order, so identical draws).
    """
    from repro.policies import PolicyFactory, lru_spec

    config = CacheConfig("t", 4 * 1024, 4, index_hash=index_hash)  # 16 sets
    kwargs = {"spec": lru_spec(4)} if name == "permutation" else {}
    factory = PolicyFactory(name, **kwargs)
    trace = _random_trace(lines=200, length=4000, seed=11)

    stats = try_simulate_trace(trace, config, factory, seed=5)
    assert stats is not None
    assert stats == interpreted_stats(trace, config, factory, seed=5)


@pytest.mark.parametrize("name", sorted(RANDOMIZED))
def test_direct_mode_seed_sensitivity(name):
    """Direct mode threads the seed exactly like the interpreter does."""
    config = CacheConfig("t", 2 * 1024, 4)
    trace = _random_trace(lines=150, length=3000, seed=2)
    for seed in (0, 9):
        direct = simulate_trace_direct(trace, config, name, seed=seed)
        cache = Cache(config, name, rng=SeededRng(seed))
        for address in trace:
            cache.access(address)
        assert direct == cache.stats


@given(spec=random_specs())
@settings(max_examples=10, deadline=None)
def test_inference_identical_with_and_without_kernel(spec):
    """The end-to-end inference result does not depend on the path taken.

    The slow run finds no automaton, so the oracle measures and the
    inference predicts on the interpreter, as they do when a spec's
    automaton is refused or blows its budget.
    """
    clear_compile_cache()
    fast = PermutationInference(SimulatedSetOracle(PermutationPolicy(WAYS, spec))).infer()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "compiled_for", lambda policy: None)
        patch.setattr(kernels, "compiled_for_spec", lambda spec: None)
        obs_metrics.DEFAULT.reset()
        slow = PermutationInference(
            SimulatedSetOracle(PermutationPolicy(WAYS, spec))
        ).infer()
        assert obs_metrics.DEFAULT.counter("kernel.calls") == 0
    assert fast.succeeded == slow.succeeded
    assert fast.spec == slow.spec
    assert fast.measurements == slow.measurements
    assert fast.accesses == slow.accesses


# -- closed automata, frozen through the store -------------------------------

@st.composite
def closure_targets(draw):
    """``(factory, ways)``: a deterministic registry policy or a random
    standard-miss spec, at 2 to 4 ways."""
    ways = draw(st.integers(min_value=2, max_value=4))
    if draw(st.booleans()):
        return PolicyFactory("permutation", spec=draw(random_specs(ways))), ways
    name = draw(st.sampled_from([name for name, _ in all_deterministic_policies(ways)]))
    if name == "permutation":
        return PolicyFactory(name, spec=lru_spec(ways)), ways
    return PolicyFactory(name), ways


def _frozen_closure(factory, ways):
    """The closed automaton of ``factory`` at ``ways``, saved and reloaded."""
    key = store.factory_key(factory.name, tuple(sorted(factory.params.items())), ways)
    assert store.save(key, compile_policy(factory.build(ways)))
    frozen = store.load(key)
    assert frozen is not None and frozen.frozen
    return frozen


def _interpreted_hits(factory, ways, setup, probe, preload=None):
    cache_set = CacheSet(ways, factory.build(ways))
    if preload is not None:
        cache_set.preload(preload)
    for block in setup:
        cache_set.access(block)
    return tuple(cache_set.access(block).hit for block in probe)


small_blocks = st.lists(st.integers(min_value=0, max_value=9), max_size=16)


@given(
    target=closure_targets(),
    queries=st.lists(st.tuples(small_blocks, small_blocks), min_size=1, max_size=8),
    probes=st.lists(small_blocks, min_size=1, max_size=6),
    blocks=block_sequences,
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_closed_automaton_answers_like_the_interpreter(
    target, queries, probes, blocks, seed
):
    """A closed automaton, frozen through a store round trip, answers
    every engine's runs exactly as the interpreter does.

    A frozen automaton cannot expand: the scalar engines raise if they
    reach an unexpanded (-1) entry and lock-step falls back, so equal
    answers from both show that the closure covers every event the
    engines issue — from an empty set, from a preloaded full set and
    from every set of a whole-cache trace.  Lock-step also steps the
    closure together with LRU's over one layout, as a grid's group does.
    """
    factory, ways = target
    frozen = _frozen_closure(factory, ways)
    expected = [_interpreted_hits(factory, ways, setup, probe) for setup, probe in queries]
    assert sequence_hits_batch(frozen, queries) == expected
    assert count_misses_batch(frozen, queries) == [
        len(hits) - sum(hits) for hits in expected
    ]
    cache_set = CacheSet(ways, factory.build(ways))
    assert simulate_sequence(frozen, blocks) == [cache_set.access(b) for b in blocks]
    tags = list(range(100, 100 + ways))
    assert sequence_hits_preloaded_batch(frozen, tags, probes) == [
        _interpreted_hits(factory, ways, [], probe, preload=tags) for probe in probes
    ]

    config = CacheConfig("t", 64 * ways * 64, ways)  # 64 sets: lock-step runs
    trace = _random_trace(lines=64 * (ways + 2), length=64 * 12, seed=seed)
    expected = interpreted_stats(trace, config, factory)
    assert _simulate_trace_scalar(trace, config, frozen) == expected
    if vector.available():
        lru = PolicyFactory("lru")
        obs_metrics.DEFAULT.reset()
        assert vector.simulate_trace_lockstep(trace, config, frozen) == expected
        assert vector.simulate_trace_lockstep_all(
            trace, config, [_frozen_closure(lru, ways), frozen]
        ) == [interpreted_stats(trace, config, lru), expected]
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters.get("kernel.vector.fallbacks", 0) == 0
        assert counters["kernel.vector.calls"] == 2
