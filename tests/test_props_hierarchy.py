"""Property-based tests for hierarchy inclusion invariants and flushing."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, CacheHierarchy

traces = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=(1 << 14) - 1),
        st.booleans(),  # write?
    ),
    max_size=300,
)

l3_inclusions = st.sampled_from(["inclusive", "nine"])
l2_inclusions = st.sampled_from(["inclusive", "exclusive", "nine"])
policies = st.sampled_from(["lru", "plru", "fifo", "bitplru"])


def build(l2_inclusion, l3_inclusion, policy):
    return CacheHierarchy(
        [
            CacheConfig("L1", 512, 2),
            CacheConfig("L2", 2048, 4, inclusion=l2_inclusion),
            CacheConfig("L3", 8192, 8, inclusion=l3_inclusion),
        ],
        [policy, policy, policy],
    )


@given(trace=traces, l2=l2_inclusions, l3=l3_inclusions, policy=policies)
@settings(max_examples=60, deadline=None)
def test_inclusion_invariants_under_arbitrary_traffic(trace, l2, l3, policy):
    """Inclusive levels contain upper levels; exclusive levels overlap none."""
    hierarchy = build(l2, l3, policy)
    for address, write in trace:
        hierarchy.access(address, write=write)
    assert hierarchy.check_inclusion_invariants() == []


@given(trace=traces)
@settings(max_examples=60, deadline=None)
def test_per_level_accounting(trace):
    """Each level's hits+misses equals its accesses; L2 sees only L1 misses."""
    hierarchy = build("nine", "nine", "lru")
    for address, write in trace:
        hierarchy.access(address, write=write)
    l1 = hierarchy.level("L1").stats
    l2 = hierarchy.level("L2").stats
    l3 = hierarchy.level("L3").stats
    assert l1.hits + l1.misses == l1.accesses == len(trace)
    assert l2.accesses == l1.misses
    assert l3.accesses == l2.misses
    assert hierarchy.stats.memory_accesses >= l3.misses


@given(trace=traces)
@settings(max_examples=40, deadline=None)
def test_hit_level_matches_walk(trace):
    """The reported hit level is the first level whose walk entry is a hit."""
    hierarchy = build("nine", "inclusive", "plru")
    for address, write in trace:
        result = hierarchy.access(address, write=write)
        hits = [name for name, hit in result.level_hits if hit]
        if result.hit_level is None:
            assert hits == []
        else:
            assert hits == [result.hit_level]


deterministic_policies = st.sampled_from(["lru", "fifo", "plru", "bitplru", "nru", "srrip"])
index_hashes = st.sampled_from(["bits", "xor-fold"])
lower_inclusions = st.sampled_from(["nine", "inclusive", "exclusive"])


@st.composite
def hierarchy_specs(draw):
    """1-3 levels: any lower-level inclusion, any index function."""
    geometries = [("L1", 512, 2), ("L2", 2048, 4), ("L3", 8192, 8)]
    configs = [
        CacheConfig(
            name,
            size,
            ways,
            inclusion="nine" if name == "L1" else draw(lower_inclusions),
            index_hash=draw(index_hashes),
        )
        for name, size, ways in geometries[: draw(st.integers(1, 3))]
    ]
    return configs, [draw(deterministic_policies) for _ in configs]


@given(spec=hierarchy_specs(), first=traces, second=traces)
@settings(max_examples=80, deadline=None)
def test_flush_is_a_power_on_reset(spec, first, second):
    """After flush() every set is empty, clean and in its fresh policy
    state, and a later stream behaves exactly as on a new hierarchy."""
    configs, policies = spec
    hierarchy = CacheHierarchy(configs, policies)
    for address, write in first:
        hierarchy.access(address, write=write)
    hierarchy.flush()
    fresh = CacheHierarchy(configs, policies)
    for cache, new in zip(hierarchy.levels, fresh.levels):
        for cache_set, new_set in zip(cache.sets, new.sets):
            assert cache_set.contents() == [None] * cache_set.ways
            assert not any(cache_set.dirty_bits())
            assert cache_set.policy.state_key() == new_set.policy.state_key()
    before = [cache.stats.snapshot() for cache in hierarchy.levels]
    memory_before = hierarchy.stats.memory_accesses
    flushed = [hierarchy.access(address, write=write) for address, write in second]
    assert flushed == [fresh.access(address, write=write) for address, write in second]
    for cache, earlier, new in zip(hierarchy.levels, before, fresh.levels):
        assert cache.stats.delta(earlier) == new.stats
    assert hierarchy.stats.memory_accesses - memory_before == fresh.stats.memory_accesses


def test_flush_resets_dip_psel_and_empties_every_set():
    hierarchy = CacheHierarchy(
        [CacheConfig("L1", 512, 2), CacheConfig("L2", 64 * 1024, 8, inclusion="inclusive")],
        ["lru", "dip"],
    )
    l2 = hierarchy.level("L2")
    controller = l2.shared.controller
    assert controller.is_primary_leader(0)
    # Twelve lines cycling through L2 set 0, a leader set: every miss
    # after the first eight evicts there and moves PSEL.
    for _ in range(5):
        for line in range(12):
            hierarchy.access(line * l2.config.way_size)
    assert controller.psel != controller.psel_mid
    hierarchy.flush()
    assert controller.psel == controller.psel_mid
    for cache in hierarchy.levels:
        assert all(s.contents() == [None] * s.ways for s in cache.sets)
