"""Vector engine, mmap store and batch-accounting tests.

Four concerns:

* **Equivalence** — whole-trace lock-step (:mod:`repro.kernels.vector`)
  is bit-identical to the interpreter, and the batched single-set
  engines (queries, preloaded-probe batches) are bit-identical to
  per-query scalar runs, including the awkward shapes: empty
  setups/probes, duplicate queries, single-query batches,
  non-power-of-two batch sizes.
* **Counters** — the batch path's ``kernel.*`` accounting reconciles
  exactly with the per-query path (``accesses = hits + misses`` in every
  mode; snapshot reuse reported as ``kernel.setup_reused``).
* **Store** — mmap loads are zero-copy, counted, and equal to buffered
  loads; concurrent-worker races (artifact replaced or removed mid-load,
  sweeps racing deletions) degrade to recompile, never raise.
* **Fallback** — with numpy gone the lock-step entry point returns None
  and the scalar engines carry on, bit-identically.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.cache import Cache, CacheConfig
from repro.cache.set import CacheSet
from repro.core.oracle import CachingOracle, SimulatedSetOracle
from repro.kernels import (
    clear_compile_cache,
    compile_policy,
    compiled_for,
    count_misses_batch,
    count_misses_kernel,
    sequence_hits,
    sequence_hits_batch,
    sequence_hits_preloaded,
    sequence_hits_preloaded_batch,
    store,
    try_simulate_trace,
    vector,
)
from repro.obs import metrics as obs_metrics
from repro.policies import LruPolicy, PolicyFactory, get
from repro.util.rng import SeededRng
from repro.workloads.trace import Trace
from tests.conftest import all_deterministic_policies, interpreted_misses

WAYS = 4

numpy_only = pytest.mark.skipif(
    not vector.available(), reason="numpy not installed"
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_compile_cache()
    yield
    clear_compile_cache()


@pytest.fixture
def tiny_lanes(monkeypatch):
    """Let lock-step run on caches with only a handful of sets."""
    monkeypatch.setattr(vector, "MIN_TRACE_LANES", 1)


policy_names = st.sampled_from([name for name, _ in all_deterministic_policies(WAYS)])
blocks = st.lists(st.integers(min_value=0, max_value=11), max_size=40)
query_lists = st.lists(st.tuples(blocks, blocks), min_size=1, max_size=23)


def build(name, ways=WAYS):
    if name == "permutation":
        from repro.policies import lru_spec

        return get(name, ways, spec=lru_spec(ways))
    return get(name, ways)


# -- equivalence: batched (setup, probe) queries -----------------------------

@given(name=policy_names, queries=query_lists)
@settings(max_examples=80, deadline=None)
def test_batch_outcomes_bit_identical(name, queries):
    """Batches == per-query scalar runs."""
    compiled = compile_policy(build(name))
    expected = [
        sequence_hits(compiled, setup, probe) for setup, probe in queries
    ]
    assert sequence_hits_batch(compiled, queries) == expected


@given(name=policy_names, queries=query_lists)
@settings(max_examples=60, deadline=None)
def test_batch_miss_counts_match_interpreter(name, queries):
    compiled = compile_policy(build(name))
    assert count_misses_batch(compiled, queries) == [
        interpreted_misses(build(name), setup, probe) for setup, probe in queries
    ]


def test_batch_edge_shapes():
    """Empty setups/probes, duplicates, single-query batches."""
    compiled = compile_policy(LruPolicy(WAYS))
    cases = [
        [([], [])],                              # single, fully empty
        [([], [1, 2, 1])],                       # single, empty setup
        [([1, 2], [])],                          # single, empty probe
        [([1, 2], [3, 1])] * 7,                  # duplicates share a setup
        [([], []), ([], []), ([1], [1])],        # empties then content
        [([i], [i, i + 1]) for i in range(17)],  # non-power-of-two lanes
    ]
    for queries in cases:
        expected = [
            sequence_hits(compiled, setup, probe) for setup, probe in queries
        ]
        assert sequence_hits_batch(compiled, queries) == expected


def test_batch_falls_back_on_huge_ids():
    """Block ids beyond int64 give the same result as per-query runs."""
    compiled = compile_policy(LruPolicy(WAYS))
    big = 1 << 70
    queries = [([big], [big, 1]) for _ in range(4)]
    expected = [sequence_hits(compiled, s, p) for s, p in queries]
    assert sequence_hits_batch(compiled, queries) == expected


def test_batch_never_forces_full_expansion():
    """A wide batch on a large automaton stays lazy: no expand_all().

    Expanding every reachable qlru state costs far more than the states
    a batch reaches, so the batched engine may not build full tables (a
    non-None ``vector_tables``) on the way.
    """
    rng = random.Random(0)
    setup = [10_000 + i for i in range(16)] + list(range(8))
    queries = [
        (setup, [rng.randrange(16) for _ in range(8)]) for _ in range(256)
    ]
    compiled = compiled_for(get("qlru_h00_m2", 8))
    batched = sequence_hits_batch(compiled, queries)
    assert compiled.vector_tables is None
    assert batched == [
        sequence_hits(compiled, setup, probe) for setup, probe in queries
    ]


@given(name=policy_names, probes=st.lists(blocks, min_size=1, max_size=19))
@settings(max_examples=60, deadline=None)
def test_preloaded_batch_bit_identical(name, probes):
    compiled = compile_policy(build(name))
    tags = [100 + way for way in range(WAYS)]
    expected = [
        sequence_hits_preloaded(compiled, tags, probe) for probe in probes
    ]
    assert sequence_hits_preloaded_batch(compiled, tags, probes) == expected


# -- equivalence: whole-trace lock-step --------------------------------------

def _random_trace(lines, length, seed):
    rng = SeededRng(seed).fork("trace")
    return Trace(
        f"rand-{seed}", tuple(rng.randrange(lines) * 64 for _ in range(length))
    )


@numpy_only
@pytest.mark.parametrize("index_hash", ["bits", "xor-fold"])
@pytest.mark.parametrize("name", [n for n, _ in all_deterministic_policies(4)])
def test_trace_lockstep_bit_identical(name, index_hash, tiny_lanes):
    from repro.policies import PolicyFactory, lru_spec

    config = CacheConfig("t", 4 * 1024, 4, index_hash=index_hash)  # 16 sets
    trace = _random_trace(lines=180, length=3000, seed=7)
    compiled = compile_policy(build(name, 4))
    stats = vector.simulate_trace_lockstep(trace, config, compiled)
    assert stats is not None
    kwargs = {"spec": lru_spec(4)} if name == "permutation" else {}
    cache = Cache(config, PolicyFactory(name, **kwargs))
    for address in trace:
        cache.access(address)
    assert stats == cache.stats


@numpy_only
def test_trace_routing_engages_vector(tiny_lanes):
    obs_metrics.DEFAULT.reset()
    config = CacheConfig("t", 4 * 1024, 4)
    trace = _random_trace(lines=64, length=800, seed=3)
    stats = try_simulate_trace(trace, config, "lru")
    assert stats is not None
    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    assert counters["kernel.vector.calls"] == 1
    # The trace-mode kernel counters are engine-invariant.
    assert counters["kernel.calls.trace"] == 1
    assert counters["kernel.accesses"] == stats.accesses
    assert counters["kernel.hits"] == stats.hits
    assert counters["kernel.misses"] == stats.misses
    assert counters["kernel.accesses"] == counters["kernel.hits"] + counters["kernel.misses"]


def _planted(compiled, table):
    """A frozen copy of closed ``compiled`` with one reachable entry unexpanded.

    ``"fill_next"`` unexpands the reset state's first cold fill, which
    every set that is accessed takes; ``"miss"`` unexpands the evicting
    miss of the state in-order fills leave a full set in.
    """
    compiled.expand_all()
    tables = compiled.to_tables()
    ways = compiled.ways
    if table == "fill_next":
        tables["fill_next"][0] = -1
    else:
        state = 0
        for way in range(ways):
            state = compiled.fill_next[state * ways + way]
        tables["miss_victim"][state] = tables["miss_next"][state] = -1
    return type(compiled).from_mapped(
        ways, compiled.budget, compiled.num_states, tables
    )


@numpy_only
@pytest.mark.parametrize("table", ["fill_next", "miss"])
def test_lockstep_falls_back_on_an_unexpanded_entry(table):
    """A lane that reaches a -1 lands in the trap row: lock-step falls
    back, counted, and the caller still gets the interpreter's answer."""
    from repro.kernels import automaton

    config = CacheConfig("t", 64 * WAYS * 64, WAYS)  # 64 sets
    trace = _random_trace(lines=64 * (WAYS + 2), length=64 * 12, seed=4)
    frozen = _planted(compile_policy("lru", WAYS), table)
    obs_metrics.DEFAULT.reset()
    assert vector.simulate_trace_lockstep(trace, config, frozen) is None
    assert _counters()["kernel.vector.fallbacks"] == 1
    assert "kernel.vector.calls" not in _counters()

    automaton._FACTORY_CACHE[("lru", (), WAYS)] = frozen
    obs_metrics.DEFAULT.reset()
    stats = try_simulate_trace(trace, config, "lru")
    counters = _counters()
    assert counters["kernel.vector.fallbacks"] == 1
    # The scalar loop meets the same -1 and cannot expand it, so the
    # run ends in direct mode: the artifact failed, no budget was blown.
    assert counters["kernel.store.errors"] == 1
    assert "kernel.budget_fallbacks" not in counters
    assert counters["kernel.calls.direct"] == 1
    cache = Cache(config, "lru")
    for address in trace:
        cache.access(address)
    assert stats == cache.stats


# -- equivalence: random and dip lock-step -----------------------------------

#: (name, params) of the policies that step lock-step without an automaton.
RANDOMIZED_LOCKSTEP = [("random", {}), ("dip", {}), ("dip", {"epsilon": 0.25})]

#: 64 sets: DIP's duel gets its full 4 + 4 leader sets among them.
LOCKSTEP_SETS = 64


def _randomized_config(ways, index_hash="bits"):
    return CacheConfig("t", LOCKSTEP_SETS * ways * 64, ways, index_hash=index_hash)


def _interpreted(trace, config, factory, seed):
    cache = Cache(config, factory, rng=SeededRng(seed))
    for address in trace:
        cache.access(address)
    return cache


def _psel_swing_trace(ways):
    """A thrashing loop, then A-B-A reuse per set, then the loop again.

    The loop makes LRU's leaders miss more (PSEL rises, BIP wins); the
    reuse phase makes BIP's leaders lose A to B (PSEL falls, LRU wins).
    """
    lines = LOCKSTEP_SETS * ways
    loop = [line * 64 for line in range(lines + lines // 2)] * 2
    reuse = []
    for round_ in range(12):
        for set_index in range(LOCKSTEP_SETS):
            a = (10 * lines + 2 * round_) * LOCKSTEP_SETS + set_index
            b = a + LOCKSTEP_SETS
            reuse += [a * 64, b * 64, a * 64]
    return Trace("psel-swing", tuple(loop + reuse + loop))


@numpy_only
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("index_hash", ["bits", "xor-fold"])
@pytest.mark.parametrize("ways", [4, 8, 16])
@pytest.mark.parametrize("name,params", RANDOMIZED_LOCKSTEP)
def test_randomized_lockstep_bit_identical(
    name, params, ways, index_hash, seed, tiny_lanes
):
    config = _randomized_config(ways, index_hash)
    trace = _random_trace(lines=3 * LOCKSTEP_SETS * ways, length=4000, seed=seed)
    factory = PolicyFactory(name, **params)
    stats = vector.simulate_trace_randomized(trace, config, factory, seed)
    assert stats is not None
    assert stats == _interpreted(trace, config, factory, seed).stats


@numpy_only
@pytest.mark.parametrize("params", [{}, {"epsilon": 0.25}])
def test_dip_lockstep_follows_psel_both_ways(params, tiny_lanes):
    config = _randomized_config(8)
    trace = _psel_swing_trace(8)
    factory = PolicyFactory("dip", **params)
    cache = Cache(config, factory, rng=SeededRng(0))
    controller = cache.shared.controller
    favours_lru = []
    for address in trace:
        cache.access(address)
        side = controller.psel < controller.psel_mid
        if not favours_lru or favours_lru[-1] != side:
            favours_lru.append(side)
    # PSEL crossed its midpoint upwards and downwards during the trace.
    assert favours_lru[:4] == [False, True, False, True]
    stats = vector.simulate_trace_randomized(trace, config, factory, 0)
    assert stats == cache.stats


@numpy_only
@pytest.mark.parametrize("name,params", RANDOMIZED_LOCKSTEP)
def test_randomized_lockstep_empty_trace(name, params, tiny_lanes):
    config = _randomized_config(8)
    trace = Trace("empty", ())
    factory = PolicyFactory(name, **params)
    stats = vector.simulate_trace_randomized(trace, config, factory, 0)
    assert stats == _interpreted(trace, config, factory, 0).stats
    assert stats.accesses == 0


@numpy_only
@pytest.mark.parametrize("name", ["random", "dip"])
def test_randomized_routing_engages_vector(name):
    config = _randomized_config(8)
    trace = _random_trace(lines=3 * LOCKSTEP_SETS * 8, length=3000, seed=1)
    obs_metrics.DEFAULT.reset()
    stats = try_simulate_trace(trace, config, name, 1)
    counters = _counters()
    assert stats == _interpreted(trace, config, name, 1).stats
    assert counters["kernel.vector.calls"] == 1
    assert counters["kernel.calls.direct"] == 1
    assert counters["kernel.accesses"] == stats.accesses
    assert counters["kernel.evictions"] == stats.evictions
    assert "kernel.calls.trace" not in counters


def _skewed_trace(config):
    """Nearly every access in set 0: the layout's fill-ratio gate refuses."""
    stride = config.num_sets * 64
    hot = [(line % 40) * stride for line in range(2000)]
    return Trace("skewed", tuple(hot + [set_index * 64 for set_index in range(1, 8)]))


@numpy_only
@pytest.mark.parametrize("name", ["random", "dip"])
@pytest.mark.parametrize("route", ["disabled", "few-sets", "refused"])
def test_randomized_routing_falls_back_to_direct(name, route, monkeypatch):
    config = _randomized_config(8)
    trace = _random_trace(lines=3 * LOCKSTEP_SETS * 8, length=3000, seed=1)
    if route == "disabled":
        monkeypatch.setattr(vector, "_np", None)  # lock-step needs numpy
    elif route == "few-sets":
        config = CacheConfig("t", (vector.MIN_TRACE_LANES // 2) * 8 * 64, 8)
    else:
        trace = _skewed_trace(config)
    obs_metrics.DEFAULT.reset()
    stats = try_simulate_trace(trace, config, name, 1)
    counters = _counters()
    assert stats == _interpreted(trace, config, name, 1).stats
    assert counters["kernel.calls.direct"] == 1
    assert "kernel.vector.calls" not in counters
    assert counters.get("kernel.vector.fallbacks", 0) == (route == "refused")


# -- counter accounting ------------------------------------------------------

QUERIES = (
    [(list(range(WAYS)), [5, 0, 6, 1])] * 5
    + [([7, 8], [7, 9, 8])] * 3
    + [([], [1, 1, 2])]
)


def _counters():
    return obs_metrics.DEFAULT.snapshot()["counters"]


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_batch_counters_reconcile_with_per_query(engine, tiny_lanes, monkeypatch):
    """accesses = hits + misses per mode; batch == per-query modulo reuse.

    The batch runs on the scalar kernel whether numpy is shadowed
    (``"scalar"``) or present with the lane gate open (``"vector"``).
    """
    if engine == "scalar":
        monkeypatch.setattr(vector, "_np", None)
    compiled = compile_policy(LruPolicy(WAYS))

    obs_metrics.DEFAULT.reset()
    per_query = [count_misses_kernel(compiled, s, p) for s, p in QUERIES]
    single = _counters()
    assert single["kernel.accesses"] == single["kernel.hits"] + single["kernel.misses"]
    assert "kernel.setup_reused" not in single

    obs_metrics.DEFAULT.reset()
    batched = count_misses_batch(compiled, QUERIES)
    batch = _counters()
    assert batched == per_query
    assert not any(key.startswith("kernel.vector.") for key in batch)
    assert batch["kernel.accesses"] == batch["kernel.hits"] + batch["kernel.misses"]
    # The only difference between the paths is the skipped setup replays.
    assert (
        batch["kernel.accesses"] + batch["kernel.setup_reused"]
        == single["kernel.accesses"]
    )
    # Reconcile hits too: each reused setup would have replayed the same
    # hit pattern, so the skipped hits are per-setup hits times reuses.
    skipped_hits = 0
    for setup, reuses in ((tuple(range(WAYS)), 4), ((7, 8), 2), ((), 0)):
        cache_set = CacheSet(WAYS, LruPolicy(WAYS))
        setup_hits = sum(1 for b in setup if cache_set.access(b).hit)
        skipped_hits += setup_hits * reuses
    assert batch["kernel.hits"] + skipped_hits == single["kernel.hits"]


def test_oracle_batch_costs_identical_across_engines(monkeypatch):
    """query(): oracle cost accounting is engine-invariant."""
    results = {}
    for mode in ("kernel", "interpreter"):
        if mode == "interpreter":
            monkeypatch.setattr(kernels, "compiled_for", lambda policy: None)
        oracle = SimulatedSetOracle(LruPolicy(WAYS))
        counts = oracle.query(QUERIES)
        results[mode] = (counts, oracle.measurements, oracle.accesses)
    assert results["kernel"] == results["interpreter"]
    assert results["kernel"][0] == [
        interpreted_misses(LruPolicy(WAYS), setup, probe) for setup, probe in QUERIES
    ]


# -- CachingOracle memo keys -------------------------------------------------

class _CountingOracle(SimulatedSetOracle):
    def __init__(self):
        super().__init__(LruPolicy(WAYS))
        self.calls = []

    def count_misses(self, setup, probe):
        self.calls.append((tuple(setup), tuple(probe)))
        return super().count_misses(setup, probe)


def test_caching_oracle_boundary_shift_no_collision():
    """([1],[2,3]) and ([1,2],[3]) concatenate equally but never alias."""
    inner = _CountingOracle()
    oracle = CachingOracle(inner)
    first = oracle.count_misses([1], [2, 3])
    second = oracle.count_misses([1, 2], [3])
    assert first == 2 and second == 1  # different answers, same concatenation
    assert oracle.cache_misses == 2 and oracle.cache_hits == 0
    assert len(inner.calls) == 2
    # And the batch path keys identically to the sequential path.
    assert oracle.query([([1], [2, 3]), ([1, 2], [3])]) == [2, 1]
    assert oracle.cache_hits == 2
    assert len(inner.calls) == 2


def test_caching_oracle_memo_key_is_nested():
    key = CachingOracle.memo_key([1, 2], [3])
    assert key == ((1, 2), (3,))
    assert CachingOracle.memo_key([1], [2, 3]) != key


# -- store: mmap loading -----------------------------------------------------

@pytest.fixture
def store_dir(tmp_path):
    store.set_cache_dir(tmp_path)
    yield tmp_path
    store.set_cache_dir(None)


def _persist_lru(store_dir):
    compiled = compile_policy(LruPolicy(WAYS))
    key = store.factory_key("lru", (), WAYS)
    assert store.save(key, compiled)
    return key, compiled


def _refuse_mmap(*args, **kwargs):
    raise OSError("mapping refused")


def test_mmap_load_equals_buffered_load(store_dir, monkeypatch):
    key, original = _persist_lru(store_dir)
    mapped = store.load(key)
    obs_metrics.DEFAULT.reset()
    monkeypatch.setattr(store.mmap, "mmap", _refuse_mmap)
    buffered = store.load(key)
    assert _counters()["kernel.mmap.fallbacks"] == 1
    assert mapped is not None and buffered is not None
    assert list(mapped.hit_next) == list(buffered.hit_next) == original.hit_next
    assert list(mapped.miss_victim) == list(buffered.miss_victim)
    assert mapped.num_states == buffered.num_states == original.num_states
    assert mapped.frozen and buffered.frozen
    # Mapped automata drive the scalar engine identically.
    probe = [5, 0, 6, 1, 2, 7]
    assert sequence_hits(mapped, list(range(WAYS)), probe) == sequence_hits(
        original, list(range(WAYS)), probe
    )


def test_mmap_load_counters(store_dir, monkeypatch):
    key, _ = _persist_lru(store_dir)
    obs_metrics.DEFAULT.reset()
    assert store.load(key) is not None
    counters = _counters()
    assert counters["kernel.mmap.loads"] == 1
    assert counters["kernel.mmap.bytes"] == store.artifact_path(key).stat().st_size
    assert "kernel.mmap.fallbacks" not in counters
    obs_metrics.DEFAULT.reset()
    monkeypatch.setattr(store.mmap, "mmap", _refuse_mmap)
    assert store.load(key) is not None
    counters = _counters()
    assert counters["kernel.mmap.fallbacks"] == 1
    assert "kernel.mmap.loads" not in counters


@numpy_only
def test_mmap_load_attaches_vector_tables(store_dir):
    import numpy as np

    key, _ = _persist_lru(store_dir)
    mapped = store.load(key)
    tables = vector.ensure_tables(mapped)
    assert tables is not None and tables is mapped.vector_tables
    # Zero-copy: the numpy tables alias the mapping the scalar engines read.
    for name in store.TABLE_NAMES:
        view = np.frombuffer(getattr(mapped, name), dtype=np.int32)
        assert np.shares_memory(getattr(tables, name), view)


# -- store: concurrent-worker races ------------------------------------------

def test_corrupt_artifact_unlinked_once(store_dir):
    key, _ = _persist_lru(store_dir)
    path = store.artifact_path(key)
    path.write_bytes(b"not an artifact")
    assert store.load(key) is None
    assert not path.exists()


def test_corrupt_unlink_skipped_when_replaced(store_dir, monkeypatch):
    """A worker replacing the artifact mid-load keeps its fresh copy."""
    key, compiled = _persist_lru(store_dir)
    path = store.artifact_path(key)
    good = path.read_bytes()
    path.write_bytes(b"garbage from a torn write")

    real_open = open
    swapped = []

    def racing_open(file, *args, **kwargs):
        handle = real_open(file, *args, **kwargs)
        if not swapped and str(file) == str(path):
            swapped.append(True)
            # Another worker re-persists a good artifact after we opened
            # the corrupt one (atomic os.replace, so a new inode).
            tmp = path.with_suffix(".rewrite")
            tmp.write_bytes(good)
            import os as _os

            _os.replace(tmp, path)
        return handle

    monkeypatch.setattr("builtins.open", racing_open)
    assert store.load(key) is None  # the corrupt bytes we read don't parse
    monkeypatch.undo()
    assert path.exists()  # ...but the replacement was NOT deleted
    assert path.read_bytes() == good
    assert store.load(key) is not None


def test_corrupt_unlink_tolerates_removal(store_dir, monkeypatch):
    """The artifact vanishing before the unlink is not an error."""
    key, _ = _persist_lru(store_dir)
    path = store.artifact_path(key)
    path.write_bytes(b"junk")
    real_stat = store.os.stat

    def racing_stat(target, *args, **kwargs):
        if str(target) == str(path):
            path.unlink(missing_ok=True)
        return real_stat(target, *args, **kwargs)

    monkeypatch.setattr(store.os, "stat", racing_stat)
    assert store.load(key) is None  # FileNotFoundError suppressed


def test_clear_tolerates_concurrent_removal(store_dir, monkeypatch):
    _persist_lru(store_dir)
    paths = list(store._sweep_paths(store.cache_dir()))
    assert paths
    for path in paths:
        path.unlink()  # another worker swept first
    assert store.clear() == 0  # no raise, nothing left to count


def test_clear_tolerates_unlink_errors(store_dir, monkeypatch):
    key, _ = _persist_lru(store_dir)

    def denied(self, *args, **kwargs):
        raise PermissionError("locked by another worker")

    monkeypatch.setattr(type(store.artifact_path(key)), "unlink", denied)
    assert store.clear() == 0  # suppressed, not raised


def test_stats_tolerates_concurrent_removal(store_dir):
    key, _ = _persist_lru(store_dir)
    store.artifact_path(key).unlink()
    info = store.stats()
    assert info["entries"] == 0


# -- no-numpy fallback -------------------------------------------------------

class TestNoNumpyFallback:
    @pytest.fixture(autouse=True)
    def _without_numpy(self, monkeypatch):
        monkeypatch.setattr(vector, "_np", None)

    def test_everything_returns_none(self):
        compiled = compile_policy(LruPolicy(WAYS))
        assert not vector.available()
        config = CacheConfig("t", 4 * 1024, 4)
        trace = _random_trace(lines=16, length=100, seed=1)
        assert vector.simulate_trace_lockstep(trace, config, compiled) is None

    def test_ensure_tables_tombstones(self):
        compiled = compile_policy(LruPolicy(WAYS))
        assert vector.ensure_tables(compiled) is None
        assert compiled.vector_tables is False  # probe ran once, memoized

    def test_engine_paths_still_bit_identical(self):
        compiled = compile_policy(LruPolicy(WAYS))
        queries = [(list(range(WAYS)), [5, 0, 6, 1])] * 9
        expected = [sequence_hits(compiled, s, p) for s, p in queries]
        assert sequence_hits_batch(compiled, queries) == expected
        tags = [10, 11, 12, 13]
        probes = [[14, 10, 15], [11, 12]] * 5
        assert sequence_hits_preloaded_batch(compiled, tags, probes) == [
            sequence_hits_preloaded(compiled, tags, probe) for probe in probes
        ]

    def test_store_load_without_numpy(self, store_dir):
        key, original = _persist_lru(store_dir)
        loaded = store.load(key)
        assert loaded is not None
        assert loaded.vector_tables is None  # no numpy views attached
        assert list(loaded.hit_next) == original.hit_next

