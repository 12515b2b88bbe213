"""Tests for the on-disk automaton artifact store and batched engines."""

import random
import struct
import tracemalloc
from array import array

import pytest

from repro.cache import Cache
from repro.cache.set import CacheSet
from repro.core import SimulatedSetOracle
from repro.core.distinguish import response, responses
from repro.core.oracle import CachingOracle
from repro.kernels import (
    clear_compile_cache,
    compile_policy,
    compiled_for,
    compiled_for_factory,
    compiled_for_spec,
    count_misses_batch,
    count_misses_kernel,
    kernel_disabled,
    mark_factory_unsupported,
    mark_spec_unsupported,
    mark_unsupported,
    sequence_hits,
    sequence_hits_batch,
    sequence_hits_preloaded,
    store,
    try_simulate_trace,
    vector_disabled,
)
from repro.kernels.engine import _simulate_trace_compiled
from repro.obs import metrics as obs_metrics
from repro.policies import LruPolicy, get, lru_spec
from repro.runner import ExperimentRunner, run_sim_cells
from repro.runner.cells import SimCell
from repro.cache import CacheConfig
from repro.workloads.trace import Trace

from tests.conftest import all_deterministic_policies


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_compile_cache()
    yield
    clear_compile_cache()


def _counters():
    return obs_metrics.DEFAULT.snapshot()["counters"]


WAYS = 3
PROBE_QUERIES = [
    ([], [1, 2, 1, 3, 2, 4]),
    ([1, 2, 3], [4, 1, 5, 2, 3]),
    ([1, 2, 3], [3, 2, 1, 4, 4]),
    ([5, 6], [5, 7, 6, 8, 5]),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", [name for name, _ in all_deterministic_policies(WAYS)]
    )
    def test_round_trip_equals_in_memory(self, name):
        compiled = compiled_for_factory(name, (), WAYS)
        assert compiled is not None
        key = store.factory_key(name, (), WAYS)
        assert store.save(key, compiled)  # expand_all happens inside
        loaded = store.load(key)
        assert loaded is not None
        assert loaded.frozen
        assert loaded.ways == compiled.ways
        assert loaded.num_states == compiled.num_states
        assert list(loaded.hit_next) == list(compiled.hit_next)
        assert list(loaded.fill_next) == list(compiled.fill_next)
        assert list(loaded.miss_victim) == list(compiled.miss_victim)
        assert list(loaded.miss_next) == list(compiled.miss_next)
        for setup, probe in PROBE_QUERIES:
            assert count_misses_kernel(loaded, setup, probe) == count_misses_kernel(
                compiled, setup, probe
            )

    def test_spec_round_trip(self):
        spec = lru_spec(4)
        compiled = compiled_for_spec(spec)
        key = store.spec_key(spec)
        assert store.save(key, compiled)
        loaded = store.load(key)
        assert loaded is not None
        assert loaded.num_states == compiled.expand_all() == 24
        assert sequence_hits(loaded, [1, 2, 3, 4], [5, 1, 2, 6]) == sequence_hits(
            compiled, [1, 2, 3, 4], [5, 1, 2, 6]
        )

    def test_frozen_automaton_cannot_expand(self):
        compiled = compile_policy("lru", WAYS)
        key = store.factory_key("lru", (), WAYS)
        assert store.save(key, compiled)
        loaded = store.load(key)
        assert loaded.frozen
        # Closed tables mean the engine never reaches expand_*; calling
        # them directly is the defensive error path.
        from repro.errors import KernelUnsupported

        with pytest.raises(KernelUnsupported):
            loaded.expand_hit(0, 0)

    def test_save_refuses_over_budget_policy(self):
        compiled = compile_policy(LruPolicy(4), budget=3)
        assert not store.save(store.factory_key("lru", (), 4, budget=3), compiled)


class TestCorruptionFallback:
    """Every failure degrades to a recompile; the real ones are counted.

    A corrupt or unreadable artifact and a save that cannot write each
    add one ``kernel.store.errors``; a missing file or another key's
    artifact is normal operation and adds none.
    """

    def _saved_key(self):
        key = store.factory_key("fifo", (), WAYS)
        assert store.save(key, compiled_for_factory("fifo", (), WAYS))
        obs_metrics.DEFAULT.reset()
        return key

    def _errors(self):
        return _counters().get("kernel.store.errors", 0)

    def test_missing_file_returns_none(self):
        obs_metrics.DEFAULT.reset()
        assert store.load(store.factory_key("lru", (), WAYS)) is None
        assert self._errors() == 0

    def test_truncated_file_recompiles(self):
        key = self._saved_key()
        path = store.artifact_path(key)
        path.write_bytes(path.read_bytes()[:-7])
        assert store.load(key) is None
        assert not path.exists()  # corrupt entries are unlinked
        assert self._errors() == 1
        assert compiled_for_factory("fifo", (), WAYS) is not None

    def test_flipped_payload_byte_fails_checksum(self):
        key = self._saved_key()
        path = store.artifact_path(key)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.load(key) is None
        assert not path.exists()
        assert self._errors() == 1

    @pytest.mark.parametrize("with_numpy", [True, False])
    def test_half_expanded_miss_is_corrupt(self, monkeypatch, with_numpy):
        """Unexpanded entries are -1, but a miss is expanded whole: a
        victim without a next state would send the scalar engine to
        state -1.  Both validation branches refuse it."""
        from repro.kernels import vector

        if with_numpy and not vector.available():
            pytest.skip("numpy not installed")
        if not with_numpy:
            monkeypatch.setattr(vector, "_np", None)
        compiled = compile_policy("lru", WAYS)
        compiled.expand_all()
        tables = compiled.to_tables()
        tables["miss_next"][0] = -1
        tampered = type(compiled).from_mapped(
            WAYS, compiled.budget, compiled.num_states, tables
        )
        key = store.factory_key("lru", (), WAYS)
        assert store.save(key, tampered)
        obs_metrics.DEFAULT.reset()
        assert store.load(key) is None
        assert self._errors() == 1

    def test_bad_magic_recompiles(self):
        key = self._saved_key()
        path = store.artifact_path(key)
        path.write_bytes(b"garbage" + path.read_bytes())
        assert store.load(key) is None
        assert self._errors() == 1

    def test_garbage_header_recompiles(self):
        key = self._saved_key()
        path = store.artifact_path(key)
        blob = path.read_bytes()
        path.write_bytes(store.MAGIC + struct.pack(">I", 10) + blob[len(store.MAGIC) + 4 :])
        assert store.load(key) is None
        assert self._errors() == 1

    def test_unreadable_artifact_counts_an_error(self):
        key = self._saved_key()
        path = store.artifact_path(key)
        path.unlink()
        path.mkdir()  # opening a directory fails with more than "missing"
        assert store.load(key) is None
        assert self._errors() == 1

    def test_unwritable_directory_counts_an_error(self, tmp_path):
        # A regular file where the directory should be: creating the
        # store directory fails for every user, root included.
        compiled = compiled_for_factory("fifo", (), WAYS)
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        store.set_cache_dir(blocker / "repro-cache")
        obs_metrics.DEFAULT.reset()
        key = store.factory_key("fifo", (), WAYS)
        assert not store.save(key, compiled)
        assert self._errors() == 1
        # Reading through the same blocked path is a failed open too,
        # not a missing artifact.
        assert store.load(key) is None
        assert self._errors() == 2

    def test_schema_bump_ignores_old_artifact(self, monkeypatch):
        key = self._saved_key()
        old_path = store.artifact_path(key)
        assert store.load(key) is not None
        monkeypatch.setattr(store, "SCHEMA_VERSION", store.SCHEMA_VERSION + 1)
        bumped = store.factory_key("fifo", (), WAYS)
        assert bumped.canonical != key.canonical
        assert store.load(bumped) is None  # lives in a different subdir
        # The old file is untouched (stale, not corrupt).
        assert old_path.exists()
        # stats() reports it stale; clear(stale_only=True) removes it.
        assert store.stats()["stale_entries"] == 1
        assert store.clear(stale_only=True) == 1
        assert not old_path.exists()

    def test_key_mismatch_leaves_file_alone(self):
        key = self._saved_key()
        other = store.factory_key("lru", (), WAYS)
        path = store.artifact_path(key)
        path.rename(store.artifact_path(other))
        assert store.load(other) is None
        assert store.artifact_path(other).exists()
        assert self._errors() == 0


def _refuse_mmap(*args, **kwargs):
    raise OSError("mapping refused")


class TestTablesReadInPlace:
    """A store-loaded automaton's tables are the store's buffers, and the
    scalar engines index them where they lie: no run copies them."""

    MAPPED_TYPES = {"mmap": memoryview, "mmap-refused": array}

    @pytest.mark.parametrize("load_path", sorted(MAPPED_TYPES))
    def test_scalar_runs_allocate_no_table_copy(self, monkeypatch, load_path):
        ways = 8
        original = compile_policy("lru", ways)
        key = store.factory_key("lru", (), ways)
        assert store.save(key, original)
        if load_path == "mmap-refused":
            monkeypatch.setattr(store.mmap, "mmap", _refuse_mmap)
        loaded = store.load(key)
        assert loaded is not None and loaded.frozen
        for name in store.TABLE_NAMES:
            assert type(getattr(loaded, name)) is self.MAPPED_TYPES[load_path]

        rng = random.Random(7)
        queries = [
            (
                [rng.randrange(2 * ways) for _ in range(rng.randrange(3 * ways))],
                [rng.randrange(2 * ways) for _ in range(3 * ways)],
            )
            for _ in range(50)
        ]
        config = CacheConfig("t", 16 * ways * 64, ways)  # 16 sets
        lines = 16 * (ways + 4)
        trace = Trace("t", tuple(rng.randrange(lines) * 64 for _ in range(2000)))
        with vector_disabled():
            tracemalloc.start()
            try:
                answers = [count_misses_kernel(loaded, s, p) for s, p in queries]
                stats = _simulate_trace_compiled(trace, config, loaded)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # A copy of lru@8's tables into lists takes more than 20 MiB.
            assert peak < 1 << 20
            assert answers == [count_misses_kernel(original, s, p) for s, p in queries]
            assert stats == _simulate_trace_compiled(trace, config, original)


class TestUnexpandedEntryInAnArtifact:
    """An artifact whose reachable entry is ``-1`` passes validation
    (``-1`` marks an event no set takes) but cannot answer a run that
    takes it.  The scalar engines fall back to the interpreter and count
    a failed artifact, not a blown budget."""

    CONFIG = CacheConfig("t", 4 * WAYS * 64, WAYS)  # 4 sets

    @staticmethod
    def _plant():
        """Persist lru with the reset state's first cold fill unexpanded:
        the file holds the ``-1`` under a matching checksum."""
        compiled = compile_policy("lru", WAYS)
        compiled.expand_all()
        tables = compiled.to_tables()
        tables["fill_next"][0] = -1  # every set that is accessed takes it
        planted = type(compiled).from_mapped(
            WAYS, compiled.budget, compiled.num_states, tables
        )
        assert store.save(store.factory_key("lru", (), WAYS), planted)
        clear_compile_cache()
        obs_metrics.DEFAULT.reset()

    def _assert_counted(self):
        counters = _counters()
        assert counters["kernel.compile.load"] == 1
        assert counters["kernel.store.errors"] == 1
        assert "kernel.budget_fallbacks" not in counters

    def test_measurement_falls_back_to_the_interpreter(self):
        self._plant()
        policy = get("lru", WAYS)
        setup, probe = PROBE_QUERIES[1]
        misses = SimulatedSetOracle(policy).count_misses(setup, probe)
        self._assert_counted()
        with kernel_disabled():
            reference = SimulatedSetOracle(get("lru", WAYS))
            assert reference.count_misses(setup, probe) == misses
        assert compiled_for(policy) is None  # not offered again

    def test_scalar_trace_falls_back_to_direct_mode(self):
        self._plant()
        trace = Trace("t", tuple((i * 7 % 40) * 64 for i in range(200)))
        with vector_disabled():
            stats = try_simulate_trace(trace, self.CONFIG, "lru")
        self._assert_counted()
        assert _counters()["kernel.calls.direct"] == 1
        cache = Cache(self.CONFIG, "lru")
        for address in trace:
            cache.access(address)
        assert stats == cache.stats
        assert compiled_for_factory("lru", (), WAYS) is None  # not offered again


class TestStoreConsultation:
    def test_factory_consults_disk_across_cache_clears(self):
        obs_metrics.DEFAULT.reset()
        compiled = compiled_for_factory("plru", (), 4)
        assert _counters()["kernel.compile.miss"] == 1
        store.save(store.factory_key("plru", (), 4), compiled)
        clear_compile_cache()
        obs_metrics.DEFAULT.reset()
        again = compiled_for_factory("plru", (), 4)
        assert again is not None and again.frozen
        counters = _counters()
        assert counters.get("kernel.compile.miss", 0) == 0
        assert counters["kernel.compile.load"] == 1
        # Second lookup is a pure memory hit.
        assert compiled_for_factory("plru", (), 4) is again
        assert _counters()["kernel.compile.hit"] == 1

    def test_spec_consults_disk(self):
        spec = lru_spec(WAYS)
        store.save(store.spec_key(spec), compiled_for_spec(spec))
        clear_compile_cache()
        obs_metrics.DEFAULT.reset()
        assert compiled_for_spec(spec).frozen
        assert _counters()["kernel.compile.load"] == 1

    def test_loaded_automaton_measures_identically(self):
        policy = get("srrip", WAYS)
        with kernel_disabled():
            reference = SimulatedSetOracle(get("srrip", WAYS))
            expected = [
                reference.count_misses(setup, probe) for setup, probe in PROBE_QUERIES
            ]
        store.save(
            store.factory_key("srrip", (), WAYS),
            compiled_for_factory("srrip", (), WAYS),
        )
        clear_compile_cache()
        oracle = SimulatedSetOracle(policy)
        assert [
            oracle.count_misses(setup, probe) for setup, probe in PROBE_QUERIES
        ] == expected

    def test_registry_instances_share_the_factory_automaton(self):
        # get() stamps provenance, so equivalent instances resolve
        # to one automaton per process (and through it, the disk store).
        first = compiled_for(get("fifo", WAYS))
        second = compiled_for(get("fifo", WAYS))
        assert first is second
        assert compiled_for_factory("fifo", (), WAYS) is first

    def test_unsupported_counter_for_randomized(self):
        obs_metrics.DEFAULT.reset()
        assert compiled_for_factory("random", (), WAYS) is None
        counters = _counters()
        assert counters["kernel.compile.unsupported"] == 1
        assert counters.get("kernel.compile.miss", 0) == 0

    def test_ensure_persisted_memoizes(self):
        key = store.factory_key("lru", (), WAYS)
        compiled = compiled_for_factory("lru", (), WAYS)
        assert store.ensure_persisted(key, compiled)
        mtime = store.artifact_path(key).stat().st_mtime_ns
        assert store.ensure_persisted(key, compiled)
        assert store.artifact_path(key).stat().st_mtime_ns == mtime

    def test_stats_and_clear(self):
        assert store.stats()["entries"] == 0
        store.save(store.factory_key("lru", (), WAYS), compiled_for_factory("lru", (), WAYS))
        store.save(store.factory_key("fifo", (), WAYS), compiled_for_factory("fifo", (), WAYS))
        info = store.stats()
        assert info["entries"] == 2
        assert info["stale_entries"] == 0
        assert info["total_bytes"] > 0
        assert all(entry["current"] for entry in info["artifacts"])
        assert store.clear() == 2
        assert store.stats()["entries"] == 0

    def test_warm_reports_statuses(self):
        report = store.warm([("lru", (), WAYS), ("random", (), WAYS), ("lru", (), WAYS)])
        assert [entry["policy"] for entry in report] == ["lru", "random"]
        by_name = {entry["policy"]: entry for entry in report}
        assert by_name["lru"]["status"] == "persisted"
        assert by_name["lru"]["states"] == 6  # 3! LRU orders
        assert by_name["random"]["status"] == "unsupported"
        assert store.load(store.factory_key("lru", (), WAYS)) is not None


class TestClearCompileCacheFullReset:
    def test_clears_instance_unsupported_marker(self):
        policy = LruPolicy(WAYS)
        assert compiled_for(policy) is not None
        mark_unsupported(policy)
        assert compiled_for(policy) is None
        clear_compile_cache()
        assert compiled_for(policy) is not None

    def test_clears_factory_unsupported_marker(self):
        mark_factory_unsupported("plru", (), 4)
        assert compiled_for_factory("plru", (), 4) is None
        clear_compile_cache()
        assert compiled_for_factory("plru", (), 4) is not None

    def test_clears_spec_unsupported_marker(self):
        spec = lru_spec(WAYS)
        mark_spec_unsupported(spec)
        assert compiled_for_spec(spec) is None
        clear_compile_cache()
        assert compiled_for_spec(spec) is not None

    def test_clears_persisted_memo(self):
        key = store.factory_key("lru", (), WAYS)
        store.save(key, compiled_for_factory("lru", (), WAYS))
        store.artifact_path(key).unlink()
        clear_compile_cache()
        # A cleared session must re-verify the disk, not trust the memo.
        compiled = compiled_for_factory("lru", (), WAYS)
        assert store.ensure_persisted(key, compiled)
        assert store.artifact_path(key).exists()


class TestBatchEngines:
    @pytest.mark.parametrize(
        "name", [name for name, _ in all_deterministic_policies(WAYS)]
    )
    def test_count_misses_batch_matches_per_query_and_interpreter(self, name):
        compiled = compiled_for_factory(name, (), WAYS)
        batch = count_misses_batch(compiled, PROBE_QUERIES)
        assert batch == [
            count_misses_kernel(compiled, setup, probe)
            for setup, probe in PROBE_QUERIES
        ]
        with kernel_disabled():
            oracle = SimulatedSetOracle(get(name, WAYS))
            assert batch == [
                oracle.count_misses(setup, probe) for setup, probe in PROBE_QUERIES
            ]

    @pytest.mark.parametrize(
        "name", [name for name, _ in all_deterministic_policies(WAYS)]
    )
    def test_sequence_hits_batch_matches_per_query(self, name):
        compiled = compiled_for_factory(name, (), WAYS)
        shared_setup = [9, 8, 7]
        queries = [(shared_setup, probe) for _, probe in PROBE_QUERIES]
        assert sequence_hits_batch(compiled, queries) == [
            sequence_hits(compiled, setup, probe) for setup, probe in queries
        ]

    def test_sequence_hits_preloaded_matches_cache_set(self):
        compiled = compiled_for_factory("srrip", (), 4)
        tags = [10, 11, 12, 13]
        probe = [14, 10, 15, 11, 12, 14]
        cache_set = CacheSet(4, get("srrip", 4))
        cache_set.preload(tags)
        expected = tuple(cache_set.access(block).hit for block in probe)
        assert sequence_hits_preloaded(compiled, tags, probe) == expected

    def test_batch_flushes_one_kernel_call(self):
        compiled = compiled_for_factory("lru", (), WAYS)
        obs_metrics.DEFAULT.reset()
        count_misses_batch(compiled, PROBE_QUERIES)
        counters = _counters()
        assert counters["kernel.calls"] == 1
        assert counters["kernel.calls.batch"] == 1

    def test_oracle_query_matches_loop(self):
        batched = SimulatedSetOracle(get("plru", 4))
        looped = SimulatedSetOracle(get("plru", 4))
        queries = [(list(range(4)), [5, 0, 6, 1]), ([], [1, 1, 2]), (list(range(4)), [5, 0, 6, 1])]
        assert batched.query(queries) == [
            looped.count_misses(setup, probe) for setup, probe in queries
        ]
        assert batched.measurements == looped.measurements == 3
        assert batched.accesses == looped.accesses

    def test_caching_oracle_batch_dedup_and_accounting(self):
        oracle = CachingOracle(SimulatedSetOracle(get("lru", WAYS)))
        queries = [([], [1, 2, 3]), ([], [1, 2, 3]), ([1], [2, 3, 1])]
        results = oracle.query(queries)
        assert results[0] == results[1]
        assert oracle.cache_hits == 1
        assert oracle.cache_misses == 2
        assert oracle._inner.measurements == 2
        # Replaying the same batch is all hits.
        assert oracle.query(queries) == results
        assert oracle.cache_hits == 4

    def test_caching_oracle_batch_matches_serial_counters(self):
        serial = CachingOracle(SimulatedSetOracle(get("fifo", WAYS)))
        batched = CachingOracle(SimulatedSetOracle(get("fifo", WAYS)))
        queries = PROBE_QUERIES + PROBE_QUERIES[:2]
        expected = [serial.count_misses(setup, probe) for setup, probe in queries]
        assert batched.query(queries) == expected
        assert batched.cache_hits == serial.cache_hits
        assert batched.cache_misses == serial.cache_misses
        assert batched.accesses == serial.accesses

    def test_distinguish_responses_matches_per_probe(self):
        policy = get("plru", 4)
        probes = [probe for _, probe in PROBE_QUERIES]
        assert responses(policy, probes) == [response(policy, probe) for probe in probes]
        with kernel_disabled():
            assert responses(policy, probes) == [
                response(policy, probe) for probe in probes
            ]


class TestRunnerPrewarm:
    CONFIG = CacheConfig("tiny", 2 * 1024, 4)  # 8 sets

    def _cells(self):
        trace = Trace("t", tuple((i % 64) * 64 for i in range(200)))
        return [
            SimCell.make(trace, self.CONFIG, name)
            for name in ("lru", "fifo", "plru", "random")
        ]

    def test_parallel_prewarm_populates_store_and_matches_serial(self):
        serial = run_sim_cells(self._cells(), runner=ExperimentRunner())
        clear_compile_cache()
        obs_metrics.DEFAULT.reset()
        parallel = run_sim_cells(self._cells(), runner=ExperimentRunner(jobs=2))
        assert [r.stats for r in parallel] == [r.stats for r in serial]
        # The parent resolved every deterministic automaton once...
        for name in ("lru", "fifo", "plru"):
            assert store.load(store.factory_key(name, (), 4)) is not None
        # ...and a warm re-run compiles nothing.
        clear_compile_cache()
        obs_metrics.DEFAULT.reset()
        rerun = run_sim_cells(self._cells(), runner=ExperimentRunner(jobs=2))
        assert [r.stats for r in rerun] == [r.stats for r in serial]
        assert _counters().get("kernel.compile.miss", 0) == 0
        assert _counters()["kernel.compile.load"] >= 3
