"""Tests for the persistent worker pool, shm transport and scheduler.

Covers the runner's PR-8 surface: pool lifecycle (lazy spawn, reuse
across ``map()`` calls, per-worker restart on death, ``shutdown_pool``),
the shared-memory transport plane (trace broadcasts, large result
segments, graceful pickle fallback), adaptive chunking determinism, and
hypothesis property tests asserting parallel == serial under pool reuse
and both start methods.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.cache import CacheConfig
from repro.obs import metrics as obs_metrics
from repro.runner import (
    ExperimentRunner,
    SharedTrace,
    SimCell,
    clear_memo,
    pool_stats,
    run_sim_cells,
    share_trace,
    shutdown_pool,
)
from repro.runner import pool as runner_pool
from repro.runner import shm as runner_shm
from repro.runner.cells import _share_cell_traces
from repro.workloads import sequential_scan, workload_suite

_PARENT_PID = os.getpid()

CONFIG = CacheConfig("L2", 8 * 1024, 8)


def _big_traces():
    suite = workload_suite(cache_lines=CONFIG.num_sets * CONFIG.ways, seed=0)
    big = [t for t in suite if len(t) >= runner_shm.MIN_TRACE_ADDRESSES]
    assert len(big) >= 2
    return big[:2]


def _pid(task):
    return os.getpid()


def _double(task):
    return task * 2


def _counting(task):
    obs_metrics.DEFAULT.incr("test.pool.calls")
    return task + 1


def _die_once(task):
    """Kill the worker on the marked task, once; succeed on retry."""
    value, marker = task
    if marker is not None and os.getpid() != _PARENT_PID:
        if not os.path.exists(marker):
            with open(marker, "w") as handle:
                handle.write("died")
            os._exit(17)
    return value * 5


def _die_on_seven(task):
    """Kill any worker that draws task 7; fine in the parent."""
    if task == 7 and os.getpid() != _PARENT_PID:
        os._exit(23)
    return task * 11


def _payload(task):
    return bytes(task)


def _no_segment(payload):
    """A ``create_blob`` whose segment creation always fails."""
    return None


def _describe_trace(cell):
    trace = cell.trace
    array = trace.address_array()
    return (
        type(trace).__name__,
        len(trace),
        tuple(trace.addresses[:4]),
        None if array is None else int(array[0]),
    )


@pytest.fixture(autouse=True)
def _fresh_pool_and_metrics():
    """Each test here reasons about pool lifecycle counters from zero."""
    shutdown_pool()
    obs_metrics.DEFAULT.reset()
    clear_memo()
    yield
    shutdown_pool()


def _runner_counters():
    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    return {key: value for key, value in counters.items() if key.startswith("runner.")}


class TestPoolLifecycle:
    def test_pool_spawned_once_and_reused_across_maps(self):
        runner = ExperimentRunner(jobs=2)
        first = set(runner.map(_pid, list(range(8))))
        second = set(runner.map(_pid, list(range(8))))
        counters = _runner_counters()
        assert counters["runner.pool.spawned"] == 1
        assert counters["runner.pool.reused"] >= 1
        # The same worker processes served both rounds.
        assert len(first | second) <= 2
        assert second <= first
        assert _PARENT_PID not in first

    def test_pool_shared_across_runner_instances(self):
        ExperimentRunner(jobs=2).map(_double, [1, 2, 3, 4])
        ExperimentRunner(jobs=2).map(_double, [5, 6, 7, 8])
        counters = _runner_counters()
        assert counters["runner.pool.spawned"] == 1
        assert counters["runner.pool.reused"] == 1

    def test_jobs_change_replaces_the_pool(self):
        ExperimentRunner(jobs=2).map(_double, [1, 2, 3, 4])
        ExperimentRunner(jobs=3).map(_double, [1, 2, 3, 4])
        assert _runner_counters()["runner.pool.spawned"] == 2
        assert pool_stats() == {
            "jobs": 3,
            "start_method": "fork",
            "busy": 0,
            "workers_alive": 3,
        }

    def test_shutdown_pool_allows_a_fresh_start(self):
        ExperimentRunner(jobs=2).map(_double, [1, 2, 3, 4])
        shutdown_pool()
        assert pool_stats() is None
        ExperimentRunner(jobs=2).map(_double, [1, 2, 3, 4])
        assert _runner_counters()["runner.pool.spawned"] == 2

    def test_worker_death_restarts_only_that_worker(self, tmp_path):
        marker = str(tmp_path / "died-once")
        tasks = [(index, None) for index in range(6)]
        tasks[3] = (3, marker)
        runner = ExperimentRunner(jobs=2, chunk_size=1, retries=1)
        assert runner.map(_die_once, tasks) == [v * 5 for v in range(6)]
        counters = _runner_counters()
        # The killed chunk was retried on a live worker, not run in the
        # parent: every cell still reports source "parallel".
        assert counters["runner.cells.parallel"] == 6
        assert "runner.cells.fallback" not in counters
        assert counters["runner.pool.restarted"] >= 1
        assert counters["runner.pool.spawned"] == 1
        assert pool_stats()["workers_alive"] == 2

    def test_persistent_worker_death_falls_back_serially(self):
        runner = ExperimentRunner(jobs=2, chunk_size=1, retries=1)
        assert runner.map(_die_on_seven, [1, 2, 7, 4]) == [11, 22, 77, 44]
        sources = {t.index: t.source for t in runner.timings}
        assert sources[2] == "fallback"
        assert sources[0] == sources[1] == sources[3] == "parallel"
        assert _runner_counters()["runner.pool.restarted"] >= 2


#: Two grid rounds on two pools; the first pool is forked before the
#: first shm broadcast exists, the second after.
_POOL_ROUNDS_SCRIPT = """
from repro.cache import CacheConfig
from repro.eval import miss_ratio_matrix
from repro.runner import clear_memo, get_pool, shutdown_pool
from repro.workloads import workload_suite

config = CacheConfig("L2", 8 * 1024, 8)
suite = workload_suite(cache_lines=config.num_sets * config.ways, seed=0)
traces = [trace for trace in suite if len(trace) >= 2048][:2]
get_pool(2)
for round_ in range(2):
    if round_:
        shutdown_pool()
        get_pool(2)
    clear_memo()
    miss_ratio_matrix(traces, config, ["lru", "fifo"], jobs=2)
"""


class TestSharedMemoryTransport:
    def test_pool_rounds_leave_no_resource_tracker_warnings(self, tmp_path):
        """Workers share the parent's resource tracker, so no broadcast
        segment is reported leaked or unlinked twice at exit."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (src, env.get("PYTHONPATH")) if path
        )
        done = subprocess.run(
            [sys.executable, "-c", _POOL_ROUNDS_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert "resource_tracker" not in done.stderr, done.stderr

    def test_share_trace_roundtrips_through_pickle(self):
        trace = _big_traces()[0]
        assert len(trace) >= runner_shm.MIN_TRACE_ADDRESSES
        shared = share_trace(trace)
        assert isinstance(shared, SharedTrace)
        payload = pickle.dumps(shared)
        assert len(payload) < 1024, "handle pickled, not the addresses"
        clone = pickle.loads(payload)
        assert clone.name == trace.name
        assert len(clone) == len(trace)
        assert tuple(clone.addresses) == trace.addresses
        array = clone.address_array()
        if array is not None:
            assert tuple(int(a) for a in array[:8]) == trace.addresses[:8]
        counters = _runner_counters()
        assert counters["runner.shm.broadcasts"] == 1
        assert counters["runner.shm.bytes"] == 8 * len(trace)
        # Re-sharing the same trace reuses the segment.
        assert share_trace(trace)._ref == shared._ref
        assert _runner_counters()["runner.shm.broadcasts"] == 1

    def test_small_traces_are_not_shared(self):
        assert share_trace(sequential_scan(64)) is None
        assert "runner.shm.broadcasts" not in _runner_counters()

    def test_failed_segment_falls_back_to_plain_pickle(self, monkeypatch):
        # Segments are keyed by content: an earlier test's broadcast of
        # the same trace would be reused and the fallback never run.
        runner_shm.release_broadcasts()
        monkeypatch.setattr(runner_shm, "create_blob", _no_segment)
        trace = _big_traces()[0]
        assert share_trace(trace) is None
        cells = [SimCell.make(trace, CONFIG, policy) for policy in ("lru", "fifo")]
        assert _share_cell_traces(cells) == cells
        counters = _runner_counters()
        assert "runner.shm.broadcasts" not in counters
        assert counters["runner.shm.fallbacks"] == 2

    def test_workers_see_shared_traces_with_zero_copy_arrays(self):
        traces = _big_traces()
        cells = [SimCell.make(trace, CONFIG, "lru") for trace in traces]
        shared_cells = _share_cell_traces(cells)
        assert all(isinstance(cell.trace, SharedTrace) for cell in shared_cells)
        runner = ExperimentRunner(jobs=2, chunk_size=1)
        described = runner.map(_describe_trace, shared_cells)
        for trace, (kind, count, head, first) in zip(traces, described):
            assert kind == "SharedTrace"
            assert count == len(trace)
            assert head == trace.addresses[:4]
            if first is not None:
                assert first == trace.addresses[0]

    def test_shared_and_plain_cells_simulate_identically(self, monkeypatch):
        traces = _big_traces()
        cells = [
            SimCell.make(trace, CONFIG, policy, seed=3)
            for policy in ("lru", "plru")
            for trace in traces
        ]
        serial = run_sim_cells(cells, jobs=0, memoize=False)
        clear_memo()
        runner_shm.release_broadcasts()
        with monkeypatch.context() as patch:
            patch.setattr(runner_shm, "create_blob", _no_segment)
            plain = run_sim_cells(
                cells, runner=ExperimentRunner(jobs=2), memoize=False
            )
        assert _runner_counters()["runner.shm.fallbacks"] == len(traces)
        clear_memo()
        shared = run_sim_cells(cells, runner=ExperimentRunner(jobs=2), memoize=False)
        assert plain == serial
        assert shared == serial
        assert _runner_counters()["runner.shm.broadcasts"] == len(traces)

    def test_large_results_return_through_shm_segments(self):
        size = runner_pool.RESULT_SHM_MIN_BYTES
        runner = ExperimentRunner(jobs=2, chunk_size=1)
        out = runner.map(_payload, [size, size + 1, 8])
        assert [len(blob) for blob in out] == [size, size + 1, 8]
        assert _runner_counters()["runner.shm.bytes"] >= 2 * size


class TestAdaptiveChunking:
    def test_adaptive_sizes_are_observed_and_bounded(self):
        runner = ExperimentRunner(jobs=2)
        tasks = list(range(40))
        assert runner.map(_double, tasks) == [t * 2 for t in tasks]
        snapshot = obs_metrics.DEFAULT.snapshot()["observations"]
        sizes = snapshot.get("runner.chunk.adaptive")
        assert sizes is not None and sizes["count"] >= 2
        assert 1 <= sizes["min"] and sizes["max"] <= len(tasks)

    def test_fixed_chunk_size_disables_adaptation(self):
        runner = ExperimentRunner(jobs=2, chunk_size=3)
        runner.map(_double, list(range(12)))
        snapshot = obs_metrics.DEFAULT.snapshot()["observations"]
        assert "runner.chunk.adaptive" not in snapshot

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        tasks=st.lists(st.integers(min_value=0, max_value=99), min_size=2, max_size=40),
        jobs=st.integers(min_value=2, max_value=3),
    )
    def test_parallel_equals_serial_under_pool_reuse(self, tasks, jobs):
        """Property: results and counters match serial, maps back to back."""
        obs_metrics.DEFAULT.reset()
        expected = ExperimentRunner().map(_counting, tasks)
        serial_calls = obs_metrics.DEFAULT.snapshot()["counters"]["test.pool.calls"]
        assert serial_calls == len(tasks)

        obs_metrics.DEFAULT.reset()
        runner = ExperimentRunner(jobs=jobs)
        assert runner.map(_counting, tasks) == expected
        assert runner.map(_counting, tasks) == expected
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters["test.pool.calls"] == 2 * len(tasks)
        assert counters.get("runner.pool.spawned", 0) <= 1
        assert counters.get("runner.cells.parallel", 0) == 2 * len(tasks)


class TestStartMethods:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_sim_cells_bit_identical_across_start_methods(self, method):
        cells = [
            SimCell.make(trace, CONFIG, policy, seed=2)
            for policy in ("lru", "fifo")
            for trace in _big_traces()
        ]
        serial = run_sim_cells(cells, jobs=0, memoize=False)
        clear_memo()
        runner = ExperimentRunner(jobs=2, start_method=method)
        parallel = run_sim_cells(cells, runner=runner, memoize=False)
        assert parallel == serial
        assert pool_stats()["start_method"] == method

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_plain_map_and_counters_across_start_methods(self, method):
        runner = ExperimentRunner(jobs=2, start_method=method)
        tasks = list(range(10))
        assert runner.map(_counting, tasks) == [t + 1 for t in tasks]
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters["test.pool.calls"] == len(tasks)
        assert counters["runner.cells.parallel"] == len(tasks)
