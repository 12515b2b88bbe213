"""Tests for the persistent worker pool, its pipe transport and scheduler.

Covers pool lifecycle (lazy spawn, reuse across ``map()`` calls,
per-worker restart on death, ``shutdown_pool``), the pipe transport
(each chunk pickles a shared trace once, results return inline, a task
that will not unpickle fails its chunk without killing the worker),
adaptive chunking, and hypothesis property tests asserting parallel ==
serial under pool reuse and both start methods.
"""

from __future__ import annotations

import os
import subprocess
import sys
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.cache import CacheConfig
from repro.obs import metrics as obs_metrics
from repro.runner import (
    ExperimentRunner,
    SimCell,
    pool_stats,
    run_sim_cells,
    shutdown_pool,
)
from repro.runner import pool as runner_pool
from repro.workloads import Trace, workload_suite

_PARENT_PID = os.getpid()

CONFIG = CacheConfig("L2", 8 * 1024, 8)


def _big_traces():
    suite = workload_suite(cache_lines=CONFIG.num_sets * CONFIG.ways, seed=0)
    big = [t for t in suite if len(t) >= 2048]
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


class _RebuiltInParentOnly:
    """A task that pickles anywhere but unpickles only in the parent."""

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        return (_rebuild_in_parent_only, (self.value,))


def _rebuild_in_parent_only(value):
    if os.getpid() != _PARENT_PID:
        raise ValueError("rebuilt outside the parent")
    return _RebuiltInParentOnly(value)


def _triple_value(task):
    return task.value * 3


@pytest.fixture(autouse=True)
def _fresh_pool_and_metrics():
    """Each test here reasons about pool lifecycle counters from zero."""
    shutdown_pool()
    obs_metrics.DEFAULT.reset()
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
        runner = ExperimentRunner(jobs=2)
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
        runner = ExperimentRunner(jobs=2)
        assert runner.map(_die_on_seven, [1, 2, 7, 4]) == [11, 22, 77, 44]
        counters = _runner_counters()
        # Only the chunk holding 7 ran in the parent, after its retry.
        assert counters["runner.cells.fallback"] == 1
        assert counters["runner.cells.parallel"] == 3
        assert counters["runner.chunk_retries"] >= 2
        assert counters["runner.pool.restarted"] >= 2

    def test_workers_follow_the_parent_cache_directory(self, tmp_path):
        """Each chunk pins a worker to the parent's current cache directory.

        The workers start under one directory and the parent moves to
        another; they must load the automaton the parent persisted there
        instead of compiling their own.
        """
        from repro.kernels import clear_compile_cache, store

        cells = [SimCell.make(trace, CONFIG, "plru") for trace in _big_traces()]
        clear_compile_cache()
        runner_pool.get_pool(2)  # workers start with an empty compile cache
        store.set_cache_dir(tmp_path / "moved")
        serial = run_sim_cells(cells, jobs=0)
        obs_metrics.DEFAULT.reset()
        parallel = run_sim_cells(cells, jobs=2)
        assert parallel == serial
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters.get("kernel.compile.load", 0) > 0
        assert counters.get("kernel.compile.miss", 0) == 0


#: Two grid rounds on two pools, the second spawned after the first
#: shut down.
_POOL_ROUNDS_SCRIPT = """
from repro.cache import CacheConfig
from repro.eval import miss_ratio_matrix
from repro.runner import get_pool, shutdown_pool
from repro.workloads import workload_suite

config = CacheConfig("L2", 8 * 1024, 8)
suite = workload_suite(cache_lines=config.num_sets * config.ways, seed=0)
traces = [trace for trace in suite if len(trace) >= 2048][:2]
get_pool(2)
for round_ in range(2):
    if round_:
        shutdown_pool()
        get_pool(2)
    miss_ratio_matrix(traces, config, ["lru", "fifo"], jobs=2)
"""


class TestSharedMemoryTransport:
    """No shared memory: every task and result is pickled over a pipe."""

    def test_pool_rounds_leave_no_resource_tracker_warnings(self, tmp_path):
        """Pools that start, run grids and shut down print no
        ``resource_tracker`` lines at exit."""
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

    def test_a_chunk_pickles_its_trace_once(self, monkeypatch):
        """A trace's cells travel as one task that pickles the trace
        once: its chunk weighs about one trace, not one per cell.  Six
        policies on one trace are one task, which runs in the parent."""
        traces = _big_traces()
        policies = ("lru", "fifo", "plru", "bitplru", "nru", "random")
        chunks = []
        submit = runner_pool.WorkerPool.submit

        def measured_submit(pool, worker, target, args, meta):
            chunk_bytes = len(ForkingPickler.dumps((0, target, args)))
            chunks.append((sum(len(group) for _index, group in meta), chunk_bytes))
            return submit(pool, worker, target, args, meta)

        monkeypatch.setattr(runner_pool.WorkerPool, "submit", measured_submit)
        single = [SimCell.make(traces[0], CONFIG, policy) for policy in policies]
        serial = run_sim_cells(single, jobs=0)
        obs_metrics.DEFAULT.reset()
        assert run_sim_cells(single, jobs=2) == serial
        assert chunks == []
        assert _runner_counters() == {"runner.cells.serial": 1}

        cells = [
            SimCell.make(trace, CONFIG, policy)
            for trace in traces
            for policy in policies
        ]
        serial = run_sim_cells(cells, jobs=0)
        assert run_sim_cells(cells, jobs=2) == serial
        one_trace = max(len(ForkingPickler.dumps(trace)) for trace in traces)
        assert sorted(count for count, _bytes in chunks) == [6, 6]
        for count, chunk_bytes in chunks:
            assert chunk_bytes < 1.2 * one_trace, (count, chunk_bytes, one_trace)

    def test_each_trace_travels_in_one_chunk(self, monkeypatch):
        """A pooled grid ships every trace once, in the chunk of its
        group, whatever mix of policies the trace is simulated under."""
        config = CacheConfig("L2", 64 * 8 * 64, 8)  # 64 sets: lock-step
        traces = workload_suite(cache_lines=config.num_sets * config.ways, seed=0)[:4]
        policies = ("lru", "plru", "srrip", "dip", "random")
        cells = [
            SimCell.make(trace, config, policy, seed=2)
            for policy in policies
            for trace in traces
        ]
        shipped = []
        submit = runner_pool.WorkerPool.submit

        def spying_submit(pool, worker, target, args, meta):
            shipped.append(
                {cell.trace.name for _index, group in meta for cell in group}
            )
            return submit(pool, worker, target, args, meta)

        monkeypatch.setattr(runner_pool.WorkerPool, "submit", spying_submit)
        serial = run_sim_cells(cells, jobs=0)
        obs_metrics.DEFAULT.reset()
        assert run_sim_cells(cells, jobs=2) == serial
        assert sorted(name for names in shipped for name in names) == sorted(
            trace.name for trace in traces
        )
        counters = _runner_counters()
        assert counters["runner.cells.parallel"] == len(traces)
        assert "runner.chunk_retries" not in counters

    def test_shared_and_plain_cells_simulate_identically(self):
        """Cells sharing one trace object arrive in a worker sharing one
        copy; they answer as cells with a trace object each."""
        traces = _big_traces()
        policies = ("lru", "plru")
        shared = [
            SimCell.make(trace, CONFIG, policy, seed=3)
            for trace in traces
            for policy in policies
        ]
        plain = [
            SimCell.make(Trace(trace.name, trace.addresses), CONFIG, policy, seed=3)
            for trace in traces
            for policy in policies
        ]
        serial = run_sim_cells(shared, jobs=0)
        runner = ExperimentRunner(jobs=2)
        assert run_sim_cells(shared, runner=runner) == serial
        assert run_sim_cells(plain, runner=runner) == serial

    def test_large_results_return_inline(self):
        size = 256 * 1024
        out = ExperimentRunner(jobs=2).map(_payload, [size, size + 1, 8])
        assert [len(blob) for blob in out] == [size, size + 1, 8]
        assert _runner_counters()["runner.cells.parallel"] == 3

    def test_unpickling_failure_keeps_the_worker(self):
        """The worker reports the unpickling error for its task in flight
        and stays up; the chunk takes the retry ladder to the serial
        fallback, where the task never crosses a pipe."""
        tasks = [_RebuiltInParentOnly(value) for value in (1, 2, 3)]
        pool = runner_pool.get_pool(2)
        pool.submit(pool.idle_workers()[0], _triple_value, (tasks[0],), "meta")
        outcomes = []
        for _ in range(100):
            outcomes = pool.collect(0.1)
            if outcomes:
                break
        assert outcomes == [(
            "failed",
            "meta",
            "task could not be unpickled: ValueError: rebuilt outside the parent",
        )]

        obs_metrics.DEFAULT.reset()
        out = ExperimentRunner(jobs=2).map(_triple_value, tasks)
        assert out == ExperimentRunner().map(_triple_value, tasks)
        counters = _runner_counters()
        assert counters.get("runner.pool.restarted", 0) == 0
        # One chunk per task, each failing once, retried, and failing again.
        assert counters["runner.chunk_retries"] == 2 * len(tasks)
        assert counters["runner.cells.fallback"] == len(tasks)


class TestAdaptiveChunking:
    def test_adaptive_sizes_are_observed_and_bounded(self):
        runner = ExperimentRunner(jobs=2)
        tasks = list(range(40))
        assert runner.map(_double, tasks) == [t * 2 for t in tasks]
        snapshot = obs_metrics.DEFAULT.snapshot()["observations"]
        sizes = snapshot.get("runner.chunk.adaptive")
        assert sizes is not None and sizes["count"] >= 2
        assert 1 <= sizes["min"] and sizes["max"] <= len(tasks)

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
        serial = run_sim_cells(cells, jobs=0)
        runner = ExperimentRunner(jobs=2, start_method=method)
        parallel = run_sim_cells(cells, runner=runner)
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
