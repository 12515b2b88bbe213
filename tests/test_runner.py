"""Tests for the parallel experiment runner (repro.runner)."""

import os

import pytest

from repro.cache import CacheConfig
from repro.eval import cache_size_sweep, miss_ratio_matrix
from repro.obs import metrics as obs_metrics
from repro.runner import (
    ExperimentRunner,
    SimCell,
    derive_cell_seed,
    run_sim_cells,
    simulate_cell,
)
from repro.util.rng import derive_seed
from repro.workloads import (
    cyclic_loop,
    random_uniform,
    sequential_scan,
    workload_suite,
)

_PARENT_PID = os.getpid()


def _double(task):
    return task * 2

def _square(task):
    return task * task


def _poisoned_in_worker(task):
    """Succeeds in the parent process, raises in any worker process."""
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("poisoned worker cell")
    return task + 100


def _always_fails(task):
    raise ValueError(f"bad cell {task}")


def _cell_sources():
    """The ``runner.cells.<source>`` counters, keyed by source."""
    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    prefix = "runner.cells."
    return {
        key[len(prefix):]: value
        for key, value in counters.items()
        if key.startswith(prefix)
    }


@pytest.fixture(autouse=True)
def _fresh_metrics():
    obs_metrics.DEFAULT.reset()


class TestRunnerMap:
    def test_serial_default_preserves_order(self):
        runner = ExperimentRunner()
        assert runner.map(_double, [3, 1, 2]) == [6, 2, 4]
        assert not runner.parallel
        assert _cell_sources() == {"serial": 3}

    def test_parallel_preserves_order(self):
        runner = ExperimentRunner(jobs=2)
        tasks = list(range(11))
        assert runner.map(_square, tasks) == [t * t for t in tasks]
        assert _cell_sources() == {"parallel": len(tasks)}

    def test_single_task_runs_serially_even_with_jobs(self):
        runner = ExperimentRunner(jobs=4)
        assert runner.map(_double, [21]) == [42]
        assert _cell_sources() == {"serial": 1}

    def test_poisoned_worker_retries_then_falls_back_serially(self):
        runner = ExperimentRunner(jobs=2)
        assert runner.map(_poisoned_in_worker, [1, 2, 3]) == [101, 102, 103]
        # Every produced value must come from the serial fallback.
        assert _cell_sources() == {"fallback": 3}

    def test_deterministic_task_error_propagates(self):
        runner = ExperimentRunner(jobs=2)
        with pytest.raises(ValueError, match="bad cell"):
            runner.map(_always_fails, [1, 2])

    def test_unpicklable_fn_falls_back_serially(self):
        runner = ExperimentRunner(jobs=2)
        parent_pid = os.getpid()
        values = runner.map(lambda task: (task, os.getpid()), [1, 2, 3])
        assert [task for task, _pid in values] == [1, 2, 3]
        assert {pid for _task, pid in values} == {parent_pid}


class TestSeedDerivation:
    def test_derive_seed_is_stable(self):
        # Pinned value: the derivation must never depend on PYTHONHASHSEED
        # or the process, or parallel results would diverge from serial.
        assert derive_seed(0, "x") == derive_seed(0, "x")
        assert derive_seed(0, "x") != derive_seed(0, "y")
        assert derive_seed(0, "x") != derive_seed(1, "x")
        assert derive_seed(42, "shared") == 3204986149

    def test_derive_cell_seed_multiaxis(self):
        a = derive_cell_seed(7, "noise", 0.01, 3)
        b = derive_cell_seed(7, "noise", 0.01, 4)
        assert a != b
        assert a == derive_cell_seed(7, "noise", 0.01, 3)


class TestSimCells:
    CONFIG = CacheConfig("c", 4096, 4)

    def test_simulate_cell_matches_direct_simulation(self):
        from repro.eval import simulate_trace

        trace = sequential_scan(64)
        cell = SimCell.make(trace, self.CONFIG, "plru", seed=5)
        assert simulate_cell(cell).stats == simulate_trace(
            trace, self.CONFIG, "plru", seed=5
        )


class TestTraceMajorOrder:
    """Cells run one trace at a time; results keep cell order."""

    CONFIG = CacheConfig("L1", 64 * 4 * 64, 4)  # 64 sets: vector lanes
    POLICIES = ("lru", "plru", "fifo")

    def _grid(self):
        traces = [
            cyclic_loop(300, 3),
            sequential_scan(500, passes=2),
            random_uniform(400, 1500, seed=2),
        ]
        cells = [
            SimCell.make(trace, self.CONFIG, policy, seed=1)
            for policy in self.POLICIES
            for trace in traces
        ]
        return traces, cells

    def test_fresh_cells_run_grouped_by_trace(self):
        traces, cells = self._grid()
        mapped = []

        class RecordingRunner(ExperimentRunner):
            def map(self, fn, tasks):
                tasks = list(tasks)
                mapped.extend(tasks)
                return super().map(fn, tasks)

        run_sim_cells(cells, runner=RecordingRunner())
        assert mapped == [
            cell for trace in traces for cell in cells if cell.trace is trace
        ]

    @pytest.mark.parametrize("parallel", [True, False])
    def test_results_come_back_in_cell_order(self, parallel):
        _traces, cells = self._grid()
        expected = [simulate_cell(cell) for cell in cells]
        assert run_sim_cells(cells, jobs=2 if parallel else 0) == expected

    def test_a_grid_builds_one_layout_per_trace(self, monkeypatch):
        from repro.kernels import vector

        if not vector.available():
            pytest.skip("numpy not installed")
        built = []
        build = vector._build_trace_layout

        def counting_build(trace, config):
            built.append(trace.name)
            return build(trace, config)

        monkeypatch.setattr(vector, "_build_trace_layout", counting_build)
        monkeypatch.setattr(vector, "_TRACE_LAYOUT", None)
        traces, cells = self._grid()
        obs_metrics.DEFAULT.reset()
        run_sim_cells(cells)
        assert obs_metrics.DEFAULT.counter("kernel.vector.calls") == len(cells)
        assert built == [trace.name for trace in traces]


class TestParallelBitIdentical:
    """The acceptance property: parallel == serial, cell for cell."""

    CONFIG = CacheConfig("L2", 16 * 1024, 8)

    def _traces(self):
        return workload_suite(
            cache_lines=self.CONFIG.num_sets * self.CONFIG.ways, seed=0
        )[:4]

    @pytest.mark.parametrize("policies", [
        ["lru", "fifo", "plru"],           # deterministic
        ["random", "bip", "dip"],          # seeded-random + set-dueling
    ])
    def test_matrix_identical_serial_vs_parallel(self, policies):
        traces = self._traces()
        serial = miss_ratio_matrix(traces, self.CONFIG, policies, seed=3)
        parallel = miss_ratio_matrix(traces, self.CONFIG, policies, seed=3, jobs=2)
        assert serial == parallel

    def test_sweep_identical_serial_vs_parallel(self):
        trace = cyclic_loop(96, 3)
        serial = cache_size_sweep(trace, [1024, 4096], ["lru", "random"])
        parallel = cache_size_sweep(trace, [1024, 4096], ["lru", "random"], jobs=2)
        assert serial == parallel


class TestObservabilityMerge:
    """Worker metrics are merged back into the parent process."""

    CONFIG = CacheConfig("L2", 16 * 1024, 8)

    def _cells(self):
        traces = workload_suite(
            cache_lines=self.CONFIG.num_sets * self.CONFIG.ways, seed=0
        )[:3]
        return [
            SimCell.make(trace, self.CONFIG, policy, seed=1)
            for policy in ("lru", "plru", "fifo")
            for trace in traces
        ]

    def _run(self, jobs):
        obs_metrics.DEFAULT.reset()
        ExperimentRunner(jobs=jobs).map(simulate_cell, self._cells())
        return obs_metrics.DEFAULT.snapshot()

    def test_parallel_metrics_equal_serial_modulo_timers(self):
        """The acceptance property: --jobs N counters == jobs=0 counters,
        modulo the runner's own scheduling metrics (cell-source splits,
        pool lifecycle, chunk retries) and the kernel cache-warmth split
        — persistent workers keep their in-memory automaton caches
        across maps, so hit/load/miss may split differently than in the
        parent while their total stays exact."""
        serial = self._run(jobs=0)
        parallel = self._run(jobs=3)

        def comparable(snapshot):
            counters = {}
            compile_total = 0
            for key, value in snapshot["counters"].items():
                if key.startswith("runner."):
                    continue
                if key.startswith("kernel.compile."):
                    compile_total += value
                    continue
                counters[key] = value
            counters["kernel.compile.total"] = compile_total
            return counters

        assert comparable(serial) == comparable(parallel)
        assert serial["counters"]["runner.cells.serial"] == len(self._cells())
        assert parallel["counters"]["runner.cells.parallel"] == len(self._cells())

        def observation_counts(snapshot):
            return {
                key: value["count"]
                for key, value in snapshot["observations"].items()
                if not key.startswith("runner.chunk.")
            }

        assert observation_counts(serial) == observation_counts(parallel)
        cells = len(self._cells())
        assert serial["observations"]["runner.cell_seconds"]["count"] == cells
        assert parallel["observations"]["runner.cell_seconds"]["count"] == cells

    def test_fallback_path_still_counts_every_cell(self):
        obs_metrics.DEFAULT.reset()
        runner = ExperimentRunner(jobs=2)
        assert runner.map(_poisoned_in_worker, [1, 2, 3]) == [101, 102, 103]
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters["runner.cells.fallback"] == 3
        assert counters["runner.chunk_retries"] >= 3
