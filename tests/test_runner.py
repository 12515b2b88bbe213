"""Tests for the parallel experiment runner (repro.runner)."""

import os

import pytest

from repro.cache import CacheConfig
from repro.eval import cache_size_sweep, miss_ratio_matrix
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs import trace as obs_trace
from repro.runner import (
    ExperimentRunner,
    SimCell,
    clear_memo,
    derive_cell_seed,
    memo_size,
    run_sim_cells,
    simulate_cell,
    trace_fingerprint,
)
from repro.util.rng import derive_seed
from repro.workloads import (
    Trace,
    cyclic_loop,
    random_uniform,
    sequential_scan,
    workload_suite,
)
from tests.conftest import vector_switch

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


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


class TestRunnerMap:
    def test_serial_default_preserves_order(self):
        runner = ExperimentRunner()
        assert runner.map(_double, [3, 1, 2]) == [6, 2, 4]
        assert not runner.parallel
        assert [t.source for t in runner.timings] == ["serial"] * 3

    def test_parallel_preserves_order(self):
        runner = ExperimentRunner(jobs=2, chunk_size=2)
        tasks = list(range(11))
        assert runner.map(_square, tasks) == [t * t for t in tasks]
        assert {t.source for t in runner.timings} == {"parallel"}
        assert sorted(t.index for t in runner.timings) == tasks

    def test_single_task_runs_serially_even_with_jobs(self):
        runner = ExperimentRunner(jobs=4)
        assert runner.map(_double, [21]) == [42]
        assert runner.timings[0].source == "serial"

    def test_labels_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner().map(_double, [1, 2], labels=["only-one"])

    def test_progress_hook_sees_every_cell(self):
        seen = []
        runner = ExperimentRunner(progress=seen.append)
        runner.map(_double, [1, 2, 3], labels=["a", "b", "c"])
        assert [t.label for t in seen] == ["a", "b", "c"]

    def test_poisoned_worker_retries_then_falls_back_serially(self):
        runner = ExperimentRunner(jobs=2, chunk_size=1, retries=1)
        assert runner.map(_poisoned_in_worker, [1, 2, 3]) == [101, 102, 103]
        # Every produced value must come from the serial fallback.
        sources = {t.index: t.source for t in runner.timings}
        assert sources == {0: "fallback", 1: "fallback", 2: "fallback"}

    def test_deterministic_task_error_propagates(self):
        runner = ExperimentRunner(jobs=2, retries=0)
        with pytest.raises(ValueError, match="bad cell"):
            runner.map(_always_fails, [1, 2])

    def test_unpicklable_fn_falls_back_serially(self):
        runner = ExperimentRunner(jobs=2, retries=0)
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

    def test_trace_fingerprint_is_content_addressed(self):
        same_a = Trace("a", (64, 128, 192))
        same_b = Trace("b", (64, 128, 192))
        other = Trace("a", (64, 128, 256))
        assert trace_fingerprint(same_a) == trace_fingerprint(same_b)
        assert trace_fingerprint(same_a) != trace_fingerprint(other)

    def test_memoization_hits_on_second_run(self):
        cells = [SimCell.make(cyclic_loop(16, 2), self.CONFIG, "lru")]
        first = run_sim_cells(cells)
        assert memo_size() == 1
        runner = ExperimentRunner()
        second = run_sim_cells(cells, runner=runner)
        assert first == second
        assert [t.source for t in runner.timings] == ["memo"]

    def test_duplicate_cells_run_once(self):
        cell = SimCell.make(cyclic_loop(16, 2), self.CONFIG, "lru")
        runner = ExperimentRunner()
        results = run_sim_cells([cell, cell, cell], runner=runner)
        assert results[0] == results[1] == results[2]
        assert sum(1 for t in runner.timings if t.source == "serial") == 1

    def test_memoize_false_bypasses_cache(self):
        cells = [SimCell.make(cyclic_loop(16, 2), self.CONFIG, "lru")]
        run_sim_cells(cells, memoize=False)
        assert memo_size() == 0

    def test_simulate_cell_matches_direct_simulation(self):
        from repro.eval import simulate_trace

        trace = sequential_scan(64)
        cell = SimCell.make(trace, self.CONFIG, "plru", seed=5)
        assert simulate_cell(cell).stats == simulate_trace(
            trace, self.CONFIG, "plru", seed=5
        )


class TestTraceMajorOrder:
    """Fresh cells run one trace at a time; results keep cell order."""

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
        runner = ExperimentRunner()
        run_sim_cells(cells, runner=runner)
        assert [t.label for t in runner.timings] == [
            cell.label for trace in traces for cell in cells if cell.trace is trace
        ]

    @pytest.mark.parametrize("memoize", [True, False])
    def test_results_come_back_in_cell_order(self, memoize):
        _traces, cells = self._grid()
        expected = [simulate_cell(cell) for cell in cells]
        if memoize:
            run_sim_cells(cells[::2])  # memo hits between fresh cells
        assert run_sim_cells(cells, memoize=memoize) == expected

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
        with vector_switch("vector"):
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
        clear_memo()
        serial = miss_ratio_matrix(traces, self.CONFIG, policies, seed=3)
        clear_memo()
        parallel = miss_ratio_matrix(traces, self.CONFIG, policies, seed=3, jobs=2)
        assert serial == parallel

    def test_sweep_identical_serial_vs_parallel(self):
        trace = cyclic_loop(96, 3)
        serial = cache_size_sweep(trace, [1024, 4096], ["lru", "random"], memoize=False)
        parallel = cache_size_sweep(
            trace, [1024, 4096], ["lru", "random"], jobs=2, memoize=False
        )
        assert serial == parallel


class TestObservabilityMerge:
    """Worker metrics/events are merged back into the parent process."""

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

    def _run(self, jobs, tracer_include=None):
        obs_metrics.DEFAULT.reset()
        obs_spans.reset()
        clear_memo()
        cells = self._cells()
        labels = [cell.label for cell in cells]
        if tracer_include is not None:
            with obs_trace.tracing(include=tracer_include) as tracer:
                ExperimentRunner(jobs=jobs, chunk_size=2).map(
                    simulate_cell, cells, labels=labels
                )
            events = list(tracer.events)
        else:
            ExperimentRunner(jobs=jobs, chunk_size=2).map(
                simulate_cell, cells, labels=labels
            )
            events = []
        return obs_metrics.DEFAULT.snapshot(), events

    def test_parallel_metrics_equal_serial_modulo_timers(self):
        """The acceptance property: --jobs N counters == jobs=0 counters,
        modulo the runner's own scheduling metrics (cell-source splits,
        pool lifecycle, shm transport) and the kernel cache-warmth split
        — persistent workers keep their in-memory automaton caches
        across maps, so hit/load/miss may split differently than in the
        parent while their total stays exact."""
        serial, _ = self._run(jobs=0)
        parallel, _ = self._run(jobs=3)

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

    def test_parallel_trace_matches_serial_event_mix(self):
        # kernel.* events are cache-warmth dependent (a persistent
        # worker's warm automaton cache skips the load/miss events the
        # parent's cold one would emit), so the mix parity covers the
        # logical event families only.
        include = ("runner.", "span.", "oracle.")
        _, serial_events = self._run(jobs=0, tracer_include=include)
        _, parallel_events = self._run(jobs=3, tracer_include=include)

        def mix(events):
            counts = {}
            for event in events:
                counts[event["kind"]] = counts.get(event["kind"], 0) + 1
            return counts

        assert mix(serial_events) == mix(parallel_events)
        seqs = [event["seq"] for event in parallel_events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_worker_spans_nest_under_the_parent_map_span(self):
        _, events = self._run(jobs=3, tracer_include=("span.",))
        starts = [e for e in events if e["kind"] == "span.start"]
        map_span = next(e for e in starts if e["span"] == "runner.map")
        cell_spans = [e for e in starts if e["span"] == "cell"]
        assert len(cell_spans) == len(self._cells())
        assert all(e["parent"] == map_span["id"] for e in cell_spans)
        assert all(e["id"].startswith(map_span["id"] + ".w") for e in cell_spans)
        assert len({e["id"] for e in cell_spans}) == len(cell_spans)

    def test_fallback_path_still_counts_every_cell(self):
        obs_metrics.DEFAULT.reset()
        runner = ExperimentRunner(jobs=2, chunk_size=1, retries=1)
        assert runner.map(_poisoned_in_worker, [1, 2, 3]) == [101, 102, 103]
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters["runner.cells.fallback"] == 3
        assert counters["runner.chunk_retries"] >= 3
