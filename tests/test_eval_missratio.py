"""Tests for miss-ratio evaluation."""

import pytest

from repro.cache import CacheConfig
from repro.eval import cache_size_sweep, miss_ratio, miss_ratio_matrix, simulate_trace
from repro.workloads import Trace, cyclic_loop, sequential_scan


class TestSimulateTrace:
    def test_fits_in_cache_second_pass_free(self):
        config = CacheConfig("c", 4096, 4)  # 64 lines
        trace = cyclic_loop(32, iterations=2)
        stats = simulate_trace(trace, config, "lru")
        assert stats.misses == 32  # only the cold pass misses
        assert stats.accesses == 64

    def test_thrashing_loop_under_lru(self):
        config = CacheConfig("c", 4096, 64)  # fully associative, 64 lines
        trace = cyclic_loop(65, iterations=3)
        stats = simulate_trace(trace, config, "lru")
        assert stats.miss_ratio == 1.0  # the classic LRU pathology

    def test_miss_ratio_helper(self):
        config = CacheConfig("c", 4096, 4)
        assert miss_ratio(sequential_scan(8), config, "lru") == 1.0


class TestMatrix:
    def make(self):
        config = CacheConfig("c", 4096, 64)  # fully associative
        traces = [cyclic_loop(65, 3), cyclic_loop(32, 3)]
        return miss_ratio_matrix(traces, config, ["lru", "lip"])

    def test_lookup(self):
        matrix = self.make()
        assert matrix.ratio("lru", "loop-65w") == 1.0
        assert matrix.ratio("lip", "loop-65w") < 1.0  # LIP defeats thrashing

    def test_orders_preserved(self):
        matrix = self.make()
        assert matrix.policies() == ["lru", "lip"]
        assert matrix.traces() == ["loop-65w", "loop-32w"]

    def test_rows_shape(self):
        matrix = self.make()
        rows = matrix.rows()
        assert len(rows) == 2
        assert len(rows[0]) == 3  # trace name + 2 policies

    def test_missing_cell_raises(self):
        matrix = self.make()
        with pytest.raises(KeyError):
            matrix.ratio("fifo", "loop-65w")

    def test_cell_index_matches_linear_search(self):
        matrix = self.make()
        for cell in matrix.cells:
            assert matrix.cell(cell.policy, cell.trace) is cell
        with pytest.raises(KeyError):
            matrix.cell("nope", "loop-65w")



class TestTraceNames:
    """Each cell is reported under the trace it ran, whatever its addresses.

    Serially and through the pool, traces with equal addresses keep
    their own names, in one matrix and across calls.
    """

    CONFIG = CacheConfig("t", 4096, 4)
    ADDRESSES = tuple((i % 96) * 64 for i in range(4096))
    POLICIES = ["lru", "fifo"]

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_equal_addresses_keep_both_names(self, jobs):
        traces = [Trace("first", self.ADDRESSES), Trace("second", self.ADDRESSES)]
        matrix = miss_ratio_matrix(traces, self.CONFIG, self.POLICIES, jobs=jobs)
        assert [(cell.policy, cell.trace) for cell in matrix.cells] == [
            (policy, trace) for policy in self.POLICIES for trace in ("first", "second")
        ]
        assert [row[0] for row in matrix.rows()] == ["first", "second"]

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_a_later_call_reports_its_own_trace(self, jobs):
        first = Trace("first", self.ADDRESSES)
        miss_ratio_matrix([first], self.CONFIG, self.POLICIES, jobs=jobs)
        second = Trace("second", self.ADDRESSES)
        later = miss_ratio_matrix([second], self.CONFIG, self.POLICIES, jobs=jobs)
        assert later.traces() == ["second"]


class TestSweep:
    def test_monotone_for_lru_on_loops(self):
        trace = cyclic_loop(64, 4)
        points = cache_size_sweep(trace, [1024, 4096, 16 * 1024], ["lru"])
        ratios = [p.miss_ratio for p in points]
        assert ratios == sorted(ratios, reverse=True)  # larger cache, fewer misses

    def test_one_point_per_policy_size(self):
        trace = cyclic_loop(16, 2)
        points = cache_size_sweep(trace, [1024, 2048], ["lru", "fifo"])
        assert len(points) == 4
        assert {(p.policy, p.cache_size) for p in points} == {
            ("lru", 1024), ("lru", 2048), ("fifo", 1024), ("fifo", 2048)
        }
