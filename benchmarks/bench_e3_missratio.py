"""E3 — Figure: miss ratios of the policies across workloads.

The performance half of the paper's evaluation: replay workload traces
under every policy of interest and compare miss ratios.  The figure's
series become the columns of the saved table.  Shape expectations
asserted below: all policies tie on a cache-resident loop, LRU-like
policies thrash on loops just above the cache while insertion policies
(LIP/DIP) survive them, and FIFO trails LRU on reuse-heavy workloads.

The grid runs through :mod:`repro.runner`; pass ``--jobs N`` to fan the
(policy x workload) cells over worker processes.  The serial and the
``--jobs 2`` ledgers must hold equal ``data``.
"""

from dataclasses import asdict

import pytest

from repro.cache import CacheConfig
from repro.eval import miss_ratio_matrix
from repro.util.tables import format_table
from repro.workloads import workload_suite
from repro.obs.spans import traced

POLICIES = ["lru", "fifo", "plru", "bitplru", "nru", "srrip", "lip", "dip", "random"]
CONFIG = CacheConfig("L2", 64 * 1024, 8)  # 1024 lines


@traced("e3.grid")
def compute_matrix(jobs: int = 0):
    traces = workload_suite(cache_lines=CONFIG.num_sets * CONFIG.ways, seed=0)
    return miss_ratio_matrix(traces, CONFIG, POLICIES, seed=0, jobs=jobs)


def test_e3_missratio_matrix(benchmark, save_result, jobs):
    matrix = benchmark.pedantic(compute_matrix, args=(jobs,), rounds=1, iterations=1)
    table = format_table(
        ["workload"] + matrix.policies(),
        matrix.rows(),
        title=f"E3: miss ratios @ {CONFIG.describe()}",
    )
    save_result(
        "e3_missratio",
        table,
        data={
            "config": {
                key: getattr(CONFIG, key)
                for key in ("name", "size", "ways", "line_size", "inclusion", "index_hash")
            },
            "cells": [asdict(cell) for cell in matrix.cells],
        },
        params={"policies": POLICIES, "config": CONFIG.describe(), "seed": 0},
    )

    # Shape assertions (the paper's qualitative findings).
    assert matrix.ratio("lru", "loop-friendly") == matrix.ratio("fifo", "loop-friendly")
    assert matrix.ratio("lip", "loop-thrashing") < 0.5 < matrix.ratio("lru", "loop-thrashing")
    assert matrix.ratio("dip", "loop-thrashing") < 0.5
    assert matrix.ratio("fifo", "skewed") > matrix.ratio("lru", "skewed")
    assert matrix.ratio("plru", "skewed") == pytest.approx(
        matrix.ratio("lru", "skewed"), rel=0.1
    )


def test_e3_simulation_throughput(benchmark):
    """Timing kernel: one policy x one workload simulation."""
    from repro.eval import simulate_trace
    from repro.workloads import APP_MODELS

    trace = APP_MODELS["skewed"].trace(cache_lines=CONFIG.num_sets * CONFIG.ways, seed=0)

    stats = benchmark(lambda: simulate_trace(trace, CONFIG, "plru"))
    assert stats.accesses == len(trace)

