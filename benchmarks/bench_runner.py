"""BENCH — persistent worker pool versus a fresh pool per round.

The same experiment grid (every workload-suite trace under one policy)
is driven for ``ROUNDS`` rounds twice —

* **baseline**: ``ExperimentRunner(reuse_pool=False)``, which builds a
  private worker pool for every ``map()`` call and tears it down after
  (workers re-fork and kernel caches re-warm every round);
* **persistent**: one process-wide pool spawned lazily on the first
  round and reused for the rest, chunk sizes adapted from observed cell
  timings.

In both legs every chunk pickles its cells, traces included, over the
worker's pipe.

Acceptance:

* both legs produce matrices bit-identical to the serial reference;
* the persistent leg's ledger shows ``runner.pool.spawned == 1`` (and
  rounds-1 reuses);
* the persistent leg is at least 2x faster overall.

Results land in ``benchmarks/results/bench_runner.txt`` and the
``bench_runner.ledger.json`` run record.
"""

from __future__ import annotations

import time

from repro.cache import CacheConfig
from repro.obs import metrics as obs_metrics
from repro.runner import (
    ExperimentRunner,
    SimCell,
    run_sim_cells,
    shutdown_pool,
)
from repro.util.tables import format_table
from repro.workloads import workload_suite


# One policy over the full workload suite: enough compute for honest
# timings, small enough that per-round pool startup (what this bench
# measures) dominates the baseline leg on small CI boxes.
POLICIES = ["lru"]
CONFIG = CacheConfig("L2", 8 * 1024, 8)
ROUNDS = 8
JOBS = 4


def _grid_cells() -> list[SimCell]:
    traces = workload_suite(cache_lines=CONFIG.num_sets * CONFIG.ways, seed=0)
    return [
        SimCell.make(trace, CONFIG, policy, seed=1)
        for policy in POLICIES
        for trace in traces
    ]


def _run_rounds(cells, make_runner):
    """Run the grid ROUNDS times; returns (matrix, per-round seconds)."""
    matrix = None
    timings = []
    runner = make_runner()
    for _ in range(ROUNDS):
        start = time.perf_counter()
        results = run_sim_cells(cells, runner=runner)
        timings.append(time.perf_counter() - start)
        assert matrix is None or results == matrix, "rounds must agree"
        matrix = results
    return matrix, timings


def _runner_counters() -> dict:
    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    return {
        key: value
        for key, value in sorted(counters.items())
        if key.startswith("runner.")
    }


def test_bench_runner_persistent_pool(save_result):
    """Acceptance: the persistent pool makes grid rounds >= 2x faster."""
    cells = _grid_cells()
    shutdown_pool()

    # Serial reference: the bit-identity ground truth.
    serial_matrix, _ = _run_rounds(cells, lambda: ExperimentRunner())

    obs_metrics.DEFAULT.reset()
    baseline_matrix, baseline_rounds = _run_rounds(
        cells, lambda: ExperimentRunner(jobs=JOBS, reuse_pool=False)
    )
    baseline_counters = _runner_counters()

    obs_metrics.DEFAULT.reset()
    persistent_runner = ExperimentRunner(jobs=JOBS)
    try:
        persistent_matrix, persistent_rounds = _run_rounds(
            cells, lambda: persistent_runner
        )
        persistent_counters = _runner_counters()
    finally:
        shutdown_pool()

    assert baseline_matrix == serial_matrix
    assert persistent_matrix == serial_matrix
    # The pool lifecycle contract: one spawn, reused every later round.
    assert persistent_counters["runner.pool.spawned"] == 1
    assert persistent_counters["runner.pool.reused"] >= ROUNDS - 1
    assert baseline_counters["runner.pool.spawned"] == ROUNDS
    # Every cell ran in a worker in both legs.
    per_leg = ROUNDS * len(cells)
    assert persistent_counters.get("runner.cells.parallel") == per_leg
    assert baseline_counters.get("runner.cells.parallel") == per_leg

    baseline_seconds = sum(baseline_rounds)
    persistent_seconds = sum(persistent_rounds)
    speedup = baseline_seconds / persistent_seconds if persistent_seconds else 0.0

    rows = [
        [index, f"{cold:.3f}", f"{warm:.3f}", f"{cold / warm:.1f}x" if warm else "-"]
        for index, (cold, warm) in enumerate(zip(baseline_rounds, persistent_rounds))
    ]
    rows.append(
        [
            "TOTAL",
            f"{baseline_seconds:.3f}",
            f"{persistent_seconds:.3f}",
            f"{speedup:.1f}x",
        ]
    )
    table = format_table(
        ["round", "fresh-pool s", "persistent s", "speedup"],
        rows,
        title=f"BENCH runner: per-round pools vs persistent pool "
        f"({len(cells)} cells x {ROUNDS} rounds, jobs={JOBS})",
    )

    data = {
        "rounds": ROUNDS,
        "cells": len(cells),
        "baseline_rounds": baseline_rounds,
        "persistent_rounds": persistent_rounds,
        "baseline_seconds": baseline_seconds,
        "persistent_seconds": persistent_seconds,
        "speedup": speedup,
        "baseline_counters": baseline_counters,
        "persistent_counters": persistent_counters,
    }
    params = {
        "policies": POLICIES,
        "config": CONFIG.name,
        "rounds": ROUNDS,
        "jobs": JOBS,
    }
    save_result("bench_runner", table, data=data, params=params)

    assert speedup >= 2.0, (
        f"persistent pool only {speedup:.1f}x faster than per-round pools "
        f"({baseline_seconds:.3f}s -> {persistent_seconds:.3f}s)"
    )
