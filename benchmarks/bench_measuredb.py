"""BENCH — cold versus warm inference via the persistent measurement DB.

The acceptance benchmark for :mod:`repro.measuredb`, shaped like a small
E2 cost grid: every (policy, ways) cell is reverse engineered twice
against a fresh store directory — once cold (every measurement runs on
the simulated substrate and is written back) and once warm (service
memos dropped, the sqlite file preloaded, zero real measurements).  The
oracle stack is the production one for a denoised setup:
``MeasurementDBOracle(VotingOracle(SimulatedSetOracle(policy)))``.

Acceptance, per ISSUE/ROADMAP:

* the warm pass reports ``db.miss == 0`` and ``oracle.measurements == 0``
  (nothing was measured for real);
* warm :class:`InferenceResult`s are bit-identical to cold ones — the
  DB oracle's logical cost accounting keeps ``measurements``/``accesses``
  untouched by persistence;
* the warm pass is at least 5x faster in total.

The compiled-automaton caches are pre-warmed *before* the cold timing,
so the measured speedup is the measurement DB's own, not a replay of
the compile-cache win (``bench_compile_cache`` owns that one).  Results
land in ``benchmarks/results/bench_measuredb.txt`` and the
``bench_measuredb.ledger.json`` run record.
"""

from __future__ import annotations

import time

from repro import kernels, measuredb
from repro.core.inference import PermutationInference
from repro.core.oracle import SimulatedSetOracle, VotingOracle
from repro.kernels import store
from repro.obs import metrics as obs_metrics
from repro.policies import make_policy
from repro.util.tables import format_table


POLICIES = ["lru", "fifo", "plru"]
WAYS = [4, 8, 16]
REPETITIONS = 5  # voting layer: the paper's denoising schedule


def _infer_cell(name: str, ways: int):
    oracle = measuredb.wrap_if_enabled(
        VotingOracle(
            SimulatedSetOracle(make_policy(name, ways)), repetitions=REPETITIONS
        )
    )
    assert isinstance(oracle, measuredb.MeasurementDBOracle)
    return PermutationInference(oracle, ways=ways).infer()


def _run_grid():
    """Infer every cell; returns (results, per-cell seconds, total)."""
    results, timings = [], []
    start = time.perf_counter()
    for name in POLICIES:
        for ways in WAYS:
            cell_start = time.perf_counter()
            results.append(_infer_cell(name, ways))
            timings.append(time.perf_counter() - cell_start)
    return results, timings, time.perf_counter() - start


def _db_counters() -> dict:
    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    return {
        key: value
        for key, value in sorted(counters.items())
        if key.startswith(("db.", "oracle.measurements"))
    }


def test_bench_measuredb_cold_vs_warm(save_result, tmp_path):
    """Acceptance: a populated measurement DB makes reruns >= 5x faster."""
    store.set_cache_dir(tmp_path / "repro-cache")
    try:
        # Pre-warm the automaton caches so the cold pass times the
        # measurements themselves, not PR5's compile/persist path.
        for name in POLICIES:
            for ways in WAYS:
                assert kernels.compiled_for(make_policy(name, ways)) is not None
        measuredb.reset()

        obs_metrics.DEFAULT.reset()
        cold_results, cold_cells, cold_seconds = _run_grid()
        cold_counters = _db_counters()

        # A "new process" over the same database: memos gone, rows kept.
        measuredb.reset()
        obs_metrics.DEFAULT.reset()
        warm_results, warm_cells, warm_seconds = _run_grid()
        warm_counters = _db_counters()

        assert all(result.succeeded for result in cold_results)
        # Bit-identical InferenceResults: same spec, same logical cost.
        assert warm_results == cold_results
        # Zero physical measurements on the warm pass.
        assert warm_counters.get("db.miss", 0) == 0
        assert warm_counters.get("oracle.measurements", 0) == 0
        assert cold_counters.get("db.miss", 0) > 0
        assert warm_counters.get("db.hit", 0) >= cold_counters["db.miss"]
    finally:
        store.set_cache_dir(None)
        measuredb.reset()

    speedup = cold_seconds / warm_seconds if warm_seconds else 0.0
    cells = [(name, ways) for name in POLICIES for ways in WAYS]
    rows = [
        [
            name,
            ways,
            result.measurements,
            f"{cold:.3f}",
            f"{warm:.3f}",
            f"{cold / warm:.1f}x" if warm else "-",
        ]
        for (name, ways), result, cold, warm in zip(
            cells, cold_results, cold_cells, warm_cells
        )
    ]
    rows.append(
        ["TOTAL", "-", sum(r.measurements for r in cold_results),
         f"{cold_seconds:.3f}", f"{warm_seconds:.3f}", f"{speedup:.1f}x"]
    )
    table = format_table(
        ["policy", "ways", "measurements", "cold s", "warm s", "speedup"],
        rows,
        title=f"BENCH measurement DB: cold measure vs warm preload "
        f"(voting x{REPETITIONS})",
    )

    data = {
        "cells": {
            f"{name}@{ways}": {
                "measurements": result.measurements,
                "accesses": result.accesses,
                "cold_seconds": cold,
                "warm_seconds": warm,
            }
            for (name, ways), result, cold, warm in zip(
                cells, cold_results, cold_cells, warm_cells
            )
        },
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": speedup,
        "cold_counters": cold_counters,
        "warm_counters": warm_counters,
        "schema_version": measuredb.SCHEMA_VERSION,
    }
    params = {"policies": POLICIES, "ways": WAYS, "repetitions": REPETITIONS}
    save_result("bench_measuredb", table, data=data, params=params)

    assert speedup >= 5.0, (
        f"warm measurement DB only {speedup:.1f}x faster than cold "
        f"measurement ({cold_seconds:.3f}s -> {warm_seconds:.3f}s)"
    )
