"""BENCH — vector engine versus the scalar compiled kernel.

The acceptance benchmark for :mod:`repro.kernels.vector`: the same
compiled automata simulate the same traces twice, once on the scalar
trace loop and once through :func:`~repro.kernels.try_simulate_trace`,
which steps all sets lock-step, interleaved in one process so CPU-clock
drift cancels.  The workload is E3-scale whole-cache simulation (2048
sets, 1M accesses) where all sets advance lock-step; the ≥ 3x
acceptance gate (measured ~5-10x) lives here.

Results are bit-compared cell for cell before any timing claim and land
in ``benchmarks/results/bench_vector.txt`` and the ``data`` of the
``bench_vector.ledger.json`` run record.

Everything here skips without numpy — the no-numpy CI leg proves the
scalar fallback instead (see tests/test_kernel_vector.py).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.cache import CacheConfig
from repro.kernels import (
    clear_compile_cache,
    compiled_for_factory,
    try_simulate_trace,
    vector,
)
from repro.kernels.engine import _simulate_trace_scalar
from repro.util.tables import format_table
from repro.workloads.trace import Trace


pytestmark = pytest.mark.skipif(
    not vector.available(), reason="numpy not installed (vector engine absent)"
)

#: E3-scale trace workload: a 1 MiB / 8-way config is 2048 lock-step lanes.
TRACE_CONFIG = CacheConfig("L2", 1024 * 1024, 8)
TRACE_ACCESSES = 1_000_000
TRACE_POLICIES = ["plru", "lru"]

#: Smoke-scale: 512 lanes, a few hundred thousand accesses.
SMOKE_CONFIG = CacheConfig("L2", 256 * 1024, 8)
SMOKE_ACCESSES = 300_000


def _random_trace(name, accesses, lines, seed):
    rng = random.Random(seed)
    return Trace(
        name, tuple(rng.randrange(lines) * 64 for _ in range(accesses))
    )


def _best(fn, repeats):
    result, elapsed = None, float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = min(elapsed, time.perf_counter() - start)
    return result, elapsed


def _ab(scalar_run, vector_run, repeats=3):
    """Interleaved scalar/vector best-of-N; asserts identical results."""
    vector_run()  # warm: automaton expansion, vector tables, trace layout
    scalar_result, scalar_seconds = _best(scalar_run, repeats)
    vector_result, vector_seconds = _best(vector_run, repeats)
    assert scalar_result == vector_result, "vector result diverged from scalar"
    speedup = scalar_seconds / vector_seconds if vector_seconds else 0.0
    return scalar_seconds, vector_seconds, speedup


def _trace_rows(config, accesses, policies, seed):
    trace = _random_trace(
        f"bench-vector-{config.num_sets}", accesses, config.num_sets * 2048, seed
    )
    rows = {}
    for policy in policies:
        compiled = compiled_for_factory(policy, (), config.ways)
        scalar_seconds, vector_seconds, speedup = _ab(
            lambda: _simulate_trace_scalar(trace, config, compiled),
            lambda: try_simulate_trace(trace, config, policy),
        )
        rows[policy] = {
            "scalar_seconds": scalar_seconds,
            "vector_seconds": vector_seconds,
            "speedup": speedup,
        }
    return rows


def test_bench_vector_speedup(save_result):
    """Acceptance: lock-step traces >= 3x."""
    clear_compile_cache()

    trace_rows = _trace_rows(TRACE_CONFIG, TRACE_ACCESSES, TRACE_POLICIES, seed=1)

    rows = [
        [
            f"trace/{policy}",
            f"{row['scalar_seconds']:.3f}",
            f"{row['vector_seconds']:.3f}",
            f"{row['speedup']:.2f}x",
        ]
        for policy, row in trace_rows.items()
    ]
    table = format_table(
        ["workload", "scalar s", "vector s", "speedup"],
        rows,
        title=f"BENCH vector: {TRACE_CONFIG.describe()} x {TRACE_ACCESSES} accesses",
    )

    data = {"trace": trace_rows}
    params = {
        "trace_config": TRACE_CONFIG.describe(),
        "trace_accesses": TRACE_ACCESSES,
        "trace_policies": TRACE_POLICIES,
        "seed": 1,
    }
    save_result("bench_vector", table, data=data, params=params)

    for policy, row in trace_rows.items():
        assert row["speedup"] >= 3.0, (
            f"vector trace speedup for {policy} is {row['speedup']:.2f}x, "
            f"below the 3x acceptance bar"
        )


def test_bench_vector_smoke(save_result):
    """CI perf smoke: a small lock-step trace still clears 3x."""
    clear_compile_cache()

    rows = _trace_rows(SMOKE_CONFIG, SMOKE_ACCESSES, ["plru"], seed=3)
    row = rows["plru"]

    save_result(
        "bench_vector_smoke",
        format_table(
            ["workload", "scalar s", "vector s", "speedup"],
            [["trace/plru", f"{row['scalar_seconds']:.3f}",
              f"{row['vector_seconds']:.3f}", f"{row['speedup']:.2f}x"]],
            title=(
                f"BENCH vector smoke: {SMOKE_CONFIG.describe()} x "
                f"{SMOKE_ACCESSES} accesses"
            ),
        ),
        data=row,
        params={
            "config": SMOKE_CONFIG.describe(),
            "accesses": SMOKE_ACCESSES,
            "policy": "plru",
            "seed": 3,
        },
    )

    assert row["speedup"] >= 3.0, (
        f"vector smoke speedup {row['speedup']:.2f}x below the 3x bar"
    )
