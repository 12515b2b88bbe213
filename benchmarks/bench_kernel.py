"""BENCH — compiled kernel versus interpreter on the serial E3 grid.

The acceptance benchmark for :mod:`repro.kernels`: the full E3
miss-ratio grid (every policy x every workload, serial) is timed twice,
once as an interpreted :class:`repro.cache.Cache` replay per cell and
once through :func:`repro.eval.miss_ratio_matrix` (compiled automata,
direct mode for the randomized / set-dueling policies).  The matrices
must be identical cell for cell and the kernel run at least 5x faster;
both numbers land in ``benchmarks/results/bench_kernel.txt`` and the
``data`` of the ``bench_kernel.ledger.json`` run record.  Every
automaton the grid needs is compiled into the store before either timed
leg, so the bar holds on a cold store too; the compile time is recorded
as ``compile_seconds``.

A second, much smaller grid provides the CI perf smoke check with a
deliberately loose bar (>= 1.5x) so runner noise cannot fail the build.
"""

from __future__ import annotations

import time

from repro.cache import Cache, CacheConfig
from repro.eval import miss_ratio_matrix
from repro.eval.missratio import MissRatioCell, MissRatioMatrix
from repro.kernels import clear_compile_cache, compiled_for_factory
from repro.kernels import store
from repro.util.rng import SeededRng
from repro.util.tables import format_table
from repro.workloads import workload_suite


# The E3 grid (kept in sync with bench_e3_missratio).
POLICIES = ["lru", "fifo", "plru", "bitplru", "nru", "srrip", "lip", "dip", "random"]
CONFIG = CacheConfig("L2", 64 * 1024, 8)  # 1024 lines

SMOKE_POLICIES = ["lru", "plru", "srrip"]


def _warm_store(policies) -> float:
    """Compile and persist every automaton the grid needs; wall seconds.

    Called before either timed leg, so a cold store's compiles land
    here and not in the kernel leg.
    """
    start = time.perf_counter()
    store.warm((name, (), CONFIG.ways) for name in policies)
    return time.perf_counter() - start


def _interpreted_grid(policies, traces):
    """The grid as one interpreted :class:`Cache` replay per cell."""
    cells = []
    for name in policies:
        for trace in traces:
            cache = Cache(CONFIG, name, rng=SeededRng(0))
            access = cache.access
            for address in trace.addresses:
                access(address)
            stats = cache.stats
            cells.append(
                MissRatioCell(name, trace.name, stats.miss_ratio, stats.misses, stats.accesses)
            )
    return MissRatioMatrix(config=CONFIG, cells=tuple(cells))


def _timed_grid(policies, traces, kernel: bool):
    """One serial grid run; returns (matrix, wall seconds).

    The in-process compile caches are dropped first, so the kernel's
    timing includes loading every automaton it needs from the store,
    which every later run pays as well.  The compiles themselves happen
    once in :func:`_warm_store`; ``bench_compile_cache`` owns the
    compile-versus-load ratio.
    """
    clear_compile_cache()
    start = time.perf_counter()
    if kernel:
        matrix = miss_ratio_matrix(traces, CONFIG, policies, seed=0, jobs=0)
    else:
        matrix = _interpreted_grid(policies, traces)
    return matrix, time.perf_counter() - start


def _policy_modes(policies, ways):
    """(policy, mode, states) rows read off the compile cache after a run."""
    rows = []
    for name in policies:
        compiled = compiled_for_factory(name, (), ways)
        if compiled is None:
            rows.append([name, "direct", "-"])
        else:
            rows.append([name, "compiled", compiled.num_states])
    return rows


def test_bench_kernel_e3_speedup(save_result):
    """Acceptance: the kernel runs the serial E3 grid >= 5x faster."""
    traces = workload_suite(cache_lines=CONFIG.num_sets * CONFIG.ways, seed=0)
    compile_seconds = _warm_store(POLICIES)

    interpreted, interpreted_seconds = _timed_grid(POLICIES, traces, kernel=False)
    compiled, kernel_seconds = _timed_grid(POLICIES, traces, kernel=True)
    speedup = interpreted_seconds / kernel_seconds if kernel_seconds else 0.0

    modes = _policy_modes(POLICIES, CONFIG.ways)
    table = format_table(
        ["mode", "cells", "seconds", "speedup"],
        [
            ["interpreter", len(interpreted.cells), f"{interpreted_seconds:.3f}", "1.00x"],
            ["kernel", len(compiled.cells), f"{kernel_seconds:.3f}", f"{speedup:.2f}x"],
        ],
        title=f"BENCH kernel: serial E3 grid @ {CONFIG.describe()}",
    ) + "\n\n" + format_table(
        ["policy", "kernel mode", "automaton states"],
        modes,
        title="Per-policy kernel coverage",
    )

    data = {
        "cells": len(interpreted.cells),
        "compile_seconds": compile_seconds,
        "interpreter_seconds": interpreted_seconds,
        "kernel_seconds": kernel_seconds,
        "speedup": speedup,
        "identical": interpreted == compiled,
        "policies": {row[0]: {"mode": row[1], "states": row[2]} for row in modes},
    }
    params = {"policies": POLICIES, "config": CONFIG.describe(), "seed": 0}
    save_result("bench_kernel", table, data=data, params=params)

    assert interpreted == compiled, "kernel grid diverged from the interpreter"
    assert speedup >= 5.0, (
        f"kernel speedup {speedup:.2f}x below the 5x acceptance bar "
        f"({interpreted_seconds:.3f}s -> {kernel_seconds:.3f}s)"
    )


def test_bench_kernel_smoke(save_result):
    """CI perf smoke: the kernel beats the interpreter on a small grid."""
    traces = workload_suite(cache_lines=CONFIG.num_sets * CONFIG.ways, seed=0)[:3]
    compile_seconds = _warm_store(SMOKE_POLICIES)

    interpreted, interpreted_seconds = _timed_grid(SMOKE_POLICIES, traces, kernel=False)
    compiled, kernel_seconds = _timed_grid(SMOKE_POLICIES, traces, kernel=True)
    speedup = interpreted_seconds / kernel_seconds if kernel_seconds else 0.0

    save_result(
        "bench_kernel_smoke",
        format_table(
            ["mode", "seconds", "speedup"],
            [
                ["interpreter", f"{interpreted_seconds:.3f}", "1.00x"],
                ["kernel", f"{kernel_seconds:.3f}", f"{speedup:.2f}x"],
            ],
            title="BENCH kernel smoke: small serial E3 grid",
        ),
        data={
            "compile_seconds": compile_seconds,
            "interpreter_seconds": interpreted_seconds,
            "kernel_seconds": kernel_seconds,
            "speedup": speedup,
            "identical": interpreted == compiled,
        },
        params={"policies": SMOKE_POLICIES, "workloads": len(traces)},
    )

    assert interpreted == compiled
    # Loose on purpose: this guards "kernel actually engaged", the 5x
    # acceptance bar lives in test_bench_kernel_e3_speedup.
    assert speedup >= 1.5, f"kernel only {speedup:.2f}x faster on the smoke grid"
