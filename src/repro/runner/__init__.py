"""Parallel experiment runner for the evaluation grids.

See :mod:`repro.runner.core` for the scheduling/fault model,
:mod:`repro.runner.cells` for the simulation cell + memoization layer,
:mod:`repro.runner.pool` for the process-wide persistent worker pool
and :mod:`repro.runner.shm` for the shared-memory transport plane.
"""

from repro.runner.cells import (
    CellResult,
    SimCell,
    clear_memo,
    derive_cell_seed,
    memo_size,
    run_sim_cells,
    simulate_cell,
    trace_fingerprint,
)
from repro.runner.core import (
    CellTiming,
    ExperimentRunner,
    ProgressHook,
)
from repro.runner.pool import WorkerPool, get_pool, pool_stats, shutdown_pool
from repro.runner.shm import SharedTrace, share_trace

__all__ = [
    "CellResult",
    "CellTiming",
    "ExperimentRunner",
    "ProgressHook",
    "SharedTrace",
    "SimCell",
    "WorkerPool",
    "clear_memo",
    "derive_cell_seed",
    "get_pool",
    "memo_size",
    "pool_stats",
    "run_sim_cells",
    "share_trace",
    "shutdown_pool",
    "simulate_cell",
    "trace_fingerprint",
]
