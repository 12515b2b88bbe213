"""Parallel experiment runner for the evaluation grids.

See :mod:`repro.runner.core` for the scheduling/fault model,
:mod:`repro.runner.cells` for the simulation cell,
:mod:`repro.runner.pool` for the process-wide persistent worker pool
and :mod:`repro.runner.shm` for the shared-memory trace broadcasts.
"""

from repro.runner.cells import (
    CellResult,
    SimCell,
    clear_memo,
    derive_cell_seed,
    run_sim_cells,
    simulate_cell,
)
from repro.runner.core import ExperimentRunner
from repro.runner.pool import WorkerPool, get_pool, pool_stats, shutdown_pool
from repro.runner.shm import SharedTrace, share_trace

__all__ = [
    "CellResult",
    "ExperimentRunner",
    "SharedTrace",
    "SimCell",
    "WorkerPool",
    "clear_memo",
    "derive_cell_seed",
    "get_pool",
    "pool_stats",
    "run_sim_cells",
    "share_trace",
    "shutdown_pool",
    "simulate_cell",
]
