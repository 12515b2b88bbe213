"""Parallel experiment runner for the evaluation grids.

See :mod:`repro.runner.core` for the scheduling/fault model,
:mod:`repro.runner.cells` for the simulation cell and
:mod:`repro.runner.pool` for the process-wide persistent worker pool.
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

__all__ = [
    "CellResult",
    "ExperimentRunner",
    "SimCell",
    "WorkerPool",
    "clear_memo",
    "derive_cell_seed",
    "get_pool",
    "pool_stats",
    "run_sim_cells",
    "shutdown_pool",
    "simulate_cell",
]
