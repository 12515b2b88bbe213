"""Simulation experiment cells: the unit of work the runner schedules.

A :class:`SimCell` is one (trace x cache configuration x policy x seed)
simulation — the atom of the paper's evaluation grids.  Cells are
frozen, picklable and carry everything a worker process needs to rebuild
the cache from scratch, so a cell's result depends on nothing but the
cell itself, whether it runs serially or in a worker.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.cache import CacheConfig, CacheStats
from repro.kernels import try_simulate_trace
from repro.obs import spans as obs_spans
from repro.policies import PolicyFactory
from repro.util.rng import derive_seed
from repro.workloads.trace import Trace

__all__ = [
    "SimCell",
    "CellResult",
    "derive_cell_seed",
    "run_sim_cells",
    "clear_memo",
]


def derive_cell_seed(base_seed: int, *labels: object) -> int:
    """Stable per-cell seed from a base seed and cell coordinates.

    Sweeps that repeat a measurement across seeds (noise experiments,
    voting) should derive each repetition's seed through this instead of
    ``base_seed + i`` so that enlarging one axis of a grid never shifts
    the streams of another.  Stable across processes and runs.
    """
    return derive_seed(base_seed, *labels)


@dataclass(frozen=True)
class SimCell:
    """One simulation of ``trace`` under ``policy`` at ``config``."""

    trace: Trace
    config: CacheConfig
    policy: str
    params: tuple[tuple[str, object], ...] = ()
    seed: int = 0

    @classmethod
    def make(
        cls,
        trace: Trace,
        config: CacheConfig,
        policy: str | PolicyFactory,
        seed: int = 0,
    ) -> "SimCell":
        """Build a cell from a policy given by name or factory."""
        if isinstance(policy, PolicyFactory):
            name = policy.name
            params = tuple(sorted(policy.params.items()))
        else:
            name, params = policy, ()
        return cls(trace=trace, config=config, policy=name, params=params, seed=seed)


@dataclass(frozen=True)
class CellResult:
    """Outcome of one simulated cell."""

    policy: str
    trace: str
    stats: CacheStats


def simulate_cell(cell: SimCell) -> CellResult:
    """Run one cell in the current process (worker entry point).

    Runs on the kernel's trace engines, bit-identical to an interpreted
    :class:`~repro.cache.Cache` replay.  The whole cell is timed as the
    ``cell`` span.
    """
    with obs_spans.span("cell"):
        factory = PolicyFactory(cell.policy, **dict(cell.params))
        stats = try_simulate_trace(cell.trace, cell.config, factory, cell.seed)
    return CellResult(policy=cell.policy, trace=cell.trace.name, stats=stats)


def _prewarm_automata(cells: Sequence[SimCell]) -> None:
    """Resolve and persist the automata a parallel batch needs, once.

    Runs in the parent before the pool round: each unique
    ``(policy, params, ways)`` is compiled (or disk-loaded) here and
    persisted to the artifact store, so forked workers inherit the warm
    in-memory cache and spawned/later workers hit the warm disk cache —
    every unique automaton of a ``--jobs N`` grid is compiled at
    most once machine-wide (``kernel.compile.miss`` stays 0 in warm
    runs).  A store that cannot write degrades to fork-inherited memory
    warmth only.
    """
    from repro.kernels import store

    entries = {(cell.policy, cell.params, cell.config.ways) for cell in cells}
    ordered = sorted(entries, key=lambda entry: (entry[0], repr(entry[1]), entry[2]))
    with obs_spans.span("prewarm"):
        store.warm(ordered)


def clear_memo() -> None:
    """Do nothing: there is no cell-result memo.

    Kept only because the repository benchmark (``perfbench/bench.py``)
    calls it between passes; it goes when that call does.
    """


def run_sim_cells(
    cells: Sequence[SimCell],
    runner=None,
    jobs: int | None = None,
) -> list[CellResult]:
    """Execute a grid of cells; return results in cell order.

    Every cell goes through ``runner.map`` — serial by default, parallel
    when the runner or ``jobs`` says so.  The cells run grouped by trace
    (traces in first-seen order, cells stable within a trace), so the
    vector engine's one-slot layout memo serves every policy of a trace
    and a pool gets one trace's cells together: pickle's memo then ships
    the trace once per chunk, however many of the chunk's cells share it.
    """
    from repro.runner.core import ExperimentRunner

    if runner is None:
        runner = ExperimentRunner(jobs=jobs)
    cells = list(cells)
    rank: dict[int, int] = {}
    for cell in cells:
        rank.setdefault(id(cell.trace), len(rank))
    order = sorted(range(len(cells)), key=lambda index: rank[id(cells[index].trace)])
    tasks = [cells[index] for index in order]
    if runner.parallel and tasks:
        _prewarm_automata(tasks)
    results: list = [None] * len(cells)
    for index, result in zip(order, runner.map(simulate_cell, tasks)):
        results[index] = result
    return results
