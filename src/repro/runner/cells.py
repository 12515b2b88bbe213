"""Simulation experiment cells and the groups the runner schedules.

A :class:`SimCell` is one (trace x cache configuration x policy x seed)
simulation — the atom of the paper's evaluation grids.  Cells are
frozen, picklable and carry everything a worker process needs to rebuild
the cache from scratch, so a cell's result depends on nothing but the
cell itself, whether it runs serially or in a worker.  The runner's unit
of work is a group of cells: every cell of one trace at one cache
configuration (:func:`run_sim_cells`, :func:`simulate_group`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.cache import CacheConfig, CacheStats
from repro.kernels import compiled_for_factory, simulate_trace_automata, try_simulate_trace
from repro.obs import spans as obs_spans
from repro.policies import PolicyFactory
from repro.util.rng import derive_seed
from repro.workloads.trace import Trace

__all__ = [
    "SimCell",
    "CellResult",
    "derive_cell_seed",
    "run_sim_cells",
    "simulate_cell",
    "simulate_group",
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
    """Run one cell alone in the current process.

    Runs on the kernel's trace engines, bit-identical to an interpreted
    :class:`~repro.cache.Cache` replay.  The whole cell is timed as the
    ``cell`` span.  In a grid only the cells of policies without an
    automaton (``random``, ``dip``) come here, from
    :func:`simulate_group`.
    """
    with obs_spans.span("cell"):
        factory = PolicyFactory(cell.policy, **dict(cell.params))
        stats = try_simulate_trace(cell.trace, cell.config, factory, cell.seed)
    return CellResult(policy=cell.policy, trace=cell.trace.name, stats=stats)


def simulate_group(cells: Sequence[SimCell]) -> list[CellResult]:
    """Run a group of cells of one trace and configuration (worker entry point).

    The cells whose policy has an automaton step the trace's one
    lock-step layout together
    (:func:`~repro.kernels.simulate_trace_automata`); then every other
    cell runs through :func:`simulate_cell`, on the same layout, which
    the vector engine keeps for the trace.  Returns the results in the
    group's order, each bit-identical to the cell run alone.
    """
    trace, config = cells[0].trace, cells[0].config
    alone, members, runs = [], [], []
    for index, cell in enumerate(cells):
        factory = PolicyFactory(cell.policy, **dict(cell.params))
        compiled = None
        if factory.deterministic:
            compiled = compiled_for_factory(cell.policy, cell.params, config.ways)
        if compiled is None:
            alone.append(index)
        else:
            members.append(index)
            runs.append((factory, compiled, cell.seed))
    results: list = [None] * len(cells)
    for index, stats in zip(members, simulate_trace_automata(trace, config, runs)):
        results[index] = CellResult(cells[index].policy, trace.name, stats)
    for index in alone:
        results[index] = simulate_cell(cells[index])
    return results


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

    The runner's unit of work is a group: the cells of one trace at one
    cache configuration, as a tuple, run by :func:`simulate_group`.  The
    groups go through ``runner.map`` — serial by default, parallel when
    the runner or ``jobs`` says so — in trace-major order (traces in
    first-seen order, a trace's groups and each group's cells stable).
    So a pooled grid pickles each trace once, in its group's task, and
    the process that runs a group builds the trace's address array and
    lock-step layout once for all of its policies.  A grid of a single
    group is a single task, which ``runner.map`` runs in the parent; no
    experiment grid has that shape.
    """
    from repro.runner.core import ExperimentRunner

    if runner is None:
        runner = ExperimentRunner(jobs=jobs)
    cells = list(cells)
    rank: dict[int, int] = {}
    groups: dict[tuple, list[int]] = {}
    for index, cell in enumerate(cells):
        rank.setdefault(id(cell.trace), len(rank))
        groups.setdefault((id(cell.trace), cell.config), []).append(index)
    order = sorted(groups.values(), key=lambda members: rank[id(cells[members[0]].trace)])
    tasks = [tuple(cells[index] for index in members) for members in order]
    if runner.parallel and tasks:
        _prewarm_automata(cells)
    results: list = [None] * len(cells)
    for members, group_results in zip(order, runner.map(simulate_group, tasks)):
        for index, result in zip(members, group_results):
            results[index] = result
    return results
