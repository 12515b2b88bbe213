"""Miss-ratio evaluation of replacement policies.

The performance half of the paper's evaluation: run workload traces
through caches configured with each policy and compare miss ratios.
Provides single runs, (policy x workload) matrices and cache-size sweeps
— the data behind experiments E3 and E4.

Grid entry points (:func:`miss_ratio_matrix`, :func:`cache_size_sweep`)
accept ``jobs=``/``runner=`` and fan their cells out through
:mod:`repro.runner`; the default stays serial, and the parallel path is
guaranteed to produce bit-identical results (see the runner's module
docstring for why).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from repro.cache import CacheConfig, CacheStats
from repro.kernels import try_simulate_trace
from repro.policies import PolicyFactory
from repro.runner import ExperimentRunner, SimCell, run_sim_cells
from repro.workloads.trace import Trace


def simulate_trace(
    trace: Trace,
    config: CacheConfig,
    policy: str | PolicyFactory,
    seed: int = 0,
) -> CacheStats:
    """Run a trace through a fresh cache; return its statistics.

    Runs on the kernel's trace engines (:mod:`repro.kernels`), whose
    statistics are bit-identical to an interpreted
    :class:`~repro.cache.Cache` replay.
    """
    return try_simulate_trace(trace, config, policy, seed)


def miss_ratio(
    trace: Trace,
    config: CacheConfig,
    policy: str | PolicyFactory,
    seed: int = 0,
) -> float:
    """Miss ratio of one policy on one trace."""
    return simulate_trace(trace, config, policy, seed).miss_ratio


@dataclass(frozen=True)
class MissRatioCell:
    """One (policy, trace) measurement."""

    policy: str
    trace: str
    miss_ratio: float
    misses: int
    accesses: int


@dataclass(frozen=True)
class MissRatioMatrix:
    """Miss ratios of several policies across several traces."""

    config: CacheConfig
    cells: tuple[MissRatioCell, ...]

    @cached_property
    def _index(self) -> dict[tuple[str, str], MissRatioCell]:
        """(policy, trace) -> cell, built once; rendering is O(cells)."""
        return {(cell.policy, cell.trace): cell for cell in self.cells}

    def cell(self, policy: str, trace: str) -> MissRatioCell:
        """Look up one cell."""
        try:
            return self._index[(policy, trace)]
        except KeyError:
            raise KeyError(f"no cell for policy={policy!r} trace={trace!r}") from None

    def ratio(self, policy: str, trace: str) -> float:
        """Look up one cell's miss ratio."""
        return self.cell(policy, trace).miss_ratio

    def policies(self) -> list[str]:
        """Policy names, in first-seen order."""
        seen: list[str] = []
        for cell in self.cells:
            if cell.policy not in seen:
                seen.append(cell.policy)
        return seen

    def traces(self) -> list[str]:
        """Trace names, in first-seen order."""
        seen: list[str] = []
        for cell in self.cells:
            if cell.trace not in seen:
                seen.append(cell.trace)
        return seen

    def rows(self) -> list[list[object]]:
        """Render as table rows: one row per trace, one column per policy."""
        result = []
        for trace in self.traces():
            row: list[object] = [trace]
            for policy in self.policies():
                row.append(self.ratio(policy, trace))
            result.append(row)
        return result


def miss_ratio_matrix(
    traces: Sequence[Trace],
    config: CacheConfig,
    policies: Sequence[str | PolicyFactory],
    seed: int = 0,
    jobs: int | None = None,
    runner: ExperimentRunner | None = None,
) -> MissRatioMatrix:
    """Evaluate every policy on every trace at one cache configuration.

    ``jobs`` > 1 (or a parallel ``runner``) distributes the grid over
    worker processes; results are bit-identical to the serial default.
    """
    cells = [
        SimCell.make(trace, config, policy, seed)
        for policy in policies
        for trace in traces
    ]
    results = run_sim_cells(cells, runner=runner, jobs=jobs)
    return MissRatioMatrix(
        config=config,
        cells=tuple(
            MissRatioCell(
                policy=result.policy,
                trace=result.trace,
                miss_ratio=result.stats.miss_ratio,
                misses=result.stats.misses,
                accesses=result.stats.accesses,
            )
            for result in results
        ),
    )


@dataclass(frozen=True)
class SweepPoint:
    """One (policy, cache size) measurement of a size sweep."""

    policy: str
    cache_size: int
    miss_ratio: float


def cache_size_sweep(
    trace: Trace,
    sizes: Sequence[int],
    policies: Sequence[str | PolicyFactory],
    ways: int = 8,
    line_size: int = 64,
    seed: int = 0,
    jobs: int | None = None,
    runner: ExperimentRunner | None = None,
) -> list[SweepPoint]:
    """Miss ratio of each policy at several cache sizes (experiment E4)."""
    cells = [
        SimCell.make(trace, CacheConfig("sweep", size, ways, line_size), policy, seed)
        for size in sizes
        for policy in policies
    ]
    results = run_sim_cells(cells, runner=runner, jobs=jobs)
    return [
        SweepPoint(
            policy=result.policy,
            cache_size=cell.config.size,
            miss_ratio=result.stats.miss_ratio,
        )
        for cell, result in zip(cells, results)
    ]
