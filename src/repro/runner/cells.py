"""Simulation experiment cells: the unit of work the runner schedules.

A :class:`SimCell` is one (trace x cache configuration x policy x seed)
simulation — the atom of the paper's evaluation grids.  Cells are
frozen, picklable and carry everything a worker process needs to rebuild
the cache from scratch, so a cell's result depends on nothing but the
cell itself.  That purity is what makes the memoization cache sound: two
cells with the same key *must* produce the same statistics, whether they
run serially, in a worker, or not at all.

The memo key is (trace fingerprint, config, policy name + params, seed).
The trace fingerprint is a content hash of the address sequence, not the
trace name, so two differently-named but identical traces share an
entry and a renamed-but-changed trace does not poison the cache.
"""

from __future__ import annotations

import hashlib
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace

from repro.cache import Cache, CacheConfig, CacheStats
from repro.kernels import try_simulate_trace
from repro.obs import spans as obs_spans
from repro.policies import PolicyFactory
from repro.util.rng import SeededRng, derive_seed
from repro.workloads.trace import Trace

__all__ = [
    "SimCell",
    "CellResult",
    "trace_fingerprint",
    "derive_cell_seed",
    "run_sim_cells",
    "clear_memo",
    "memo_size",
]


def trace_fingerprint(trace: Trace) -> str:
    """Content hash of a trace's address sequence (hex digest).

    Cached on the trace's metadata dict (which is excluded from trace
    equality), so repeated grid builds hash each trace once.
    """
    cached = trace.metadata.get("_fingerprint")
    if cached is not None:
        return cached
    hasher = hashlib.blake2s(digest_size=16)
    try:
        hasher.update(array("Q", trace.addresses).tobytes())
    except OverflowError:  # addresses beyond 64 bits: rare, still sound
        hasher.update(repr(trace.addresses).encode())
    digest = hasher.hexdigest()
    trace.metadata["_fingerprint"] = digest
    return digest


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

    @property
    def label(self) -> str:
        """Short human-readable cell identity for progress reporting."""
        return f"{self.policy}/{self.trace.name}@{self.config.name}:{self.seed}"

    def memo_key(self) -> tuple:
        """Hashable identity of the cell's *result* (content-addressed)."""
        return (
            trace_fingerprint(self.trace),
            self.config,
            self.policy,
            self.params,
            self.seed,
        )


@dataclass(frozen=True)
class CellResult:
    """Outcome of one simulated cell."""

    policy: str
    trace: str
    stats: CacheStats


def simulate_cell(cell: SimCell) -> CellResult:
    """Run one cell in the current process (worker entry point).

    Fast-pathed through the compiled kernel when it is enabled; the
    interpreted loop below is the bit-identical reference.  The whole
    cell is timed as the ``cell`` span.
    """
    with obs_spans.span("cell"):
        factory = PolicyFactory(cell.policy, **dict(cell.params))
        stats = try_simulate_trace(cell.trace, cell.config, factory, cell.seed)
        if stats is None:
            cache = Cache(cell.config, factory, rng=SeededRng(cell.seed))
            access = cache.access
            for address in cell.trace.addresses:
                access(address)
            stats = cache.stats.snapshot()
    return CellResult(policy=cell.policy, trace=cell.trace.name, stats=stats)


def _prewarm_automata(cells: Sequence[SimCell]) -> None:
    """Resolve and persist the automata a parallel batch needs, once.

    Runs in the parent before the pool round: each unique
    ``(policy, params, ways)`` is compiled (or disk-loaded) here and
    persisted to the artifact store, so forked workers inherit the warm
    in-memory cache and spawned/later workers hit the warm disk cache —
    every unique automaton of a ``--jobs N`` grid is compiled at
    most once machine-wide (``kernel.compile.miss`` stays 0 in warm
    runs).  Skipped when the kernel is disabled; a store that cannot
    write degrades to fork-inherited memory warmth only.
    """
    from repro import kernels
    from repro.kernels import store

    if not kernels.kernel_enabled():
        return
    entries = {(cell.policy, cell.params, cell.config.ways) for cell in cells}
    ordered = sorted(entries, key=lambda entry: (entry[0], repr(entry[1]), entry[2]))
    with obs_spans.span("prewarm"):
        store.warm(ordered)


def _share_cell_traces(cells: Sequence[SimCell]) -> list[SimCell]:
    """Swap large traces for shared-memory twins before a parallel map.

    Each distinct trace's address payload is broadcast once per pool
    (:func:`repro.runner.shm.share_trace`); the cells then pickle as
    tiny handles instead of megabyte address tuples.  Cells whose trace
    is small — or when shm is unavailable — pass through unchanged, and
    results are unaffected either way: a :class:`SharedTrace` has the
    same name, addresses and fingerprint as the original.
    """
    from repro.runner import shm as runner_shm

    if not runner_shm.shm_available():
        return list(cells)
    shared_of: dict[int, Trace | None] = {}
    out = []
    for cell in cells:
        key = id(cell.trace)
        if key not in shared_of:
            shared_of[key] = runner_shm.share_trace(cell.trace)
        shared = shared_of[key]
        out.append(replace(cell, trace=shared) if shared is not None else cell)
    return out


#: Process-wide memoization cache: memo_key -> CellResult.
_MEMO: dict[tuple, CellResult] = {}


def clear_memo() -> None:
    """Drop every memoized cell result."""
    _MEMO.clear()


def memo_size() -> int:
    """Number of memoized cell results."""
    return len(_MEMO)


def run_sim_cells(
    cells: Sequence[SimCell],
    runner=None,
    jobs: int | None = None,
    memoize: bool = True,
) -> list[CellResult]:
    """Execute a grid of cells; return results in cell order.

    Already-memoized cells are served from the cache (and reported to
    the runner's progress hook with source ``"memo"``); the rest go
    through ``runner.map`` — serial by default, parallel when the runner
    or ``jobs`` says so.  When memoizing, duplicate cells within one
    call run once.  The cells that run are grouped by trace, so the
    vector engine's one-slot layout memo serves every policy of a trace
    and a pool gets one trace's cells together.
    """
    from repro.runner.core import ExperimentRunner

    if runner is None:
        runner = ExperimentRunner(jobs=jobs)
    cells = list(cells)
    results: dict[int, CellResult] = {}
    waiters: dict[object, list[int]] = {}
    for index, cell in enumerate(cells):
        key = cell.memo_key() if memoize else index
        if memoize and key in _MEMO:
            results[index] = _MEMO[key]
            runner.record(index, cell.label, 0.0, "memo")
        else:
            waiters.setdefault(key, []).append(index)
    # Traces in first-seen order; the sort is stable within a trace.
    rank: dict[int, int] = {}
    for indices in waiters.values():
        rank.setdefault(id(cells[indices[0]].trace), len(rank))
    keys = sorted(waiters, key=lambda key: rank[id(cells[waiters[key][0]].trace)])
    fresh = [cells[waiters[key][0]] for key in keys]
    fresh_labels = [cell.label for cell in fresh]
    if runner.parallel and fresh:
        _prewarm_automata(fresh)
        fresh = _share_cell_traces(fresh)
    computed = runner.map(simulate_cell, fresh, labels=fresh_labels)
    for key, result in zip(keys, computed):
        if memoize:
            _MEMO[key] = result
        for index in waiters[key]:
            results[index] = result
    return [results[index] for index in range(len(cells))]
