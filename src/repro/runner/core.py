"""Deterministic parallel execution of independent experiment cells.

The evaluation half of the reproduction is dominated by grids of
independent simulations — (policy x workload x configuration x seed)
cells for miss-ratio matrices, agreement matrices, noise sweeps and the
E1-E12 benchmark tables.  :class:`ExperimentRunner` fans such grids out
over the process-wide persistent :mod:`repro.runner.pool` with adaptive
chunked scheduling while guaranteeing that the result list is
*bit-identical* to running the cells serially in submission order:

* cells are pure functions of their task value — workers receive the
  task pickled over their pipe, never by shared mutable state;
* all seeded randomness flows through :class:`repro.util.rng.SeededRng`,
  whose stream derivation is process-stable (no ``hash()``
  randomization), so a worker derives exactly the streams the parent
  would;
* results are collected by cell index, not completion order, and worker
  metric shards merge in deterministic first-cell-index order.

Scheduling is adaptive: the first wave uses small probe chunks, then
chunk sizes follow an EWMA of observed per-cell seconds targeting
:data:`TARGET_CHUNK_SECONDS` per chunk, capped so the tail of a grid
still spreads over every worker (stragglers stay bounded).

Failures degrade, never abort: a chunk whose worker dies is retried on
the surviving workers (the dead one is restarted individually — the
pool survives), a chunk that cannot be pickled falls straight back, and
whatever still fails after :data:`RETRIES` retries is re-executed
serially in the parent process, where a genuine task error surfaces
with its original traceback.

Metrics cross the process boundary.  Each dispatched chunk runs
against a *worker-local* :class:`~repro.obs.metrics.Metrics` store; the
chunk result carries the store's snapshot back, and the parent merges
the snapshots in deterministic cell order.  A parallel run therefore
produces the same *logical* counters and timers as ``jobs=0``; the
exceptions are the runner's own scheduling metrics
(``runner.*`` — per-source cell splits, pool lifecycle, chunk
retries, adaptive chunk sizes) and cache-warmth splits
(``kernel.compile.hit`` vs ``.load`` vs ``.miss``), because a
persistent worker's in-memory caches outlive the fork point — the
*totals* still match, only the warm/cold split is process-local.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Iterable

from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans

#: Adaptive chunking aims for chunks of about this much work, so pipe
#: traffic stays negligible without letting one chunk become a straggler.
TARGET_CHUNK_SECONDS = 0.2

#: Cells per probe chunk while no timing has been observed yet.
PROBE_CHUNK_CELLS = 2

#: How many times a failed chunk is resubmitted to the surviving workers
#: before the serial fallback runs it in the parent.
RETRIES = 1

#: How long one collect() pass waits before re-checking worker health.
_COLLECT_INTERVAL = 0.1


def _run_chunk(fn, indexed_tasks, store_dir):
    """Worker entry point: run one chunk of (index, task) pairs.

    Returns ``(rows, metrics_snapshot)``.  The chunk runs against a fresh
    worker-local metrics store whose snapshot travels back in the return
    value for the parent to merge.

    Persistent workers outlive any parent-side context manager, so
    ``store_dir`` (the parent's cache directory, and with it the
    automaton store) is pinned for the duration of the chunk, and the
    pin is undone after: a worker spawned during one test or experiment
    must not leak its directory into the next.
    """
    restore_store = _pin_store_dir(store_dir)
    local = obs_metrics.Metrics()
    previous_metrics = obs_metrics.DEFAULT
    obs_metrics.DEFAULT = local
    try:
        rows = []
        for index, task in indexed_tasks:
            start = time.perf_counter()
            value = fn(task)
            rows.append((index, value, time.perf_counter() - start))
    finally:
        obs_metrics.DEFAULT = previous_metrics
        restore_store()
    return rows, local.snapshot()


def _pin_store_dir(store_dir: str) -> Callable[[], None]:
    """Pin this process's cache directory to the parent's; undo.

    A persistent worker may have been spawned under a different cache
    directory (tests isolate per-test), so each chunk carries the
    parent's current directory instead of trusting fork-time state.
    The automaton store lives in the cache directory, so pinning it
    makes every worker load the artifacts the parent compiled instead
    of compiling its own.
    """
    from repro.kernels import store

    previous = str(store.cache_dir())
    if previous != store_dir:
        # set_cache_dir drops the persisted-artifact memo, so only
        # re-point when the directory actually changed.
        store.set_cache_dir(store_dir)

    def restore() -> None:
        if str(store.cache_dir()) != previous:
            store.set_cache_dir(previous)

    return restore


class _AdaptiveChunker:
    """Chunk sizing from observed cell timings (probe -> EWMA -> cap).

    With no observations yet, chunks are :data:`PROBE_CHUNK_CELLS` small
    so the pipeline fills fast and timing data arrives early.  Once cell
    timings flow in, the size targets :data:`TARGET_CHUNK_SECONDS` of
    work per chunk, capped at ``ceil(remaining / (2 * jobs))`` so the
    tail of the grid still spreads across every worker — the straggler
    bound.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, jobs or 1)
        self._ewma: float | None = None

    def observe(self, seconds: float) -> None:
        if self._ewma is None:
            self._ewma = seconds
        else:
            self._ewma = 0.7 * self._ewma + 0.3 * seconds

    def next_size(self, remaining: int) -> int:
        if self._ewma is None:
            size = PROBE_CHUNK_CELLS
        else:
            size = int(TARGET_CHUNK_SECONDS / max(self._ewma, 1e-7))
        straggler_cap = max(1, -(-remaining // (2 * self.jobs)))
        size = max(1, min(size, straggler_cap, remaining))
        obs_metrics.DEFAULT.observe("runner.chunk.adaptive", size)
        return size


class ExperimentRunner:
    """Ordered, fault-tolerant map over independent experiment cells.

    Args:
        jobs: worker process count; ``None``, 0 or 1 run serially in the
            parent process (the default, so existing entry points keep
            their exact behaviour unless a caller opts in).
        start_method: multiprocessing start method for the pool
            (``"fork"``/``"spawn"``/``"forkserver"``; default: the
            platform's).
        reuse_pool: use the process-wide persistent pool (the default);
            ``False`` spawns a private pool per ``map()`` call, which is
            the old per-round behaviour the benchmarks use as baseline.
    """

    def __init__(
        self,
        jobs: int | None = None,
        start_method: str | None = None,
        reuse_pool: bool = True,
    ) -> None:
        self.jobs = jobs
        self.start_method = start_method
        self.reuse_pool = reuse_pool

    @property
    def parallel(self) -> bool:
        """True when cells will be dispatched to worker processes."""
        return self.jobs is not None and self.jobs > 1

    def map(self, fn: Callable, tasks: Iterable) -> list:
        """Apply ``fn`` to every task; return results in task order.

        ``fn`` must be picklable (a module-level function) for the
        parallel path; the serial path has no such constraint.  A task
        that raises re-raises in the parent after the retry/fallback
        ladder is exhausted, so error behaviour matches a plain loop.
        """
        tasks = list(tasks)
        with obs_spans.span("runner.map"):
            if not self.parallel or len(tasks) <= 1:
                return self._run_serially(fn, tasks, source="serial")

            indexed = list(enumerate(tasks))
            results: dict[int, object] = {}
            metric_shards: dict[int, dict] = {}
            store_dir = self._store_dir()
            try:
                unfinished = self._run_pooled(
                    fn, indexed, results, store_dir, metric_shards
                )
            except Exception:
                # The pool plane itself failed (cannot spawn processes,
                # broken pipes wholesale): run everything still missing
                # in-process.
                unfinished = [
                    [pair for pair in indexed if pair[0] not in results]
                ]
            pending = [pair for chunk in unfinished for pair in chunk]
            if pending:
                # Last resort: run the survivors in-process.  Deterministic
                # task errors propagate here with their original traceback.
                pending.sort(key=lambda pair: pair[0])
                values = self._run_serially(
                    fn, [task for _index, task in pending], source="fallback"
                )
                for (index, _task), value in zip(pending, values):
                    results[index] = value
            self._merge_metric_shards(metric_shards)
            return [results[index] for index in range(len(tasks))]

    # -- internals ---------------------------------------------------------
    @staticmethod
    def _store_dir() -> str:
        """The parent's cache directory.

        Pickled with every chunk, because persistent workers outlive any
        parent-side context (see :func:`_pin_store_dir`).
        """
        from repro.kernels import store

        return str(store.cache_dir())

    def _merge_metric_shards(self, metric_shards: dict[int, dict]) -> None:
        """Merge worker metric snapshots in deterministic cell order.

        Merging a worker's store into the parent's is what keeps
        ``--jobs N`` counters identical to a serial run.
        """
        for first in sorted(metric_shards):
            obs_metrics.DEFAULT.merge(metric_shards[first])

    def _run_pooled(self, fn, indexed, results, store_dir, metric_shards) -> list[list]:
        """Dispatch every (index, task) pair through the worker pool.

        Returns the chunks that exhausted their retries (or could not be
        pickled) for the caller's serial fallback.  The scheduling loop
        keeps every idle worker fed: retried chunks first, then fresh
        chunks carved off the queue at the adaptive size.  A worker that
        dies mid-chunk is restarted individually and its chunk re-queued
        on the survivors — the pool, and every other in-flight chunk,
        keeps running.
        """
        from repro.runner import pool as runner_pool

        if self.reuse_pool:
            pool = runner_pool.get_pool(self.jobs, self.start_method)
        else:
            pool = runner_pool.fresh_pool(self.jobs, self.start_method)
        chunker = _AdaptiveChunker(self.jobs)
        queue: deque = deque(indexed)
        retry: deque = deque()
        fallback: list[list] = []
        attempts: dict[int, int] = {}

        def give_up(chunk: list) -> None:
            obs_metrics.DEFAULT.incr("runner.chunk_retries")
            first = chunk[0][0]
            attempts[first] = attempts.get(first, 0) + 1
            if attempts[first] <= RETRIES:
                retry.append(chunk)
            else:
                fallback.append(chunk)

        try:
            while queue or retry or pool.busy_count():
                for worker in pool.idle_workers():
                    if retry:
                        chunk = retry.popleft()
                    elif queue:
                        size = chunker.next_size(len(queue))
                        chunk = [queue.popleft() for _ in range(size)]
                    else:
                        break
                    try:
                        pool.submit(worker, _run_chunk, (fn, chunk, store_dir), chunk)
                    except (OSError, EOFError):
                        # The worker died under us; restart it and let
                        # the chunk take a retry slot.
                        pool._replace(worker)
                        give_up(chunk)
                    except Exception:
                        # fn or a task does not pickle — deterministic,
                        # straight to the serial fallback (still noted
                        # as a chunk retry, like any failed chunk).
                        obs_metrics.DEFAULT.incr("runner.chunk_retries")
                        fallback.append(chunk)
                if not pool.busy_count():
                    if queue or retry:
                        continue
                    break
                for kind, chunk, payload in pool.collect(_COLLECT_INTERVAL):
                    if kind == "done":
                        rows, worker_metrics = payload
                        metric_shards[chunk[0][0]] = worker_metrics
                        for index, value, seconds in rows:
                            results[index] = value
                            chunker.observe(seconds)
                            self.record(seconds, "parallel")
                    else:  # "failed" (task raised) or "lost" (worker died)
                        give_up(chunk)
        finally:
            if not self.reuse_pool:
                pool.shutdown()
        return fallback

    def _run_serially(self, fn, tasks, source: str) -> list:
        values = []
        for task in tasks:
            start = time.perf_counter()
            values.append(fn(task))
            self.record(time.perf_counter() - start, source)
        return values

    def record(self, seconds: float, source: str) -> None:
        """Count one finished cell under its execution ``source``.

        Every execution path (``"serial"``, ``"parallel"`` in a worker,
        ``"fallback"`` after worker failure) goes through here: it
        counts ``runner.cells.<source>`` and observes the cell's wall
        time as ``runner.cell_seconds``.
        """
        metrics = obs_metrics.DEFAULT
        metrics.incr(f"runner.cells.{source}")
        metrics.observe("runner.cell_seconds", seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = f"jobs={self.jobs}" if self.parallel else "serial"
        return f"<ExperimentRunner {mode}>"
