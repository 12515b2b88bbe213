"""Process-wide persistent worker pool for the experiment runner.

Every :meth:`ExperimentRunner.map` round used to build (and tear down) a
fresh ``ProcessPoolExecutor`` — a bench running a dozen experiments paid
pool spawn and artifact re-warm a dozen times.  This module keeps one
:class:`WorkerPool` alive for the whole process: created lazily by
:func:`get_pool`, reused across ``map()`` calls, experiments and CLI
subcommands, health-checked on reuse, and shut down at interpreter exit
(or explicitly via :func:`shutdown_pool`).

Design points:

* **Per-worker pipes, one task in flight each.**  Every worker owns a
  task pipe and a result pipe; the scheduler only submits to idle
  workers, so a ``send`` can never deadlock against an unread result.
  ``multiprocessing.connection.wait`` multiplexes the result pipes.
  Every task and every result travels pickled over its worker's pipe.
* **Per-worker restart, not per-pool.**  A dead worker is detected by
  EOF on its result pipe (or a failed health check between rounds) and
  replaced individually; healthy workers keep their warm caches.  The
  chunk the dead worker held is reported ``lost`` for the scheduler to
  retry elsewhere.
* **Lifecycle metrics.**  ``runner.pool.spawned`` / ``.reused`` /
  ``.restarted`` flow into the ledger's KEY_COUNTERS, so a warm bench
  run can assert it spawned at most one pool.
"""

from __future__ import annotations

import atexit
import itertools
import pickle
from multiprocessing import connection, get_context
from multiprocessing import get_start_method as _default_start_method

from repro.obs import metrics as obs_metrics

__all__ = [
    "WorkerPool",
    "get_pool",
    "pool_stats",
    "shutdown_pool",
]

def _worker_main(task_recv, result_send) -> None:
    """Worker loop: recv (job_id, target, args), run, send the outcome.

    A task that will not unpickle, or a target that raises, is reported
    as a failure rather than killing the worker — only real process
    death (signal, exit) or a closed pipe ends the loop.  An unpickling
    failure carries job id None, since the id is inside the message; the
    parent pairs it with the worker's one task in flight.  ``None`` is
    the shutdown sentinel.
    """
    while True:
        try:
            message = task_recv.recv_bytes()
        except (EOFError, OSError):
            return
        try:
            item = pickle.loads(message)
        except Exception as exc:  # noqa: BLE001 - report, don't die
            error = f"task could not be unpickled: {type(exc).__name__}: {exc}"
            outcome = (None, False, None, error)
        else:
            if item is None:
                return
            job_id, target, args = item
            try:
                value = target(*args)
                outcome = (job_id, True, value, None)
            except BaseException as exc:  # noqa: BLE001 - report, don't die
                outcome = (job_id, False, None, f"{type(exc).__name__}: {exc}")
        try:
            result_send.send(outcome)
        except Exception:
            # The value itself would not pickle; report that instead.
            try:
                result_send.send((outcome[0], False, None, "result not picklable"))
            except Exception:
                return


class _Worker:
    """Parent-side handle of one worker process."""

    __slots__ = ("process", "task_send", "result_recv", "job")

    def __init__(self, process, task_send, result_recv) -> None:
        self.process = process
        self.task_send = task_send
        self.result_recv = result_recv
        #: (job_id, meta) of the in-flight task, or None when idle.
        self.job: tuple | None = None


class WorkerPool:
    """A fixed-size pool of persistent worker processes."""

    def __init__(self, jobs: int, start_method: str | None = None) -> None:
        self.jobs = max(1, int(jobs))
        self.start_method = start_method or _default_start_method()
        self.closed = False
        self._ctx = get_context(self.start_method)
        self._job_ids = itertools.count()
        self._workers: list[_Worker] = [self._spawn() for _ in range(self.jobs)]

    # -- lifecycle ---------------------------------------------------------
    def _spawn(self) -> _Worker:
        task_recv, task_send = self._ctx.Pipe(duplex=False)
        result_recv, result_send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(task_recv, result_send),
            daemon=True,
            name="repro-runner-worker",
        )
        process.start()
        # Drop the parent's copies of the child ends so a dead worker
        # reads as EOF on its result pipe instead of hanging forever.
        task_recv.close()
        result_send.close()
        return _Worker(process, task_send, result_recv)

    def _replace(self, worker: _Worker) -> None:
        """Restart one dead worker in place; the rest keep running."""
        for handle in (worker.task_send, worker.result_recv):
            try:
                handle.close()
            except Exception:
                pass
        if worker.process.is_alive():  # pragma: no cover - defensive
            worker.process.terminate()
        worker.process.join(timeout=1.0)
        self._workers[self._workers.index(worker)] = self._spawn()
        obs_metrics.DEFAULT.incr("runner.pool.restarted")

    def heal(self) -> None:
        """Replace workers that died idle (between rounds / externally).

        Busy workers are left to :meth:`collect`, which sees their EOF
        and reports the lost chunk alongside the restart.
        """
        for worker in list(self._workers):
            if worker.job is None and not worker.process.is_alive():
                self._replace(worker)

    def shutdown(self) -> None:
        """Stop every worker and close its pipes."""
        if self.closed:
            return
        self.closed = True
        for worker in self._workers:
            try:
                worker.task_send.send(None)
            except Exception:
                pass
        for worker in self._workers:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            for handle in (worker.task_send, worker.result_recv):
                try:
                    handle.close()
                except Exception:
                    pass
        self._workers.clear()

    # -- scheduling --------------------------------------------------------
    def idle_workers(self) -> list[_Worker]:
        """Workers with no task in flight (after healing dead ones)."""
        self.heal()
        return [worker for worker in self._workers if worker.job is None]

    def busy_count(self) -> int:
        return sum(1 for worker in self._workers if worker.job is not None)

    def submit(self, worker: _Worker, target, args, meta) -> None:
        """Send one task to an idle worker; ``meta`` rides on the slot.

        Raises whatever ``Pipe.send`` raises — a pickling error leaves
        the worker reusable (nothing was written), a broken pipe means
        the worker died and the caller should :meth:`_replace` it.
        """
        if worker.job is not None:  # pragma: no cover - scheduler bug guard
            raise RuntimeError("worker already has a task in flight")
        job_id = next(self._job_ids)
        worker.job = (job_id, meta)
        try:
            worker.task_send.send((job_id, target, args))
        except Exception:
            worker.job = None
            raise

    def collect(self, timeout: float):
        """Wait up to ``timeout`` for outcomes from busy workers.

        Yields a list of ``(kind, meta, payload)`` triples with kind
        ``"done"`` (payload = the target's return value), ``"failed"``
        (payload = error string) or ``"lost"`` (worker died mid-task;
        payload is None and the worker has already been restarted).
        """
        pending = {
            worker.result_recv: worker
            for worker in self._workers
            if worker.job is not None
        }
        if not pending:
            return []
        ready = connection.wait(list(pending), timeout)
        outcomes = []
        for conn in ready:
            worker = pending[conn]
            job_id, meta = worker.job
            try:
                outcome = conn.recv()
            except (EOFError, OSError):
                self._replace(worker)
                outcomes.append(("lost", meta, None))
                continue
            worker.job = None
            got_id, ok, value, error = outcome
            if got_id not in (job_id, None):  # pragma: no cover - protocol guard
                outcomes.append(("failed", meta, "out-of-order result"))
            elif ok:
                outcomes.append(("done", meta, value))
            else:
                outcomes.append(("failed", meta, error))
        return outcomes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else f"busy={self.busy_count()}"
        return (
            f"<WorkerPool jobs={self.jobs} "
            f"start_method={self.start_method} {state}>"
        )


# -- process-wide singleton --------------------------------------------------
_POOL: WorkerPool | None = None
_ATEXIT_REGISTERED = False


def get_pool(jobs: int, start_method: str | None = None) -> WorkerPool:
    """The process-wide pool, created lazily and reused when compatible.

    A live pool with the same worker count and start method is healed
    and handed back (``runner.pool.reused``); a mismatch shuts the old
    pool down and spawns a replacement (``runner.pool.spawned``).
    """
    global _POOL, _ATEXIT_REGISTERED
    method = start_method or _default_start_method()
    pool = _POOL
    if pool is not None and not pool.closed:
        if pool.jobs == max(1, int(jobs)) and pool.start_method == method:
            pool.heal()
            obs_metrics.DEFAULT.incr("runner.pool.reused")
            return pool
        pool.shutdown()
        _POOL = None
    pool = WorkerPool(jobs, method)
    obs_metrics.DEFAULT.incr("runner.pool.spawned")
    _POOL = pool
    if not _ATEXIT_REGISTERED:
        atexit.register(shutdown_pool)
        _ATEXIT_REGISTERED = True
    return pool


def fresh_pool(jobs: int, start_method: str | None = None) -> WorkerPool:
    """A private, non-shared pool (baseline benchmarks); caller shuts down."""
    pool = WorkerPool(jobs, start_method)
    obs_metrics.DEFAULT.incr("runner.pool.spawned")
    return pool


def shutdown_pool() -> None:
    """Shut down the process-wide pool (idempotent; also runs atexit)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


def pool_stats() -> dict | None:
    """Introspection: the live pool's shape, or None when none exists."""
    if _POOL is None or _POOL.closed:
        return None
    return {
        "jobs": _POOL.jobs,
        "start_method": _POOL.start_method,
        "busy": _POOL.busy_count(),
        "workers_alive": sum(1 for w in _POOL._workers if w.process.is_alive()),
    }
