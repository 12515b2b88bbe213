"""Oracle service: the shared broker between clients and the DB.

An :class:`OracleService` sits between any number of measurement
clients (inference runs, identification, benches, runner workers) and
one *scope* of the measurement database:

* **Warm start** — the first query pulls the scope's entire row set
  into an in-memory digest-keyed memo (one indexed ``SELECT``), so a
  warm rerun answers every request at dictionary speed instead of one
  round-trip per measurement (``db.preload`` counts the rows).
* **Batching + coalescing** — a batch of requests is answered in one
  pass: duplicates within the batch collapse to a single measurement,
  requests already in the memo are served directly (``db.hit``), and
  only the distinct unresolved remainder is delegated — in one batched
  :meth:`~repro.core.oracle.OracleProtocol.query` call, which for a
  simulated oracle is one kernel engine invocation
  (``db.miss`` counts these).
* **Write-back** — freshly measured results are written to the DB in
  one transaction, so every other process sharing the database (and
  every future run) inherits them.

Services are shared per scope within a process (:func:`shared_service`),
so two clients reverse-engineering the same policy coalesce their
queries through one memo — the "many clients, one measurement
substrate" shape.  Cross-process sharing goes through the database
itself: WAL mode lets ``--jobs N`` workers read and write one file
concurrently.  Only miss counts are stored; every row's ``hits``
column is written as NULL.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.obs import metrics as obs_metrics
from repro.measuredb import db as _db

__all__ = [
    "OracleService",
    "reset_services",
    "shared_service",
]

Request = tuple[Sequence[int], Sequence[int]]

_SERVICES: dict[str, "OracleService"] = {}


def shared_service(scope: str) -> "OracleService":
    """The process-wide service for ``scope`` (created on first use)."""
    service = _SERVICES.get(scope)
    if service is None:
        service = _SERVICES[scope] = OracleService(scope)
    return service


def reset_services() -> None:
    """Drop all shared services and their memos (tests, dir changes)."""
    _SERVICES.clear()


class OracleService:
    """Batched, coalescing measurement broker for one scope."""

    def __init__(self, scope: str) -> None:
        if not scope:
            raise ValueError("OracleService needs a non-empty scope")
        self.scope = scope
        self._memo: dict[bytes, int] = {}
        self._preloaded = False

    def _ensure_preloaded(self) -> None:
        if self._preloaded:
            return
        self._preloaded = True
        if not _db.db_enabled():
            return
        rows = _db.get_db().load_scope(self.scope)
        loaded = 0
        for digest, (misses, _hits) in rows.items():
            if misses is not None:
                self._memo[digest] = misses
                loaded += 1
        if loaded:
            obs_metrics.DEFAULT.incr("db.preload", loaded)

    def query(self, requests: Sequence[Request], inner) -> list[int]:
        """Answer ``requests`` in order; delegate the unknown to ``inner``.

        ``inner`` is any :class:`~repro.core.oracle.OracleProtocol`; it
        is consulted once per *distinct* unresolved request (duplicates
        within the batch coalesce) and the fresh results are written
        back to the database.  ``db.hit`` counts requests answered
        without a new measurement, ``db.miss`` the delegated ones.
        """
        self._ensure_preloaded()
        keyed = [
            (tuple(setup), tuple(probe)) for setup, probe in requests
        ]
        digests = [_db.request_digest(setup, probe) for setup, probe in keyed]
        pending: list[tuple[tuple[int, ...], tuple[int, ...], bytes]] = []
        seen: set[bytes] = set()
        for (setup, probe), digest in zip(keyed, digests):
            if digest not in self._memo and digest not in seen:
                seen.add(digest)
                pending.append((setup, probe, digest))
        metrics = obs_metrics.DEFAULT
        served = len(requests) - len(pending)
        if served:
            metrics.incr("db.hit", served)
        if pending:
            metrics.incr("db.miss", len(pending))
            measured = inner.query([(setup, probe) for setup, probe, _ in pending])
            writes = []
            for (setup, probe, digest), misses in zip(pending, measured):
                self._memo[digest] = misses
                writes.append((digest, len(setup), len(probe), misses, None))
            if _db.db_enabled():
                _db.get_db().put_many(self.scope, writes)
        return [self._memo[digest] for digest in digests]
