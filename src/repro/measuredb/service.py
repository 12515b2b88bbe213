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
concurrently.

:class:`ResponseCache` is the hit-vector sibling, backing
:func:`repro.core.distinguish.responses` when opted in: it persists the
full per-access hit/miss vector (one byte per access) in the same row
schema, keyed by probe under a per-policy scope.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.obs import metrics as obs_metrics
from repro.measuredb import db as _db

__all__ = [
    "OracleService",
    "ResponseCache",
    "reset_services",
    "shared_service",
]

Request = tuple[Sequence[int], Sequence[int]]

_SERVICES: dict[str, "OracleService"] = {}
_RESPONSE_CACHES: dict[str, "ResponseCache"] = {}


def shared_service(scope: str) -> "OracleService":
    """The process-wide service for ``scope`` (created on first use)."""
    service = _SERVICES.get(scope)
    if service is None:
        service = _SERVICES[scope] = OracleService(scope)
    return service


def shared_response_cache(scope: str) -> "ResponseCache":
    """The process-wide response cache for ``scope``."""
    cache = _RESPONSE_CACHES.get(scope)
    if cache is None:
        cache = _RESPONSE_CACHES[scope] = ResponseCache(scope)
    return cache


def reset_services() -> None:
    """Drop all shared services and their memos (tests, dir changes)."""
    _SERVICES.clear()
    _RESPONSE_CACHES.clear()


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


class ResponseCache:
    """Persistent per-probe hit-vector cache (distinguish/identify).

    Rows live under a dedicated scope; the hit vector is stored as one
    byte per access (``b"\\x01"`` hit, ``b"\\x00"`` miss) in the ``hits``
    column, with ``misses`` kept consistent so miss-count consumers of
    the same row see the same measurement.
    """

    def __init__(self, scope: str) -> None:
        self.scope = scope
        self._memo: dict[bytes, tuple[bool, ...]] = {}
        self._preloaded = False

    def _ensure_preloaded(self) -> None:
        if self._preloaded:
            return
        self._preloaded = True
        if not _db.db_enabled():
            return
        rows = _db.get_db().load_scope(self.scope)
        loaded = 0
        for digest, (_misses, hits) in rows.items():
            if hits is not None:
                self._memo[digest] = tuple(byte == 1 for byte in bytes(hits))
                loaded += 1
        if loaded:
            obs_metrics.DEFAULT.incr("db.preload", loaded)

    def lookup(
        self, probes: Sequence[Sequence[int]]
    ) -> tuple[list[tuple[bool, ...] | None], list[int]]:
        """Cached vectors per probe plus the indices still unresolved."""
        self._ensure_preloaded()
        found: list[tuple[bool, ...] | None] = []
        missing: list[int] = []
        hits = 0
        for index, probe in enumerate(probes):
            digest = _db.request_digest((), probe)
            vector = self._memo.get(digest)
            if vector is None:
                missing.append(index)
            else:
                hits += 1
            found.append(vector)
        metrics = obs_metrics.DEFAULT
        if hits:
            metrics.incr("db.hit", hits)
        if missing:
            metrics.incr("db.miss", len(missing))
        return found, missing

    def store(
        self,
        probes: Sequence[Sequence[int]],
        vectors: Sequence[tuple[bool, ...]],
    ) -> None:
        """Memoize and persist freshly computed hit vectors."""
        writes = []
        for probe, vector in zip(probes, vectors):
            digest = _db.request_digest((), probe)
            self._memo[digest] = tuple(vector)
            blob = bytes(1 if hit else 0 for hit in vector)
            misses = sum(1 for hit in vector if not hit)
            writes.append((digest, 0, len(vector), misses, blob))
        if writes and _db.db_enabled():
            _db.get_db().put_many(self.scope, writes)
