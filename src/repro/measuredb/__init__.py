"""Persistent measurement database + shared oracle service.

The package has three layers (see DESIGN.md for the flow diagram):

* :mod:`repro.measuredb.db` — the sqlite (WAL) store itself: atomic
  batched writes, corrupt-file fallback to recompute, fork-safe
  connections, ``db.*`` counters;
* :mod:`repro.measuredb.service` — per-scope brokers that preload,
  batch, coalesce and write back, shared by all clients in a process;
* :mod:`repro.measuredb.oracle` — :class:`MeasurementDBOracle`, the
  ``OracleProtocol`` face of the stack, plus :func:`wrap_if_enabled`
  for opt-in call sites.

The hit-vector side (``distinguish.responses``) is opt-in via
:func:`set_hits_cache_enabled`; miss-count persistence is opt-in per
oracle via :class:`MeasurementDBOracle` / :func:`wrap_if_enabled`.
"""

from __future__ import annotations

from repro.measuredb.db import (
    DB_FILENAME,
    SCHEMA_VERSION,
    MeasurementDB,
    close_db,
    db_dir,
    db_disabled,
    db_enabled,
    db_path,
    get_db,
    request_digest,
    set_db_dir,
    set_db_enabled,
)
from repro.measuredb.service import (
    OracleService,
    ResponseCache,
    reset_services,
    shared_response_cache,
    shared_service,
)
from repro.measuredb.oracle import MeasurementDBOracle, wrap_if_enabled

__all__ = [
    "SCHEMA_VERSION",
    "DB_FILENAME",
    "MeasurementDB",
    "MeasurementDBOracle",
    "OracleService",
    "ResponseCache",
    "close_db",
    "db_dir",
    "db_disabled",
    "db_enabled",
    "db_path",
    "get_db",
    "hits_cache_enabled",
    "request_digest",
    "reset",
    "response_cache_for",
    "set_db_dir",
    "set_db_enabled",
    "set_hits_cache_enabled",
    "shared_response_cache",
    "shared_service",
    "stats",
    "clear",
    "export_rows",
    "wrap_if_enabled",
]

#: Opt-in switch for persisting distinguish/identify hit vectors.
_HITS_CACHE = False


def hits_cache_enabled() -> bool:
    """True when ``distinguish.responses`` may consult the DB."""
    return _HITS_CACHE and db_enabled()


def set_hits_cache_enabled(enabled: bool) -> None:
    """Enable/disable the persistent hit-vector response cache."""
    global _HITS_CACHE
    _HITS_CACHE = bool(enabled)


def response_cache_for(policy, thrash_factor: int = 2) -> ResponseCache | None:
    """The shared hit-vector cache for ``policy``, or None.

    None when the policy has no provenance (randomized / unregistered
    instances must keep re-simulating).  The scope pins the established
    state's thrash factor alongside the policy identity, because the
    cached vectors start from that state.
    """
    from repro.core.oracle import policy_provenance

    provenance = policy_provenance(policy)
    if provenance is None:
        return None
    return shared_response_cache(f"resp|thrash={thrash_factor}|{provenance}")


def stats() -> dict:
    """Inventory of the current measurement database."""
    return get_db().stats()


def clear(scope: str | None = None) -> int:
    """Delete measurement rows (one scope, or all); returns the count."""
    removed = get_db().clear(scope)
    reset_services()
    return removed


def export_rows(scope: str | None = None):
    """Iterate the database's rows as JSON-friendly dicts."""
    return get_db().export_rows(scope)


def reset() -> None:
    """Close the DB handle and drop all in-process service memos.

    The reset point for tests and directory changes: the next query
    reopens the database at the current :func:`db_dir` and re-preloads.
    """
    close_db()
    reset_services()
