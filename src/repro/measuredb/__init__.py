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

Persistence is opt-in per oracle via :class:`MeasurementDBOracle` /
:func:`wrap_if_enabled`, and covers miss counts only.
"""

from __future__ import annotations

from repro.measuredb.db import (
    DB_FILENAME,
    SCHEMA_VERSION,
    MeasurementDB,
    close_db,
    db_path,
    get_db,
    request_digest,
)
from repro.measuredb.service import OracleService, reset_services, shared_service
from repro.measuredb.oracle import MeasurementDBOracle, wrap_if_enabled

__all__ = [
    "SCHEMA_VERSION",
    "DB_FILENAME",
    "MeasurementDB",
    "MeasurementDBOracle",
    "OracleService",
    "close_db",
    "db_path",
    "get_db",
    "request_digest",
    "reset",
    "shared_service",
    "stats",
    "clear",
    "export_rows",
    "wrap_if_enabled",
]


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
    reopens the database at the current :func:`db_path` and re-preloads.
    """
    close_db()
    reset_services()
