"""Run-history database: every run, queryable, forever.

A run ledger (:class:`~repro.obs.ledger.RunLedger`) makes one run
observable, but each run is an island: ``report --diff`` compares
exactly two ledgers by hand.  This module is the across-run plane: a
WAL-mode sqlite **run-history store** (``history-v<schema>.sqlite``,
beside the automaton store) that ingests run ledgers — one ``runs``
row per ledger, keyed by experiment name, git sha and timestamp and
carrying the ledger's ``data``, plus one ``counters`` row per counter —
and answers the questions single ledgers cannot: *how has E3's wall
time moved over the last ten runs?  which commit did the query budget
jump at?  is the kernel speedup trajectory flat?*  The regression
detector (:mod:`repro.obs.regress`) and the HTML dashboard
(:mod:`repro.obs.dash`) are pure consumers of this store.

Rows arrive three ways:

* **auto-recorded** — the CLI records its ledger whenever ``--metrics``
  is on (and only then: without ``--metrics`` no history code runs and
  no sqlite file is created), and the benchmark ``save_result`` fixture
  records every bench ledger;
* **backfilled** — ``repro-cache history ingest benchmarks/results/``
  walks a results directory and ingests every ledger it finds;
* **programmatically** — :func:`record_ledger`.

Ingestion is idempotent: every row carries a content fingerprint
(blake2s of the canonical JSON) with a UNIQUE constraint, so
re-ingesting a directory records nothing twice.

Discipline:

* **Location** — the database (:func:`history_path`) lives in the
  automaton store's directory, :func:`repro.kernels.store.cache_dir`,
  so one ``--cache-dir`` governs both persistent stores.  The file name
  embeds :data:`SCHEMA_VERSION`; bumping it orphans old databases, never
  misreads them.
* **Durability** — WAL journal mode, ``synchronous=NORMAL``, one
  transaction per recorded run.
* **Corruption** — a corrupt database is unlinked and reopened once;
  a second failure marks the handle dead and every later operation is a
  cheap no-op.  History recording never fails the run it documents.
* **Observability** — ``history.record`` / ``history.duplicate`` /
  ``history.dropped`` / ``history.read_errors`` / ``history.corrupt``
  counters land in :data:`repro.obs.metrics.DEFAULT`.  Every row a write
  could not store (database unavailable, locked beyond the busy timeout
  or corrupt) counts as ``history.dropped``; every read a sqlite error
  cut short, on open or on the query, counts as ``history.read_errors``.
  A database file that does not exist yet is no error: reads of it
  answer nothing and count nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sqlite3
import time
from collections.abc import Iterable
from pathlib import Path

from repro.errors import ReproError, ResultSchemaError
from repro.obs import ledger as obs_ledger
from repro.obs import metrics as obs_metrics

__all__ = [
    "SCHEMA_VERSION",
    "HISTORY_FILENAME",
    "HistoryDB",
    "close_history",
    "get_history",
    "history_path",
    "ingest_paths",
    "record_ledger",
    "reset",
]

#: Bump on any change to the tables or the fingerprint rule.  The
#: version is part of the file name, so old databases become invisible.
SCHEMA_VERSION = 2

HISTORY_FILENAME = f"history-v{SCHEMA_VERSION}.sqlite"

#: How long a writer waits on a locked database before dropping its row.
BUSY_TIMEOUT_SECONDS = 10.0

_DB: "HistoryDB | None" = None


def history_path() -> Path:
    """Where the current schema's history database lives."""
    from repro.kernels import store

    return store.cache_dir() / HISTORY_FILENAME


def get_history() -> "HistoryDB":
    """The shared per-process history handle for the current directory."""
    global _DB
    path = history_path()
    if _DB is None or _DB.path != path:
        if _DB is not None:
            _DB.close()
        _DB = HistoryDB(path)
    return _DB


def close_history() -> None:
    """Close the shared handle (tests, directory changes, shutdown)."""
    global _DB
    if _DB is not None:
        _DB.close()
        _DB = None


def reset() -> None:
    """Close the handle; the next call reopens at the current directory."""
    close_history()


def _fingerprint(payload: dict) -> str:
    """Content fingerprint of one ingested document (idempotency key)."""
    canonical = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.blake2s(canonical, digest_size=16).hexdigest()


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


class HistoryDB:
    """One run-history database file; lazy, fork-safe, never raises.

    Read paths never create the file (``history stats`` on a missing
    database reports emptiness; ``repro-cache evaluate`` without
    ``--metrics`` touches no history code at all), write paths create it
    on first record.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None
        self._recovered = False
        self._dead = False
        #: Rows this handle could not store (each also ``history.dropped``).
        self.dropped = 0

    # -- connection lifecycle ------------------------------------------------
    def _open(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(self.path), timeout=BUSY_TIMEOUT_SECONDS)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT_SECONDS * 1000)}")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS runs ("
            " id INTEGER PRIMARY KEY,"
            " fingerprint TEXT NOT NULL UNIQUE,"
            " name TEXT NOT NULL,"
            " created TEXT NOT NULL,"
            " ingested TEXT NOT NULL,"
            " wall_seconds REAL NOT NULL,"
            " git_sha TEXT,"
            " git_dirty INTEGER,"
            " seed INTEGER,"
            " jobs INTEGER,"
            " kernel INTEGER,"
            " vector INTEGER,"
            " params TEXT NOT NULL,"
            " env TEXT NOT NULL,"
            " maps TEXT,"
            " source TEXT,"
            " data TEXT"
            ")"
        )
        conn.execute(
            "CREATE INDEX IF NOT EXISTS runs_by_name ON runs (name, created, id)"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS counters ("
            " run_id INTEGER NOT NULL,"
            " name TEXT NOT NULL,"
            " value REAL NOT NULL,"
            " PRIMARY KEY (run_id, name)"
            ") WITHOUT ROWID"
        )
        conn.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema', ?)",
            (str(SCHEMA_VERSION),),
        )
        row = conn.execute("SELECT value FROM meta WHERE key = 'schema'").fetchone()
        if row is None or row[0] != str(SCHEMA_VERSION):
            conn.close()
            raise sqlite3.DatabaseError("history DB schema mismatch")
        conn.commit()
        return conn

    def _connection(self, create: bool = True) -> sqlite3.Connection | None:
        """The live connection, or None.

        ``create=False`` (read paths) returns None instead of creating
        a database file that does not exist yet.
        """
        if self._dead:
            return None
        if self._conn is not None and self._pid != os.getpid():
            # Forked child: never reuse (or close) the parent's handle.
            self._conn = None
        if self._conn is None:
            if not create and not self.path.exists():
                return None
            try:
                self._conn = self._open()
            except sqlite3.OperationalError:
                return None  # unwritable/locked: degrade this operation
            except sqlite3.DatabaseError:
                return self._handle_corrupt()
            self._pid = os.getpid()
        return self._conn

    def _handle_corrupt(self) -> sqlite3.Connection | None:
        """Unlink the damaged database and reopen once; then give up."""
        obs_metrics.DEFAULT.incr("history.corrupt")
        if self._conn is not None:
            with contextlib.suppress(sqlite3.Error):
                self._conn.close()
            self._conn = None
        for suffix in ("", "-wal", "-shm"):
            with contextlib.suppress(OSError):
                os.unlink(f"{self.path}{suffix}")
        if self._recovered:
            self._dead = True
            return None
        self._recovered = True
        try:
            self._conn = self._open()
        except (sqlite3.Error, OSError):
            self._conn = None
            self._dead = True
            return None
        self._pid = os.getpid()
        return self._conn

    def _drop(self) -> None:
        """Count one row a write could not store."""
        self.dropped += 1
        obs_metrics.DEFAULT.incr("history.dropped")

    def _reader(self) -> sqlite3.Connection | None:
        """The connection for a read path, or None.

        A database file that does not exist yet is not an error: the read
        answers nothing and counts nothing.  One that exists but cannot be
        opened, or a dead handle, counts as ``history.read_errors``.
        """
        conn = self._connection(create=False)
        if conn is None and (self._dead or self.path.exists()):
            obs_metrics.DEFAULT.incr("history.read_errors")
        return conn

    def close(self) -> None:
        """Close the underlying connection (reopened lazily if reused)."""
        if self._conn is not None and self._pid == os.getpid():
            with contextlib.suppress(sqlite3.Error):
                self._conn.close()
        self._conn = None

    # -- write plane ---------------------------------------------------------
    def record_ledger(
        self,
        ledger: "obs_ledger.RunLedger",
        source: str | None = None,
        maps: list | None = None,
    ) -> int | None:
        """Insert one run ledger; returns the run id, or None.

        None means the row was not recorded: (the common case) the
        exact same ledger content already present — recording is
        idempotent, counted as ``history.duplicate`` — or a database that
        could not take the row, counted as ``history.dropped`` and in
        :attr:`dropped`.  ``maps`` is
        an optional list of runner map records (see
        :func:`repro.runner.core.add_map_hook`) attached to the run row
        for the dashboard's per-run breakdown.
        """
        conn = self._connection()
        if conn is None:
            self._drop()
            return None
        payload = ledger.to_dict()
        fingerprint = _fingerprint(payload)
        params = payload.get("params") or {}
        git = payload.get("git") or {}
        vector = params.get("vector")
        try:
            with conn:
                cursor = conn.execute(
                    "INSERT OR IGNORE INTO runs"
                    " (fingerprint, name, created, ingested, wall_seconds,"
                    "  git_sha, git_dirty, seed, jobs, kernel, vector,"
                    "  params, env, maps, source, data)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        fingerprint,
                        ledger.name,
                        ledger.created,
                        _now(),
                        float(ledger.wall_seconds),
                        git.get("sha"),
                        None if git.get("dirty") is None else int(bool(git.get("dirty"))),
                        ledger.seed,
                        ledger.jobs,
                        None if ledger.kernel is None else int(ledger.kernel),
                        None if vector is None else int(bool(vector)),
                        json.dumps(params, sort_keys=True, default=str),
                        json.dumps(ledger.env, sort_keys=True, default=str),
                        None if maps is None else json.dumps(maps, default=str),
                        source,
                        json.dumps(ledger.data, default=str),
                    ),
                )
                if cursor.rowcount == 0:
                    obs_metrics.DEFAULT.incr("history.duplicate")
                    return None
                run_id = cursor.lastrowid
                conn.executemany(
                    "INSERT OR REPLACE INTO counters (run_id, name, value)"
                    " VALUES (?, ?, ?)",
                    [
                        (run_id, name, float(value))
                        for name, value in ledger.counters.items()
                        if isinstance(value, (int, float))
                        and not isinstance(value, bool)
                    ],
                )
        except sqlite3.OperationalError:
            self._drop()  # locked beyond the busy timeout
            return None
        except sqlite3.DatabaseError:
            self._handle_corrupt()
            self._drop()
            return None
        obs_metrics.DEFAULT.incr("history.record")
        return run_id

    # -- read plane ----------------------------------------------------------
    def runs(
        self,
        name: str | None = None,
        limit: int | None = None,
        with_counters: bool = False,
    ) -> list[dict]:
        """Run rows, newest first, optionally restricted to one experiment."""
        conn = self._reader()
        if conn is None:
            return []
        query = (
            "SELECT id, name, created, ingested, wall_seconds, git_sha,"
            " git_dirty, seed, jobs, kernel, vector, params, env, maps, source,"
            " data FROM runs"
        )
        args: tuple = ()
        if name is not None:
            query += " WHERE name = ?"
            args = (name,)
        query += " ORDER BY created DESC, id DESC"
        if limit is not None:
            query += f" LIMIT {int(limit)}"
        try:
            rows = conn.execute(query, args).fetchall()
        except sqlite3.OperationalError:
            obs_metrics.DEFAULT.incr("history.read_errors")
            return []
        except sqlite3.DatabaseError:
            obs_metrics.DEFAULT.incr("history.read_errors")
            self._handle_corrupt()
            return []
        runs = [self._run_row(row) for row in rows]
        if with_counters:
            for run in runs:
                run["counters"] = self.counters_for(run["id"])
        return runs

    @staticmethod
    def _run_row(row: tuple) -> dict:
        (run_id, name, created, ingested, wall_seconds, git_sha, git_dirty,
         seed, jobs, kernel, vector, params, env, maps, source, data) = row
        return {
            "id": run_id,
            "name": name,
            "created": created,
            "ingested": ingested,
            "wall_seconds": wall_seconds,
            "git_sha": git_sha,
            "git_dirty": None if git_dirty is None else bool(git_dirty),
            "seed": seed,
            "jobs": jobs,
            "kernel": None if kernel is None else bool(kernel),
            "vector": None if vector is None else bool(vector),
            "params": json.loads(params) if params else {},
            "env": json.loads(env) if env else {},
            "maps": json.loads(maps) if maps else None,
            "source": source,
            "data": json.loads(data) if data is not None else None,
        }

    def counters_for(self, run_id: int) -> dict[str, float]:
        """All counters recorded for one run."""
        conn = self._reader()
        if conn is None:
            return {}
        try:
            rows = conn.execute(
                "SELECT name, value FROM counters WHERE run_id = ?", (run_id,)
            ).fetchall()
        except sqlite3.Error:
            obs_metrics.DEFAULT.incr("history.read_errors")
            return {}
        return {name: value for name, value in rows}

    def experiments(self) -> list[dict]:
        """Distinct experiment names with run counts and latest timestamps."""
        conn = self._reader()
        if conn is None:
            return []
        try:
            rows = conn.execute(
                "SELECT name, COUNT(*), MIN(created), MAX(created)"
                " FROM runs GROUP BY name ORDER BY name"
            ).fetchall()
        except sqlite3.Error:
            obs_metrics.DEFAULT.incr("history.read_errors")
            return []
        return [
            {"name": name, "runs": count, "first": first, "latest": latest}
            for name, count, first, latest in rows
        ]

    def stats(self) -> dict:
        """Inventory: file size, run counts, per-experiment totals."""
        experiments = self.experiments()
        size = 0
        for suffix in ("", "-wal"):
            with contextlib.suppress(OSError):
                size += os.stat(f"{self.path}{suffix}").st_size
        return {
            "path": str(self.path),
            "exists": self.path.exists(),
            "schema_version": SCHEMA_VERSION,
            "enabled": not self._dead,
            "experiments": experiments,
            "total_runs": sum(entry["runs"] for entry in experiments),
            "total_bytes": size,
        }

    def clear(self) -> int:
        """Delete every run; returns rows removed."""
        conn = self._reader()
        if conn is None:
            return 0
        try:
            with conn:
                removed = conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
                conn.execute("DELETE FROM counters")
                conn.execute("DELETE FROM runs")
        except sqlite3.Error:
            obs_metrics.DEFAULT.incr("history.read_errors")
            return 0
        return removed


# -- module-level convenience ------------------------------------------------
def record_ledger(
    ledger: "obs_ledger.RunLedger",
    source: str | None = None,
    maps: list | None = None,
) -> int | None:
    """Record one ledger into the shared history database."""
    return get_history().record_ledger(ledger, source=source, maps=maps)


def ingest_paths(paths: Iterable[str | Path]) -> dict:
    """Backfill history from files and directories.

    Directories are scanned (non-recursively) for ``*.ledger.json``;
    explicit file arguments are read as ledgers whatever their name.
    Returns a report dict::

        {"recorded": N, "duplicates": N, "dropped": N,
         "errors": [(path, reason), ...], "files": [(path, status), ...]}

    where status is ``recorded``, ``duplicate``, ``dropped`` (the
    database could not take the row) or ``error``.  Unreadable
    or schema-invalid files are reported, never raised — backfill must
    survive a results directory with half-written artifacts in it.
    """
    expanded: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            expanded.extend(sorted(path.glob("*.ledger.json")))
        else:
            expanded.append(path)
    report: dict = {
        "recorded": 0, "duplicates": 0, "dropped": 0, "errors": [], "files": [],
    }
    db = get_history()
    for path in expanded:
        dropped = db.dropped
        try:
            ledger = obs_ledger.read_ledger(path)
            row_id = db.record_ledger(ledger, source=str(path))
        except (OSError, ValueError, ReproError, ResultSchemaError) as error:
            report["errors"].append((str(path), str(error)))
            report["files"].append((str(path), "error"))
            continue
        if row_id is None and db.dropped > dropped:
            report["dropped"] += 1
            report["files"].append((str(path), "dropped"))
        elif row_id is None:
            report["duplicates"] += 1
            report["files"].append((str(path), "duplicate"))
        else:
            report["recorded"] += 1
            report["files"].append((str(path), "recorded"))
    return report


def stats() -> dict:
    """Inventory of the current history database."""
    return get_history().stats()


def clear() -> int:
    """Delete all recorded history; returns rows removed."""
    return get_history().clear()
