"""Persistent sqlite measurement store (WAL mode).

The measurement database is the on-disk sibling of the in-memory
:class:`~repro.core.oracle.CachingOracle`: it maps

    ``(scope, request digest) -> miss count``

where *scope* is an oracle provenance string (policy identity +
associativity, hardware spec + level + seed, ...) and the digest keys
one ``(setup, probe)`` measurement.  Each row also has a ``hits``
column (a per-access hit vector), which the library writes as NULL and
keeps only so existing database files stay valid.  Rows survive across
processes and across ``--jobs N`` workers, so repeated inference grids
hit the DB instead of re-simulating.

Discipline mirrors :mod:`repro.kernels.store`:

* **Location** — :func:`db_dir` defaults to the automaton store's
  directory (explicit override > ``$REPRO_CACHE_DIR`` >
  ``./.repro-cache``), so one ``--cache-dir`` governs both stores.  The
  file name embeds :data:`SCHEMA_VERSION`; bumping it orphans old
  databases (they are simply never opened again), never misreads them.
* **Durability** — WAL journal mode with ``synchronous=NORMAL``: writers
  append to the log and readers never block them, which is what lets N
  worker processes share one database.  Row batches are written in one
  transaction, so a killed writer loses at most its in-flight batch —
  committed rows are never torn.
* **Contention** — processes opening a fresh file at once race to
  switch it to WAL and create the schema; sqlite can report the loser
  ``database is locked`` without waiting out the busy timeout, so the
  first open is retried with a bounded doubling backoff.
* **Corruption** — any :class:`sqlite3.DatabaseError` that is not a
  transient operational error means *recompute*: the database (and its
  ``-wal``/``-shm`` companions) is unlinked and reopened once; if that
  fails too the store degrades to a pass-through (lookups miss, writes
  are dropped).  It never raises into an oracle.
* **Observability** — ``db.write`` / ``db.dropped`` / ``db.evict`` /
  ``db.corrupt`` counters land in :data:`repro.obs.metrics.DEFAULT`
  (the service layer adds ``db.hit`` / ``db.miss`` / ``db.preload``),
  and through it the run ledgers.  Every row a write could not store
  counts as ``db.dropped``; only an explicitly disabled DB drops
  silently.

Connections are per-process: a :class:`MeasurementDB` carried into a
forked worker notices the pid change and reopens its handle, because
sqlite connections must never cross a fork.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sqlite3
import time
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

from repro.obs import metrics as obs_metrics

__all__ = [
    "SCHEMA_VERSION",
    "DB_FILENAME",
    "MeasurementDB",
    "request_digest",
    "db_dir",
    "set_db_dir",
    "db_path",
    "db_enabled",
    "set_db_enabled",
    "db_disabled",
    "get_db",
    "close_db",
]

#: Bump on any change to the schema or digest rule.  The version is part
#: of the file name, so old databases become invisible, never misread.
SCHEMA_VERSION = 1

DB_FILENAME = f"measurements-v{SCHEMA_VERSION}.sqlite"

#: How long a writer waits on a locked database before giving up and
#: dropping its batch (writes are an optimization, never a requirement).
BUSY_TIMEOUT_SECONDS = 10.0

#: A first open that finds the file locked is retried this many times,
#: sleeping OPEN_RETRY_SECONDS, then twice that, and so on (~0.6 s).
OPEN_RETRIES = 6
OPEN_RETRY_SECONDS = 0.01

#: sqlite's default variable limit is 999; chunk IN() lookups below it.
_IN_CHUNK = 400

_DB_DIR: Path | None = None
_ENABLED = True
_DB: "MeasurementDB | None" = None


def request_digest(setup: Sequence[int], probe: Sequence[int]) -> bytes:
    """Digest of one measurement request.

    The digest covers the *nested* ``(setup, probe)`` pair — the same
    invariant :meth:`repro.core.oracle.CachingOracle.memo_key` documents:
    ``([1], [2, 3])`` and ``([1, 2], [3])`` replay the same accesses but
    count different misses, so the split must stay in the key.
    """
    payload = repr((tuple(setup), tuple(probe))).encode()
    return hashlib.blake2s(payload, digest_size=16).digest()


# -- directory / enablement --------------------------------------------------
def db_dir() -> Path:
    """The database directory.

    Defaults to the automaton store's directory (explicit override >
    ``$REPRO_CACHE_DIR`` > ``./.repro-cache``), so both persistent
    artifact stores live together and one ``--cache-dir`` governs both.
    """
    if _DB_DIR is not None:
        return _DB_DIR
    from repro.kernels import store

    return store.cache_dir()


def set_db_dir(path: str | os.PathLike | None) -> None:
    """Override the database directory (None restores the shared rule)."""
    global _DB_DIR
    _DB_DIR = Path(path) if path is not None else None


def db_path() -> Path:
    """Where the current schema's database lives (existing or not)."""
    return db_dir() / DB_FILENAME


def db_enabled() -> bool:
    """True when the measurement DB may be read or written."""
    return _ENABLED


def set_db_enabled(enabled: bool) -> None:
    """Globally enable or disable the measurement DB."""
    global _ENABLED
    _ENABLED = bool(enabled)


@contextlib.contextmanager
def db_disabled():
    """Temporarily bypass the measurement DB (cold benchmarks, tests)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def get_db() -> "MeasurementDB":
    """The shared per-process database handle for the current directory.

    Re-resolved on every call: if :func:`db_dir` changed (a test moved
    the cache dir, the CLI passed ``--cache-dir``), the stale handle is
    closed and a fresh one opened at the new path.
    """
    global _DB
    path = db_path()
    if _DB is None or _DB.path != path:
        if _DB is not None:
            _DB.close()
        _DB = MeasurementDB(path)
    return _DB


def close_db() -> None:
    """Close the shared handle (tests, directory changes, shutdown)."""
    global _DB
    if _DB is not None:
        _DB.close()
        _DB = None


class MeasurementDB:
    """One measurement database file; lazy, fork-safe, never raises.

    All failure handling lives here so the service layer and oracles
    above stay straight-line:

    * transient errors (locked database, unwritable directory) degrade
      the one operation — a lookup misses, a write is dropped;
    * corruption unlinks the file and reopens once (``db.corrupt``);
    * a second corruption marks the handle dead: every later operation
      is a cheap no-op pass-through.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None
        self._recovered = False
        self._dead = False

    # -- connection lifecycle ------------------------------------------------
    def _open(self) -> sqlite3.Connection:
        """Open and initialise the file, retrying while it is locked."""
        delay = OPEN_RETRY_SECONDS
        for _ in range(OPEN_RETRIES):
            try:
                return self._open_once()
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc):
                    raise  # unwritable, not contended: retrying cannot help
            time.sleep(delay)
            delay *= 2
        return self._open_once()

    def _open_once(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(self.path), timeout=BUSY_TIMEOUT_SECONDS)
        try:
            self._init_schema(conn)
        except sqlite3.Error:
            conn.close()
            raise
        return conn

    @staticmethod
    def _init_schema(conn: sqlite3.Connection) -> None:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT_SECONDS * 1000)}")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS measurements ("
            " scope TEXT NOT NULL,"
            " digest BLOB NOT NULL,"
            " setup_len INTEGER NOT NULL,"
            " probe_len INTEGER NOT NULL,"
            " misses INTEGER,"
            " hits BLOB,"
            " PRIMARY KEY (scope, digest)"
            ") WITHOUT ROWID"
        )
        conn.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema', ?)",
            (str(SCHEMA_VERSION),),
        )
        row = conn.execute("SELECT value FROM meta WHERE key = 'schema'").fetchone()
        if row is None or row[0] != str(SCHEMA_VERSION):
            # The file name embeds the version, so a mismatch means the
            # file was tampered with; rebuild it like any corruption.
            raise sqlite3.DatabaseError("measurement DB schema mismatch")
        conn.commit()

    def _connection(self) -> sqlite3.Connection | None:
        """The live connection, or None (disabled / dead / unopenable)."""
        if self._dead or not db_enabled():
            return None
        if self._conn is not None and self._pid != os.getpid():
            # Forked child: the parent's connection must not be used (or
            # even closed) here; drop the reference and reopen.
            self._conn = None
        if self._conn is None:
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
        obs_metrics.DEFAULT.incr("db.corrupt")
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

    def close(self) -> None:
        """Close the underlying connection (reopened lazily if reused)."""
        if self._conn is not None and self._pid == os.getpid():
            with contextlib.suppress(sqlite3.Error):
                self._conn.close()
        self._conn = None

    # -- data plane ----------------------------------------------------------
    def get_many(
        self, scope: str, digests: Sequence[bytes]
    ) -> dict[bytes, tuple[int | None, bytes | None]]:
        """Rows for ``digests`` under ``scope``; absent keys are misses."""
        conn = self._connection()
        if conn is None or not digests:
            return {}
        found: dict[bytes, tuple[int | None, bytes | None]] = {}
        try:
            for start in range(0, len(digests), _IN_CHUNK):
                chunk = list(digests[start : start + _IN_CHUNK])
                marks = ",".join("?" * len(chunk))
                rows = conn.execute(
                    "SELECT digest, misses, hits FROM measurements"
                    f" WHERE scope = ? AND digest IN ({marks})",
                    (scope, *chunk),
                )
                for digest, misses, hits in rows:
                    found[bytes(digest)] = (misses, hits)
        except sqlite3.OperationalError:
            return found
        except sqlite3.DatabaseError:
            self._handle_corrupt()
            return {}
        return found

    def load_scope(self, scope: str) -> dict[bytes, tuple[int | None, bytes | None]]:
        """Every row of one scope, for the service's warm-start memo."""
        conn = self._connection()
        if conn is None:
            return {}
        try:
            rows = conn.execute(
                "SELECT digest, misses, hits FROM measurements WHERE scope = ?",
                (scope,),
            ).fetchall()
        except sqlite3.OperationalError:
            return {}
        except sqlite3.DatabaseError:
            self._handle_corrupt()
            return {}
        return {bytes(digest): (misses, hits) for digest, misses, hits in rows}

    def put_many(
        self,
        scope: str,
        rows: Iterable[tuple[bytes, int, int, int | None, bytes | None]],
    ) -> int:
        """Write ``(digest, setup_len, probe_len, misses, hits)`` rows.

        One transaction for the whole batch (all-or-nothing under a
        mid-write kill).  The library stores miss counts only and
        writes ``hits`` as NULL; the column and the row shape stay so
        existing database files remain valid.  A re-written row keeps
        whichever of ``misses``/``hits`` the new row leaves as NULL, so
        a hit vector already in an older file is not clobbered.
        Returns the number of rows written (0 when the write was
        dropped, counted as ``db.dropped`` unless the DB is disabled).
        """
        rows = list(rows)
        if not rows:
            return 0
        conn = self._connection()
        if conn is None:
            return self._dropped(len(rows)) if db_enabled() else 0
        try:
            with conn:
                conn.executemany(
                    "INSERT INTO measurements"
                    " (scope, digest, setup_len, probe_len, misses, hits)"
                    " VALUES (?, ?, ?, ?, ?, ?)"
                    " ON CONFLICT (scope, digest) DO UPDATE SET"
                    " misses = COALESCE(excluded.misses, misses),"
                    " hits = COALESCE(excluded.hits, hits)",
                    [(scope, *row) for row in rows],
                )
        except sqlite3.OperationalError:
            return self._dropped(len(rows))  # locked beyond the busy timeout
        except sqlite3.DatabaseError:
            self._handle_corrupt()
            return self._dropped(len(rows))
        obs_metrics.DEFAULT.incr("db.write", len(rows))
        return len(rows)

    @staticmethod
    def _dropped(count: int) -> int:
        """Count ``count`` rows a write could not store; returns 0."""
        obs_metrics.DEFAULT.incr("db.dropped", count)
        return 0

    # -- maintenance ---------------------------------------------------------
    def stats(self) -> dict:
        """Inventory: file size, per-scope row counts, totals."""
        conn = self._connection()
        scopes: list[dict] = []
        total = 0
        if conn is not None:
            try:
                for scope, count in conn.execute(
                    "SELECT scope, COUNT(*) FROM measurements"
                    " GROUP BY scope ORDER BY scope"
                ):
                    scopes.append({"scope": scope, "rows": count})
                    total += count
            except sqlite3.DatabaseError:
                self._handle_corrupt()
                scopes, total = [], 0
        size = 0
        for suffix in ("", "-wal"):
            with contextlib.suppress(OSError):
                size += os.stat(f"{self.path}{suffix}").st_size
        return {
            "path": str(self.path),
            "exists": self.path.exists(),
            "schema_version": SCHEMA_VERSION,
            "enabled": db_enabled() and not self._dead,
            "scopes": scopes,
            "total_rows": total,
            "total_bytes": size,
        }

    def clear(self, scope: str | None = None) -> int:
        """Delete rows (one scope, or all); returns the count removed."""
        conn = self._connection()
        if conn is None:
            return 0
        try:
            with conn:
                if scope is None:
                    cursor = conn.execute("DELETE FROM measurements")
                else:
                    cursor = conn.execute(
                        "DELETE FROM measurements WHERE scope = ?", (scope,)
                    )
        except sqlite3.OperationalError:
            return 0
        except sqlite3.DatabaseError:
            self._handle_corrupt()
            return 0
        removed = cursor.rowcount if cursor.rowcount and cursor.rowcount > 0 else 0
        if removed:
            obs_metrics.DEFAULT.incr("db.evict", removed)
        return removed

    def export_rows(self, scope: str | None = None) -> Iterator[dict]:
        """Yield rows as JSON-friendly dicts (CLI ``db export``)."""
        conn = self._connection()
        if conn is None:
            return
        query = (
            "SELECT scope, digest, setup_len, probe_len, misses, hits"
            " FROM measurements"
        )
        params: tuple = ()
        if scope is not None:
            query += " WHERE scope = ?"
            params = (scope,)
        query += " ORDER BY scope, digest"
        try:
            rows = conn.execute(query, params).fetchall()
        except sqlite3.OperationalError:
            return
        except sqlite3.DatabaseError:
            self._handle_corrupt()
            return
        for row_scope, digest, setup_len, probe_len, misses, hits in rows:
            yield {
                "scope": row_scope,
                "digest": bytes(digest).hex(),
                "setup_len": setup_len,
                "probe_len": probe_len,
                "misses": misses,
                "hits": list(bytes(hits)) if hits is not None else None,
            }
