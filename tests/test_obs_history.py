"""Tests for repro.obs.history: the run-history database.

Covers the store discipline (WAL file beside the automaton store,
read-paths-never-create, corrupt-unlink recovery, counted read errors),
idempotent fingerprinted ingestion of ledgers, and the backfill walker's
tolerance of broken inputs.
"""

import json
import os
import sqlite3

import pytest

from repro.obs import history as obs_history
from repro.obs import ledger as obs_ledger
from repro.obs import metrics as obs_metrics


def make_ledger(name="e_test", wall=1.0, created="2026-08-07T00:00:00Z",
                jobs=2, counters=None, **overrides):
    base = dict(
        name=name,
        created=created,
        wall_seconds=wall,
        params={"seed": 0, "vector": True},
        seed=0,
        jobs=jobs,
        kernel=True,
        git={"sha": "deadbeef" * 5, "dirty": False},
        env={"python": "3.12"},
        counters=counters if counters is not None
        else {"oracle.measurements": 100.0, "kernel.accesses": 5000.0},
        data={"rows": [["lru", 1]], "speedup": 2.5},
    )
    base.update(overrides)
    return obs_ledger.RunLedger(**base)


@pytest.fixture
def db(tmp_path):
    handle = obs_history.HistoryDB(tmp_path / "history-v2.sqlite")
    yield handle
    handle.close()


class TestLocation:
    def test_follows_the_automaton_store_directory(self, tmp_path):
        from repro.kernels import store

        assert obs_history.history_path() == (
            store.cache_dir() / f"history-v{obs_history.SCHEMA_VERSION}.sqlite"
        )

    def test_read_paths_never_create_the_file(self, db):
        # A missing file is not a read error either.
        obs_metrics.DEFAULT.reset()
        assert db.runs() == []
        assert db.stats()["total_runs"] == 0
        assert db.experiments() == []
        assert db.counters_for(1) == {}
        assert db.clear() == 0
        assert not db.path.exists()
        assert "history.read_errors" not in obs_metrics.DEFAULT.snapshot()["counters"]

    def test_first_record_creates_the_file(self, db):
        assert db.record_ledger(make_ledger()) is not None
        assert db.path.exists()


class TestRecordLedger:
    def test_row_carries_ledger_facts(self, db):
        run_id = db.record_ledger(make_ledger(), source="unit")
        (run,) = db.runs(with_counters=True)
        assert run["id"] == run_id
        assert run["name"] == "e_test"
        assert run["wall_seconds"] == 1.0
        assert run["git_sha"].startswith("deadbeef")
        assert run["jobs"] == 2
        assert run["kernel"] is True
        assert run["vector"] is True
        assert run["source"] == "unit"
        assert run["counters"]["oracle.measurements"] == 100.0
        assert run["data"] == {"rows": [["lru", 1]], "speedup": 2.5}

    def test_reingest_is_idempotent(self, db):
        ledger = make_ledger()
        assert db.record_ledger(ledger) is not None
        assert db.record_ledger(ledger) is None
        assert len(db.runs()) == 1

    def test_duplicate_increments_counter(self, db):
        obs_metrics.DEFAULT.reset()
        ledger = make_ledger()
        db.record_ledger(ledger)
        db.record_ledger(ledger)
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters["history.record"] == 1
        assert counters["history.duplicate"] == 1

    def test_runs_newest_first_and_filterable(self, db):
        db.record_ledger(make_ledger(created="2026-08-01T00:00:00Z", wall=1.0))
        db.record_ledger(make_ledger(created="2026-08-02T00:00:00Z", wall=2.0))
        db.record_ledger(make_ledger(name="other"))
        runs = db.runs(name="e_test")
        assert [run["wall_seconds"] for run in runs] == [2.0, 1.0]
        assert len(db.runs()) == 3
        assert len(db.runs(limit=1)) == 1

    def test_maps_attach_to_the_run(self, db):
        maps = [{"cells": 16, "jobs": 4, "seconds": 0.5,
                 "sources": {"parallel": 16}}]
        db.record_ledger(make_ledger(), maps=maps)
        (run,) = db.runs()
        assert run["maps"] == maps


class _FailingConnection:
    """A connection whose every statement fails as a locked database does."""

    def execute(self, *args, **kwargs):
        raise sqlite3.OperationalError("database is locked")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def close(self):
        pass


class TestReadErrors:
    """Every read a sqlite error cuts short counts ``history.read_errors``."""

    @pytest.fixture
    def failing(self, db):
        db.record_ledger(make_ledger())
        db.close()
        db._conn = _FailingConnection()
        db._pid = os.getpid()
        obs_metrics.DEFAULT.reset()
        return db

    @pytest.mark.parametrize("read, empty", [
        (lambda db: db.runs(), []),
        (lambda db: db.counters_for(1), {}),
        (lambda db: db.experiments(), []),
        (lambda db: db.stats()["total_runs"], 0),
        (lambda db: db.clear(), 0),
    ], ids=["runs", "counters_for", "experiments", "stats", "clear"])
    def test_failed_query_is_counted(self, failing, read, empty):
        assert read(failing) == empty
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters["history.read_errors"] == 1

    def test_failed_open_is_counted(self, db, monkeypatch):
        db.record_ledger(make_ledger())
        db.close()

        def locked():
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(db, "_open", locked)
        obs_metrics.DEFAULT.reset()
        assert db.runs() == []
        assert db.experiments() == []
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters["history.read_errors"] == 2


class TestCorruption:
    def test_corrupt_file_recovered_once(self, tmp_path):
        path = tmp_path / "history-v2.sqlite"
        path.write_bytes(b"this is not sqlite at all" * 40)
        db = obs_history.HistoryDB(path)
        obs_metrics.DEFAULT.reset()
        assert db.record_ledger(make_ledger()) is not None
        assert len(db.runs()) == 1
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters.get("history.corrupt") == 1
        db.close()

    def test_stats_on_missing_file(self, db):
        info = db.stats()
        assert info["exists"] is False
        assert info["total_runs"] == 0


class TestIngestPaths:
    def test_directory_backfill(self, tmp_path, db, monkeypatch):
        monkeypatch.setattr(obs_history, "get_history", lambda: db)
        results = tmp_path / "results"
        results.mkdir()
        obs_ledger.write_ledger(
            make_ledger(), results / "e_test.ledger.json"
        )
        obs_ledger.write_ledger(
            make_ledger(name="bench_kernel"), results / "bench_kernel.ledger.json"
        )
        (results / "ignored.txt").write_text("not ingested")
        (results / "ignored.json").write_text("{}")
        report = obs_history.ingest_paths([results])
        assert report["recorded"] == 2
        assert report["errors"] == []
        # Second pass: everything is a duplicate.
        again = obs_history.ingest_paths([results])
        assert again["recorded"] == 0
        assert again["duplicates"] == 2

    def test_broken_inputs_reported_not_raised(self, tmp_path, db, monkeypatch):
        monkeypatch.setattr(obs_history, "get_history", lambda: db)
        results = tmp_path / "results"
        results.mkdir()
        (results / "trunc.ledger.json").write_text('{"half')
        v1 = make_ledger().to_dict()
        v1["ledger_schema_version"] = 1
        (results / "v1.ledger.json").write_text(json.dumps(v1))
        report = obs_history.ingest_paths(
            [results, results / "absent.ledger.json"]
        )
        assert report["recorded"] == 0
        assert len(report["errors"]) == 3
        assert any("ledger_schema_version 1" in reason
                   for _, reason in report["errors"])

    def test_refused_writes_count_as_dropped(self, tmp_path, db, monkeypatch):
        monkeypatch.setattr(obs_history, "get_history", lambda: db)
        results = tmp_path / "results"
        results.mkdir()
        obs_ledger.write_ledger(make_ledger(), results / "e_test.ledger.json")
        obs_ledger.write_ledger(
            make_ledger(name="bench_kernel"), results / "bench_kernel.ledger.json"
        )

        def locked():
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(db, "_open", locked)
        obs_metrics.DEFAULT.reset()
        report = obs_history.ingest_paths([results])
        assert (report["recorded"], report["duplicates"], report["dropped"]) == (0, 0, 2)
        assert {status for _, status in report["files"]} == {"dropped"}
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters["history.dropped"] == 2
        assert "history.duplicate" not in counters
        assert db.dropped == 2

    def test_clear_removes_everything(self, db, monkeypatch):
        monkeypatch.setattr(obs_history, "get_history", lambda: db)
        db.record_ledger(make_ledger())
        db.record_ledger(make_ledger(name="other"))
        assert obs_history.clear() == 2
        assert db.runs() == []
