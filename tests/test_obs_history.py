"""Tests for repro.obs.history: the run-history database.

Covers the store discipline (WAL file beside the automaton store,
read-paths-never-create, corrupt-unlink recovery), idempotent
fingerprinted ingestion of ledgers and BENCH points, and the backfill
walker's tolerance of broken inputs.
"""

import json
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
        artifacts=[],
    )
    base.update(overrides)
    return obs_ledger.RunLedger(**base)


@pytest.fixture
def db(tmp_path):
    handle = obs_history.HistoryDB(tmp_path / "history-v1.sqlite")
    yield handle
    handle.close()


class TestLocation:
    def test_follows_the_automaton_store_directory(self, tmp_path):
        from repro.kernels import store

        assert obs_history.history_path() == (
            store.cache_dir() / f"history-v{obs_history.SCHEMA_VERSION}.sqlite"
        )

    def test_read_paths_never_create_the_file(self, db):
        assert db.runs() == []
        assert db.stats()["total_runs"] == 0
        assert db.experiments() == []
        assert db.bench_points() == []
        assert not db.path.exists()

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


class TestBenchPoints:
    PAYLOAD = {
        "schema_version": 1,
        "name": "bench_kernel",
        "created": "2026-08-07T00:00:00Z",
        "params": {"reps": 3},
        "data": {"speedup": 12.5, "interp_seconds": 5.0},
        "metrics": {},
    }

    def test_record_and_query(self, db):
        assert db.record_bench_point(dict(self.PAYLOAD)) is not None
        (point,) = db.bench_points(bench="bench_kernel")
        assert point["data"]["speedup"] == 12.5

    def test_idempotent(self, db):
        db.record_bench_point(dict(self.PAYLOAD))
        assert db.record_bench_point(dict(self.PAYLOAD)) is None
        assert len(db.bench_points()) == 1

    def test_invalid_envelope_raises_before_touching_db(self, db):
        from repro.errors import ResultSchemaError

        with pytest.raises(ResultSchemaError):
            db.record_bench_point({"name": "x"})
        assert not db.path.exists()


class TestCorruption:
    def test_corrupt_file_recovered_once(self, tmp_path):
        path = tmp_path / "history-v1.sqlite"
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
        assert info["total_bench_points"] == 0


class TestIngestPaths:
    def test_directory_backfill(self, tmp_path, db, monkeypatch):
        monkeypatch.setattr(obs_history, "get_history", lambda: db)
        results = tmp_path / "results"
        results.mkdir()
        obs_ledger.write_ledger(
            make_ledger(), results / "e_test.ledger.json"
        )
        (results / "BENCH_kernel.json").write_text(
            json.dumps(TestBenchPoints.PAYLOAD)
        )
        (results / "ignored.txt").write_text("not ingested")
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
        (results / "BENCH_bad.json").write_text('{"name": "x"}')
        report = obs_history.ingest_paths(
            [results, results / "absent.ledger.json"]
        )
        assert report["recorded"] == 0
        assert len(report["errors"]) == 3

    def test_refused_writes_count_as_dropped(self, tmp_path, db, monkeypatch):
        monkeypatch.setattr(obs_history, "get_history", lambda: db)
        results = tmp_path / "results"
        results.mkdir()
        obs_ledger.write_ledger(make_ledger(), results / "e_test.ledger.json")
        (results / "BENCH_kernel.json").write_text(
            json.dumps(TestBenchPoints.PAYLOAD)
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
        db.record_bench_point(dict(TestBenchPoints.PAYLOAD))
        assert obs_history.clear() == 2
        assert db.runs() == []
        assert db.bench_points() == []
