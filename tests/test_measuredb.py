"""The persistent measurement DB, its service layer, and the DB oracle.

Three layers under test (see ``repro.measuredb``):

* :class:`MeasurementDB` — WAL sqlite store: round trips, upserts,
  corruption fallback, disabled mode, maintenance;
* :class:`OracleService` — preloading, batching, in-flight
  coalescing, write-back, ``db.*`` counters;
* :class:`MeasurementDBOracle` — provenance gating and the logical
  cost accounting that keeps cold and warm inference results
  bit-identical.

Plus the concurrency contract: N writer processes share one database
through WAL, a writer killed mid-transaction loses only its own batch,
and ``--jobs N`` runner workers produce results bit-identical to serial.
"""

from __future__ import annotations

import multiprocessing
import os
import sqlite3

import pytest

from repro import measuredb
from repro.core.inference import PermutationInference
from repro.core.oracle import SimulatedSetOracle, VotingOracle
from repro.errors import MeasurementError
from repro.measuredb import db as mdb
from repro.obs import metrics as obs_metrics
from repro.policies import make_policy
from repro.runner import ExperimentRunner
from repro.util.rng import SeededRng

SCOPE = "sim|policy:lru|()|ways=4"


@pytest.fixture(autouse=True)
def _fresh_metrics():
    """Counter assertions below need a per-test zero point."""
    obs_metrics.DEFAULT.reset()
    yield


def _counters() -> dict:
    return obs_metrics.DEFAULT.snapshot().get("counters", {})


def _row(setup, probe, misses, hits=None):
    return (mdb.request_digest(setup, probe), len(setup), len(probe), misses, hits)


class TestRequestDigest:
    def test_nested_pair_invariant(self):
        # Same concatenation, different split -> different measurements.
        assert mdb.request_digest([1], [2, 3]) != mdb.request_digest([1, 2], [3])

    def test_sequence_type_agnostic(self):
        assert mdb.request_digest([1, 2], (3,)) == mdb.request_digest((1, 2), [3])


class TestDirectoryRules:
    def test_follows_automaton_store(self, tmp_path):
        from repro.kernels import store

        store.set_cache_dir(tmp_path / "shared")
        assert mdb.db_dir() == tmp_path / "shared"
        assert mdb.db_path().name == mdb.DB_FILENAME

    def test_explicit_override_wins(self, tmp_path):
        mdb.set_db_dir(tmp_path / "explicit")
        assert mdb.db_dir() == tmp_path / "explicit"
        mdb.set_db_dir(None)
        assert mdb.db_dir() != tmp_path / "explicit"

    def test_get_db_tracks_directory_changes(self, tmp_path):
        mdb.set_db_dir(tmp_path / "one")
        first = mdb.get_db()
        mdb.set_db_dir(tmp_path / "two")
        second = mdb.get_db()
        assert first is not second
        assert second.path.parent == tmp_path / "two"


class TestMeasurementDB:
    def test_round_trip(self, tmp_path):
        database = mdb.MeasurementDB(tmp_path / mdb.DB_FILENAME)
        rows = [_row([0, 1], [2], 1), _row([], [0, 1, 2, 3], 4)]
        assert database.put_many(SCOPE, rows) == 2
        digests = [row[0] for row in rows]
        found = database.get_many(SCOPE, digests)
        assert found[digests[0]] == (1, None)
        assert found[digests[1]] == (4, None)
        assert database.get_many("other-scope", digests) == {}
        assert set(database.load_scope(SCOPE)) == set(digests)

    def test_upsert_fills_without_clobbering(self, tmp_path):
        # Writes to the same row merge, not erase each other's column:
        # a hit vector in an older database file survives a miss-count
        # write (the library itself writes hits as NULL).
        database = mdb.MeasurementDB(tmp_path / mdb.DB_FILENAME)
        digest = mdb.request_digest((), [0, 1])
        database.put_many(SCOPE, [(digest, 0, 2, 2, None)])
        database.put_many(SCOPE, [(digest, 0, 2, None, b"\x00\x00")])
        assert database.get_many(SCOPE, [digest])[digest] == (2, b"\x00\x00")

    def test_clear_by_scope_and_all(self, tmp_path):
        database = mdb.MeasurementDB(tmp_path / mdb.DB_FILENAME)
        database.put_many("a", [_row([], [0], 1)])
        database.put_many("b", [_row([], [1], 1)])
        assert database.clear("a") == 1
        assert database.load_scope("a") == {}
        assert len(database.load_scope("b")) == 1
        assert database.clear() == 1

    def test_export_rows(self, tmp_path):
        database = mdb.MeasurementDB(tmp_path / mdb.DB_FILENAME)
        database.put_many(SCOPE, [_row([9], [0, 1], 2, b"\x00\x00")])
        (row,) = list(database.export_rows())
        assert row["scope"] == SCOPE
        assert (row["setup_len"], row["probe_len"]) == (1, 2)
        assert row["misses"] == 2
        assert row["hits"] == [0, 0]
        assert list(database.export_rows("no-such-scope")) == []

    def test_stats(self, tmp_path):
        database = mdb.MeasurementDB(tmp_path / mdb.DB_FILENAME)
        database.put_many("a", [_row([], [0], 1), _row([], [1], 0)])
        info = database.stats()
        assert info["total_rows"] == 2
        assert info["scopes"] == [{"scope": "a", "rows": 2}]
        assert info["schema_version"] == mdb.SCHEMA_VERSION
        assert info["enabled"] is True
        assert info["total_bytes"] > 0

    def test_disabled_mode_is_pass_through(self, tmp_path):
        database = mdb.MeasurementDB(tmp_path / mdb.DB_FILENAME)
        with mdb.db_disabled():
            assert database.put_many(SCOPE, [_row([], [0], 1)]) == 0
            assert database.get_many(SCOPE, [mdb.request_digest([], [0])]) == {}
        assert not (tmp_path / mdb.DB_FILENAME).exists()

    def test_corrupt_file_recovers_once(self, tmp_path):
        path = tmp_path / mdb.DB_FILENAME
        database = mdb.MeasurementDB(path)
        rows = [_row([], [0], 1)]
        database.put_many(SCOPE, rows)
        database.close()
        path.write_bytes(b"this is not a sqlite database" * 64)
        reopened = mdb.MeasurementDB(path)
        # The lookup degrades to a miss, never raises...
        assert reopened.get_many(SCOPE, [rows[0][0]]) == {}
        assert _counters().get("db.corrupt", 0) == 1
        # ...and the store works again after the rebuild.
        assert reopened.put_many(SCOPE, rows) == 1
        assert rows[0][0] in reopened.get_many(SCOPE, [rows[0][0]])

    def test_second_corruption_goes_dead(self, tmp_path):
        path = tmp_path / mdb.DB_FILENAME
        database = mdb.MeasurementDB(path)
        database.put_many(SCOPE, [_row([], [0], 1)])
        database.close()
        path.write_bytes(b"garbage" * 64)
        database = mdb.MeasurementDB(path)
        database.put_many(SCOPE, [_row([], [0], 1)])  # triggers rebuild 1
        database.close()
        path.write_bytes(b"garbage again" * 64)
        assert database.get_many(SCOPE, [mdb.request_digest([], [0])]) == {}
        assert database._dead is True
        assert database.stats()["enabled"] is False
        # Dead handles are cheap no-ops from here on.
        assert database.put_many(SCOPE, [_row([], [0], 1)]) == 0

    def test_unwritable_directory_degrades(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root ignores directory permission bits")
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        os.chmod(blocked, 0o500)
        try:
            database = mdb.MeasurementDB(blocked / "sub" / mdb.DB_FILENAME)
            assert database.put_many(SCOPE, [_row([], [0], 1)]) == 0
            assert database.get_many(SCOPE, [mdb.request_digest([], [0])]) == {}
        finally:
            os.chmod(blocked, 0o700)


class _CountingInner(SimulatedSetOracle):
    """Deterministic inner that records what the service delegates."""

    def __init__(self, ways: int = 4) -> None:
        super().__init__(make_policy("lru", ways))
        self.query_calls = 0
        self.delegated = 0

    def query(self, requests):
        self.query_calls += 1
        self.delegated += len(requests)
        return super().query(requests)


class TestOracleService:
    REQUESTS = [
        ([], [0, 1, 2, 3]),
        ([0, 1, 2, 3], [0]),
        ([], [0, 1, 2, 3]),  # in-batch duplicate
        ([0, 1, 2, 3], [4, 0]),
    ]

    def test_coalesces_and_writes_back(self):
        inner = _CountingInner()
        service = measuredb.OracleService(SCOPE)
        results = service.query(self.REQUESTS, inner)
        assert results == SimulatedSetOracle(make_policy("lru", 4)).query(self.REQUESTS)
        # The duplicate collapsed: one batched call, three measurements.
        assert inner.query_calls == 1
        assert inner.delegated == 3
        counters = _counters()
        assert counters["db.hit"] == 1
        assert counters["db.miss"] == 3
        assert counters["db.write"] == 3

    def test_repeat_query_serves_from_memo(self):
        inner = _CountingInner()
        service = measuredb.OracleService(SCOPE)
        first = service.query(self.REQUESTS, inner)
        obs_metrics.DEFAULT.reset()
        again = service.query(self.REQUESTS, inner)
        assert again == first
        assert inner.query_calls == 1  # nothing new delegated
        assert _counters().get("db.miss", 0) == 0

    def test_warm_process_preloads_scope(self):
        inner = _CountingInner()
        first = measuredb.OracleService(SCOPE).query(self.REQUESTS, inner)
        # A "new process": fresh service memos, same database files.
        measuredb.reset()
        obs_metrics.DEFAULT.reset()
        fresh_inner = _CountingInner()
        warm = measuredb.shared_service(SCOPE).query(self.REQUESTS, fresh_inner)
        assert warm == first
        counters = _counters()
        assert counters.get("db.miss", 0) == 0
        assert fresh_inner.query_calls == 0
        assert counters["db.preload"] == 3
        assert counters["db.hit"] == len(self.REQUESTS)

    def test_scopes_are_isolated(self):
        inner = _CountingInner()
        measuredb.OracleService("scope-a").query([([], [0, 1])], inner)
        fresh = _CountingInner()
        measuredb.OracleService("scope-b").query([([], [0, 1])], fresh)
        assert fresh.delegated == 1  # nothing leaked across scopes

    def test_shared_service_is_per_scope_singleton(self):
        assert measuredb.shared_service("x") is measuredb.shared_service("x")
        assert measuredb.shared_service("x") is not measuredb.shared_service("y")

    def test_empty_scope_rejected(self):
        with pytest.raises(ValueError):
            measuredb.OracleService("")


class TestMeasurementDBOracle:
    def test_requires_provenance(self):
        noisy = SimulatedSetOracle(make_policy("random", 4, rng=SeededRng(0)))
        with pytest.raises(MeasurementError):
            measuredb.MeasurementDBOracle(noisy)

    def test_wrap_if_enabled(self):
        deterministic = SimulatedSetOracle(make_policy("lru", 4))
        wrapped = measuredb.wrap_if_enabled(deterministic)
        assert isinstance(wrapped, measuredb.MeasurementDBOracle)
        assert wrapped.provenance() == deterministic.provenance()

        noisy = SimulatedSetOracle(make_policy("random", 4, rng=SeededRng(0)))
        assert measuredb.wrap_if_enabled(noisy) is noisy

        mdb.set_db_enabled(False)
        try:
            assert measuredb.wrap_if_enabled(deterministic) is deterministic
        finally:
            mdb.set_db_enabled(True)

    def test_logical_cost_advances_even_on_db_hits(self):
        oracle = measuredb.wrap_if_enabled(SimulatedSetOracle(make_policy("lru", 4)))
        oracle.query([([], [0, 1, 2]), ([], [0, 1, 2])])
        oracle.count_misses([], [0, 1, 2])  # served from the memo now
        assert oracle.measurements == 3
        assert oracle.accesses == 9

    def test_voting_oracle_composes(self):
        voter = VotingOracle(SimulatedSetOracle(make_policy("lru", 4)), repetitions=3)
        wrapped = measuredb.wrap_if_enabled(voter)
        assert isinstance(wrapped, measuredb.MeasurementDBOracle)
        assert wrapped.scope.startswith("vote[majorityx3]|sim|")
        assert wrapped.query([([], [0, 1, 2, 3])]) == [4]

    def test_cold_and_warm_inference_results_bit_identical(self):
        plain = PermutationInference(
            SimulatedSetOracle(make_policy("lru", 4)), ways=4
        ).infer()

        cold_oracle = measuredb.wrap_if_enabled(
            SimulatedSetOracle(make_policy("lru", 4))
        )
        cold = PermutationInference(cold_oracle, ways=4).infer()

        measuredb.reset()  # fresh memos; the sqlite file survives
        obs_metrics.DEFAULT.reset()
        warm_oracle = measuredb.wrap_if_enabled(
            SimulatedSetOracle(make_policy("lru", 4))
        )
        warm = PermutationInference(warm_oracle, ways=4).infer()

        assert cold == plain
        assert warm == cold  # same spec, same measurements, same accesses
        counters = _counters()
        assert counters.get("db.miss", 0) == 0
        assert counters.get("oracle.measurements", 0) == 0  # no real measurement
        assert counters["db.hit"] == warm.measurements


# -- concurrency: module-level workers (fork context) ------------------------

def _worker_put_rows(args):
    """Write one batch from a fresh process; report (written, dropped)."""
    directory, worker, rows_n = args
    database = mdb.MeasurementDB(os.path.join(directory, mdb.DB_FILENAME))
    rows = [
        (mdb.request_digest([worker], [i]), 1, 1, worker * 1000 + i, None)
        for i in range(rows_n)
    ]
    written = database.put_many("concurrent", rows)
    database.close()
    return written, _counters().get("db.dropped", 0)


def _killed_mid_transaction(path):
    conn = sqlite3.connect(path)
    conn.execute("BEGIN")
    conn.execute(
        "INSERT INTO measurements"
        " (scope, digest, setup_len, probe_len, misses, hits)"
        " VALUES ('torn', X'00', 0, 1, 7, NULL)"
    )
    os._exit(1)  # die without committing: the batch must vanish


def _infer_cell(task):
    name, ways = task
    oracle = measuredb.wrap_if_enabled(SimulatedSetOracle(make_policy(name, ways)))
    result = PermutationInference(oracle, ways=ways).infer()
    return (name, result.succeeded, result.measurements, result.accesses)


class TestConcurrency:
    def test_many_writer_processes_share_one_database(self, tmp_path):
        jobs = [(str(tmp_path), worker, 25) for worker in range(4)]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(4) as pool:
            reports = pool.map(_worker_put_rows, jobs)
        # Every writer opens the fresh file at once; the contended first
        # open is retried, so no write is dropped.
        assert reports == [(25, 0)] * 4
        database = mdb.MeasurementDB(tmp_path / mdb.DB_FILENAME)
        rows = database.load_scope("concurrent")
        assert len(rows) == 100
        for worker in range(4):
            for i in range(25):
                digest = mdb.request_digest([worker], [i])
                assert rows[digest] == (worker * 1000 + i, None)

    def test_writer_killed_mid_transaction_loses_only_its_batch(self, tmp_path):
        database = mdb.MeasurementDB(tmp_path / mdb.DB_FILENAME)
        committed = _row([], [0], 1)
        database.put_many(SCOPE, [committed])
        database.close()
        ctx = multiprocessing.get_context("fork")
        victim = ctx.Process(
            target=_killed_mid_transaction,
            args=(str(tmp_path / mdb.DB_FILENAME),),
        )
        victim.start()
        victim.join()
        assert victim.exitcode == 1
        reopened = mdb.MeasurementDB(tmp_path / mdb.DB_FILENAME)
        assert reopened.load_scope("torn") == {}  # uncommitted row gone
        assert committed[0] in reopened.load_scope(SCOPE)
        assert _counters().get("db.corrupt", 0) == 0

    def test_parallel_jobs_match_serial_and_warm_the_db(self):
        tasks = [("lru", 4), ("fifo", 4), ("plru", 4), ("lru", 8)]
        serial = [_infer_cell(task) for task in tasks]
        measuredb.reset()
        mdb.get_db().clear()
        obs_metrics.DEFAULT.reset()

        parallel = ExperimentRunner(jobs=2).map(_infer_cell, tasks)
        assert parallel == serial  # bit-identical InferenceResult fields

        # The workers wrote through the shared WAL database: a warm
        # serial rerun is answered without any real measurement.
        measuredb.reset()
        obs_metrics.DEFAULT.reset()
        warm = [_infer_cell(task) for task in tasks]
        assert warm == serial
        counters = _counters()
        assert counters.get("db.miss", 0) == 0
        assert counters.get("oracle.measurements", 0) == 0
