"""Tests for the repro-cache command line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import ledger as obs_ledger
from repro.obs import read_jsonl, validate_result_file


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_infer_defaults(self):
        args = build_parser().parse_args(["infer", "--processor", "atom-d525-like"])
        assert args.level == "L1"
        assert args.repetitions == 1

    def test_unknown_processor_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["infer", "--processor", "z80"])


class TestCommands:
    def test_list_processors(self, capsys):
        assert main(["list-processors"]) == 0
        out = capsys.readouterr().out
        assert "atom-d525-like" in out
        assert "nehalem-like" in out

    def test_list_policies(self, capsys):
        assert main(["list-policies"]) == 0
        out = capsys.readouterr().out
        assert "lru" in out.splitlines()
        assert "plru" in out.splitlines()

    def test_infer_with_check(self, capsys):
        code = main(
            ["infer", "--processor", "atom-d525-like", "--level", "L1", "--check"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "lru (permutation)" in out
        assert "MATCH" in out

    def test_evaluate_prints_table(self, capsys):
        code = main(["evaluate", "--policies", "lru,fifo", "--size", "4096", "--ways", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "workload" in out
        assert "loop-friendly" in out

    def test_predictability_prints_metrics(self, capsys):
        code = main(["predictability", "--policies", "lru,fifo", "--ways", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "evict" in out
        # LRU evict at 4 ways is 4, FIFO is 7.
        lines = [line for line in out.splitlines() if line.startswith("lru")]
        assert lines and "| 4" in lines[0].replace("  ", " ")


class TestQueryCommand:
    def test_query_simulated_policy(self, capsys):
        assert main(["query", "--policy", "lru", "--ways", "2", "a b a @ a?"]) == 0
        assert capsys.readouterr().out.strip() == "a=hit"

    def test_query_fifo_differs(self, capsys):
        assert main(["query", "--policy", "fifo", "--ways", "2", "a b a @ a?"]) == 0
        assert capsys.readouterr().out.strip() == "a=miss"

    def test_query_processor(self, capsys):
        code = main(
            ["query", "--processor", "atom-d525-like", "--level", "L1",
             "a 6*@ a?"]
        )
        assert code == 0
        # 6 fresh blocks into a 6-way LRU set evict a.
        assert capsys.readouterr().out.strip() == "a=miss"

    def test_query_parse_error_reported(self, capsys):
        assert main(["query", "--policy", "lru", "2*( a"]) == 2
        assert "error" in capsys.readouterr().err


class TestObservability:
    def test_query_writes_trace_and_metrics(self, tmp_path, capsys):
        trace_file = tmp_path / "run.jsonl"
        metrics_file = tmp_path / "run.metrics.json"
        code = main(
            ["query", "--policy", "lru", "--ways", "2",
             "--trace", str(trace_file), "--metrics", str(metrics_file),
             "a b a?"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "a=hit"
        events = read_jsonl(trace_file)
        assert any(e["kind"] == "oracle.query" for e in events)
        result = validate_result_file(metrics_file)
        assert result.name == "cli-query"
        assert result.params["policy"] == "lru"
        assert result.metrics["counters"]["oracle.measurements"] >= 1

    def test_evaluate_metrics_sidecar_validates(self, tmp_path, capsys):
        metrics_file = tmp_path / "eval.metrics.json"
        code = main(
            ["evaluate", "--policies", "lru,fifo", "--size", "4096",
             "--ways", "4", "--metrics", str(metrics_file)]
        )
        assert code == 0
        result = validate_result_file(metrics_file)
        counters = result.metrics["counters"]
        cells = sum(
            count for name, count in counters.items()
            if name.startswith("runner.cells.")
        )
        assert cells > 0

    def test_trace_subcommand_filters(self, tmp_path, capsys):
        trace_file = tmp_path / "run.jsonl"
        assert main(
            ["query", "--policy", "lru", "--ways", "2",
             "--trace", str(trace_file), "a b a? c?"]
        ) == 0
        capsys.readouterr()
        assert main(["trace", str(trace_file), "--kind", "oracle."]) == 0
        out = capsys.readouterr().out
        assert "oracle.query" in out
        assert main(["trace", str(trace_file), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "oracle.query" in out
        assert "total" in out

    def test_trace_subcommand_where_and_limit(self, tmp_path, capsys):
        trace_file = tmp_path / "run.jsonl"
        events = [
            {"seq": 1, "kind": "oracle.query", "misses": 0},
            {"seq": 2, "kind": "oracle.query", "misses": 2},
            {"seq": 3, "kind": "runner.cell", "source": "serial"},
        ]
        trace_file.write_text(
            "\n".join(json.dumps(event) for event in events) + "\n"
        )
        assert main(["trace", str(trace_file), "--where", "misses=2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and "misses=2" in out[0]
        assert main(["trace", str(trace_file), "--limit", "1"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_trace_subcommand_bad_where(self, tmp_path, capsys):
        trace_file = tmp_path / "run.jsonl"
        trace_file.write_text("")
        assert main(["trace", str(trace_file), "--where", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_trace_subcommand_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "absent.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_metrics_keeps_the_kernel_engaged(self, tmp_path, capsys):
        """--metrics alone must not disable the compiled fast path."""
        from repro.runner import clear_memo

        clear_memo()  # memoized cells would bypass the kernel entirely
        metrics_file = tmp_path / "eval.metrics.json"
        code = main(
            ["evaluate", "--policies", "lru", "--size", "4096",
             "--ways", "4", "--metrics", str(metrics_file)]
        )
        assert code == 0
        counters = validate_result_file(metrics_file).metrics["counters"]
        assert counters.get("kernel.calls", 0) > 0

    def test_metrics_scoped_per_invocation(self, tmp_path, capsys):
        """Back-to-back commands in one process must not bleed counters."""
        first = tmp_path / "a.metrics.json"
        second = tmp_path / "b.metrics.json"
        argv = ["query", "--policy", "lru", "--ways", "2", "a b a?"]
        assert main(argv + ["--metrics", str(first)]) == 0
        assert main(argv + ["--metrics", str(second)]) == 0
        capsys.readouterr()
        counters_a = validate_result_file(first).metrics["counters"]
        counters_b = validate_result_file(second).metrics["counters"]
        assert counters_a == counters_b


class TestCacheCommand:
    def test_cache_warm_then_stats(self, tmp_path, capsys):
        store_dir = tmp_path / "artifacts"
        code = main(
            ["cache", "warm", "--dir", str(store_dir),
             "--policies", "lru,fifo,random", "--ways", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "persisted 2/3 automata" in out
        assert "unsupported" in out  # random has no automaton
        assert main(["cache", "stats", "--dir", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries: 2" in out
        assert "lru" in out and "fifo" in out

    def test_cache_clear(self, tmp_path, capsys):
        store_dir = tmp_path / "artifacts"
        assert main(["cache", "warm", "--dir", str(store_dir),
                     "--policies", "plru", "--ways", "4"]) == 0
        assert main(["cache", "clear", "--dir", str(store_dir)]) == 0
        assert "removed 1 artifact(s)" in capsys.readouterr().out
        assert main(["cache", "stats", "--dir", str(store_dir)]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_cache_stats_on_empty_store(self, tmp_path, capsys):
        assert main(["cache", "stats", "--dir", str(tmp_path / "nope")]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_cache_dir_override_is_restored(self, tmp_path):
        from repro.kernels import store

        before = store.cache_dir()
        assert main(["cache", "stats", "--dir", str(tmp_path / "elsewhere")]) == 0
        assert store.cache_dir() == before

    def test_cache_action_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])


class TestLedgerAndReport:
    def _run_with_metrics(self, tmp_path, name="run"):
        metrics_file = tmp_path / f"{name}.metrics.json"
        assert main(
            ["query", "--policy", "lru", "--ways", "2",
             "--metrics", str(metrics_file), "a b a?"]
        ) == 0
        return metrics_file

    def test_metrics_sidecar_brings_a_ledger(self, tmp_path, capsys):
        metrics_file = self._run_with_metrics(tmp_path)
        ledger_path = obs_ledger.ledger_path_for(metrics_file)
        assert ledger_path.exists()
        ledger = obs_ledger.read_ledger(ledger_path)
        assert ledger.name == "cli-query"
        assert ledger.wall_seconds >= 0
        assert ledger.counters.get("oracle.measurements", 0) >= 1
        artifact_names = [a["path"] for a in ledger.artifacts]
        assert metrics_file.name in artifact_names

    def test_report_renders_a_single_ledger(self, tmp_path, capsys):
        metrics_file = self._run_with_metrics(tmp_path)
        capsys.readouterr()
        ledger_path = obs_ledger.ledger_path_for(metrics_file)
        assert main(["report", str(ledger_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-query" in out
        assert "oracle.measurements" in out

    def test_report_diff_renders_both_runs(self, tmp_path, capsys):
        a = obs_ledger.ledger_path_for(self._run_with_metrics(tmp_path, "a"))
        b = obs_ledger.ledger_path_for(self._run_with_metrics(tmp_path, "b"))
        capsys.readouterr()
        assert main(["report", "--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "wall_seconds" in out
        assert "oracle.measurements" in out

    def test_report_diff_needs_exactly_two(self, tmp_path, capsys):
        path = obs_ledger.ledger_path_for(self._run_with_metrics(tmp_path))
        capsys.readouterr()
        assert main(["report", "--diff", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.ledger.json")]) == 2
        assert "error" in capsys.readouterr().err


class TestDbCommand:
    def _populate(self, directory):
        from repro.measuredb import db as mdb

        database = mdb.MeasurementDB(directory / mdb.DB_FILENAME)
        database.put_many(
            "scope-a", [(mdb.request_digest([], [0]), 0, 1, 1, None)]
        )
        database.put_many(
            "scope-b", [(mdb.request_digest([], [1]), 0, 1, 0, b"\x01")]
        )
        database.close()

    def test_db_stats(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert main(["db", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scope-a" in out and "scope-b" in out
        assert "rows: 2 in 2 scope(s)" in out

    def test_db_export_and_clear_scope(self, tmp_path, capsys):
        self._populate(tmp_path)
        output = tmp_path / "rows.jsonl"
        assert main(["db", "export", "--dir", str(tmp_path),
                     "--output", str(output)]) == 0
        rows = [json.loads(line) for line in output.read_text().splitlines()]
        assert {row["scope"] for row in rows} == {"scope-a", "scope-b"}
        capsys.readouterr()
        assert main(["db", "clear", "--dir", str(tmp_path),
                     "--scope", "scope-a"]) == 0
        assert "removed 1 row(s)" in capsys.readouterr().out
        assert main(["db", "export", "--dir", str(tmp_path)]) == 0
        remaining = capsys.readouterr().out.splitlines()
        assert len(remaining) == 1 and json.loads(remaining[0])["scope"] == "scope-b"

    def test_db_stats_on_missing_database(self, tmp_path, capsys):
        assert main(["db", "stats", "--dir", str(tmp_path / "nope")]) == 0
        assert "rows: 0 in 0 scope(s)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, landed, printed",
        [
            (["cache", "warm", "--policies", "lru", "--ways", "2"],
             "v1/lru-*.autom", "persisted 1/1"),
            (["db", "stats"], "measurements-v1.sqlite", "rows: 0 "),
            (["history", "stats"], "history-v1.sqlite", "runs: 1 "),
            (["dash", "-o", "{tmp}/dash"], "history-v1.sqlite", "(1 run(s)"),
        ],
        ids=["cache", "db", "history", "dash"],
    )
    def test_db_dir_override_is_restored(self, tmp_path, capsys, argv, landed, printed):
        from tests.test_obs_history import make_ledger
        from repro.kernels import store
        from repro.obs import history as obs_history

        elsewhere = tmp_path / "elsewhere"
        seeded = obs_history.HistoryDB(elsewhere / obs_history.HISTORY_FILENAME)
        seeded.record_ledger(make_ledger())
        seeded.close()
        before = store.cache_dir()
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        # --dir belongs to the subcommand itself, ahead of any action.
        assert main(argv[:1] + ["--dir", str(elsewhere)] + argv[1:]) == 0
        assert printed in capsys.readouterr().out
        assert list(elsewhere.glob(landed))
        assert store.cache_dir() == before

    def test_db_action_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["db"])


class TestInferWithDb:
    def test_warm_rerun_hits_only_the_db(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "stores")
        cold_metrics = tmp_path / "cold.metrics.json"
        warm_metrics = tmp_path / "warm.metrics.json"
        base = ["infer", "--processor", "atom-d525-like", "--level", "L1",
                "--check", "--db", "--cache-dir", cache_dir]
        assert main(base + ["--metrics", str(cold_metrics)]) == 0
        cold_out = capsys.readouterr().out
        assert main(base + ["--metrics", str(warm_metrics)]) == 0
        warm_out = capsys.readouterr().out
        # Identical finding AND identical logical cost line.
        assert warm_out == cold_out
        cold = obs_ledger.read_ledger(obs_ledger.ledger_path_for(cold_metrics))
        warm = obs_ledger.read_ledger(obs_ledger.ledger_path_for(warm_metrics))
        assert cold.counters.get("db.miss", 0) > 0
        assert cold.counters.get("db.write", 0) == cold.counters["db.miss"]
        assert warm.counters.get("db.miss", 0) == 0
        assert warm.counters.get("oracle.measurements", 0) == 0
        assert warm.counters["db.hit"] == cold.counters["db.miss"]

    def test_noisy_platform_reports_unwrapped(self, tmp_path, capsys):
        code = main(["infer", "--processor", "atom-d525-like", "--noise", "0.01",
                     "--repetitions", "3", "--db",
                     "--cache-dir", str(tmp_path / "stores")])
        captured = capsys.readouterr()
        assert code in (0, 1)  # noise may defeat inference; not under test
        assert "no provenance" in captured.err


class TestReportGracefulFailure:
    """Malformed report inputs exit 2 with a one-line error, no traceback."""

    def test_truncated_json(self, tmp_path, capsys):
        path = tmp_path / "half.ledger.json"
        path.write_text('{"name": "e3", "wall')
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_non_ledger_json(self, tmp_path, capsys):
        path = tmp_path / "notledger.json"
        path.write_text(json.dumps({"rows": [1, 2, 3]}))
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "missing fields" in err

    def test_missing_file_names_the_path(self, tmp_path, capsys):
        absent = tmp_path / "absent.ledger.json"
        assert main(["report", str(absent)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "absent.ledger.json" in err

    def test_directory_input(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestHistoryCommand:
    def _write_ledger(self, directory, name="e_hist", wall=1.0,
                      created="2026-08-01T00:00:00Z"):
        from tests.test_obs_history import make_ledger

        directory.mkdir(parents=True, exist_ok=True)
        return obs_ledger.write_ledger(
            make_ledger(name=name, wall=wall, created=created),
            directory / f"{name}-{created[:10]}.ledger.json",
        )

    def test_ingest_check_stats_clear_cycle(self, tmp_path, capsys):
        results = tmp_path / "results"
        hist = str(tmp_path / "hist")
        self._write_ledger(results, wall=1.0, created="2026-08-01T00:00:00Z")
        self._write_ledger(results, wall=1.1, created="2026-08-02T00:00:00Z")
        assert main(["history", "--dir", hist, "ingest", str(results)]) == 0
        out = capsys.readouterr().out
        assert "ingested 2 new" in out
        # Idempotent re-ingest.
        assert main(["history", "--dir", hist, "ingest", str(results)]) == 0
        assert "2 duplicate(s)" in capsys.readouterr().out
        # Steady series: check passes.
        assert main(["history", "--dir", hist, "check"]) == 0
        assert "0 regression(s)" in capsys.readouterr().out
        assert main(["history", "--dir", hist, "stats"]) == 0
        assert "runs: 2" in capsys.readouterr().out
        assert main(["history", "--dir", hist, "clear"]) == 0
        assert "removed 2 row(s)" in capsys.readouterr().out

    def test_check_flags_synthetic_outlier(self, tmp_path, capsys):
        results = tmp_path / "results"
        hist = str(tmp_path / "hist")
        self._write_ledger(results, wall=1.0, created="2026-08-01T00:00:00Z")
        self._write_ledger(results, wall=3.0, created="2026-08-09T00:00:00Z")
        assert main(["history", "--dir", hist, "ingest", str(results)]) == 0
        capsys.readouterr()
        assert main(["history", "--dir", hist, "check"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "3.00x" in out

    def test_check_warn_only_suppresses_the_exit_code(self, tmp_path, capsys):
        results = tmp_path / "results"
        hist = str(tmp_path / "hist")
        self._write_ledger(results, wall=1.0, created="2026-08-01T00:00:00Z")
        self._write_ledger(results, wall=3.0, created="2026-08-09T00:00:00Z")
        main(["history", "--dir", hist, "ingest", str(results)])
        capsys.readouterr()
        assert main(["history", "--dir", hist, "check", "--warn-only"]) == 0
        assert "warn-only" in capsys.readouterr().err

    def test_ingest_reports_broken_files(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "bad.ledger.json").write_text('{"half')
        assert main(["history", "--dir", str(tmp_path / "hist"),
                     "ingest", str(results)]) == 1
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert "1 error(s)" in captured.out

    def test_history_action_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["history"])


class TestDashCommand:
    def test_renders_from_ingested_history(self, tmp_path, capsys):
        from tests.test_obs_history import make_ledger

        results = tmp_path / "results"
        results.mkdir()
        obs_ledger.write_ledger(
            make_ledger(name="e_dash"), results / "e_dash.ledger.json"
        )
        hist = str(tmp_path / "hist")
        assert main(["history", "--dir", hist, "ingest", str(results)]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "dash"
        assert main(["dash", "--dir", hist, "-o", str(out_dir),
                     "--results", str(results)]) == 0
        assert (out_dir / "index.html").exists()
        assert (out_dir / "exp-e_dash.html").exists()
        assert "1 run(s)" in capsys.readouterr().out

    def test_empty_history_renders_empty_dashboard(self, tmp_path, capsys):
        out_dir = tmp_path / "dash"
        assert main(["dash", "--dir", str(tmp_path / "hist"),
                     "-o", str(out_dir)]) == 0
        assert (out_dir / "index.html").exists()


class TestHistoryAutoRecord:
    def test_metrics_run_records_into_history(self, tmp_path):
        from repro.obs import history as obs_history

        cache_dir = tmp_path / "stores"
        metrics_file = tmp_path / "q.metrics.json"
        assert main(["query", "--policy", "lru", "--ways", "2",
                     "--cache-dir", str(cache_dir),
                     "--metrics", str(metrics_file), "a b a?"]) == 0
        assert (cache_dir / obs_history.HISTORY_FILENAME).exists()
        db = obs_history.HistoryDB(cache_dir / obs_history.HISTORY_FILENAME)
        try:
            (run,) = db.runs(with_counters=True)
            assert run["name"] == "cli-query"
            assert run["source"] == "cli"
            assert run["counters"].get("oracle.measurements", 0) >= 1
        finally:
            db.close()

    def test_no_metrics_means_no_history_file(self, tmp_path):
        from repro.obs import history as obs_history

        cache_dir = tmp_path / "stores"
        assert main(["query", "--policy", "lru", "--ways", "2",
                     "--cache-dir", str(cache_dir), "a b a?"]) == 0
        assert not (cache_dir / obs_history.HISTORY_FILENAME).exists()

    def test_runner_maps_attached_to_the_recorded_run(self, tmp_path):
        from repro.obs import history as obs_history

        cache_dir = tmp_path / "stores"
        metrics_file = tmp_path / "e.metrics.json"
        assert main(["evaluate", "--policies", "lru,fifo",
                     "--size", "1024", "--ways", "2",
                     "--cache-dir", str(cache_dir),
                     "--metrics", str(metrics_file)]) == 0
        db = obs_history.HistoryDB(cache_dir / obs_history.HISTORY_FILENAME)
        try:
            (run,) = db.runs()
            assert run["maps"], "runner map records should be attached"
            assert run["maps"][0]["cells"] > 0
            assert "sources" in run["maps"][0]
        finally:
            db.close()

    def test_report_against_history_flags_regression(self, tmp_path, capsys):
        from tests.test_obs_history import make_ledger
        from repro.kernels import store
        from repro.obs import history as obs_history

        hist_dir = tmp_path / "hist"
        db = obs_history.HistoryDB(hist_dir / obs_history.HISTORY_FILENAME)
        db.record_ledger(make_ledger(wall=1.0, created="2026-08-01T00:00:00Z"))
        db.close()
        slow = obs_ledger.write_ledger(
            make_ledger(wall=3.0, created="2026-08-09T00:00:00Z"),
            tmp_path / "slow.ledger.json",
        )
        store.set_cache_dir(hist_dir)
        assert main(["report", "--against-history", str(slow)]) == 1
        out = capsys.readouterr().out
        assert "vs history" in out
        assert "FAIL" in out
