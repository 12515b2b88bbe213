"""Tests for the repro-cache command line interface."""

import json
import os
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.kernels.store import SCHEMA_VERSION
from repro.obs import ledger as obs_ledger


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

    def test_bench_repeats_the_evaluate_grid(self, capsys):
        grid = ["--policies", "lru,fifo", "--size", "4096", "--ways", "4"]
        assert main(["evaluate", *grid]) == 0
        evaluated = capsys.readouterr().out.splitlines()
        code = main(["bench", *grid, "--jobs", "2", "--repeat", "2", "--show-matrix"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        runs = [
            [cell.strip() for cell in line.split("|")]
            for line in out
            if line[:1].isdigit()
        ]
        assert [run[:2] for run in runs] == [["1", "jobs=2"], ["2", "jobs=2"]]
        assert runs[0][2] == runs[1][2] == "18"  # 2 policies x 9 workloads
        # The same table as evaluate's, below a shorter title.
        matrix = out[out.index("miss ratios") + 1:]
        assert matrix == evaluated[1:]

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
    def test_query_writes_metrics(self, tmp_path, capsys):
        metrics_file = tmp_path / "run.ledger.json"
        code = main(
            ["query", "--policy", "lru", "--ways", "2",
             "--metrics", str(metrics_file), "a b a?"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "a=hit"
        ledger = obs_ledger.read_ledger(metrics_file)
        assert ledger.name == "cli-query"
        assert ledger.params["policy"] == "lru"
        assert ledger.counters["oracle.measurements"] >= 1
        assert ledger.data == {"exit_status": 0}

    def test_evaluate_metrics_sidecar_validates(self, tmp_path, capsys):
        metrics_file = tmp_path / "eval.ledger.json"
        code = main(
            ["evaluate", "--policies", "lru,fifo", "--size", "4096",
             "--ways", "4", "--metrics", str(metrics_file)]
        )
        assert code == 0
        counters = obs_ledger.read_ledger(metrics_file).counters
        cells = sum(
            count for name, count in counters.items()
            if name.startswith("runner.cells.")
        )
        assert cells > 0

    def test_metrics_keeps_the_kernel_engaged(self, tmp_path, capsys):
        """--metrics alone must not disable the compiled fast path."""
        metrics_file = tmp_path / "eval.ledger.json"
        code = main(
            ["evaluate", "--policies", "lru", "--size", "4096",
             "--ways", "4", "--metrics", str(metrics_file)]
        )
        assert code == 0
        counters = obs_ledger.read_ledger(metrics_file).counters
        assert counters.get("kernel.calls", 0) > 0

    def test_metrics_scoped_per_invocation(self, tmp_path, capsys):
        """Back-to-back commands in one process must not bleed counters."""
        first = tmp_path / "a.ledger.json"
        second = tmp_path / "b.ledger.json"
        argv = ["query", "--policy", "lru", "--ways", "2", "a b a?"]
        assert main(argv + ["--metrics", str(first)]) == 0
        assert main(argv + ["--metrics", str(second)]) == 0
        capsys.readouterr()
        counters_a = obs_ledger.read_ledger(first).counters
        counters_b = obs_ledger.read_ledger(second).counters
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
        """Run one query with ``--metrics``; return the file it wrote."""
        metrics_file = tmp_path / f"{name}.ledger.json"
        assert main(
            ["query", "--policy", "lru", "--ways", "2",
             "--metrics", str(metrics_file), "a b a?"]
        ) == 0
        return metrics_file

    def test_metrics_sidecar_brings_a_ledger(self, tmp_path, capsys):
        # The --metrics file is the run's ledger, and the only file
        # the run leaves.
        metrics_file = self._run_with_metrics(tmp_path)
        assert [path.name for path in tmp_path.iterdir()] == [metrics_file.name]
        ledger = obs_ledger.read_ledger(metrics_file)
        assert ledger.name == "cli-query"
        assert ledger.wall_seconds >= 0
        assert ledger.counters.get("oracle.measurements", 0) >= 1
        assert "oracle.probe_misses" in ledger.observations

    def test_report_renders_a_single_ledger(self, tmp_path, capsys):
        ledger_path = self._run_with_metrics(tmp_path)
        capsys.readouterr()
        assert main(["report", str(ledger_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-query" in out
        assert "oracle.measurements" in out

    def test_report_diff_renders_both_runs(self, tmp_path, capsys):
        a = self._run_with_metrics(tmp_path, "a")
        b = self._run_with_metrics(tmp_path, "b")
        capsys.readouterr()
        assert main(["report", "--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "wall_seconds" in out
        assert "oracle.measurements" in out

    def test_report_diff_needs_exactly_two(self, tmp_path, capsys):
        path = self._run_with_metrics(tmp_path)
        capsys.readouterr()
        assert main(["report", "--diff", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.ledger.json")]) == 2
        assert "error" in capsys.readouterr().err


class TestDbCommand:
    """``--dir`` on the store subcommand is one cache directory, restored after."""

    @pytest.mark.parametrize(
        "argv, landed, printed",
        [
            (["cache", "warm", "--policies", "lru", "--ways", "2"],
             f"v{SCHEMA_VERSION}/lru-*.autom", "persisted 1/1"),
        ],
        ids=["cache"],
    )
    def test_db_dir_override_is_restored(self, tmp_path, capsys, argv, landed, printed):
        from repro.kernels import store

        elsewhere = tmp_path / "elsewhere"
        before = store.cache_dir()
        # --dir belongs to the subcommand itself, ahead of any action.
        assert main(argv[:1] + ["--dir", str(elsewhere)] + argv[1:]) == 0
        assert printed in capsys.readouterr().out
        assert list(elsewhere.glob(landed))
        assert store.cache_dir() == before


class TestReportGate:
    RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"

    def test_committed_ledgers_pass_against_themselves(self, capsys):
        # Every gated experiment needs a committed ledger, so this also
        # proves the committed results cover the whole gate table.
        committed = sorted(str(path) for path in self.RESULTS.glob("*.ledger.json"))
        assert main(["report", "--gate", str(self.RESULTS), *committed]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "e1_inferred_policies" in out and "not gated" in out

    def test_failed_check_exits_one(self, capsys):
        one = str(self.RESULTS / "e1_inferred_policies.ledger.json")
        assert main(["report", "--gate", str(self.RESULTS), one]) == 1
        assert "FAIL e12_evictionsets: no fresh ledger" in capsys.readouterr().out

    def test_gate_and_diff_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--gate", "d", "--diff", "a", "b"])


class TestClosedPipe:
    """``repro-cache report ... | head``: the reader of stdout goes away."""

    # Line-buffered, a write raises; block-buffered, the output is small
    # enough that only the flush before main returns reaches the pipe.
    @pytest.mark.parametrize("buffering", [1, -1], ids=["on-write", "on-flush"])
    def test_closed_stdout_ends_quietly_and_never_passes(self, monkeypatch, buffering):
        read_end, write_end = os.pipe()
        os.close(read_end)
        stream = open(write_end, "w", buffering=buffering)
        monkeypatch.setattr(sys, "stdout", stream)
        results = TestReportGate.RESULTS
        committed = sorted(str(path) for path in results.glob("*.ledger.json"))
        try:
            # The same gate passes with exit 0 on a readable stdout.
            assert main(["report", "--gate", str(results), *committed]) == 141
            assert sys.stdout is stream
            stream.write("the exit flush goes to devnull\n")
        finally:
            stream.close()

    def test_other_broken_pipes_propagate(self, monkeypatch, capsys):
        def broken_worker_pipe(args):
            raise BrokenPipeError("worker pipe")

        monkeypatch.setitem(cli._COMMANDS, "list-policies", broken_worker_pipe)
        stdout = sys.stdout
        with pytest.raises(BrokenPipeError, match="worker pipe"):
            main(["list-policies"])
        assert sys.stdout is stdout


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


class TestDashCommand:
    def test_renders_from_ledger_files_and_directories(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        obs_ledger.write_ledger(
            obs_ledger.build_ledger("e_dash", wall_seconds=1.0),
            results / "e_dash.ledger.json",
        )
        serial = obs_ledger.write_ledger(
            obs_ledger.build_ledger("e_dash", wall_seconds=2.0),
            tmp_path / "serial.ledger.json",
        )
        out_dir = tmp_path / "dash"
        assert main(["dash", str(results), str(serial), "-o", str(out_dir)]) == 0
        assert (out_dir / "index.html").exists()
        assert (out_dir / "exp-e_dash.html").exists()
        assert "2 run(s), 1 experiment(s)" in capsys.readouterr().out

    def test_unreadable_ledger_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.ledger.json"
        bad.write_text('{"half')
        assert main(["dash", str(bad), "-o", str(tmp_path / "dash")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad.ledger.json" in err
