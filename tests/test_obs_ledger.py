"""Tests for repro.obs.ledger: schema, round trips, reporting, diffing,
the committed-results gate, and the committed benchmark results, which
are one ledger each."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.errors import ResultSchemaError
from repro.obs import ledger as obs_ledger
from repro.obs.ledger import (
    GATE,
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    build_ledger,
    diff_ledgers,
    format_ledger,
    gate,
    read_ledger,
    validate_ledger,
    write_ledger,
)


def make_ledger(**overrides):
    base = dict(
        name="unit",
        created="2026-08-07T00:00:00Z",
        wall_seconds=1.25,
        params={"policies": ["lru"]},
        seed=0,
        jobs=2,
        kernel=True,
        git={"sha": "abc123", "dirty": False},
        env={"python": "3.11.7"},
        counters={"oracle.measurements": 10, "kernel.calls": 3},
        observations={"runner.cell_seconds": {"count": 2, "total": 0.5}},
        data={"rows": [["lru", 0.25]], "speedup": 3.5},
    )
    base.update(overrides)
    return RunLedger(**base)


class TestSchema:
    def test_round_trip(self):
        # make_ledger carries data and observations, so they round-trip too.
        ledger = make_ledger()
        back = RunLedger.from_json(ledger.to_json())
        assert back == ledger

    def test_validate_accepts_a_built_ledger(self):
        assert validate_ledger(make_ledger().to_dict())

    @pytest.mark.parametrize("field", [
        "ledger_schema_version", "name", "created", "wall_seconds",
        "params", "seed", "jobs", "kernel", "git", "env", "counters",
        "observations", "data",
    ])
    def test_missing_field_rejected(self, field):
        payload = make_ledger().to_dict()
        del payload[field]
        with pytest.raises(ResultSchemaError, match=field):
            validate_ledger(payload)

    def test_wrong_version_rejected(self):
        payload = make_ledger().to_dict()
        payload["ledger_schema_version"] = LEDGER_SCHEMA_VERSION + 1
        with pytest.raises(ResultSchemaError, match="ledger_schema_version"):
            validate_ledger(payload)

    def test_non_json_rejected(self):
        with pytest.raises(ResultSchemaError, match="JSON"):
            RunLedger.from_json("{nope")

    def test_v1_ledger_rejected_naming_its_version(self):
        # A v1 ledger had artifact digests and neither data nor
        # observations; it is refused by its version, not read.
        payload = make_ledger().to_dict()
        del payload["data"], payload["observations"]
        payload["ledger_schema_version"] = 1
        payload["artifacts"] = []
        with pytest.raises(ResultSchemaError, match="ledger_schema_version 1"):
            validate_ledger(payload)

    @pytest.mark.parametrize("field, value", [
        ("name", ""), ("created", 0), ("wall_seconds", "1"), ("params", []),
        ("seed", 1.5), ("jobs", True), ("kernel", "yes"), ("git", "abc"),
        ("counters", []), ("observations", []),
    ])
    def test_bad_value_rejected(self, field, value):
        payload = make_ledger().to_dict()
        payload[field] = value
        with pytest.raises(ResultSchemaError, match=field):
            validate_ledger(payload)

    def test_non_object_rejected(self):
        with pytest.raises(ResultSchemaError, match="object"):
            validate_ledger([1, 2])


class TestBuild:
    def test_build_splits_the_metrics_snapshot(self):
        ledger = build_ledger(
            name="built",
            params={"seed": 3},
            wall_seconds=0.5,
            seed=3,
            jobs=0,
            metrics={
                "counters": {"oracle.measurements": 1},
                "observations": {"span.seconds.cell": {"count": 1}},
            },
            data={"rows": [(1, 2)], "when": object()},
        )
        assert ledger.counters == {"oracle.measurements": 1}
        assert ledger.observations == {"span.seconds.cell": {"count": 1}}
        assert ledger.kernel is None
        # data is stored as JSON would read it back.
        assert ledger.data["rows"] == [[1, 2]]
        assert isinstance(ledger.data["when"], str)
        validate_ledger(ledger.to_dict())

    def test_build_stringifies_unjsonable_params(self):
        ledger = build_ledger(name="p", params={"path": object()})
        assert isinstance(ledger.params["path"], str)

    def test_git_revision_in_a_repo(self):
        info = obs_ledger.git_revision(cwd=".")
        # The test suite runs inside the repository checkout.
        if info is not None:
            assert set(info) == {"sha", "dirty"}
            assert len(info["sha"]) == 40

    def test_git_revision_outside_a_repo(self, tmp_path):
        assert obs_ledger.git_revision(cwd=tmp_path) is None

    def test_write_and_read(self, tmp_path):
        path = write_ledger(make_ledger(), tmp_path / "run.ledger.json")
        assert read_ledger(path) == make_ledger()


class TestReporting:
    def test_format_ledger_mentions_key_facts(self):
        text = format_ledger(make_ledger())
        assert "unit" in text
        assert "abc123" in text[:400] or "abc123" in text
        assert "oracle.measurements" in text

    def test_diff_shows_deltas_and_ratios(self):
        a = make_ledger(counters={"oracle.measurements": 100}, wall_seconds=2.0)
        b = make_ledger(counters={"oracle.measurements": 150}, wall_seconds=1.0)
        text = diff_ledgers(a, b)
        assert "wall_seconds" in text
        assert "oracle.measurements" in text
        assert "+50" in text
        assert "1.50x" in text

    def test_diff_handles_counters_only_on_one_side(self):
        a = make_ledger(counters={})
        b = make_ledger(counters={"kernel.calls": 5})
        text = diff_ledgers(a, b)
        assert "kernel.calls" in text


class TestEdgeCases:
    def test_unknown_future_schema_version_rejected(self):
        payload = make_ledger().to_dict()
        payload["ledger_schema_version"] = LEDGER_SCHEMA_VERSION + 7
        with pytest.raises(ResultSchemaError, match="unsupported"):
            validate_ledger(payload)

    def test_missing_key_counters_render_gracefully(self):
        # A ledger with none of the KEY_COUNTERS must still format and
        # diff — those counters are surfaced when present, never required.
        bare = make_ledger(counters={})
        assert "wall_seconds" in format_ledger(bare)
        text = diff_ledgers(bare, bare)
        assert "wall_seconds" in text
        assert "oracle.measurements" not in text

    def test_truncated_json_rejected_with_schema_error(self):
        with pytest.raises(ResultSchemaError, match="not valid JSON"):
            RunLedger.from_json('{"name": "half')


class TestValidatorCli:
    def test_valid_file_exits_zero(self, tmp_path, capsys):
        path = write_ledger(make_ledger(), tmp_path / "ok.ledger.json")
        assert obs_ledger.main([str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.ledger.json"
        path.write_text(json.dumps({"name": "x"}))
        assert obs_ledger.main([str(path)]) == 1

    def test_no_arguments_exits_two(self, capsys):
        assert obs_ledger.main([]) == 2

    def test_module_round_trip(self, tmp_path):
        # A ledger written by the library validates through the module
        # entry point exactly as CI invokes it.
        import os
        import subprocess
        import sys

        import repro

        path = write_ledger(make_ledger(), tmp_path / "run.ledger.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.ledger", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ok" in proc.stdout


def _with_counter(ledger, name, value):
    return dataclasses.replace(ledger, counters={**ledger.counters, name: value})


def _changed_row(ledger):
    return dataclasses.replace(
        ledger, data={**ledger.data, "rows": [["lru", 0.25], ["fifo", 0.75]]}
    )


class TestGate:
    """The committed-results gate on synthetic committed and fresh ledgers."""

    @pytest.fixture
    def runs(self, tmp_path):
        """Committed ledgers for every gated experiment, and a gate runner.

        ``run(changes)`` writes one fresh ledger per gated experiment,
        each equal to its committed one unless ``changes`` maps its name
        to a function of the ledger (returning None leaves it out), and
        returns the gate's ``(passed, text)``.
        """
        committed_dir = tmp_path / "committed"
        fresh_dir = tmp_path / "fresh"
        committed_dir.mkdir()
        fresh_dir.mkdir()
        committed = {}
        for name, rule in GATE.items():
            committed[name] = make_ledger(
                name=name,
                counters={counter: 100 for counter in rule.equal + rule.positive},
                data={"rows": [["lru", 0.25], ["fifo", 0.5]]},
            )
            write_ledger(committed[name], committed_dir / f"{name}.ledger.json")

        def run(changes=None, extra=()):
            paths = []
            for name, ledger in committed.items():
                ledger = (changes or {}).get(name, lambda same: same)(ledger)
                if ledger is not None:
                    paths.append(write_ledger(ledger, fresh_dir / f"{name}.ledger.json"))
            passed, lines = gate(committed_dir, paths + list(extra))
            return passed, "\n".join(lines)

        run.committed_dir = committed_dir
        run.fresh_dir = fresh_dir
        return run

    def test_equal_runs_pass(self, runs):
        passed, text = runs()
        assert passed, text
        assert "FAIL" not in text
        assert text.endswith("gate: 0 failed check(s)")

    @pytest.mark.parametrize("name, change, expected", [
        ("e6_noise", _changed_row,
         "data.rows[1][1] committed: 0.5\n       data.rows[1][1] fresh:     0.75"),
        ("e8_agreement", lambda run: _with_counter(run, "kernel.accesses", 101),
         "kernel.accesses committed 100, fresh 101"),
        ("e1_inferred_policies",
         lambda run: _with_counter(run, "oracle.measurements", 99),
         "oracle.measurements committed 100, fresh 99"),
        ("e1_inferred_policies",
         lambda run: dataclasses.replace(run, wall_seconds=run.wall_seconds * 2.1),
         "wall_seconds committed 1.250, fresh 2.625"),
        ("e1_inferred_policies",
         lambda run: _with_counter(run, "hw.setup_reused", 0),
         "hw.setup_reused 0, must be above 0"),
        ("e12_evictionsets", lambda run: None,
         "FAIL e12_evictionsets: no fresh ledger among the arguments"),
    ], ids=["data-row", "counter-plus-one", "counter-minus-one", "wall-2.1x",
            "setup-not-reused", "fresh-left-out"])
    def test_each_change_fails_naming_its_row(self, runs, name, change, expected):
        passed, text = runs({name: change})
        assert not passed
        assert expected in text
        assert text.endswith("gate: 1 failed check(s)"), text

    def test_fresh_ledger_without_committed_one_fails(self, runs):
        (runs.committed_dir / "e10_geometry.ledger.json").unlink()
        passed, text = runs()
        assert not passed
        assert "FAIL e10_geometry" in text and "no committed ledger" in text

    def test_truncated_fresh_file_fails_naming_it(self, runs):
        truncated = runs.fresh_dir / "cut.ledger.json"
        truncated.write_text('{"name": "e2_inference_cost", "wall')
        passed, text = runs(extra=[truncated])
        assert not passed
        assert f"FAIL {truncated}: not a ledger" in text

    def test_wall_time_of_another_jobs_count_is_not_compared(self, runs):
        passed, text = runs({"e3_missratio": lambda run: dataclasses.replace(
            run, wall_seconds=run.wall_seconds * 3, jobs=0)})
        assert passed, text
        assert "not compared, jobs 0 vs committed 2" in text

    def test_ungated_name_passes(self, runs):
        extra = write_ledger(
            make_ledger(name="bench_kernel"), runs.fresh_dir / "bench_kernel.ledger.json"
        )
        passed, text = runs(extra=[extra])
        assert passed, text
        assert "bench_kernel" in text and "not gated" in text


class TestCommittedResults:
    """The committed benchmark results are one v2 ledger per run."""

    RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"

    def test_every_result_file_is_a_ledger_with_data(self):
        paths = sorted(self.RESULTS.glob("*.json"))
        assert paths
        for path in paths:
            ledger = read_ledger(path)
            assert ledger.ledger_schema_version == LEDGER_SCHEMA_VERSION == 2
            assert path.name == f"{ledger.name}.ledger.json", path.name
            assert ledger.data is not None, path.name
