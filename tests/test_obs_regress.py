"""Tests for repro.obs.regress: median+MAD baselines and verdicts.

The detector's contract: group by (experiment, jobs, kernel, vector),
judge the newest run against the window of prior runs, skip under-
sampled groups, flag genuine multiples, tolerate jitter inside the
noise band, and honour an explicit --baseline git pin.
"""

import pytest

from repro.obs import history as obs_history
from repro.obs import regress as obs_regress
from tests.test_obs_history import make_ledger


@pytest.fixture
def db(tmp_path):
    handle = obs_history.HistoryDB(tmp_path / "history-v1.sqlite")
    yield handle
    handle.close()


def record_series(db, walls, name="e_test", **overrides):
    """Record one run per wall time, oldest first, distinct timestamps."""
    for index, wall in enumerate(walls):
        db.record_ledger(
            make_ledger(
                name=name,
                wall=wall,
                created=f"2026-08-{index + 1:02d}T00:00:00Z",
                **overrides,
            )
        )


class TestMedianMad:
    def test_odd(self):
        assert obs_regress.median_mad([1.0, 9.0, 2.0]) == (2.0, 1.0)

    def test_even(self):
        median, mad = obs_regress.median_mad([1.0, 2.0, 3.0, 4.0])
        assert median == 2.5
        assert mad == 1.0

    def test_constant_series_has_zero_mad(self):
        assert obs_regress.median_mad([3.0, 3.0, 3.0]) == (3.0, 0.0)


class TestCheckHistory:
    def test_single_run_group_skips(self, db):
        record_series(db, [1.0])
        (verdict,) = obs_regress.check_history(db=db)
        assert verdict.status == "skip"
        assert "baseline" in verdict.note

    def test_steady_series_passes(self, db):
        record_series(db, [1.0, 1.02, 0.98, 1.01])
        verdicts = obs_regress.check_history(db=db)
        assert all(verdict.status == "ok" for verdict in verdicts)

    def test_three_x_outlier_fails_even_with_one_baseline_run(self, db):
        # The acceptance scenario: one committed baseline, one synthetic
        # 3x outlier — the gate must trip.
        record_series(db, [1.0, 3.0])
        wall = next(
            verdict for verdict in obs_regress.check_history(db=db)
            if verdict.metric == "wall_seconds"
        )
        assert wall.status == "fail"
        assert wall.ratio == pytest.approx(3.0)
        assert wall.run_id is not None

    def test_tiny_absolute_drift_never_flags(self, db):
        # 3x ratio but only 30ms absolute: inside WALL_EPSILON.
        record_series(db, [0.010, 0.010, 0.030])
        verdicts = obs_regress.check_history(db=db)
        assert all(verdict.status == "ok" for verdict in verdicts)

    def test_groups_are_isolated_by_jobs(self, db):
        record_series(db, [1.0, 1.0], jobs=0)
        record_series(db, [5.0, 5.0], jobs=4)
        verdicts = obs_regress.check_history(db=db)
        keys = {verdict.key.jobs for verdict in verdicts}
        assert keys == {0, 4}
        assert all(verdict.status == "ok" for verdict in verdicts)

    def test_counter_regression_flagged(self, db):
        for index, measurements in enumerate([100.0, 100.0, 100.0, 500.0]):
            db.record_ledger(
                make_ledger(
                    wall=1.0 + index * 0.001,
                    created=f"2026-08-{index + 1:02d}T00:00:00Z",
                    counters={"oracle.measurements": measurements},
                )
            )
        by_metric = {
            verdict.metric: verdict
            for verdict in obs_regress.check_history(db=db)
        }
        assert by_metric["oracle.measurements"].status == "fail"
        assert by_metric["wall_seconds"].status == "ok"

    def test_min_samples_guard(self, db):
        record_series(db, [1.0, 3.0])
        (verdict,) = obs_regress.check_history(db=db, min_samples=3)
        assert verdict.status == "skip"

    def test_experiment_filter(self, db):
        record_series(db, [1.0, 1.0], name="e_a")
        record_series(db, [1.0, 1.0], name="e_b")
        verdicts = obs_regress.check_history(db=db, experiments=["e_a"])
        assert {verdict.key.name for verdict in verdicts} == {"e_a"}

    def test_baseline_ref_pins_the_window(self, db):
        # Slow runs on another sha; fast baseline on `aaaa`. The sliding
        # window would average in the slow runs and pass the candidate;
        # pinned to `aaaa` it must fail.
        for index, (wall, sha) in enumerate(
            [(1.0, "aaaa1111"), (1.0, "aaaa2222"), (9.0, "bbbb1111")]
        ):
            db.record_ledger(
                make_ledger(
                    wall=wall,
                    created=f"2026-08-{index + 1:02d}T00:00:00Z",
                    git={"sha": sha * 5, "dirty": False},
                )
            )
        db.record_ledger(
            make_ledger(
                wall=4.0,
                created="2026-08-09T00:00:00Z",
                git={"sha": "cccc1111" * 5, "dirty": False},
            )
        )
        pinned = next(
            verdict
            for verdict in obs_regress.check_history(db=db, baseline_ref="aaaa")
            if verdict.metric == "wall_seconds"
        )
        assert pinned.status == "fail"
        assert pinned.baseline_runs == 2

    def test_baseline_ref_with_no_matching_runs_skips(self, db):
        record_series(db, [1.0, 1.0])
        (verdict,) = obs_regress.check_history(db=db, baseline_ref="ffff")
        assert verdict.status == "skip"
        assert "ffff" in verdict.note


class TestCheckRun:
    def test_fresh_ledger_judged_against_history(self, db):
        record_series(db, [1.0, 1.0, 1.0])
        candidate = make_ledger(wall=5.0, created="2026-08-20T00:00:00Z")
        wall = next(
            verdict for verdict in obs_regress.check_run(candidate, db=db)
            if verdict.metric == "wall_seconds"
        )
        assert wall.status == "fail"

    def test_already_ingested_ledger_excluded_from_its_baseline(self, db):
        ledger = make_ledger(wall=5.0, created="2026-08-20T00:00:00Z")
        record_series(db, [1.0, 1.0])
        db.record_ledger(ledger)
        wall = next(
            verdict for verdict in obs_regress.check_run(ledger, db=db)
            if verdict.metric == "wall_seconds"
        )
        # Baseline is the two 1.0s runs only — the 5.0s row is itself.
        assert wall.baseline_runs == 2
        assert wall.status == "fail"

    def test_no_history_skips(self, db):
        (verdict,) = obs_regress.check_run(make_ledger(), db=db)
        assert verdict.status == "skip"


class TestFormatting:
    def test_table_carries_group_ratio_and_status(self, db):
        record_series(db, [1.0, 3.0])
        text = obs_regress.format_verdicts(obs_regress.check_history(db=db))
        assert "e_test" in text
        assert "FAIL" in text
        assert "3.00x" in text

    def test_describe_mentions_the_mode_switches(self):
        key = obs_regress.BaselineKey(
            name="e3", jobs=4, kernel=True, vector=False
        )
        described = key.describe()
        assert "jobs=4" in described
        assert "kernel=True" in described
        assert "vector=False" in described
