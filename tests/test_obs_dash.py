"""Tests for repro.obs.dash: the static HTML dashboard renderer.

The renderer is stdlib-only and file-based, so the tests drive it from
a throwaway history database and assert on the written pages: the fleet
index links every experiment, trend pages exist per experiment, flagged
runs carry an explicit REGRESSED label (text, not color alone), the
runs' numeric data series render as sparklines, and every page is
well-formed enough to tag-balance.
"""

from html.parser import HTMLParser

import pytest

from repro.obs import dash as obs_dash
from repro.obs import history as obs_history
from tests.test_obs_history import make_ledger
from tests.test_obs_regress import record_series

VOID_TAGS = {
    "meta", "br", "hr", "img", "input", "link", "circle", "line",
    "polyline", "path",
}


class TagBalanceChecker(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack: list[str] = []
        self.errors: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag not in VOID_TAGS:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if tag in VOID_TAGS:
            return
        if not self.stack or self.stack[-1] != tag:
            self.errors.append(f"unbalanced </{tag}> at {self.getpos()}")
        else:
            self.stack.pop()


def assert_well_formed(path):
    checker = TagBalanceChecker()
    checker.feed(path.read_text(encoding="utf-8"))
    assert not checker.errors, f"{path.name}: {checker.errors[:3]}"
    assert not checker.stack, f"{path.name}: unclosed {checker.stack[:5]}"


@pytest.fixture
def db(tmp_path):
    handle = obs_history.HistoryDB(tmp_path / "history-v2.sqlite")
    yield handle
    handle.close()


class TestRenderDashboard:
    def test_empty_history_still_renders_an_index(self, tmp_path, db):
        report = obs_dash.render_dashboard(tmp_path / "dash", db=db)
        index = tmp_path / "dash" / "index.html"
        assert index.exists()
        assert report["runs"] == 0
        assert "no runs recorded" in index.read_text()
        assert_well_formed(index)

    def test_experiment_pages_linked_from_index(self, tmp_path, db):
        record_series(db, [1.0, 1.1], name="e3_missratio")
        record_series(db, [2.0], name="e8_agreement")
        report = obs_dash.render_dashboard(tmp_path / "dash", db=db)
        assert report["experiments"] == 2
        index = (tmp_path / "dash" / "index.html").read_text()
        assert "exp-e3_missratio.html" in index
        assert "exp-e8_agreement.html" in index
        exp = tmp_path / "dash" / "exp-e3_missratio.html"
        assert exp.exists()
        text = exp.read_text()
        assert "wall time per run" in text
        assert "deadbeef" in text  # git sha in the run table
        assert_well_formed(exp)

    def test_flagged_run_renders_regressed_label(self, tmp_path, db):
        record_series(db, [1.0, 1.0, 3.0], name="e3_missratio")
        report = obs_dash.render_dashboard(tmp_path / "dash", db=db)
        assert report["flagged"] == 1
        index = (tmp_path / "dash" / "index.html").read_text()
        exp = (tmp_path / "dash" / "exp-e3_missratio.html").read_text()
        # Status is carried by text, never color alone.
        assert "REGRESSED" in index
        assert "REGRESSED" in exp

    def test_steady_history_is_unflagged(self, tmp_path, db):
        record_series(db, [1.0, 1.0, 1.0], name="e3_missratio")
        report = obs_dash.render_dashboard(tmp_path / "dash", db=db)
        assert report["flagged"] == 0
        assert "REGRESSED" not in (
            tmp_path / "dash" / "exp-e3_missratio.html"
        ).read_text()

    def test_experiment_page_renders_data_series(self, tmp_path, db):
        db.record_ledger(make_ledger(
            name="bench_kernel", created="2026-08-01T00:00:00Z",
            data={"speedup": 12.5, "interp_seconds": 5.0, "rows": [[1]]},
        ))
        db.record_ledger(make_ledger(
            name="bench_kernel", created="2026-08-02T00:00:00Z",
            data={"speedup": 13.0, "interp_seconds": 4.8, "identical": True},
        ))
        report = obs_dash.render_dashboard(tmp_path / "dash", db=db)
        assert not (tmp_path / "dash" / "bench.html").exists()
        page = tmp_path / "dash" / "exp-bench_kernel.html"
        text = page.read_text()
        series = text.split("<h2>data series</h2>")[1].split("</table>")[0]
        # Only the top-level numbers are series; the latest value shows.
        assert "<code>speedup</code>" in series and ">13</td>" in series
        assert "<code>interp_seconds</code>" in series
        assert "rows" not in series and "identical" not in series
        assert series.count("<svg") == 2
        assert_well_formed(page)
        assert str(page) in report["pages"]

    def test_every_page_is_well_formed(self, tmp_path, db):
        record_series(db, [1.0, 1.0, 3.0], name="e3_missratio")
        record_series(db, [2.0], name="e8_agreement")
        report = obs_dash.render_dashboard(tmp_path / "dash", db=db)
        assert len(report["pages"]) >= 3
        for page in report["pages"]:
            assert_well_formed(tmp_path / "dash" / page.split("/")[-1])


class TestSparkline:
    def test_single_value_still_draws(self):
        svg = obs_dash._sparkline([1.0])
        assert "<svg" in svg and "polyline" in svg

    def test_empty_series_degrades_to_label(self):
        assert "no data" in obs_dash._sparkline([])

    def test_escapes_labels(self):
        svg = obs_dash._sparkline([1.0, 2.0], labels=["<b>", "&x"])
        assert "<b>" not in svg
        assert "&lt;b&gt;" in svg
