"""Tests for repro.obs.dash: the static HTML dashboard renderer.

The renderer is stdlib-only and file-based, so the tests write ledger
files to a temp directory, render them and assert on the written pages:
the fleet index links every experiment, trend pages exist per
experiment and order runs by ``created``, the runs' numeric data series
render as sparklines, and every page is well-formed enough to
tag-balance.
"""

from html.parser import HTMLParser

import pytest

from repro.errors import ReproError
from repro.obs import dash as obs_dash
from repro.obs.ledger import write_ledger
from tests.test_obs_ledger import make_ledger

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
def ledgers(tmp_path):
    """A directory of ledger files; ``write(name, created, **fields)`` adds one."""
    directory = tmp_path / "ledgers"
    directory.mkdir()

    def write(name, created, **overrides):
        ledger = make_ledger(name=name, created=created, **overrides)
        return write_ledger(ledger, directory / f"{name}-{created[:10]}.ledger.json")

    write.directory = directory
    return write


def write_series(ledgers, walls, name):
    for day, wall in enumerate(walls, start=1):
        ledgers(name, f"2026-08-{day:02d}T00:00:00Z", wall_seconds=wall)


class TestRenderDashboard:
    def test_empty_directory_still_renders_an_index(self, tmp_path, ledgers):
        report = obs_dash.render_dashboard(tmp_path / "dash", [ledgers.directory])
        index = tmp_path / "dash" / "index.html"
        assert index.exists()
        assert report["runs"] == 0
        assert "no ledgers found" in index.read_text()
        assert_well_formed(index)

    def test_experiment_pages_linked_from_index(self, tmp_path, ledgers):
        write_series(ledgers, [1.0, 1.1], name="e3_missratio")
        write_series(ledgers, [2.0], name="e8_agreement")
        report = obs_dash.render_dashboard(tmp_path / "dash", [ledgers.directory])
        assert report["experiments"] == 2
        assert report["runs"] == 3
        index = (tmp_path / "dash" / "index.html").read_text()
        assert "exp-e3_missratio.html" in index
        assert "exp-e8_agreement.html" in index
        exp = tmp_path / "dash" / "exp-e3_missratio.html"
        assert exp.exists()
        text = exp.read_text()
        assert "wall time per run" in text
        assert "abc123" in text  # git sha in the run table
        assert_well_formed(exp)

    def test_files_and_directories_combine(self, tmp_path, ledgers):
        write_series(ledgers, [1.0], name="e3_missratio")
        extra = write_ledger(
            make_ledger(name="e3_missratio", created="2026-07-01T00:00:00Z"),
            tmp_path / "serial.ledger.json",
        )
        report = obs_dash.render_dashboard(
            tmp_path / "dash", [ledgers.directory, extra]
        )
        assert (report["runs"], report["experiments"]) == (2, 1)

    def test_runs_ordered_by_created(self, tmp_path, ledgers):
        ledgers("e1", "2026-08-03T00:00:00Z", wall_seconds=3.0)
        ledgers("e1", "2026-08-01T00:00:00Z", wall_seconds=1.0)
        ledgers("e1", "2026-08-02T00:00:00Z", wall_seconds=2.0)
        obs_dash.render_dashboard(tmp_path / "dash", [ledgers.directory])
        text = (tmp_path / "dash" / "exp-e1.html").read_text()
        runs = text.split("<h2>runs</h2>")[1]
        # The run table lists the newest run first.
        newest_first = [runs.index(f"2026-08-0{day}") for day in (3, 2, 1)]
        assert newest_first == sorted(newest_first)
        index = (tmp_path / "dash" / "index.html").read_text()
        assert ">3.000</td>" in index  # the latest run's wall time

    def test_experiment_page_renders_data_series(self, tmp_path, ledgers):
        ledgers(
            "bench_kernel", "2026-08-01T00:00:00Z",
            data={"speedup": 12.5, "interp_seconds": 5.0, "rows": [[1]]},
        )
        ledgers(
            "bench_kernel", "2026-08-02T00:00:00Z",
            data={"speedup": 13.0, "interp_seconds": 4.8, "identical": True},
        )
        report = obs_dash.render_dashboard(tmp_path / "dash", [ledgers.directory])
        page = tmp_path / "dash" / "exp-bench_kernel.html"
        text = page.read_text()
        series = text.split("<h2>data series</h2>")[1].split("</table>")[0]
        # Only the top-level numbers are series; the latest value shows.
        assert "<code>speedup</code>" in series and ">13</td>" in series
        assert "<code>interp_seconds</code>" in series
        assert "rows" not in series and "identical" not in series
        assert series.count("<svg") == 2
        counters = text.split("<h2>key counters</h2>")[1].split("</table>")[0]
        assert "<code>oracle.measurements</code>" in counters
        assert "<code>kernel.calls</code>" in counters
        assert_well_formed(page)
        assert str(page) in report["pages"]

    def test_every_page_is_well_formed(self, tmp_path, ledgers):
        write_series(ledgers, [1.0, 1.0, 3.0], name="e3_missratio")
        write_series(ledgers, [2.0], name="e8_agreement")
        report = obs_dash.render_dashboard(tmp_path / "dash", [ledgers.directory])
        assert len(report["pages"]) == 3
        for page in report["pages"]:
            assert_well_formed(tmp_path / "dash" / page.split("/")[-1])

    def test_unreadable_ledger_names_the_file(self, tmp_path, ledgers):
        (ledgers.directory / "half.ledger.json").write_text('{"name": "e3", "wall')
        with pytest.raises(ReproError, match="half.ledger.json"):
            obs_dash.render_dashboard(tmp_path / "dash", [ledgers.directory])
        with pytest.raises(ReproError, match="absent.ledger.json"):
            obs_dash.render_dashboard(
                tmp_path / "dash", [tmp_path / "absent.ledger.json"]
            )


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
