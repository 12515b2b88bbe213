"""Static HTML observability dashboard, rendered from run history.

``repro-cache dash -o dash/`` turns the run-history database
(:mod:`repro.obs.history`) plus an optional results directory into a
self-contained static site — no server, no javascript, stdlib-only
templating — in the AnICA ``html_report.py`` idiom:

* ``index.html`` — the fleet summary: stat tiles, one row per
  experiment with a wall-time sparkline and its latest regression
  verdict, and links to every detail page;
* ``exp-<name>.html`` — per-experiment trend pages: a wall-time trend
  chart over every recorded run, key-counter sparklines, sparklines of
  the top-level numeric ``data`` series (an acceptance bench's speedups
  and seconds), and the full run table (git sha, jobs, kernel, wall
  time, verdict) linking each run's provenance;
* ``flame-<name>.html`` — span-tree flame views parsed from the
  ``*.trace.jsonl`` event shards in the results directory (span.start /
  span.end pairs nest by id, widths proportional to seconds).

Regression verdicts come from :mod:`repro.obs.regress`; a run whose
group failed its check renders with an explicit ``REGRESSED`` label
(text + color, never color alone).  Every page is written relative to
``out_dir`` so the directory can be archived or served as-is (CI
uploads it as a workflow artifact).
"""

from __future__ import annotations

import html
import json
import re
from pathlib import Path

from repro.obs import history as obs_history
from repro.obs import regress as obs_regress

__all__ = ["render_dashboard"]


# -- palette (validated reference palette; see the dataviz method) -----------
_CSS = """
:root {
  color-scheme: light;
  --page: #f9f9f7; --surface: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --seq-250: #86b6ef; --seq-350: #5598e7;
  --seq-450: #2a78d6; --seq-550: #1c5cab; --seq-650: #104281;
  --good: #0ca30c; --warning: #fab219; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --page: #0d0d0d; --surface: #1a1a19;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --seq-250: #184f95; --seq-350: #1c5cab;
    --seq-450: #256abf; --seq-550: #3987e5; --seq-650: #6da7ec;
  }
}
* { box-sizing: border-box; }
body { margin: 0; background: var(--page); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif; }
main { max-width: 1080px; margin: 0 auto; padding: 24px 20px 64px; }
h1 { font-size: 20px; margin: 8px 0 2px; }
h2 { font-size: 15px; margin: 28px 0 10px; }
.sub { color: var(--ink-2); margin: 0 0 20px; }
a { color: var(--series-1); text-decoration: none; }
a:hover { text-decoration: underline; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0 8px; }
.tile { background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 132px; }
.tile .v { font-size: 24px; font-weight: 600; }
.tile .k { color: var(--ink-2); font-size: 12px; }
table { border-collapse: collapse; width: 100%; background: var(--surface);
  border: 1px solid var(--border); border-radius: 8px; }
th { text-align: left; color: var(--ink-2); font-weight: 500; font-size: 12px; }
th, td { padding: 6px 10px; border-bottom: 1px solid var(--grid); }
tr:last-child td { border-bottom: none; }
td.num { font-variant-numeric: tabular-nums; text-align: right; }
.pill { display: inline-block; border-radius: 10px; padding: 0 8px;
  font-size: 11px; font-weight: 600; }
.pill.ok { color: var(--good); border: 1px solid var(--good); }
.pill.fail { color: var(--critical); border: 1px solid var(--critical); }
.pill.skip { color: var(--muted); border: 1px solid var(--muted); }
.spark { vertical-align: middle; }
.spark polyline { fill: none; stroke: var(--series-1); stroke-width: 2; }
.spark circle { fill: var(--series-1); }
.chart { background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px; }
.chart .gridline { stroke: var(--grid); stroke-width: 1; }
.chart .axisline { stroke: var(--axis); stroke-width: 1; }
.chart text { fill: var(--muted); font-size: 11px;
  font-variant-numeric: tabular-nums; }
.chart polyline { fill: none; stroke: var(--series-1); stroke-width: 2; }
.chart circle { fill: var(--series-1); }
.chart circle.flagged { fill: var(--critical); }
.flame { font-size: 11px; }
.flame .node { min-width: 2px; overflow: hidden; border-radius: 3px;
  margin: 1px; padding: 1px 4px; color: #fff; white-space: nowrap; }
.flame .row { display: flex; align-items: stretch; }
.flame .d0 .node { background: var(--seq-650); }
.flame .d1 > .node { background: var(--seq-550); }
.flame .d2 > .node { background: var(--seq-450); }
.flame .d3 > .node { background: var(--seq-350); }
.flame .d4 > .node { background: var(--seq-250); color: var(--ink); }
.flame .d5 > .node { background: var(--seq-250); color: var(--ink); }
footer { color: var(--muted); font-size: 12px; margin-top: 40px; }
"""


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9_-]+", "-", name.lower()).strip("-") or "unnamed"


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _page(title: str, body: str, crumb: str | None = None) -> str:
    nav = f'<p class="sub"><a href="index.html">← fleet summary</a></p>' if crumb else ""
    return (
        "<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
        f"<body><main>{nav}<h1>{_esc(title)}</h1>{body}"
        "<footer>generated by <code>repro-cache dash</code> — static, stdlib-only</footer>"
        "</main></body></html>\n"
    )


# -- SVG helpers -------------------------------------------------------------
def _scale(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def _sparkline(
    values: list[float],
    labels: list[str] | None = None,
    width: int = 120,
    height: int = 28,
    flagged_last: bool = False,
) -> str:
    """Inline single-series sparkline; last value gets the marker dot."""
    if not values:
        return '<span class="pill skip">no data</span>'
    if len(values) == 1:
        values = values * 2
        labels = labels * 2 if labels else None
    lo, hi = _scale(values)
    pad = 3
    step = (width - 2 * pad) / (len(values) - 1)
    points = []
    for index, value in enumerate(values):
        x = pad + index * step
        y = height - pad - (value - lo) / (hi - lo) * (height - 2 * pad)
        points.append((x, y))
    poly = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    tooltip = ""
    if labels:
        tooltip = f"<title>{_esc('; '.join(labels))}</title>"
    last_x, last_y = points[-1]
    dot_class = ' class="flagged"' if flagged_last else ""
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">{tooltip}'
        f'<polyline points="{poly}"/>'
        f'<circle{dot_class} cx="{last_x:.1f}" cy="{last_y:.1f}" r="3"/></svg>'
    )


def _trend_chart(
    points: list[dict],
    value_key: str = "wall_seconds",
    unit: str = "s",
    flagged_ids: set | None = None,
    width: int = 960,
    height: int = 220,
) -> str:
    """A wall-time (or counter) trend line chart over ordered runs.

    One series, one axis; per-point ``<title>`` tooltips carry the run's
    timestamp, git sha and exact value (the static-page hover layer).
    Flagged runs render their marker in the status color *and* are
    listed in the run table with a text label, so color never carries
    the meaning alone.
    """
    values = [float(point[value_key]) for point in points]
    if not values:
        return "<p class=\"sub\">no runs recorded yet</p>"
    flagged_ids = flagged_ids or set()
    lo, hi = _scale(values)
    left, right, top, bottom = 64, 16, 12, 28
    plot_w = width - left - right
    plot_h = height - top - bottom
    step = plot_w / max(1, len(values) - 1)
    coords = []
    for index, value in enumerate(values):
        x = left + (index * step if len(values) > 1 else plot_w / 2)
        y = top + plot_h - (value - lo) / (hi - lo) * plot_h
        coords.append((x, y))
    parts = [
        f'<svg width="100%" viewBox="0 0 {width} {height}" role="img">',
    ]
    for fraction in (0.0, 0.5, 1.0):
        y = top + plot_h - fraction * plot_h
        tick = lo + fraction * (hi - lo)
        parts.append(
            f'<line class="gridline" x1="{left}" y1="{y:.1f}" '
            f'x2="{width - right}" y2="{y:.1f}"/>'
            f'<text x="{left - 6}" y="{y + 4:.1f}" text-anchor="end">'
            f"{tick:.3g}{unit}</text>"
        )
    parts.append(
        f'<line class="axisline" x1="{left}" y1="{top + plot_h}" '
        f'x2="{width - right}" y2="{top + plot_h}"/>'
    )
    if len(coords) > 1:
        poly = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
        parts.append(f'<polyline points="{poly}"/>')
    for point, (x, y) in zip(points, coords):
        flagged = point.get("id") in flagged_ids
        cls = ' class="flagged"' if flagged else ""
        label = (
            f"{point.get('created', '?')} · git {str(point.get('git_sha') or '-')[:10]}"
            f" · {float(point[value_key]):.4g}{unit}"
            + (" · REGRESSED" if flagged else "")
        )
        parts.append(
            f'<circle{cls} cx="{x:.1f}" cy="{y:.1f}" r="4">'
            f"<title>{_esc(label)}</title></circle>"
        )
    first = points[0].get("created", "")
    last = points[-1].get("created", "")
    parts.append(
        f'<text x="{left}" y="{height - 8}">{_esc(first)}</text>'
        f'<text x="{width - right}" y="{height - 8}" text-anchor="end">'
        f"{_esc(last)}</text>"
    )
    parts.append("</svg>")
    return f'<div class="chart">{"".join(parts)}</div>'


def _verdict_pill(status: str | None) -> str:
    if status == "fail":
        return '<span class="pill fail">✗ REGRESSED</span>'
    if status == "ok":
        return '<span class="pill ok">✓ ok</span>'
    return '<span class="pill skip">– no baseline</span>'


# -- flame views -------------------------------------------------------------
def _parse_spans(path: Path) -> list[dict]:
    """Span tree roots from one JSONL trace (span.start/span.end pairs)."""
    nodes: dict[str, dict] = {}
    roots: list[dict] = []
    try:
        with open(path, encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError:
                    continue
                kind = event.get("kind")
                if kind == "span.start":
                    node = {
                        "id": event.get("id"),
                        "name": event.get("span", "?"),
                        "label": event.get("label"),
                        "seconds": 0.0,
                        "children": [],
                    }
                    nodes[node["id"]] = node
                    parent = nodes.get(event.get("parent"))
                    if parent is not None:
                        parent["children"].append(node)
                    else:
                        roots.append(node)
                elif kind == "span.end":
                    node = nodes.get(event.get("id"))
                    if node is not None:
                        node["seconds"] = float(event.get("seconds") or 0.0)
    except OSError:
        return []
    return roots


#: Cap on rendered children per span level: a 10k-cell grid's flame page
#: must stay loadable; the remainder folds into one "(+N more)" block.
_FLAME_MAX_CHILDREN = 120


def _render_flame(node: dict, depth: int = 0) -> str:
    seconds = node["seconds"]
    label = node["name"] + (f" {node['label']}" or "" if node.get("label") else "")
    title = f"{label} — {seconds:.4f}s"
    children = sorted(node["children"], key=lambda c: -c["seconds"])
    shown = children[:_FLAME_MAX_CHILDREN]
    folded = len(children) - len(shown)
    inner = ""
    if shown:
        blocks = "".join(_render_flame(child, depth + 1) for child in shown)
        if folded > 0:
            rest = sum(child["seconds"] for child in children[_FLAME_MAX_CHILDREN:])
            blocks += (
                f'<div class="d{min(depth + 1, 5)}" style="flex-grow:{max(rest, 1e-6):.6f}">'
                f'<div class="node" title="{folded} more spans — {rest:.4f}s">'
                f"(+{folded} more)</div></div>"
            )
        inner = f'<div class="row">{blocks}</div>'
    return (
        f'<div class="d{min(depth, 5)}" style="flex-grow:{max(seconds, 1e-6):.6f}">'
        f'<div class="node" title="{_esc(title)}">{_esc(label)} · {seconds:.3f}s</div>'
        f"{inner}</div>"
    )


def _flame_page(name: str, path: Path) -> str | None:
    roots = _parse_spans(path)
    if not roots:
        return None
    sections = []
    for root in roots:
        sections.append(
            f"<h2>{_esc(root['name'])} — {root['seconds']:.3f}s</h2>"
            f'<div class="flame"><div class="row">{_render_flame(root)}</div></div>'
        )
    body = (
        f'<p class="sub">span tree from <code>{_esc(path.name)}</code>; '
        "block width is proportional to wall seconds, hover a block for "
        "the exact timing</p>" + "".join(sections)
    )
    return _page(f"flame · {name}", body, crumb="flame")


# -- page renderers ----------------------------------------------------------
def _numeric_series(runs: list[dict]) -> dict[str, list[float]]:
    """The top-level numeric fields of the runs' ``data``, in run order."""
    series: dict[str, list[float]] = {}
    for run in runs:
        data = run.get("data")
        if not isinstance(data, dict):
            continue
        for key, value in data.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                series.setdefault(key, []).append(float(value))
    return series


def _experiment_page(
    name: str,
    runs: list[dict],
    verdicts_by_run: dict,
    group_status: dict,
) -> str:
    ordered = sorted(runs, key=lambda run: (run["created"], run["id"]))
    flagged = {
        run_id for run_id, status in verdicts_by_run.items() if status == "fail"
    }
    body = ["<h2>wall time per run</h2>"]
    body.append(_trend_chart(ordered, flagged_ids=flagged))
    counters_present = [
        counter
        for counter in obs_regress.CHECK_COUNTERS
        if any(counter in (run.get("counters") or {}) for run in ordered)
    ]
    if counters_present:
        body.append("<h2>key counters</h2><table><tr><th>counter</th>"
                    "<th>trend</th><th class=\"num\">latest</th></tr>")
        for counter in counters_present:
            values = [
                float(run["counters"][counter])
                for run in ordered
                if counter in (run.get("counters") or {})
            ]
            body.append(
                f"<tr><td><code>{_esc(counter)}</code></td>"
                f"<td>{_sparkline(values)}</td>"
                f'<td class="num">{values[-1]:g}</td></tr>'
            )
        body.append("</table>")
    series = _numeric_series(ordered)
    if series:
        body.append("<h2>data series</h2><table><tr><th>series</th>"
                    "<th>trend</th><th class=\"num\">latest</th></tr>")
        for key in sorted(series):
            values = series[key]
            body.append(
                f"<tr><td><code>{_esc(key)}</code></td>"
                f"<td>{_sparkline(values)}</td>"
                f'<td class="num">{values[-1]:.4g}</td></tr>'
            )
        body.append("</table>")
    body.append("<h2>runs</h2>")
    body.append(
        "<table><tr><th>created</th><th>git</th><th class=\"num\">jobs</th>"
        "<th>kernel</th><th class=\"num\">wall s</th><th>verdict</th>"
        "<th>source</th></tr>"
    )
    for run in reversed(ordered):
        sha = str(run.get("git_sha") or "-")[:10]
        dirty = " (dirty)" if run.get("git_dirty") else ""
        verdict = verdicts_by_run.get(run["id"])
        body.append(
            f"<tr><td>{_esc(run['created'])}</td>"
            f"<td><code>{_esc(sha)}{dirty}</code></td>"
            f'<td class="num">{_esc(run.get("jobs") if run.get("jobs") is not None else "-")}</td>'
            f"<td>{_esc(run.get('kernel') if run.get('kernel') is not None else '-')}</td>"
            f'<td class="num">{run["wall_seconds"]:.3f}</td>'
            f"<td>{_verdict_pill(verdict)}</td>"
            f"<td>{_esc(run.get('source') or 'cli')}</td></tr>"
        )
    body.append("</table>")
    groups = sorted({key.describe() for key in group_status})
    if groups:
        body.append(
            '<p class="sub">baseline groups: '
            + ", ".join(f"<code>{_esc(group)}</code>" for group in groups)
            + "</p>"
        )
    return _page(f"experiment · {name}", "".join(body), crumb="exp")


def render_dashboard(
    out_dir: str | Path,
    db: "obs_history.HistoryDB | None" = None,
    results_dir: str | Path | None = None,
    verdicts: list | None = None,
) -> dict:
    """Render the full static dashboard into ``out_dir``.

    Returns ``{"pages": [paths], "runs": N, "experiments": N,
    "flagged": N}``.  ``results_dir`` (optional)
    contributes ``*.trace.jsonl`` files for the flame pages.
    """
    db = db or obs_history.get_history()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs = db.runs(with_counters=True)
    if verdicts is None:
        verdicts = obs_regress.check_history(db)
    verdicts_by_run: dict = {}
    group_status: dict = {}
    for verdict in verdicts:
        group_status.setdefault(verdict.key, "ok")
        if verdict.status == "fail":
            group_status[verdict.key] = "fail"
            if verdict.run_id is not None:
                verdicts_by_run[verdict.run_id] = "fail"
        elif verdict.status == "ok" and verdicts_by_run.get(verdict.run_id) != "fail":
            if verdict.run_id is not None:
                verdicts_by_run.setdefault(verdict.run_id, "ok")
    runs_by_name: dict[str, list[dict]] = {}
    for run in runs:
        runs_by_name.setdefault(run["name"], []).append(run)

    pages: list[Path] = []

    # Per-experiment pages.
    exp_links: dict[str, str] = {}
    for name, exp_runs in sorted(runs_by_name.items()):
        exp_groups = {
            key: status
            for key, status in group_status.items()
            if key.name == name
        }
        page_name = f"exp-{_slug(name)}.html"
        exp_links[name] = page_name
        path = out / page_name
        path.write_text(
            _experiment_page(name, exp_runs, verdicts_by_run, exp_groups),
            encoding="utf-8",
        )
        pages.append(path)

    # Flame pages from trace shards.
    flame_links: dict[str, str] = {}
    if results_dir is not None:
        for trace_path in sorted(Path(results_dir).glob("*.trace.jsonl")):
            name = trace_path.name[: -len(".trace.jsonl")]
            rendered = _flame_page(name, trace_path)
            if rendered is None:
                continue
            page_name = f"flame-{_slug(name)}.html"
            path = out / page_name
            path.write_text(rendered, encoding="utf-8")
            pages.append(path)
            flame_links[name] = page_name

    # Fleet summary (index).
    flagged_groups = sum(1 for status in group_status.values() if status == "fail")
    body = [
        '<p class="sub">across-run observability for the reproduction: '
        "run history, perf-regression verdicts and span flame views</p>"
    ]
    body.append('<div class="tiles">')
    for value, label in (
        (len(runs), "recorded runs"),
        (len(runs_by_name), "experiments"),
        (flagged_groups, "flagged groups"),
    ):
        body.append(
            f'<div class="tile"><div class="v">{value}</div>'
            f'<div class="k">{_esc(label)}</div></div>'
        )
    body.append("</div>")

    body.append("<h2>experiments</h2>")
    if runs_by_name:
        body.append(
            "<table><tr><th>experiment</th><th class=\"num\">runs</th>"
            "<th>wall-time trend</th><th class=\"num\">latest s</th>"
            "<th>verdict</th><th>latest run</th></tr>"
        )
        for name in sorted(runs_by_name):
            exp_runs = sorted(
                runs_by_name[name], key=lambda run: (run["created"], run["id"])
            )
            walls = [run["wall_seconds"] for run in exp_runs]
            latest = exp_runs[-1]
            statuses = {
                status
                for key, status in group_status.items()
                if key.name == name
            }
            status = (
                "fail" if "fail" in statuses else ("ok" if "ok" in statuses else None)
            )
            flagged_last = verdicts_by_run.get(latest["id"]) == "fail"
            body.append(
                f'<tr><td><a href="{exp_links[name]}">{_esc(name)}</a></td>'
                f'<td class="num">{len(exp_runs)}</td>'
                f"<td>{_sparkline(walls, flagged_last=flagged_last)}</td>"
                f'<td class="num">{walls[-1]:.3f}</td>'
                f"<td>{_verdict_pill(status)}</td>"
                f"<td>{_esc(latest['created'])} · "
                f"<code>{_esc(str(latest.get('git_sha') or '-')[:10])}</code></td></tr>"
            )
        body.append("</table>")
    else:
        body.append(
            '<p class="sub">no runs recorded yet — run '
            "<code>repro-cache history ingest benchmarks/results/</code> or "
            "any CLI command with <code>--metrics</code></p>"
        )

    if flame_links:
        body.append("<h2>span flame views</h2><ul>")
        for name in sorted(flame_links):
            body.append(
                f'<li><a href="{flame_links[name]}">{_esc(name)}</a></li>'
            )
        body.append("</ul>")

    index = out / "index.html"
    index.write_text(
        _page("repro observability dashboard", "".join(body)), encoding="utf-8"
    )
    pages.insert(0, index)
    return {
        "pages": [str(path) for path in pages],
        "runs": len(runs),
        "experiments": len(runs_by_name),
        "flagged": flagged_groups,
    }
