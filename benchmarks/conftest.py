"""Shared infrastructure for the experiment benchmarks.

Every benchmark regenerates one of the paper's tables or figures
(reconstructed as experiments E1-E12; see DESIGN.md).  Besides the
pytest-benchmark timing, each writes its rows to
``benchmarks/results/<experiment>.txt`` so the numbers can be pasted
into EXPERIMENTS.md, and its one run record,
``<experiment>.ledger.json`` (see OBSERVABILITY.md): the experiment's
structured ``data`` next to its git revision, environment, wall time,
counters and observations, which ``repro-cache report`` can summarize
and diff across runs.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.obs import ledger as obs_ledger
from repro.obs import metrics as obs_metrics

RESULTS_DIR = Path(__file__).parent / "results"

#: Wall-clock start of the current test, for the ledger (set by _observe).
_CLOCK: dict[str, float] = {}


def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        action="store",
        type=int,
        default=0,
        help="worker processes for experiment grids (0 = serial); results "
        "are bit-identical in both modes (see repro.runner)",
    )


@pytest.fixture(scope="session")
def jobs(request) -> int:
    """Worker count for the experiment runner (0 = serial default)."""
    return request.config.getoption("--jobs")


@pytest.fixture(autouse=True)
def _observe():
    """Reset the metrics store per test and start the ledger's clock.

    Each benchmark therefore sees only its own counters in its ledger —
    nothing bleeds across benches.
    """
    obs_metrics.DEFAULT.reset()
    _CLOCK["start"] = time.perf_counter()


@pytest.fixture(scope="session")
def save_result(request):
    """Persist an experiment table and its run ledger.

    ``data`` and ``params`` go into ``<name>.ledger.json`` next to the
    run's metrics snapshot; anything JSON-unfriendly inside them is
    stringified.  Two runs of the same experiment can be compared with
    ``repro-cache report --diff``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str, data=None, params=None) -> None:
        params = params or {}
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        wall_seconds = time.perf_counter() - _CLOCK.get("start", time.perf_counter())
        jobs = params.get("jobs", request.config.getoption("--jobs"))
        ledger = obs_ledger.build_ledger(
            name=name,
            params=params,
            wall_seconds=wall_seconds,
            seed=params.get("seed"),
            jobs=int(jobs) if isinstance(jobs, (int, float, str)) and str(jobs).isdigit() else None,
            metrics=obs_metrics.DEFAULT.snapshot(),
            data=data if data is not None else {},
        )
        ledger_path = obs_ledger.write_ledger(
            ledger, RESULTS_DIR / f"{name}.ledger.json"
        )
        print(f"\n{text}\n[saved to {path}; ledger {ledger_path}]")

    return _save
