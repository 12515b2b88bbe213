"""E10 (extension) — Table: measured cache geometries.

Companion to the policy tables: the geometry of each catalog L1 is
re-measured from scratch (line size, exact capacity, associativity, set
count) and must match the data sheet — including Atom's non-power-of-two
24 KiB, 6-way configuration.
"""

import pytest

from repro.core.geometry import GeometryInference, PlatformAddressOracle
from repro.hardware import PROCESSORS, HardwarePlatform, get_processor
from repro.runner import ExperimentRunner
from repro.util.tables import format_table
from repro.obs.spans import traced


def _geometry_cell(name: str) -> list[object]:
    """Measure one processor's L1 geometry (runner cell)."""
    spec = get_processor(name)
    platform = HardwarePlatform(spec, seed=0)
    truth = platform.level_config("L1")
    oracle = PlatformAddressOracle(platform, "L1")
    finding = GeometryInference(oracle).infer()
    match = (
        finding.total_size == truth.size
        and finding.ways == truth.ways
        and finding.line_size == truth.line_size
    )
    return [
        name,
        finding.describe(),
        truth.describe().split(": ", 1)[1],
        "yes" if match else "NO",
    ]


@traced("e10.geometry")
def measure_all(jobs: int = 0):
    names = sorted(PROCESSORS)
    runner = ExperimentRunner(jobs=jobs)
    return runner.map(_geometry_cell, names)


def test_e10_geometry(benchmark, save_result, jobs):
    rows = benchmark.pedantic(measure_all, args=(jobs,), rounds=1, iterations=1)
    table = format_table(
        ["processor", "measured L1 geometry", "data sheet", "match"],
        rows,
        title="E10: measured vs. data-sheet L1 geometries",
    )
    save_result(
        "e10_geometry",
        table,
        data={
            "columns": ["processor", "measured L1 geometry", "data sheet", "match"],
            "rows": rows,
        },
        params={"processors": sorted(PROCESSORS), "jobs": jobs},
    )
    assert all(row[3] == "yes" for row in rows)


def test_e10_geometry_timing(benchmark):
    """Timing kernel: one full L1 geometry inference."""
    platform = HardwarePlatform(get_processor("nehalem-like"), seed=0)

    def run():
        oracle = PlatformAddressOracle(platform, "L1")
        return GeometryInference(oracle).infer()

    finding = benchmark(run)
    assert finding.total_size == 32 * 1024
