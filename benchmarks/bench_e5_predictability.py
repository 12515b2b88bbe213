"""E5 — Table: predictability metrics of the discovered policies.

The second evaluation axis: evict(a) and fill(a) per policy (Reineke et
al.'s metrics), computed exactly by adversarial search.  Known closed
forms are asserted: evict(LRU) = a, evict(FIFO) = 2a - 1,
evict(PLRU) = (a/2) log2 a + 1; the one-bit and age-based policies have
unbounded fill, and random replacement is not analysable at all.
"""

import math

import pytest

from repro.eval import predictability_of_policy
from repro.policies import get
from repro.runner import ExperimentRunner
from repro.util.tables import format_table
from repro.obs.spans import traced

POLICIES = ["lru", "fifo", "plru", "bitplru", "nru", "srrip", "qlru_h00_m1", "random"]
WAYS = [2, 4, 8]


def _metric_cell(task: tuple[str, int]):
    """One (policy, ways) predictability computation (runner cell)."""
    name, ways = task
    return predictability_of_policy(name, get(name, ways))


@traced("e5.metrics")
def compute_metrics(jobs: int = 0):
    cells = [(name, ways) for ways in WAYS for name in POLICIES]
    runner = ExperimentRunner(jobs=jobs)
    return runner.map(_metric_cell, cells)


def test_e5_predictability(benchmark, save_result, jobs):
    results = benchmark.pedantic(compute_metrics, args=(jobs,), rounds=1, iterations=1)
    rows = [result.row() for result in results]
    table = format_table(
        ["policy", "ways", "evict", "fill", "note"],
        rows,
        title="E5: predictability metrics (smaller = friendlier to WCET analysis)",
    )
    save_result(
        "e5_predictability",
        table,
        data={"columns": ["policy", "ways", "evict", "fill", "note"], "rows": rows},
        params={"policies": POLICIES, "ways": WAYS, "jobs": jobs},
    )

    by_key = {(r.policy, r.ways): r for r in results}
    for ways in WAYS:
        assert by_key[("lru", ways)].evict == ways
        assert by_key[("lru", ways)].fill == 2 * ways
        assert by_key[("fifo", ways)].evict == 2 * ways - 1
        expected_plru = ways // 2 * int(math.log2(ways)) + 1
        assert by_key[("plru", ways)].evict == expected_plru
        assert by_key[("random", ways)].evict is None
    # One-bit policies: bounded evict, unbounded fill.
    assert by_key[("bitplru", 8)].evict is not None
    assert by_key[("bitplru", 8)].fill is None
