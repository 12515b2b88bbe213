"""E2 — Table: inference cost versus associativity.

The paper reports how many measurements its algorithms need.  The cost
of permutation inference grows polynomially with the associativity
(position tables are A x A, each entry needing up to A survival probes);
this benchmark regenerates the measurement and access counts and checks
the growth stays polynomial (roughly cubic for the linear strategy).
Every cell measures against a fresh simulated oracle.
"""

import pytest

from repro.core import InferenceConfig, PermutationInference, SimulatedSetOracle
from repro.policies import get
from repro.runner import ExperimentRunner
from repro.util.tables import format_table
from repro.obs.spans import traced

WAYS = [2, 4, 8, 16]
POLICIES = ["lru", "fifo", "plru"]


def _cost_cell(task: tuple[str, int]) -> list[object]:
    """One (policy, ways) inference-cost measurement (runner cell)."""
    policy_name, ways = task
    oracle = SimulatedSetOracle(get(policy_name, ways))
    result = PermutationInference(
        oracle, config=InferenceConfig(verify_sequences=10)
    ).infer()
    assert result.succeeded, (policy_name, ways)
    return [policy_name, ways, result.measurements, result.accesses]


@traced("e2.costs")
def measure_costs(jobs: int = 0) -> list[list[object]]:
    cells = [(policy, ways) for ways in WAYS for policy in POLICIES]
    runner = ExperimentRunner(jobs=jobs)
    return runner.map(_cost_cell, cells)


def test_e2_inference_cost(benchmark, save_result, jobs):
    rows = benchmark.pedantic(measure_costs, args=(jobs,), rounds=1, iterations=1)
    table = format_table(
        ["policy", "ways", "measurements", "accesses"],
        rows,
        title="E2: permutation-inference cost vs associativity (linear strategy)",
    )
    save_result(
        "e2_inference_cost",
        table,
        data={"columns": ["policy", "ways", "measurements", "accesses"], "rows": rows},
        params={"policies": POLICIES, "ways": WAYS, "jobs": jobs},
    )
    # Shape check: cost grows superlinearly but stays polynomial (< A^4).
    lru = {row[1]: row[2] for row in rows if row[0] == "lru"}
    assert lru[16] > lru[8] > lru[4]
    assert lru[16] / lru[4] < (16 / 4) ** 4


def test_e2_single_inference_timing(benchmark):
    """Timing kernel: one full 8-way PLRU inference."""

    def run():
        oracle = SimulatedSetOracle(get("plru", 8))
        return PermutationInference(
            oracle, config=InferenceConfig(verify_sequences=5)
        ).infer()

    result = benchmark(run)
    assert result.succeeded
