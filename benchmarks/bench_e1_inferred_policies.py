"""E1 — Table: reverse-engineered policies per processor and cache level.

The paper's headline table: for every examined machine, the replacement
policy of each cache level, as inferred purely from measurements.  In
the reproduction the processors are simulated, so the table gains a
ground-truth column the original could not have — every row must match.
"""

import pytest

from repro import (
    PROCESSORS,
    HardwarePlatform,
    HardwareSetOracle,
    InferenceConfig,
    reverse_engineer,
)
from repro.runner import ExperimentRunner
from repro.util.tables import format_table
from repro.obs.spans import traced

#: Trimmed verification keeps the 16-way L3 runs tractable; the method
#: is unchanged.
FAST = InferenceConfig(verify_sequences=10, verify_length=40)


#: Set-dueling policies have no single per-set identity; the correct
#: verdict for them is "unidentified" here, and experiment E9 shows how
#: they are recognised as adaptive instead.
ADAPTIVE_POLICIES = ("dip", "drrip")


def _infer_cell(task: tuple[str, str]) -> list[object]:
    """One (processor, level) inference on a fresh platform (runner cell)."""
    name, level = task
    spec = PROCESSORS[name]
    platform = HardwarePlatform(spec, seed=0)
    level_spec = next(ls for ls in spec.levels if ls.config.name == level)
    oracle = HardwareSetOracle(platform, level)
    finding = reverse_engineer(oracle, inference_config=FAST)
    truth = spec.ground_truth[level]
    if truth in ADAPTIVE_POLICIES:
        match = "yes" if not finding.identified else "NO"
        truth = f"{truth} (adaptive; see E9)"
    else:
        match = "yes" if finding.policy_name == truth else "NO"
    return [
        name,
        level,
        level_spec.config.describe().split(": ", 1)[1],
        finding.summary(),
        truth,
        match,
        finding.measurements,
    ]


@traced("e1.infer")
def infer_all(jobs: int = 0) -> list[list[object]]:
    cells = [
        (name, level_spec.config.name)
        for name in sorted(PROCESSORS)
        for level_spec in PROCESSORS[name].levels
    ]
    runner = ExperimentRunner(jobs=jobs)
    return runner.map(_infer_cell, cells)


def test_e1_inferred_policies(benchmark, save_result, jobs):
    rows = benchmark.pedantic(infer_all, args=(jobs,), rounds=1, iterations=1)
    columns = [
        "processor", "level", "geometry", "inferred", "truth", "match", "measurements"
    ]
    table = format_table(
        columns,
        rows,
        title="E1: reverse-engineered replacement policies (simulated catalog)",
    )
    save_result(
        "e1_inferred_policies",
        table,
        data={"columns": columns, "rows": rows},
        params={"processors": sorted(PROCESSORS), "jobs": jobs},
    )
    mismatches = [row for row in rows if row[5] != "yes"]
    assert not mismatches, f"inference failed on: {mismatches}"
