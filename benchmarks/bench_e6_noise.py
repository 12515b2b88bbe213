"""E6 — Figure: inference success rate versus counter noise.

Hardware performance counters over-count; the paper repeats every
measurement and aggregates.  This experiment sweeps the spurious-count
rate and compares single-shot inference against 7-fold repetition with
min-aggregation (spurious events only ever add counts).  Expected shape:
single-shot collapses quickly; repetition stays at 100% across the
realistic range.
"""

import pytest

from repro.cache import CacheConfig
from repro.core import InferenceConfig, VotingOracle, reverse_engineer
from repro.hardware import (
    HardwarePlatform,
    HardwareSetOracle,
    LevelSpec,
    NoiseModel,
    ProcessorSpec,
)
from repro.runner import ExperimentRunner
from repro.util.tables import format_table
from repro.obs.spans import traced

RATES = [0.0, 0.002, 0.005, 0.01, 0.02, 0.05]
SEEDS = [1, 2, 3]
CONFIG = InferenceConfig(verify_sequences=8, verify_length=40, verify_window=4)


def noisy_processor(rate: float) -> ProcessorSpec:
    return ProcessorSpec(
        name=f"noisy-{rate:g}",
        description="PLRU L1 with noisy counters",
        levels=(LevelSpec(CacheConfig("L1", 4 * 1024, 4), "plru"),),
        noise=NoiseModel(counter_noise_rate=rate),
    )


def attempt(task: tuple[float, int, int]) -> bool:
    """One (rate, repetitions, seed) inference attempt (runner cell)."""
    rate, repetitions, seed = task
    platform = HardwarePlatform(noisy_processor(rate), seed=seed)
    oracle = HardwareSetOracle(platform, "L1", max_blocks=96)
    if repetitions > 1:
        oracle = VotingOracle(oracle, repetitions=repetitions, aggregate="min")
    finding = reverse_engineer(oracle, inference_config=CONFIG)
    return finding.policy_name == "plru"


@traced("e6.sweep")
def run_sweep(jobs: int = 0):
    cells = [
        (rate, repetitions, seed)
        for rate in RATES
        for repetitions in (1, 7)
        for seed in SEEDS
    ]
    runner = ExperimentRunner(jobs=jobs)
    verdicts = dict(zip(cells, runner.map(attempt, cells)))
    rows = []
    for rate in RATES:
        single = sum(verdicts[(rate, 1, seed)] for seed in SEEDS)
        repeated = sum(verdicts[(rate, 7, seed)] for seed in SEEDS)
        rows.append(
            [f"{rate:g}", f"{single}/{len(SEEDS)}", f"{repeated}/{len(SEEDS)}"]
        )
    return rows


def test_e6_noise_robustness(benchmark, save_result, jobs):
    rows = benchmark.pedantic(run_sweep, args=(jobs,), rounds=1, iterations=1)
    table = format_table(
        ["noise rate", "single shot", "7x min-aggregated"],
        rows,
        title="E6: correct inferences of a PLRU L1 under counter noise",
    )
    save_result(
        "e6_noise",
        table,
        data={
            "columns": ["noise rate", "single shot", "7x min-aggregated"],
            "rows": rows,
        },
        params={"rates": RATES, "seeds": SEEDS, "jobs": jobs},
    )
    by_rate = {row[0]: row for row in rows}
    # Noise-free: both perfect.
    assert by_rate["0"][1] == by_rate["0"][2] == f"{len(SEEDS)}/{len(SEEDS)}"
    # Repetition keeps every noisy rate perfect.
    for rate in RATES:
        assert by_rate[f"{rate:g}"][2] == f"{len(SEEDS)}/{len(SEEDS)}"
    # Single shot degrades somewhere in the swept range.
    assert any(row[1] != f"{len(SEEDS)}/{len(SEEDS)}" for row in rows)
