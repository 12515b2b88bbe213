"""E11 (extension) — Table: provable hits per policy (WCET analysis).

The predictability metrics of E5 feed an actual analysis here: the
minimum-life-span construction turns the LRU must/may analysis into a
sound analysis for any deterministic policy.  On a loop nest whose
observed hit ratio is identical across policies, the *provable* hit
fraction collapses with the policy's mls — LRU > PLRU > bit-PLRU >
FIFO — which is the paper's predictability argument end to end.
"""

import pytest

from repro.analysis import analyze, check_soundness, generic_analysis, simple_loop
from repro.analysis.generic import mls_metric_policy
from repro.cache import Cache, CacheConfig
from repro.policies import make_policy
from repro.runner import ExperimentRunner
from repro.util.tables import format_table
from repro.obs.spans import traced

CONFIG = CacheConfig("L1", 1024, 4)  # 4 sets, 4-way
POLICIES = ["lru", "plru", "slru", "bitplru", "nru", "fifo"]


def build_program():
    stride = CONFIG.way_size
    preheader = [0, stride, 2 * stride, 64]
    body = [0, stride, 2 * stride, 64, 64 + stride]
    return simple_loop(preheader, body)


def observed_hit_ratio(program, policy_name: str, paths: int = 30) -> float:
    hits = accesses = 0
    for path in program.random_paths(paths, seed=1):
        cache = Cache(CONFIG, policy_name)
        for block_name in path:
            for address in program.blocks[block_name].accesses:
                accesses += 1
                hits += 1 if cache.access(address).hit else 0
    return hits / accesses if accesses else 0.0


def _policy_cell(name: str):
    """Analyse + soundness-check one policy on the loop nest (runner cell)."""
    program = build_program()
    policy = make_policy(name, CONFIG.ways)
    mls = mls_metric_policy(policy)
    result = (
        analyze(program, CONFIG)
        if name == "lru"
        else generic_analysis(program, CONFIG, policy)
    )
    violations = check_soundness(program, CONFIG, result, policy=name, paths=25)
    assert violations == [], (name, violations)
    row = [
        name,
        mls if mls is not None else "-",
        round(result.guaranteed_hit_fraction, 3),
        round(observed_hit_ratio(program, name), 3),
    ]
    return row, result.guaranteed_hit_fraction


@traced("e11.wcet")
def compute_rows(jobs: int = 0):
    runner = ExperimentRunner(jobs=jobs)
    cells = runner.map(_policy_cell, POLICIES)
    rows = [row for row, _fraction in cells]
    fractions = {name: fraction for name, (_row, fraction) in zip(POLICIES, cells)}
    return rows, fractions


def test_e11_provable_hits(benchmark, save_result, jobs):
    rows, fractions = benchmark.pedantic(compute_rows, args=(jobs,), rounds=1, iterations=1)
    table = format_table(
        ["policy", "mls", "proven hit fraction", "observed hit ratio"],
        rows,
        title="E11: provable vs observed hits on a loop nest (4-way)",
    )
    save_result(
        "e11_wcet",
        table,
        data={
            "columns": ["policy", "mls", "proven hit fraction", "observed hit ratio"],
            "rows": rows,
            "fractions": fractions,
        },
        params={"policies": POLICIES, "config": CONFIG.describe(), "jobs": jobs},
    )
    # The predictability ordering: LRU proves the most, FIFO nothing.
    assert fractions["lru"] >= fractions["plru"] >= fractions["bitplru"]
    assert fractions["bitplru"] > fractions["fifo"]
    assert fractions["fifo"] == 0.0
    assert fractions["lru"] > 0.3


def test_e11_analysis_timing(benchmark):
    """Timing kernel: one full must/may analysis of the loop nest."""
    program = build_program()
    result = benchmark(lambda: analyze(program, CONFIG))
    assert result.classifications
