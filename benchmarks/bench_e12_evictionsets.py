"""E12 (extension) — Table: eviction-set discovery on a sliced LLC.

The paper's set targeting is arithmetic; sliced LLCs (Sandy Bridge
onwards) hash the set index, so conflicting addresses must be found by
group testing.  This experiment discovers minimal eviction sets on a
simulated hash-indexed cache and reports the cost, for several
associativities, verifying against the simulator's ground-truth mapping
— exactness the real attacks can only infer statistically.
"""

import pytest

from repro.cache import CacheConfig
from repro.core.evictionsets import PlatformEvictionTester, find_eviction_set
from repro.hardware import HardwarePlatform, LevelSpec, ProcessorSpec
from repro.runner import ExperimentRunner
from repro.util.tables import format_table
from repro.obs.spans import traced

CASES = [
    (8 * 1024, 4),
    (32 * 1024, 8),
    (64 * 1024, 16),
]


def discover(task: tuple[int, int]):
    size, ways = task
    spec = ProcessorSpec(
        name=f"sliced-{ways}w",
        description="hashed LLC testbench",
        levels=(
            LevelSpec(CacheConfig("LLC", size, ways, index_hash="xor-fold"), "lru"),
        ),
    )
    platform = HardwarePlatform(spec)
    buffer = platform.allocate(1 << 23)
    # Candidate pool: enough lines that the victim's set gets >= ways.
    num_sets = platform.level_config("LLC").num_sets
    pool_lines = max(4 * ways * num_sets, 1024)
    pool = [buffer.base + k * 64 for k in range(pool_lines)]
    victim = buffer.base + (1 << 22)
    tester = PlatformEvictionTester(platform, "LLC")
    found = find_eviction_set(tester, victim, pool, target_size=ways)
    codec = platform.hierarchy.level("LLC").codec
    victim_set = codec.decompose(platform.translate(victim)).set_index
    member_sets = {codec.decompose(platform.translate(a)).set_index for a in found}
    return {
        "ways": ways,
        "sets": num_sets,
        "pool": len(pool),
        "found": len(found),
        "tests": tester.tests,
        "loads": platform.loads_performed,
        "exact": member_sets == {victim_set},
    }


@traced("e12.evictionsets")
def run_all(jobs: int = 0):
    runner = ExperimentRunner(jobs=jobs)
    return runner.map(discover, CASES)


def test_e12_eviction_set_discovery(benchmark, save_result, jobs):
    results = benchmark.pedantic(run_all, args=(jobs,), rounds=1, iterations=1)
    rows = [
        [
            r["ways"],
            r["sets"],
            r["pool"],
            r["found"],
            r["tests"],
            r["loads"],
            "yes" if r["exact"] else "NO",
        ]
        for r in results
    ]
    table = format_table(
        ["ways", "sets", "pool lines", "set size found", "tests", "loads", "all in victim set"],
        rows,
        title="E12: minimal eviction sets on a hash-indexed (sliced) cache",
    )
    save_result(
        "e12_evictionsets",
        table,
        data={"cases": results},
        params={"cases": [list(case) for case in CASES], "jobs": jobs},
    )
    for r in results:
        assert r["found"] == r["ways"]  # LRU: minimal set = associativity
        assert r["exact"]
