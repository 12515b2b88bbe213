"""Static cache analysis: why the policy matters for WCET.

Run with::

    python examples/wcet_analysis.py

The payoff of knowing a cache's replacement policy: a WCET analysis can
classify accesses as guaranteed hits.  This example analyses the same
small loop nest under several policies (via the minimum-life-span
construction) and compares the fraction of accesses *proven* to hit with
the hit ratio a simulation actually observes — the gap is the price of
an unpredictable policy.
"""

from repro.analysis import analyze, check_soundness, generic_analysis, simple_loop
from repro.analysis.generic import mls_metric_policy
from repro.cache import Cache, CacheConfig
from repro.policies import get
from repro.util.tables import format_table

CONFIG = CacheConfig("L1", 1024, 4)  # 4 sets, 4-way
POLICIES = ["lru", "plru", "bitplru", "fifo"]


def build_program():
    """A loop touching three conflicting lines per set after a warmup."""
    stride = CONFIG.way_size
    preheader = [0, stride, 2 * stride, 64]
    body = [0, stride, 2 * stride, 64, 64 + stride]
    return simple_loop(preheader, body)


def observed_hit_ratio(program, policy_name: str, paths: int = 40) -> float:
    hits = accesses = 0
    for path in program.random_paths(paths, seed=1):
        cache = Cache(CONFIG, policy_name)
        for block_name in path:
            for address in program.blocks[block_name].accesses:
                accesses += 1
                if cache.access(address).hit:
                    hits += 1
    return hits / accesses if accesses else 0.0


def main() -> None:
    program = build_program()
    rows = []
    for name in POLICIES:
        policy = get(name, CONFIG.ways)
        mls = mls_metric_policy(policy)
        if name == "lru":
            result = analyze(program, CONFIG)
        else:
            result = generic_analysis(program, CONFIG, policy)
        violations = check_soundness(program, CONFIG, result, policy=name, paths=30)
        assert violations == [], violations
        rows.append(
            [
                name,
                mls,
                f"{result.guaranteed_hit_fraction:.0%}",
                f"{observed_hit_ratio(program, name):.0%}",
                "sound" if not violations else "UNSOUND",
            ]
        )
    print(
        format_table(
            ["policy", "mls", "proven hits", "observed hits", "check"],
            rows,
            title="guaranteed vs observed hits on a loop nest (4-way, 4 sets)",
        )
    )
    print(
        "\nThe observed hit ratios are nearly identical — but only the"
        "\npredictable policies let the analysis *prove* the hits."
    )


if __name__ == "__main__":
    main()
