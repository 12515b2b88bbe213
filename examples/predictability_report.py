"""Predictability evaluation of the policy zoo.

Run with::

    python examples/predictability_report.py

The second evaluation axis of the paper: how quickly can a WCET analysis
regain certainty about cache contents under each policy?  Prints the
evict/fill metrics (smaller is more predictable) and the behavioural
agreement matrix that motivates crafted distinguishing sequences.
"""

from repro.eval import agreement_matrix, predictability_of_policy
from repro.policies import get
from repro.util.tables import format_table

POLICIES = ["lru", "fifo", "plru", "bitplru", "nru", "srrip", "random"]


def metrics_section() -> None:
    rows = []
    for ways in (4, 8):
        for name in POLICIES:
            rows.append(predictability_of_policy(name, get(name, ways)).row())
    print(
        format_table(
            ["policy", "ways", "evict", "fill", "note"],
            rows,
            title="predictability metrics (accesses to regain certainty)",
        )
    )


def agreement_section() -> None:
    policies = {name: get(name, 8) for name in ("lru", "fifo", "plru", "bitplru", "srrip")}
    matrix = agreement_matrix(policies, accesses=30_000, seed=0)
    print()
    print(
        format_table(
            ["policy"] + list(matrix.policies),
            matrix.rows(),
            title="hit/miss agreement on a random stream (why crafted probes are needed)",
        )
    )


def main() -> None:
    metrics_section()
    agreement_section()


if __name__ == "__main__":
    main()
