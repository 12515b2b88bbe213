"""E8 — Table: behavioural agreement between policies.

Random access streams barely separate replacement policies — pairwise
hit/miss agreement sits far above what naive black-box testing can
exploit, which is why the paper crafts targeted access sequences.  The
companion table reports the *shortest* distinguishing probe per policy
pair (via exhaustive search), showing how little separates e.g. PLRU
from LRU.
"""

import pytest

from repro.core.distinguish import bfs_distinguishing_sequence
from repro.eval import agreement_matrix
from repro.policies import make_policy
from repro.runner import ExperimentRunner
from repro.util.tables import format_table
from repro.obs.spans import traced

POLICIES = ["lru", "fifo", "plru", "bitplru", "nru", "srrip"]


@traced("e8.agreement")
def compute_agreement(jobs: int = 0):
    policies = {name: make_policy(name, 8) for name in POLICIES}
    return agreement_matrix(policies, accesses=30_000, seed=0, jobs=jobs)


def test_e8_agreement_matrix(benchmark, save_result, jobs):
    matrix = benchmark.pedantic(compute_agreement, args=(jobs,), rounds=1, iterations=1)
    table = format_table(
        ["policy"] + list(matrix.policies),
        matrix.rows(),
        title="E8a: pairwise hit/miss agreement on one random stream (8-way)",
    )
    save_result(
        "e8_agreement",
        table,
        data={
            "columns": ["policy"] + list(matrix.policies),
            "rows": matrix.rows(),
        },
        params={"policies": POLICIES, "ways": 8, "accesses": 30_000, "jobs": jobs},
    )
    names = matrix.policies
    for name in names:
        assert matrix.value(name, name) == 1.0
    # Every distinct pair agrees most of the time yet never perfectly.
    for i, first in enumerate(names):
        for second in names[i + 1 :]:
            assert 0.5 < matrix.value(first, second) < 1.0
    # PLRU tracks LRU more closely than FIFO does.
    assert matrix.value("plru", "lru") > matrix.value("fifo", "lru")


def _distinguisher_cell(task: tuple[str, str]) -> list[object]:
    """Shortest distinguishing probe for one policy pair (runner cell)."""
    first, second = task
    probe = bfs_distinguishing_sequence(
        make_policy(first, 4), make_policy(second, 4), max_depth=10
    )
    return [first, second, len(probe) if probe else "> 10", probe or ""]


@traced("e8.distinguishers")
def shortest_distinguishers(jobs: int = 0):
    pairs = [
        (first, second)
        for i, first in enumerate(POLICIES)
        for second in POLICIES[i + 1 :]
    ]
    runner = ExperimentRunner(jobs=jobs)
    return runner.map(_distinguisher_cell, pairs)


def test_e8_shortest_distinguishing_probes(benchmark, save_result, jobs):
    rows = benchmark.pedantic(
        shortest_distinguishers, args=(jobs,), rounds=1, iterations=1
    )
    table = format_table(
        ["policy A", "policy B", "probe length", "probe"],
        rows,
        title="E8b: shortest distinguishing probe per policy pair (4-way)",
    )
    save_result(
        "e8_distinguishers",
        table,
        data={
            "columns": ["policy A", "policy B", "probe length", "probe"],
            "rows": rows,
        },
        params={"policies": POLICIES, "ways": 4, "max_depth": 10, "jobs": jobs},
    )
    lengths = {
        (row[0], row[1]): row[2] for row in rows if isinstance(row[2], int)
    }
    # Every pair of these 4-way policies is separable within 10 accesses.
    assert len(lengths) == len(rows)
    assert all(length <= 10 for length in lengths.values())
