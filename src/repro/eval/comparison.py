"""Behavioural agreement between policies.

Experiment E8: how often do two policies produce the *same* hit/miss
outcome on random access streams?  High agreement explains why random
testing alone cannot identify a policy and motivates the crafted
distinguishing sequences of :mod:`repro.core.distinguish`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.distinguish import response
from repro.policies import ReplacementPolicy
from repro.runner import ExperimentRunner


@dataclass(frozen=True)
class AgreementMatrix:
    """Pairwise agreement fractions over a policy list."""

    policies: tuple[str, ...]
    #: agreement[i][j] = fraction of accesses with identical hit/miss.
    agreement: tuple[tuple[float, ...], ...]

    def value(self, first: str, second: str) -> float:
        """Agreement between two named policies."""
        i = self.policies.index(first)
        j = self.policies.index(second)
        return self.agreement[i][j]

    def rows(self) -> list[list[object]]:
        """Table rows: policy name followed by one column per policy."""
        result = []
        for name, row in zip(self.policies, self.agreement):
            result.append([name] + list(row))
        return result


def _replay_stream(task: tuple[ReplacementPolicy, list[int]]) -> list[bool]:
    """Hit/miss outcome of one access stream from one policy's established set.

    Module-level so the experiment runner can ship it to worker
    processes.  :func:`~repro.core.distinguish.response` replays the
    thrash and establishment setup, then the stream, on the compiled
    kernel when the policy compiles and on a reset clone's interpreted
    set otherwise, so replays are pure functions of (policy, stream).
    """
    policy, stream = task
    return list(response(policy, stream))


def agreement_matrix(
    policies: dict[str, ReplacementPolicy],
    accesses: int = 20_000,
    seed: int = 0,
    jobs: int | None = None,
    runner: ExperimentRunner | None = None,
) -> AgreementMatrix:
    """Measure pairwise hit/miss agreement on one random access stream.

    All policies replay the identical stream from their established
    state; the stream mixes fresh blocks with reuse of a recent window,
    like the verification traces of the inference pipeline.  Replays are
    independent per policy, so ``jobs``/``runner`` can distribute them;
    the outcome vectors are identical either way.
    """
    names = tuple(sorted(policies))
    ways_values = {policies[name].ways for name in names}
    if len(ways_values) != 1:
        raise ValueError("all compared policies must share one associativity")
    ways = ways_values.pop()
    rng = random.Random(seed)
    next_fresh = ways
    window = ways + 3
    stream = []
    for _ in range(accesses):
        if rng.random() < 0.3:
            block = next_fresh
            next_fresh += 1
        else:
            block = max(next_fresh - 1 - rng.randrange(window), 0)
        stream.append(block)
    if runner is None:
        runner = ExperimentRunner(jobs=jobs)
    replayed = runner.map(
        _replay_stream,
        [(policies[name], stream) for name in names],
        labels=[f"replay:{name}" for name in names],
    )
    outcomes = dict(zip(names, replayed))
    matrix = []
    for first in names:
        row = []
        for second in names:
            same = sum(
                1 for a, b in zip(outcomes[first], outcomes[second]) if a == b
            )
            row.append(same / accesses)
        matrix.append(tuple(row))
    return AgreementMatrix(policies=names, agreement=tuple(matrix))
