"""Whole-hierarchy evaluation: per-level miss ratios and average latency.

The single-level matrices of :mod:`repro.eval.missratio` answer "which
policy wins in isolation"; this module answers the system-level question
the paper's evaluation motivates: given the *combination* of policies a
real machine was found to run, what does a workload see end to end?

The latency model is the standard AMAT (average memory access time)
accounting: each level has a fixed access latency, a miss at every level
pays the next level too, and memory terminates the chain.  Latencies are
parameters, not measurements — the point is comparing policy
assignments under one consistent model.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.cache import CacheConfig, CacheHierarchy
from repro.errors import ConfigurationError
from repro.policies import PolicyFactory
from repro.runner import ExperimentRunner
from repro.util.rng import SeededRng
from repro.workloads.trace import Trace

#: Round-number default latencies (cycles), L1 to memory.
DEFAULT_LATENCIES = {"L1": 4, "L2": 12, "L3": 40, "memory": 200}


@dataclass(frozen=True)
class HierarchyEvaluation:
    """Outcome of one trace through one hierarchy configuration."""

    label: str
    accesses: int
    level_miss_ratios: Mapping[str, float]
    memory_accesses: int
    amat: float

    def row(self, level_names: Sequence[str]) -> list[object]:
        """Render as a table row: label, per-level ratios, AMAT."""
        cells: list[object] = [self.label]
        for name in level_names:
            cells.append(self.level_miss_ratios[name])
        cells.append(self.memory_accesses / self.accesses if self.accesses else 0.0)
        cells.append(self.amat)
        return cells


def evaluate_hierarchy(
    trace: Trace,
    configs: Sequence[CacheConfig],
    policies: Sequence[str | PolicyFactory],
    latencies: Mapping[str, int] | None = None,
    label: str | None = None,
    seed: int = 0,
) -> HierarchyEvaluation:
    """Run ``trace`` through a fresh hierarchy; compute ratios and AMAT."""
    if latencies is None:
        latencies = DEFAULT_LATENCIES
    for config in configs:
        if config.name not in latencies:
            raise ConfigurationError(f"no latency given for level {config.name!r}")
    if "memory" not in latencies:
        raise ConfigurationError("no latency given for 'memory'")
    hierarchy = CacheHierarchy(configs, policies, rng=SeededRng(seed))
    hierarchy.access_all(trace)

    total_accesses = len(trace)
    level_miss_ratios = {}
    total_cycles = 0
    for cache in hierarchy.levels:
        stats = cache.stats
        level_miss_ratios[cache.name] = stats.miss_ratio
        # Every access that reached this level pays its latency.
        total_cycles += stats.accesses * latencies[cache.name]
    total_cycles += hierarchy.stats.memory_accesses * latencies["memory"]

    if label is None:
        label = "+".join(
            policy if isinstance(policy, str) else policy.name for policy in policies
        )
    return HierarchyEvaluation(
        label=label,
        accesses=total_accesses,
        level_miss_ratios=level_miss_ratios,
        memory_accesses=hierarchy.stats.memory_accesses,
        amat=total_cycles / total_accesses if total_accesses else 0.0,
    )


def _evaluate_assignment(task) -> HierarchyEvaluation:
    """Worker entry point: one labelled assignment through one hierarchy."""
    trace, configs, policies, latencies, label, seed = task
    return evaluate_hierarchy(
        trace, configs, policies, latencies=latencies, label=label, seed=seed
    )


def compare_policy_assignments(
    trace: Trace,
    configs: Sequence[CacheConfig],
    assignments: Mapping[str, Sequence[str | PolicyFactory]],
    latencies: Mapping[str, int] | None = None,
    seed: int = 0,
    jobs: int | None = None,
    runner: ExperimentRunner | None = None,
) -> list[HierarchyEvaluation]:
    """Evaluate several named per-level policy assignments on one trace.

    Each assignment simulates an independent hierarchy, so
    ``jobs``/``runner`` can spread them over worker processes with
    results identical to the serial default.
    """
    for label, policies in assignments.items():
        if len(policies) != len(configs):
            raise ConfigurationError(
                f"assignment {label!r} has {len(policies)} policies for "
                f"{len(configs)} levels"
            )
    if runner is None:
        runner = ExperimentRunner(jobs=jobs)
    tasks = [
        (trace, tuple(configs), tuple(policies), latencies, label, seed)
        for label, policies in assignments.items()
    ]
    return runner.map(_evaluate_assignment, tasks)
