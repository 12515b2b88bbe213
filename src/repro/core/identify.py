"""Candidate-set identification of policies outside the permutation class.

When :class:`~repro.core.inference.PermutationInference` reports that a
cache is not a (standard-miss) permutation policy — as the paper found
for several L2 caches — the fallback is classic hypothesis elimination:

1. start from a pool of candidate policy implementations (every
   deterministic policy in the registry, plus any caller-supplied spec);
2. screen the pool against random measured sequences;
3. while more than one candidate survives, search for a sequence that
   *distinguishes* two survivors, measure it, and drop the losers;
4. validate the survivor against additional random sequences.

The oracle interface is the same miss-count primitive used everywhere
else, so the procedure runs unchanged against simulated hardware with
noisy counters (wrap the oracle in a
:class:`~repro.core.oracle.VotingOracle`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.distinguish import miss_count, random_distinguishing_sequence
from repro.core.oracle import MissCountOracle
from repro.errors import ConfigurationError
from repro.obs import metrics as obs_metrics
from repro.policies import (
    PermutationPolicy,
    PermutationSpec,
    ReplacementPolicy,
    available,
    get,
)


def default_candidates(ways: int) -> dict[str, ReplacementPolicy]:
    """All deterministic registry policies constructible at ``ways``."""
    candidates: dict[str, ReplacementPolicy] = {}
    for name in available():
        if name == "permutation":
            continue  # needs an explicit spec
        try:
            policy = get(name, ways)
        except ConfigurationError:
            continue  # e.g. tree PLRU at a non-power-of-two associativity
        if policy.DETERMINISTIC:
            candidates[name] = policy
    return candidates


@dataclass
class IdentificationConfig:
    """Knobs for the elimination procedure."""

    screening_sequences: int = 40
    screening_length: int = 50
    validation_sequences: int = 20
    distinguisher_tries: int = 400
    distinguisher_length: int = 40
    thrash_factor: int = 2
    seed: int = 0


@dataclass
class IdentificationResult:
    """Outcome of a candidate-elimination run."""

    name: str | None
    survivors: list[str]
    measurements: int
    accesses: int
    validated: bool
    eliminated: dict[str, str] = field(default_factory=dict)  # name -> stage

    @property
    def succeeded(self) -> bool:
        """True when exactly one validated candidate survived."""
        return self.name is not None and self.validated


class CandidateIdentification:
    """Identify an unknown cache by eliminating candidate policies."""

    def __init__(
        self,
        oracle: MissCountOracle,
        ways: int,
        candidates: dict[str, ReplacementPolicy] | None = None,
        config: IdentificationConfig | None = None,
    ) -> None:
        self.oracle = oracle
        self.ways = ways
        self.config = config if config is not None else IdentificationConfig()
        if candidates is None:
            candidates = default_candidates(ways)
        self.candidates = dict(candidates)

    def add_spec_candidate(self, name: str, spec: PermutationSpec) -> None:
        """Add an inferred permutation spec to the candidate pool."""
        self.candidates[name] = PermutationPolicy(self.ways, spec)

    # -- measurement helpers ---------------------------------------------
    def _setup(self) -> list[int]:
        prefix = [10_000 + i for i in range(self.config.thrash_factor * self.ways)]
        return prefix + list(range(self.ways))

    def _measure(self, probe: list[int]) -> int:
        return self.oracle.count_misses(self._setup(), probe)

    def _predicts(self, policy: ReplacementPolicy, probe: list[int], measured: int) -> bool:
        return miss_count(policy, probe, self.config.thrash_factor) == measured

    def _random_probe(self, rng: random.Random, length: int) -> list[int]:
        pool = list(range(self.ways)) + [20_000 + i for i in range(self.ways)]
        return [rng.choice(pool) for _ in range(length)]

    # -- the elimination loop -----------------------------------------------
    def identify(self) -> IdentificationResult:
        """Run screening, targeted elimination and validation."""
        self.oracle.reset_cost()
        obs_metrics.DEFAULT.incr("identify.runs")
        rng = random.Random(self.config.seed)
        alive = dict(self.candidates)
        eliminated: dict[str, str] = {}

        # Stage 1: random screening.
        for _ in range(self.config.screening_sequences):
            if len(alive) <= 1:
                break
            probe = self._random_probe(rng, self.config.screening_length)
            measured = self._measure(probe)
            for name in list(alive):
                if not self._predicts(alive[name], probe, measured):
                    eliminated[name] = "screening"
                    obs_metrics.DEFAULT.incr("identify.rejected")
                    del alive[name]

        # Stage 2: targeted elimination of behaviourally close survivors.
        stuck_pairs: set[tuple[str, str]] = set()
        while len(alive) > 1:
            names = sorted(alive)
            pair = None
            for i, first in enumerate(names):
                for second in names[i + 1 :]:
                    if (first, second) not in stuck_pairs:
                        pair = (first, second)
                        break
                if pair:
                    break
            if pair is None:
                break  # every remaining pair is behaviourally indistinguishable
            probe = random_distinguishing_sequence(
                alive[pair[0]],
                alive[pair[1]],
                tries=self.config.distinguisher_tries,
                length=self.config.distinguisher_length,
                seed=rng.randrange(1 << 30),
            )
            if probe is None:
                stuck_pairs.add(pair)
                continue
            measured = self._measure(probe)
            for name in list(alive):
                if not self._predicts(alive[name], probe, measured):
                    eliminated[name] = "targeted"
                    obs_metrics.DEFAULT.incr("identify.rejected")
                    del alive[name]

        # Stage 3: validate the survivor(s).
        validated = False
        winner: str | None = None
        if alive:
            # With several indistinguishable survivors report the first in
            # name order; they are behaviourally identical anyway.
            winner = sorted(alive)[0]
            validated = True
            for _ in range(self.config.validation_sequences):
                probe = self._random_probe(rng, self.config.screening_length)
                measured = self._measure(probe)
                if not self._predicts(alive[winner], probe, measured):
                    validated = False
                    break
            if not validated and winner is not None:
                obs_metrics.DEFAULT.incr("identify.rejected")

        return IdentificationResult(
            name=winner if validated else None,
            survivors=sorted(alive),
            measurements=self.oracle.measurements,
            accesses=self.oracle.accesses,
            validated=validated,
            eliminated=eliminated,
        )
