"""Metamorphic invariants of permutation inference.

In the style of AnICA's register-renaming check for throughput
predictors: a change to an experiment that cannot change what is
measured must not change what is inferred, nor what inferring it costs.
Two such changes:

* renaming the block ids of every measurement through an injective map
  (the oracle only ever sees distinct blocks, never their numbers);
* on a replayable simulated platform, another platform seed (another
  virtual-to-physical mapping of the buffer) and another target set.
"""

import random

import pytest

from repro.core import InferenceConfig, PermutationInference, SimulatedSetOracle
from repro.core.oracle import MissCountOracle
from repro.hardware import HardwarePlatform, HardwareSetOracle, get_processor
from repro.policies import get

#: The trimmed verification E1 runs with.
FAST = InferenceConfig(verify_sequences=10, verify_length=40)


class Renaming(dict):
    """An injective renaming of block ids, drawn lazily from a seeded rng."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self._rng = random.Random(seed)
        self._taken: set[int] = set()

    def __missing__(self, block: int) -> int:
        name = self._rng.randrange(1 << 40)
        while name in self._taken:
            name = self._rng.randrange(1 << 40)
        self._taken.add(name)
        self[block] = name
        return name


class RenamingOracle(MissCountOracle):
    """Forwards every measurement to ``inner`` with its block ids renamed.

    Cost accounting is the inner oracle's, so a renamed run reports the
    measurements it actually spent.
    """

    def __init__(self, inner: MissCountOracle, renaming: Renaming) -> None:
        self.inner = inner
        self.renaming = renaming
        self.ways = inner.ways

    def provenance(self) -> str | None:
        inner = self.inner.provenance()
        return None if inner is None else f"renamed|{inner}"

    @property
    def measurements(self) -> int:
        return self.inner.measurements

    @property
    def accesses(self) -> int:
        return self.inner.accesses

    def reset_cost(self) -> None:
        self.inner.reset_cost()

    def _renamed(self, blocks):
        return [self.renaming[block] for block in blocks]

    def count_misses(self, setup, probe) -> int:
        return self.inner.count_misses(self._renamed(setup), self._renamed(probe))

    def query(self, requests) -> list[int]:
        return self.inner.query(
            [(self._renamed(setup), self._renamed(probe)) for setup, probe in requests]
        )


def _outcome(result) -> tuple:
    return result.spec, result.succeeded, result.measurements


@pytest.mark.parametrize("ways", [4, 8])
@pytest.mark.parametrize("policy", ["lru", "fifo", "plru", "qlru_h00_m1"])
def test_renaming_block_ids_changes_nothing(policy, ways):
    plain = PermutationInference(SimulatedSetOracle(get(policy, ways))).infer()
    renaming = Renaming(seed=ways)
    renamed = PermutationInference(
        RenamingOracle(SimulatedSetOracle(get(policy, ways)), renaming)
    ).infer()
    assert any(block != name for block, name in renaming.items())
    assert _outcome(renamed) == _outcome(plain)


def _hardware_inference(processor: str, level: str, seed: int = 0, set_index=None):
    platform = HardwarePlatform(get_processor(processor), seed=seed)
    assert platform.replayable
    oracle = HardwareSetOracle(platform, level, set_index=set_index)
    return PermutationInference(oracle, config=FAST).infer()


@pytest.mark.parametrize(
    "processor, level",
    [
        ("atom-d525-like", "L1"),
        ("atom-d525-like", "L2"),
        ("sandybridge-like", "L1"),
        ("sandybridge-like", "L2"),
    ],
)
def test_platform_seed_and_target_set_change_nothing(processor, level):
    reference = _hardware_inference(processor, level)
    assert reference.succeeded
    for variant in (
        _hardware_inference(processor, level, seed=5),
        _hardware_inference(processor, level, set_index=3),
    ):
        assert (variant.spec, variant.measurements) == (
            reference.spec,
            reference.measurements,
        )
