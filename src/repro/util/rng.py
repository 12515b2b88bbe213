"""Seeded random number generation.

Every stochastic component of the library (random replacement, noise
models, workload generators) draws randomness through :class:`SeededRng`
so that experiments are reproducible end to end from a single integer
seed.  Independent components should use :meth:`SeededRng.fork` to obtain
decorrelated child streams instead of sharing one generator, so that
adding draws in one component does not perturb another.
"""

from __future__ import annotations

import functools
import hashlib
import random
from collections.abc import Sequence
from typing import TypeVar

T = TypeVar("T")


def derive_seed(seed: int, *labels: object) -> int:
    """Derive a child seed from ``seed`` and any hashable/reprable labels.

    The derivation is a keyed cryptographic hash, so it is stable across
    interpreter invocations and across processes — unlike the built-in
    ``hash()``, which is randomized per process by ``PYTHONHASHSEED``.
    The parallel experiment runner relies on this: a worker process must
    derive exactly the same per-set and per-component streams as the
    serial path in the parent.
    """
    material = repr((seed,) + labels).encode()
    digest = hashlib.blake2s(material, digest_size=4).digest()
    return int.from_bytes(digest, "big")


class SeededRng:
    """A deterministic random stream with support for forking substreams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    @functools.cached_property
    def _random(self) -> random.Random:
        # Seeded on the first draw: many forked streams are never drawn from.
        return random.Random(self.seed)

    def fork(self, label: str) -> "SeededRng":
        """Derive an independent child stream identified by ``label``.

        The child seed depends only on the parent seed and the label, not
        on how many values the parent has produced, which keeps components
        decoupled.  The derivation is process-stable (see
        :func:`derive_seed`), so forked streams agree between the serial
        path and parallel worker processes.
        """
        return SeededRng(derive_seed(self.seed, label))

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer in the inclusive range [low, high]."""
        return self._random.randint(low, high)

    def randrange(self, stop: int) -> int:
        """Return a uniform integer in [0, stop)."""
        return self._random.randrange(stop)

    def random(self) -> float:
        """Return a uniform float in [0, 1)."""
        return self._random.random()

    def choice(self, items: Sequence[T]) -> T:
        """Return a uniform choice from a non-empty sequence."""
        return self._random.choice(items)

    def shuffle(self, items: list) -> None:
        """Shuffle a list in place."""
        self._random.shuffle(items)

    def sample(self, items: Sequence[T], count: int) -> list[T]:
        """Return ``count`` distinct items sampled without replacement."""
        return self._random.sample(items, count)
