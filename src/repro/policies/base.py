"""Replacement policy interface.

A :class:`ReplacementPolicy` instance manages the replacement state of a
*single cache set* with a fixed number of ways.  The cache simulator owns
the mapping from tags to ways and drives the policy through three events:

* :meth:`ReplacementPolicy.touch` — an access hit way ``w``;
* :meth:`ReplacementPolicy.evict` — a miss occurred in a full set and a
  victim way must be chosen (may mutate state, e.g. RRIP aging);
* :meth:`ReplacementPolicy.fill` — a new block was installed in way ``w``
  (either the victim or a previously invalid way).

Policies that need cache-global coordination (set dueling in DIP/DRRIP)
share a context object created once per cache via
:meth:`ReplacementPolicy.create_shared`; standalone instances create a
private context so a policy is always usable on its own.

Determinism contract: policies that do not draw randomness must expose
their full state through :meth:`ReplacementPolicy.state_key` so that the
predictability analyses in :mod:`repro.eval.predictability` can enumerate
the reachable state space.  Randomized policies return ``None`` there.
:meth:`ReplacementPolicy.load_state` is the inverse: it puts a policy into
the state a key describes, so ``p.load_state(q.state_key())`` makes ``p``
behave exactly like ``q`` from then on.  The compiled kernel
(:mod:`repro.kernels.automaton`) enumerates a policy's automaton through
one scratch instance and these two methods alone; a policy without
``load_state`` runs on the interpreter.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Hashable

from repro.errors import ConfigurationError, KernelUnsupported
from repro.util.rng import SeededRng


class SharedContext:
    """Base class for cache-global policy state (e.g. duel counters).

    The default context carries nothing; policies using set dueling
    subclass it.
    """

    def reset(self) -> None:
        """Reset cache-global state; called when the owning cache resets."""


class ReplacementPolicy(ABC):
    """Replacement state of one cache set.

    Subclasses must set :attr:`NAME` (the registry key) and may set
    :attr:`DETERMINISTIC` to ``False`` for randomized policies.
    """

    NAME: str = ""
    DETERMINISTIC: bool = True

    def __init__(self, ways: int) -> None:
        if ways < 1:
            raise ConfigurationError(f"ways must be >= 1, got {ways}")
        self.ways = ways

    # -- cache-global coordination -------------------------------------
    @classmethod
    def create_shared(cls, num_sets: int, rng: SeededRng | None = None) -> SharedContext:
        """Create the cache-global context shared by all sets of a cache."""
        return SharedContext()

    # -- event interface ------------------------------------------------
    @abstractmethod
    def touch(self, way: int) -> None:
        """Record a hit on ``way``."""

    @abstractmethod
    def evict(self) -> int:
        """Choose (and account for) a victim way in a full set."""

    @abstractmethod
    def fill(self, way: int) -> None:
        """Record that a new block was installed in ``way``."""

    @abstractmethod
    def reset(self) -> None:
        """Return to the initial (power-on) state."""

    # -- introspection ---------------------------------------------------
    @abstractmethod
    def state_key(self) -> Hashable | None:
        """Hashable canonical state, or None for randomized policies."""

    def load_state(self, key: Hashable) -> None:
        """Enter the state ``key`` (a :meth:`state_key` of this class) names.

        The default raises :class:`~repro.errors.KernelUnsupported`, which
        keeps a policy that does not implement it on the interpreter.
        """
        raise KernelUnsupported(
            f"policy {type(self).__name__} cannot load a state key"
        )

    @abstractmethod
    def clone(self) -> "ReplacementPolicy":
        """Deep copy sharing the same cache-global context, if any."""

    # -- helpers ----------------------------------------------------------
    def _check_way(self, way: int) -> None:
        """Raise ``ValueError`` unless ``way`` names a way of this set.

        The hot ``touch``/``fill`` paths test the range inline and call
        this only to raise.
        """
        if not 0 <= way < self.ways:
            raise ValueError(f"way {way} out of range for {self.ways}-way set")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} ways={self.ways}>"
