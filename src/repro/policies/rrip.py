"""Re-reference interval prediction policies: SRRIP, BRRIP, DRRIP.

RRIP (Jaleel et al., ISCA 2010) attaches an M-bit *re-reference
prediction value* (RRPV) to every line; larger values predict a more
distant re-reference.  The victim is the leftmost line with the maximum
RRPV (``2**M - 1``); if none exists, all RRPVs are incremented until one
does.

* **SRRIP** inserts new lines with RRPV ``max - 1`` ("long") and promotes
  hits to RRPV 0 (hit priority).
* **BRRIP** inserts with RRPV ``max`` ("distant") most of the time and
  ``max - 1`` with a small probability, which protects the cache against
  thrashing working sets.
* **DRRIP** set-duels SRRIP against BRRIP (see
  :mod:`repro.policies.dueling`).

Modern Intel last-level caches implement close relatives of this family
(the QLRU variants in :mod:`repro.policies.qlru`), which is why it
belongs in the evaluation.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.errors import ConfigurationError
from repro.policies.base import ReplacementPolicy, SharedContext
from repro.policies.dueling import DuelController
from repro.policies.registry import register
from repro.util.rng import SeededRng


@register(tags=("default-eval",))
class SrripPolicy(ReplacementPolicy):
    """Static RRIP with hit-priority promotion."""

    NAME = "srrip"

    def __init__(self, ways: int, rrpv_bits: int = 2) -> None:
        super().__init__(ways)
        if rrpv_bits < 1:
            raise ConfigurationError("rrpv_bits must be >= 1")
        self.rrpv_bits = rrpv_bits
        self.rrpv_max = (1 << rrpv_bits) - 1
        self._rrpv = [self.rrpv_max] * ways

    def touch(self, way: int) -> None:
        if not 0 <= way < self.ways:
            self._check_way(way)
        self._rrpv[way] = 0

    def evict(self) -> int:
        while True:
            for way, value in enumerate(self._rrpv):
                if value == self.rrpv_max:
                    return way
            self._rrpv = [value + 1 for value in self._rrpv]

    def _insertion_rrpv(self) -> int:
        return self.rrpv_max - 1

    def fill(self, way: int) -> None:
        if not 0 <= way < self.ways:
            self._check_way(way)
        self._rrpv[way] = self._insertion_rrpv()

    def reset(self) -> None:
        self._rrpv = [self.rrpv_max] * self.ways

    def state_key(self) -> Hashable:
        return tuple(self._rrpv)

    def load_state(self, key: Hashable) -> None:
        self._rrpv = list(key)

    def clone(self) -> "SrripPolicy":
        copy = type(self)(self.ways, rrpv_bits=self.rrpv_bits)
        copy._rrpv = list(self._rrpv)
        return copy


@register(rng=True)
class BrripPolicy(SrripPolicy):
    """Bimodal RRIP: distant insertion with occasional long insertion."""

    NAME = "brrip"
    DETERMINISTIC = False

    def __init__(
        self,
        ways: int,
        rrpv_bits: int = 2,
        rng: SeededRng | None = None,
        epsilon: float = 1 / 32,
    ) -> None:
        super().__init__(ways, rrpv_bits=rrpv_bits)
        self._rng = rng if rng is not None else SeededRng(0)
        self.epsilon = epsilon

    def _insertion_rrpv(self) -> int:
        if self._rng.random() < self.epsilon:
            return self.rrpv_max - 1
        return self.rrpv_max

    def state_key(self) -> None:
        return None

    def clone(self) -> "BrripPolicy":
        copy = BrripPolicy(self.ways, rrpv_bits=self.rrpv_bits, rng=self._rng, epsilon=self.epsilon)
        copy._rrpv = list(self._rrpv)
        return copy


class DrripSharedContext(SharedContext):
    """Cache-global duel state for DRRIP."""

    def __init__(self, num_sets: int, rng: SeededRng | None) -> None:
        self.controller = DuelController(num_sets)
        self.rng = rng if rng is not None else SeededRng(0)

    def reset(self) -> None:
        self.controller.reset()


@register(dueling=True)
class DrripPolicy(ReplacementPolicy):
    """Dynamic RRIP: set dueling between SRRIP (primary) and BRRIP."""

    NAME = "drrip"
    DETERMINISTIC = False

    def __init__(
        self,
        ways: int,
        rrpv_bits: int = 2,
        rng: SeededRng | None = None,
        shared: DrripSharedContext | None = None,
        set_index: int = 0,
        epsilon: float = 1 / 32,
    ) -> None:
        super().__init__(ways)
        if shared is None:
            shared = DrripSharedContext(num_sets=1, rng=rng)
        self._shared = shared
        self._set_index = set_index
        self.rrpv_bits = rrpv_bits
        self.rrpv_max = (1 << rrpv_bits) - 1
        self.epsilon = epsilon
        self._rng = shared.rng.fork(f"brrip-{set_index}")
        self._rrpv = [self.rrpv_max] * ways

    @classmethod
    def create_shared(cls, num_sets: int, rng: SeededRng | None = None) -> DrripSharedContext:
        return DrripSharedContext(num_sets, rng)

    def touch(self, way: int) -> None:
        if not 0 <= way < self.ways:
            self._check_way(way)
        self._rrpv[way] = 0

    def evict(self) -> int:
        self._shared.controller.record_miss(self._set_index)
        while True:
            for way, value in enumerate(self._rrpv):
                if value == self.rrpv_max:
                    return way
            self._rrpv = [value + 1 for value in self._rrpv]

    def fill(self, way: int) -> None:
        if not 0 <= way < self.ways:
            self._check_way(way)
        if self._shared.controller.use_primary(self._set_index):
            self._rrpv[way] = self.rrpv_max - 1
        elif self._rng.random() < self.epsilon:
            self._rrpv[way] = self.rrpv_max - 1
        else:
            self._rrpv[way] = self.rrpv_max

    def reset(self) -> None:
        self._rrpv = [self.rrpv_max] * self.ways

    def state_key(self) -> None:
        return None

    def clone(self) -> "DrripPolicy":
        copy = DrripPolicy(
            self.ways,
            rrpv_bits=self.rrpv_bits,
            shared=self._shared,
            set_index=self._set_index,
            epsilon=self.epsilon,
        )
        copy._rrpv = list(self._rrpv)
        return copy
