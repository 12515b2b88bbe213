"""The parametric QLRU family (quad-age LRU).

Modern Intel L2/L3 caches implement deterministic 2-bit age policies that
follow-on work to the paper (nanoBench, CacheQuery) names
``QLRU_<hit>_<miss>_<replace>_<update>``.  This module implements the
family in the same spirit: each line carries a 2-bit age (0 = most
valuable, 3 = next victim) and a concrete policy is a choice of four
component functions:

* **hit function** — the new age of a line on a hit, as a function of its
  current age (a 4-tuple, e.g. ``(0, 0, 0, 0)`` always rejuvenates);
* **insertion age** — the age given to a newly filled line;
* **victim rule** — which line of age 3 is evicted (``"leftmost"`` or
  ``"rightmost"`` physical way);
* **aging rule** — what to do when no line has age 3: ``"to-max"``
  repeatedly increments every age until one saturates, ``"single"`` adds
  the single offset that makes the current maximum 3.

The named presets exposed through the registry are representative points
of this space; the identification engine in :mod:`repro.core.identify`
enumerates them when matching an unknown cache.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.errors import ConfigurationError
from repro.policies.base import ReplacementPolicy

MAX_AGE = 3

#: Preset hit functions, keyed by a short name used in policy ids.
HIT_FUNCTIONS: dict[str, tuple[int, int, int, int]] = {
    "h00": (0, 0, 0, 0),  # always promote to age 0
    "h01": (0, 0, 0, 1),  # a hit on a next-victim line only partially protects it
    "h11": (0, 0, 1, 1),  # old lines stay old-ish
    "h21": (0, 1, 2, 1),  # gradual promotion by one step (saturating at 0)
}


class QlruPolicy(ReplacementPolicy):
    """A concrete member of the QLRU family."""

    NAME = "qlru"

    def __init__(
        self,
        ways: int,
        hit_map: tuple[int, int, int, int] = HIT_FUNCTIONS["h00"],
        insert_age: int = 2,
        victim_rule: str = "leftmost",
        aging_rule: str = "to-max",
    ) -> None:
        super().__init__(ways)
        if len(hit_map) != MAX_AGE + 1 or any(not 0 <= a <= MAX_AGE for a in hit_map):
            raise ConfigurationError(f"hit_map must be 4 ages in [0, 3], got {hit_map}")
        if not 0 <= insert_age <= MAX_AGE:
            raise ConfigurationError(f"insert_age must be in [0, 3], got {insert_age}")
        if victim_rule not in ("leftmost", "rightmost"):
            raise ConfigurationError(f"unknown victim_rule {victim_rule!r}")
        if aging_rule not in ("to-max", "single"):
            raise ConfigurationError(f"unknown aging_rule {aging_rule!r}")
        self.hit_map = tuple(hit_map)
        self.insert_age = insert_age
        self.victim_rule = victim_rule
        self.aging_rule = aging_rule
        self._ages = [MAX_AGE] * ways

    @property
    def variant_name(self) -> str:
        """A nanoBench-style identifier for this parameter combination."""
        hit_names = {v: k for k, v in HIT_FUNCTIONS.items()}
        hit = hit_names.get(self.hit_map, "h" + "".join(str(a) for a in self.hit_map))
        victim = "r0" if self.victim_rule == "leftmost" else "r1"
        aging = "u0" if self.aging_rule == "to-max" else "u1"
        return f"qlru_{hit}_m{self.insert_age}_{victim}_{aging}"

    def touch(self, way: int) -> None:
        if not 0 <= way < self.ways:
            self._check_way(way)
        self._ages[way] = self.hit_map[self._ages[way]]

    def _age_until_max(self) -> None:
        if self.aging_rule == "to-max":
            while MAX_AGE not in self._ages:
                self._ages = [min(MAX_AGE, a + 1) for a in self._ages]
        else:
            offset = MAX_AGE - max(self._ages)
            if offset > 0:
                self._ages = [min(MAX_AGE, a + offset) for a in self._ages]

    def evict(self) -> int:
        self._age_until_max()
        candidates = [way for way, age in enumerate(self._ages) if age == MAX_AGE]
        if self.victim_rule == "leftmost":
            return candidates[0]
        return candidates[-1]

    def fill(self, way: int) -> None:
        if not 0 <= way < self.ways:
            self._check_way(way)
        self._ages[way] = self.insert_age

    def reset(self) -> None:
        self._ages = [MAX_AGE] * self.ways

    def state_key(self) -> Hashable:
        return tuple(self._ages)

    def load_state(self, key: Hashable) -> None:
        self._ages = list(key)

    def clone(self) -> "QlruPolicy":
        copy = QlruPolicy(
            self.ways,
            hit_map=self.hit_map,
            insert_age=self.insert_age,
            victim_rule=self.victim_rule,
            aging_rule=self.aging_rule,
        )
        copy._ages = list(self._ages)
        return copy


def qlru_variants() -> dict[str, dict]:
    """Return constructor kwargs for the named QLRU presets.

    These are the points of the parameter space exposed in the policy
    registry and enumerated by candidate identification.
    """
    variants: dict[str, dict] = {}
    for hit_name, hit_map in HIT_FUNCTIONS.items():
        for insert_age in (0, 1, 2, 3):
            name = f"qlru_{hit_name}_m{insert_age}"
            variants[name] = {
                "hit_map": hit_map,
                "insert_age": insert_age,
                "victim_rule": "leftmost",
                "aging_rule": "to-max",
            }
    return variants


def _register_variants() -> None:
    """Register every named preset as its own registry entry.

    The preset keyword arguments become the entry's defaults; explicit
    ``PolicyFactory`` params still override them.
    """
    from repro.policies.registry import register_builder

    for variant_name, preset in qlru_variants().items():

        def build(ways, set_index, shared, rng, params, _preset=preset):
            merged = dict(_preset)
            merged.update(params)
            return QlruPolicy(ways, **merged)

        register_builder(variant_name, QlruPolicy, build)


_register_variants()
