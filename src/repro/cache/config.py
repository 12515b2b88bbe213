"""Cache geometry configuration.

A :class:`CacheConfig` captures the geometry of one cache level the same
way data sheets do — total capacity, associativity, line size — and
derives the index/offset bit layout used for physical address
decomposition.  All three geometry parameters must be powers of two, as
in every processor the paper examines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.util.bits import ilog2, is_power_of_two


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and identity of a single cache level.

    Attributes:
        name: human-readable level name, e.g. ``"L1"``.
        size: total capacity in bytes.
        ways: associativity.
        line_size: cache line size in bytes.
        inclusion: relation to the levels above: ``"inclusive"`` (its
            evictions back-invalidate them) or ``"nine"`` (non-inclusive
            non-exclusive), the two kinds of level in the Intel
            hierarchies the paper probes.
    """

    name: str
    size: int
    ways: int
    line_size: int = 64
    inclusion: str = "nine"
    #: Set-index function: "bits" selects the classic low index bits;
    #: "xor-fold" XORs all index-width chunks of the line address, the
    #: simplest model of the sliced/complex addressing of modern LLCs.
    #: With hashing the set of an address is no longer readable off the
    #: index bits, so eviction sets must be *discovered* (see
    #: repro.core.evictionsets).
    index_hash: str = "bits"

    num_sets: int = field(init=False)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.line_size):
            raise ConfigurationError(f"line_size must be a power of two, got {self.line_size}")
        if self.ways < 1:
            raise ConfigurationError(f"ways must be >= 1, got {self.ways}")
        if self.size % (self.ways * self.line_size) != 0:
            raise ConfigurationError(
                f"size {self.size} is not divisible by ways*line_size "
                f"({self.ways} * {self.line_size})"
            )
        num_sets = self.size // (self.ways * self.line_size)
        # Sets are selected by address bits, so their count must be a power
        # of two; size and ways need not be (e.g. Atom's 24 KiB 6-way L1).
        if not is_power_of_two(num_sets):
            raise ConfigurationError(
                f"number of sets must be a power of two, got {num_sets}"
            )
        if self.inclusion not in ("inclusive", "nine"):
            raise ConfigurationError(f"unknown inclusion policy {self.inclusion!r}")
        if self.index_hash not in ("bits", "xor-fold"):
            raise ConfigurationError(f"unknown index_hash {self.index_hash!r}")
        object.__setattr__(self, "num_sets", num_sets)

    @property
    def offset_bits(self) -> int:
        """Number of line-offset bits of an address."""
        return ilog2(self.line_size)

    @property
    def index_bits(self) -> int:
        """Number of set-index bits of an address."""
        return ilog2(self.num_sets)

    @property
    def way_size(self) -> int:
        """Bytes covered by one way (the set-index aliasing stride)."""
        return self.num_sets * self.line_size

    def describe(self) -> str:
        """One-line summary, e.g. ``L1: 32 KiB, 8-way, 64 sets, 64 B lines``."""
        kib = self.size / 1024
        return (
            f"{self.name}: {kib:g} KiB, {self.ways}-way, "
            f"{self.num_sets} sets, {self.line_size} B lines ({self.inclusion})"
        )
