"""Measurement-based inference of cache geometry.

Before a replacement policy can be probed, the experimenter needs the
cache's geometry.  Data sheets usually provide it, but the Abel/Reineke
line of work (and the tools that grew out of it) also *measures* it, and
so does this module — from the same miss-count primitive used
everywhere else, but over raw addresses rather than same-set block ids:

1. **line size** — the smallest power-of-two stride at which two
   addresses stop sharing a cache line (touch ``stride``, probe ``0``:
   a hit means same line);
2. **capacity** — the largest contiguous working set whose second pass
   is free of misses.  A contiguous region of N lines spreads
   round-robin over the sets, so it fits exactly when
   ``N <= sets * ways``; doubling finds the scale and a binary search
   pins the exact boundary (which need not be a power of two — Atom's
   24 KiB L1 is found exactly);
3. **associativity** — addresses at stride ``capacity`` all map to one
   set (capacity is a multiple of the way size), so the largest group
   that survives a double pass is the associativity;
4. **way size and set count** — derived.

The oracle is an :class:`AddressOracle`: run raw addresses from a fresh
state, count one level's misses.  :class:`PlatformAddressOracle` adapts
a simulated platform's first level; the same algorithms apply to higher
levels through conflict-pool wrapping.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import InferenceError
from repro.hardware.platform import HardwarePlatform


class AddressOracle(ABC):
    """Miss counting over raw addresses (geometry probing)."""

    @abstractmethod
    def count_misses(self, setup: Sequence[int], probe: Sequence[int]) -> int:
        """Run setup then probe from a fresh state; count probe misses."""


class PlatformAddressOracle(AddressOracle):
    """Address oracle over one level of a simulated platform.

    Addresses are offsets into a private buffer, so callers can treat
    the address space as starting at zero.
    """

    def __init__(
        self,
        platform: HardwarePlatform,
        level: str = "L1",
        buffer_size: int = 64 * 1024 * 1024,
    ) -> None:
        self.platform = platform
        self.level = level
        self._buffer = platform.allocate(buffer_size)

    def count_misses(self, setup: Sequence[int], probe: Sequence[int]) -> int:
        platform = self.platform
        base = self._buffer.base
        platform.wbinvd()
        platform.load_all([base + offset for offset in setup])
        before = platform.counters.snapshot()
        platform.load_all([base + offset for offset in probe])
        return platform.counters.delta(self.level, "miss", before)


@dataclass(frozen=True)
class GeometryFinding:
    """Measured geometry of one cache level."""

    line_size: int
    ways: int
    total_size: int

    @property
    def way_size(self) -> int:
        """Bytes covered by one way (the set-aliasing stride)."""
        return self.total_size // self.ways

    @property
    def num_sets(self) -> int:
        """Sets = way size / line size."""
        return self.way_size // self.line_size

    def describe(self) -> str:
        """Data-sheet style one-liner."""
        return (
            f"{self.total_size // 1024} KiB, {self.ways}-way, "
            f"{self.num_sets} sets, {self.line_size} B lines"
        )


class GeometryInference:
    """Infer line size, capacity and associativity from measurements."""

    def __init__(
        self,
        oracle: AddressOracle,
        max_line_size: int = 1024,
        max_ways: int = 64,
        max_size: int = 32 * 1024 * 1024,
    ) -> None:
        self.oracle = oracle
        self.max_line_size = max_line_size
        self.max_ways = max_ways
        self.max_size = max_size

    # -- stage 1: line size --------------------------------------------------
    def infer_line_size(self) -> int:
        """Smallest power-of-two stride separating two lines."""
        stride = 1
        while stride <= self.max_line_size:
            if self.oracle.count_misses([stride], [0]) == 1:
                return stride
            stride *= 2
        raise InferenceError(f"no line boundary found up to {self.max_line_size}")

    # -- stage 2: capacity -----------------------------------------------------
    def _working_set_fits(self, lines: int, line_size: int) -> bool:
        region = [index * line_size for index in range(lines)]
        return self.oracle.count_misses(region, region) == 0

    def infer_capacity(self, line_size: int) -> int:
        """Exact capacity in bytes via doubling plus binary search."""
        lines = 1
        max_lines = self.max_size // line_size
        while lines <= max_lines and self._working_set_fits(lines, line_size):
            lines *= 2
        if lines == 1:
            raise InferenceError("even a single line does not fit; broken oracle")
        if lines > max_lines:
            raise InferenceError(f"cache larger than the {self.max_size} B limit")
        low, high = lines // 2, lines  # fits at low, does not fit at high
        while high - low > 1:
            mid = (low + high) // 2
            if self._working_set_fits(mid, line_size):
                low = mid
            else:
                high = mid
        return low * line_size

    # -- stage 3: associativity ----------------------------------------------
    def infer_ways(self, capacity: int) -> int:
        """Largest group of stride-``capacity`` lines surviving a double pass."""
        best = 0
        for k in range(1, self.max_ways + 1):
            group = [index * capacity for index in range(k)]
            if self.oracle.count_misses([], group + group) == k:
                best = k
            elif best:
                break
        if best == 0:
            raise InferenceError("could not determine associativity")
        return best

    # -- all together ------------------------------------------------------------
    def infer(self) -> GeometryFinding:
        """Run all stages and assemble the finding."""
        line_size = self.infer_line_size()
        capacity = self.infer_capacity(line_size)
        ways = self.infer_ways(capacity)
        if capacity % ways != 0:
            raise InferenceError(
                f"inconsistent geometry: capacity {capacity} not divisible by "
                f"{ways} ways"
            )
        return GeometryFinding(line_size=line_size, ways=ways, total_size=capacity)
