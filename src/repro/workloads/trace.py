"""Memory access traces.

A :class:`Trace` is a named sequence of byte addresses (loads).  The
evaluation half of the paper runs benchmark traces through simulated
caches under the reverse-engineered policies; our traces come from the
generators in this package (the SPEC substitution documented in
DESIGN.md).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.errors import TraceFormatError


@dataclass(frozen=True)
class Trace:
    """An immutable sequence of load addresses."""

    name: str
    addresses: tuple[int, ...]
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.addresses and min(self.addresses) < 0:
            raise TraceFormatError("trace contains a negative address")

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[int]:
        return iter(self.addresses)

    @property
    def footprint_lines(self) -> int:
        """Number of distinct 64-byte lines touched."""
        return len({address >> 6 for address in self.addresses})

    def address_array(self):
        """The addresses as a memoized numpy uint64 array.

        Returns None when numpy is not installed or an address does not
        fit in 64 bits (callers fall back to ``addresses``).  The array
        is built once per trace — the vector engine re-simulates the
        same trace under many policies, and converting a large tuple
        dominates its setup cost.
        """
        try:
            return self._address_array
        except AttributeError:
            pass
        try:
            import numpy
        except ImportError:
            array = None
        else:
            try:
                array = numpy.asarray(self.addresses, dtype=numpy.uint64)
            except (OverflowError, ValueError):
                array = None
            else:
                array.setflags(write=False)
        object.__setattr__(self, "_address_array", array)
        return array

    def __getstate__(self) -> dict:
        """Pickle without the memoized array; a copy rebuilds its own."""
        state = dict(self.__dict__)
        state.pop("_address_array", None)
        return state

    def concat(self, other: "Trace", name: str | None = None) -> "Trace":
        """Concatenate two traces (phases of an application)."""
        return Trace(
            name=name if name is not None else f"{self.name}+{other.name}",
            addresses=self.addresses + other.addresses,
        )
