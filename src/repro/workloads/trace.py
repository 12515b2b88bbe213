"""Memory access traces.

A :class:`Trace` is a named sequence of byte addresses (loads).  The
evaluation half of the paper runs benchmark traces through simulated
caches under the reverse-engineered policies; our traces come from the
generators in this package (the SPEC substitution documented in
DESIGN.md) or from files in a simple text format::

    # name: loop-heavy
    # any other '#' lines are comments
    0x1a2b40
    0x1a2b80
    ...
"""

from __future__ import annotations

from array import array as _array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

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

    def address_bytes(self) -> bytes | None:
        """The addresses packed as native-endian uint64 bytes.

        Returns None when an address does not fit in 64 bits.  This is
        the wire format of the runner's shared-memory trace broadcasts
        (:mod:`repro.runner.shm`) — the same packing the fingerprint and
        ``address_array`` use, so one layout serves all three.
        """
        try:
            return _array("Q", self.addresses).tobytes()
        except OverflowError:
            return None

    def concat(self, other: "Trace", name: str | None = None) -> "Trace":
        """Concatenate two traces (phases of an application)."""
        return Trace(
            name=name if name is not None else f"{self.name}+{other.name}",
            addresses=self.addresses + other.addresses,
        )

    def repeat(self, times: int, name: str | None = None) -> "Trace":
        """Repeat the trace ``times`` times."""
        if times < 1:
            raise ValueError("times must be >= 1")
        return Trace(
            name=name if name is not None else f"{self.name}x{times}",
            addresses=self.addresses * times,
        )

    def save(self, path: str | Path) -> None:
        """Write the trace in the text format."""
        path = Path(path)
        with path.open("w") as handle:
            handle.write(f"# name: {self.name}\n")
            for address in self.addresses:
                handle.write(f"{address:#x}\n")

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Parse a trace file written by :meth:`save`."""
        path = Path(path)
        name = path.stem
        addresses: list[int] = []
        with path.open() as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if line[1:].strip().startswith("name:"):
                        name = line.split("name:", 1)[1].strip()
                    continue
                try:
                    addresses.append(int(line, 0))
                except ValueError as exc:
                    raise TraceFormatError(
                        f"{path}:{line_number}: not an address: {line!r}"
                    ) from exc
        return cls(name=name, addresses=tuple(addresses))

    @classmethod
    def from_lines(cls, name: str, lines: Iterable[int], line_size: int = 64) -> "Trace":
        """Build a trace from line numbers instead of byte addresses."""
        return cls(name=name, addresses=tuple(line * line_size for line in lines))
