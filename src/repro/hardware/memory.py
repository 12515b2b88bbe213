"""Virtual memory for the simulated platform.

The paper's measurements run in user space, so the experimenter controls
*virtual* addresses while the caches beyond L1 are indexed by *physical*
addresses.  The practical fix — used by the paper and reproduced here —
is large pages: with 2 MiB pages the low 21 address bits are identical in
both spaces, which covers the index bits of every cache of interest.

:class:`VirtualMemory` hands out buffers backed by a simulated physical
page mapping:

* ``page_size >= 2 MiB`` — contiguous physical backing (huge pages);
  virtual offsets translate one-to-one.
* small pages (e.g. 4 KiB) — a shuffled physical page assignment, so the
  harness must *search* a buffer for lines that map to a wanted set,
  exactly as on hardware without huge pages.

Frames are only ever claimed, never freed, so neither mode keeps a list
of free frames: huge pages take the next frames after the last claim,
and small pages draw a lazy shuffle that hands out the same frames, in
the same order, as shuffling every frame number up front.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import ConfigurationError, MeasurementError
from repro.util.bits import ilog2, is_power_of_two
from repro.util.rng import SeededRng

HUGE_PAGE_SIZE = 2 * 1024 * 1024


@dataclass(frozen=True)
class VirtualBuffer:
    """A contiguous virtual allocation."""

    base: int
    size: int

    def line_addresses(self, line_size: int) -> range:
        """Virtual addresses of every line in the buffer."""
        return range(self.base, self.base + self.size, line_size)


class VirtualMemory:
    """Page-granular virtual-to-physical mapping."""

    def __init__(
        self,
        page_size: int = HUGE_PAGE_SIZE,
        physical_size: int = 1 << 34,
        rng: SeededRng | None = None,
    ) -> None:
        if not is_power_of_two(page_size):
            raise ConfigurationError(f"page_size must be a power of two, got {page_size}")
        if physical_size % page_size != 0:
            raise ConfigurationError("physical_size must be a multiple of page_size")
        self.page_size = page_size
        self._page_shift = ilog2(page_size)
        self._offset_mask = page_size - 1
        self.physical_size = physical_size
        self._rng = rng if rng is not None else SeededRng(0)
        self._next_virtual = page_size  # keep 0 unmapped, like a real process
        self._page_table: dict[int, int] = {}  # virtual page number -> physical
        self._frames = physical_size // page_size
        self._claimed = 0  # frames handed out so far
        # Small pages: the slots of a lazy Fisher-Yates shuffle of the
        # frame numbers whose frame moved; every other slot j holds frame j.
        self._displaced: dict[int, int] = {}

    @property
    def huge_pages(self) -> bool:
        """True when pages are large enough for easy set targeting."""
        return self.page_size >= HUGE_PAGE_SIZE

    def allocate(self, size: int) -> VirtualBuffer:
        """Map a new buffer of at least ``size`` bytes; return it."""
        if size <= 0:
            raise MeasurementError("allocation size must be positive")
        pages = -(-size // self.page_size)
        if pages > self._frames - self._claimed:
            raise MeasurementError("out of simulated physical memory")
        base = self._next_virtual
        first_page = base // self.page_size
        if self.huge_pages:
            # Contiguous physical backing.  Nothing is ever freed, so the
            # lowest free run starts right after the last claim.
            frames = range(self._claimed, self._claimed + pages)
            self._claimed += pages
        else:
            frames = [self._pop_frame() for _ in range(pages)]
        for i, frame in enumerate(frames):
            self._page_table[first_page + i] = frame
        self._next_virtual = base + pages * self.page_size
        return VirtualBuffer(base=base, size=pages * self.page_size)

    def _pop_frame(self) -> int:
        """The next small-page frame, as ``shuffle`` then ``pop()`` gives it.

        ``shuffle`` swaps slot ``i`` with slot ``randrange(i + 1)`` for
        ``i`` from the last slot down to 1, and ``pop()`` takes the slots
        from the end, each of which is final once its swap is done.  So
        the k-th pop makes the k-th swap: the same draws, the same frame.
        """
        last = self._frames - 1 - self._claimed
        pick = self._rng.randrange(last + 1) if last else 0
        displaced = self._displaced
        tail = displaced.pop(last, last)
        if pick == last:
            frame = tail
        else:
            frame = displaced.get(pick, pick)
            displaced[pick] = tail
        self._claimed += 1
        return frame

    def translate(self, virtual: int) -> int:
        """Translate a virtual address to its physical address."""
        return self.translate_all((virtual,))[0]

    def translate_all(self, virtuals: Sequence[int]) -> list[int]:
        """Translate a sequence of virtual addresses, in order.

        Raises:
            MeasurementError: naming the first unmapped address.
        """
        page_table = self._page_table
        shift, mask = self._page_shift, self._offset_mask
        try:
            return [
                (page_table[virtual >> shift] << shift) | (virtual & mask)
                for virtual in virtuals
            ]
        except KeyError:
            unmapped = next(v for v in virtuals if v >> shift not in page_table)
            raise MeasurementError(
                f"access to unmapped virtual address {unmapped:#x}"
            ) from None
