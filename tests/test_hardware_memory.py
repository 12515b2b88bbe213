"""Tests for simulated virtual memory."""

import itertools

import pytest

from repro.errors import ConfigurationError, MeasurementError
from repro.hardware.memory import HUGE_PAGE_SIZE, VirtualMemory
from repro.util.rng import SeededRng


class TestConstruction:
    def test_rejects_bad_page_size(self):
        with pytest.raises(ConfigurationError):
            VirtualMemory(page_size=3000)

    def test_rejects_misaligned_physical_size(self):
        with pytest.raises(ConfigurationError):
            VirtualMemory(page_size=4096, physical_size=4096 * 3 + 1)

    def test_huge_pages_flag(self):
        assert VirtualMemory(page_size=HUGE_PAGE_SIZE).huge_pages
        assert not VirtualMemory(page_size=4096).huge_pages


class TestAllocation:
    def test_translate_round_trips_within_page(self):
        memory = VirtualMemory(page_size=4096)
        buffer = memory.allocate(8192)
        base_physical = memory.translate(buffer.base)
        assert memory.translate(buffer.base + 100) == base_physical + 100

    def test_huge_pages_contiguous_physical(self):
        memory = VirtualMemory()
        buffer = memory.allocate(8 * HUGE_PAGE_SIZE)
        first = memory.translate(buffer.base)
        for offset in range(0, buffer.size, HUGE_PAGE_SIZE):
            assert memory.translate(buffer.base + offset) == first + offset

    def test_small_pages_fragmented(self):
        memory = VirtualMemory(page_size=4096, rng=SeededRng(1))
        buffer = memory.allocate(64 * 4096)
        physicals = [
            memory.translate(buffer.base + i * 4096) for i in range(64)
        ]
        deltas = {b - a for a, b in zip(physicals, physicals[1:])}
        assert deltas != {4096}  # not an identity mapping

    def test_distinct_allocations_disjoint(self):
        memory = VirtualMemory(page_size=4096)
        a = memory.allocate(4096 * 4)
        b = memory.allocate(4096 * 4)
        pages_a = {memory.translate(a.base + i * 4096) for i in range(4)}
        pages_b = {memory.translate(b.base + i * 4096) for i in range(4)}
        assert not pages_a & pages_b

    def test_unmapped_access_rejected(self):
        memory = VirtualMemory(page_size=4096)
        with pytest.raises(MeasurementError):
            memory.translate(0)  # page zero is never mapped

    def test_zero_size_rejected(self):
        with pytest.raises(MeasurementError):
            VirtualMemory().allocate(0)

    def test_exhaustion_detected(self):
        memory = VirtualMemory(page_size=4096, physical_size=4096 * 8)
        with pytest.raises(MeasurementError):
            memory.allocate(4096 * 100)

    def test_line_addresses_cover_buffer(self):
        memory = VirtualMemory(page_size=4096)
        buffer = memory.allocate(4096)
        lines = list(buffer.line_addresses(64))
        assert len(lines) == 4096 // 64
        assert lines[0] == buffer.base


class TestFrameOrder:
    """Frames come out as from the list the memory used to build: every
    frame number, shuffled once at boot, popped from the end."""

    @pytest.mark.parametrize("seed", [0, 5])
    def test_small_pages_follow_a_shuffled_list_to_exhaustion(self, seed):
        frames = 600
        memory = VirtualMemory(
            page_size=4096, physical_size=4096 * frames, rng=SeededRng(seed)
        )
        reference = list(range(frames))
        SeededRng(seed).shuffle(reference)

        def allocate(pages):
            buffer = memory.allocate(pages * 4096)
            got = [memory.translate(buffer.base + i * 4096) // 4096 for i in range(pages)]
            assert got == [reference.pop() for _ in range(pages)]

        sizes = itertools.cycle([1, 3, 2, 7])
        pages = next(sizes)
        while pages <= len(reference):
            allocate(pages)
            pages = next(sizes)
        with pytest.raises(MeasurementError, match="out of simulated physical memory"):
            memory.allocate(pages * 4096)
        allocate(len(reference))  # what is left still fits
        with pytest.raises(MeasurementError, match="out of simulated physical memory"):
            memory.allocate(4096)

    def test_huge_pages_take_the_lowest_free_run(self):
        memory = VirtualMemory(physical_size=HUGE_PAGE_SIZE * 13)
        starts = []
        for pages in (1, 3, 5, 1, 2):
            buffer = memory.allocate(pages * HUGE_PAGE_SIZE)
            starts.append(memory.translate(buffer.base) // HUGE_PAGE_SIZE)
        assert starts == [0, 1, 4, 9, 10]
        with pytest.raises(MeasurementError, match="out of simulated physical memory"):
            memory.allocate(2 * HUGE_PAGE_SIZE)
        memory.allocate(HUGE_PAGE_SIZE)  # the last frame
        with pytest.raises(MeasurementError, match="out of simulated physical memory"):
            memory.allocate(1)


class TestTranslateAll:
    def test_matches_one_translation_at_a_time(self):
        memory = VirtualMemory(page_size=4096, rng=SeededRng(3))
        buffer = memory.allocate(16 * 4096)
        virtuals = [buffer.base + offset for offset in range(0, buffer.size, 1000)]
        assert memory.translate_all(virtuals) == [memory.translate(v) for v in virtuals]

    def test_names_the_first_unmapped_address(self):
        memory = VirtualMemory(page_size=4096)
        buffer = memory.allocate(4096)
        end = buffer.base + buffer.size
        with pytest.raises(MeasurementError, match=hex(end)):
            memory.translate_all([buffer.base, end, end + 4096])
