"""Differential tests: a batched load sequence against one load at a time.

``HardwarePlatform.load_all`` translates a whole sequence and walks the
hierarchy over it in one call; ``load`` is the one-address case.  Each
case boots two platforms from one spec and seed, sends the same random
sequence through ``load_all`` on one and address by address through
``load`` on the other, and compares everything observable: counters,
loads performed, per-level statistics and contents.  Replayable
platforms also go through ``checkpoint``, ``wbinvd`` and ``restore``.
"""

import random

import pytest

from repro.cache import CacheConfig, CacheHierarchy
from repro.errors import MeasurementError
from repro.hardware import (
    PROCESSORS,
    HardwarePlatform,
    LevelSpec,
    NoiseModel,
    ProcessorSpec,
)
from repro.hardware.harness import MeasurementHarness

EXCLUSIVE_L2 = ProcessorSpec(
    name="exclusive-l2",
    description="test-only: exclusive L2 between a PLRU L1 and an inclusive L3",
    levels=(
        LevelSpec(CacheConfig("L1", 512, 2), "plru"),
        LevelSpec(CacheConfig("L2", 1024, 4, inclusion="exclusive"), "fifo"),
        LevelSpec(CacheConfig("L3", 4096, 8, inclusion="inclusive"), "lru"),
    ),
)

NOISY = ProcessorSpec(
    name="noisy-small-pages",
    description="test-only: every noise class on 4 KiB pages",
    levels=(
        LevelSpec(CacheConfig("L1", 1024, 2), "plru"),
        LevelSpec(CacheConfig("L2", 4096, 4, inclusion="inclusive"), "lru"),
    ),
    page_size=4096,
    noise=NoiseModel(counter_noise_rate=0.05, prefetch_rate=0.2, background_rate=0.05),
)

HASHED_LLC = ProcessorSpec(
    name="hashed-llc",
    description="test-only: one xor-folded level, as in eviction-set search",
    levels=(LevelSpec(CacheConfig("LLC", 8 * 1024, 4, index_hash="xor-fold"), "lru"),),
)

SPECS = [*PROCESSORS.values(), EXCLUSIVE_L2, NOISY, HASHED_LLC]


def _twins(spec, seed=2):
    """Two platforms from one spec and seed, and the lines to load.

    The lines mix one set of the last level (three times its ways, so
    every level evicts), that set's conflict pool and a small window of
    the buffer (so levels also hit).
    """
    batched, single = HardwarePlatform(spec, seed), HardwarePlatform(spec, seed)
    last = spec.levels[-1].config
    size = (3 * last.ways + 4) * last.way_size
    harnesses = [MeasurementHarness(platform, buffer_size=size) for platform in (batched, single)]
    harness = harnesses[0]
    assert harness.buffer == harnesses[1].buffer
    if last.index_hash != "bits":
        # A hashed set is found by search, not by address bits: load four
        # times the level's lines instead.
        lines = 4 * last.size // last.line_size
        return batched, single, [harness.buffer.base + k * 64 for k in range(lines)]
    window = [harness.buffer.base + k * 64 for k in range(64)]
    targets = harness.find_set_addresses(last.name, 1, 3 * last.ways)
    return batched, single, window + targets + harness.conflict_pool(last.name, targets[0])


def _assert_same(batched, single):
    assert batched.loads_performed == single.loads_performed
    assert batched.counters.snapshot() == single.counters.snapshot()
    assert batched.hierarchy.stats == single.hierarchy.stats  # every level's too
    for ours, theirs in zip(batched.hierarchy.levels, single.hierarchy.levels):
        assert ours.resident_addresses() == theirs.resident_addresses()
        stats = ours.stats
        assert stats.accesses == stats.hits + stats.misses
        if ours.config.inclusion != "exclusive":
            # Every demand miss fills a level that demand misses fill.
            assert stats.fills == stats.misses
    assert batched.hierarchy.check_inclusion_invariants() == []


def _run(batched, single, sequence):
    batched.load_all(sequence)
    for virtual in sequence:
        single.load(virtual)
    _assert_same(batched, single)


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_load_all_matches_one_load_at_a_time(spec):
    batched, single, lines = _twins(spec)
    rng = random.Random(spec.name)

    def sequence():
        return [rng.choice(lines) for _ in range(rng.randint(300, 800))]

    _run(batched, single, sequence())
    _run(batched, single, [])
    _run(batched, single, sequence())
    if not batched.replayable:
        return
    checkpoints = [platform.checkpoint() for platform in (batched, single)]
    for platform in (batched, single):
        platform.wbinvd()
        assert all(not cache.resident_addresses() for cache in platform.hierarchy.levels)
    _run(batched, single, sequence())
    for platform, checkpoint in zip((batched, single), checkpoints):
        platform.wbinvd()
        platform.restore(checkpoint)
    _assert_same(batched, single)
    _run(batched, single, sequence())


def test_unmapped_address_raises_before_any_load():
    platform = HardwarePlatform(EXCLUSIVE_L2)
    buffer = platform.allocate(1 << 16)
    before = platform.counters.snapshot()
    with pytest.raises(MeasurementError, match=hex(buffer.base + buffer.size)):
        platform.load_all([buffer.base, buffer.base + buffer.size])
    assert platform.loads_performed == 0
    assert platform.counters.snapshot() == before


def test_access_all_returns_the_last_result():
    hierarchy = CacheHierarchy(
        [CacheConfig("L1", 512, 2), CacheConfig("L2", 2048, 4)], ["lru", "lru"]
    )
    assert hierarchy.access_all([]) is None
    assert hierarchy.access_all([0x100, 0x200, 0x100]).hit_level == "L1"
    assert hierarchy.access_all([0x300]).served_by_memory
