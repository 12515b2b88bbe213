"""Differential tests of the simulated hardware's load path.

Each case boots two platforms from one spec and seed, sends the same
random sequences through both, and compares everything observable:
counters, loads performed, per-level statistics and contents, and every
set's state key.  Replayable platforms also go through ``checkpoint``,
``wbinvd`` and ``restore``.  The pairs:

* ``HardwarePlatform.load_all``, which walks the hierarchy over a whole
  sequence in one call, against ``load``, one address at a time;
* a platform whose deterministic levels run on their automata (one
  state id per set) against a twin whose caches keep one policy object
  per set, the automaton that ``Cache`` asks for refused;
* the same, with the automata's state budget so small that sets move
  onto policy objects mid-walk.
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
from repro.kernels import automaton
from repro.obs import metrics as obs_metrics

from tests.conftest import policy_objects

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

SPECS = [*PROCESSORS.values(), NOISY, HASHED_LLC]


def _lines(spec, platform):
    """The lines to load on a platform booted from ``spec``.

    They mix one set of the last level (three times its ways, so every
    level evicts), that set's conflict pool and a small window of the
    buffer (so levels also hit).
    """
    last = spec.levels[-1].config
    size = (3 * last.ways + 4) * last.way_size
    harness = MeasurementHarness(platform, buffer_size=size)
    if last.index_hash != "bits":
        # A hashed set is found by search, not by address bits: load four
        # times the level's lines instead.
        lines = 4 * last.size // last.line_size
        return [harness.buffer.base + k * 64 for k in range(lines)]
    window = [harness.buffer.base + k * 64 for k in range(64)]
    targets = harness.find_set_addresses(last.name, 1, 3 * last.ways)
    return window + targets + harness.conflict_pool(last.name, targets[0])


def _assert_same(ours, theirs):
    assert ours.loads_performed == theirs.loads_performed
    assert ours.counters.snapshot() == theirs.counters.snapshot()
    assert ours.hierarchy.stats == theirs.hierarchy.stats  # every level's too
    for mine, other in zip(ours.hierarchy.levels, theirs.hierarchy.levels):
        assert mine.resident_addresses() == other.resident_addresses()
        assert [s.state_key() for s in mine.sets] == [s.state_key() for s in other.sets]
        stats = mine.stats
        assert stats.accesses == stats.hits + stats.misses
        # Every demand miss fills the level it missed.
        assert stats.fills == stats.misses
    assert ours.hierarchy.check_inclusion_invariants() == []


def _load_one_at_a_time(platform, sequence):
    for virtual in sequence:
        platform.load(virtual)


def _drive(spec, ours, theirs, send=HardwarePlatform.load_all):
    """Send the same sequences to ``ours`` (by ``load_all``) and
    ``theirs`` (by ``send``), across a checkpoint, wbinvd and restore."""
    lines = _lines(spec, ours)
    assert _lines(spec, theirs) == lines
    rng = random.Random(spec.name)

    def run(sequence):
        ours.load_all(sequence)
        send(theirs, sequence)
        _assert_same(ours, theirs)

    def sequence():
        return [rng.choice(lines) for _ in range(rng.randint(300, 800))]

    run(sequence())
    run([])
    run(sequence())
    if not ours.replayable:
        return
    checkpoints = [platform.checkpoint() for platform in (ours, theirs)]
    for platform in (ours, theirs):
        platform.wbinvd()
        assert all(not cache.resident_addresses() for cache in platform.hierarchy.levels)
    run(sequence())
    for platform, checkpoint in zip((ours, theirs), checkpoints):
        platform.wbinvd()
        platform.restore(checkpoint)
    _assert_same(ours, theirs)
    run(sequence())


def _boot_on_policy_objects(spec, seed=2):
    """A platform whose every level keeps one policy object per set."""
    with policy_objects():
        platform = HardwarePlatform(spec, seed)
    assert all(cache.automaton is None for cache in platform.hierarchy.levels)
    return platform


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_load_all_matches_one_load_at_a_time(spec):
    batched, single = HardwarePlatform(spec, 2), HardwarePlatform(spec, 2)
    _drive(spec, batched, single, _load_one_at_a_time)


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_automaton_levels_match_policy_objects(spec, monkeypatch):
    # Automata grown from their reset state here, not by earlier tests.
    monkeypatch.setattr(automaton, "_LEVEL_CACHE", {})
    compiled = HardwarePlatform(spec, 2)
    # Every level but the randomized ones (DIP) runs on its automaton.
    assert [cache.automaton is not None for cache in compiled.hierarchy.levels] == [
        cache.policy_factory.deterministic for cache in compiled.hierarchy.levels
    ]
    _drive(spec, compiled, _boot_on_policy_objects(spec))


@pytest.mark.parametrize(
    "spec", [PROCESSORS["nehalem-like"], NOISY], ids=lambda spec: spec.name
)
def test_a_blown_budget_goes_on_with_policy_objects(spec, monkeypatch):
    """Sets whose automaton runs out of states mid-walk go on with real
    policies loaded from their state keys: same answers, nothing raised,
    every move counted."""
    monkeypatch.setattr(automaton, "_LEVEL_CACHE", {})
    monkeypatch.setattr(automaton, "DEFAULT_BUDGET", 4)
    compiled = HardwarePlatform(spec, 2)
    assert all(cache.automaton.budget == 4 for cache in compiled.hierarchy.levels)
    obs_metrics.DEFAULT.reset()
    _drive(spec, compiled, _boot_on_policy_objects(spec))
    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    assert counters["kernel.budget_fallbacks"] > 0


def test_unmapped_address_raises_before_any_load():
    platform = HardwarePlatform(HASHED_LLC)
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
