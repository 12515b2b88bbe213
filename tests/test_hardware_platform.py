"""Tests for the simulated platform, counters and noise."""

import hashlib
import json

import pytest

from repro.cache import CacheConfig
from repro.core.evictionsets import PlatformEvictionTester, find_eviction_set
from repro.errors import MeasurementError
from repro.hardware import (
    HardwarePlatform,
    HardwareSetOracle,
    LevelSpec,
    NoiseModel,
    ProcessorSpec,
    get_processor,
)
from repro.obs import metrics as obs_metrics
from repro.util.rng import SeededRng


def tiny_processor(noise=NoiseModel()):
    return ProcessorSpec(
        name="tiny",
        description="test-only",
        levels=(
            LevelSpec(CacheConfig("L1", 1024, 2), "lru"),
            LevelSpec(CacheConfig("L2", 4096, 4), "lru"),
        ),
        noise=noise,
    )


class TestPlatform:
    def test_boot_and_load(self):
        platform = HardwarePlatform(tiny_processor())
        buffer = platform.allocate(1 << 16)
        platform.load(buffer.base)
        assert platform.loads_performed == 1
        assert platform.counters.read("L1", "miss") == 1
        platform.load(buffer.base)
        assert platform.counters.read("L1", "hit") == 1

    def test_wbinvd_flushes(self):
        platform = HardwarePlatform(tiny_processor())
        buffer = platform.allocate(1 << 16)
        platform.load(buffer.base)
        platform.wbinvd()
        platform.load(buffer.base)
        assert platform.counters.read("L1", "miss") == 2

    def test_level_configs_published(self):
        platform = HardwarePlatform(tiny_processor())
        assert [c.name for c in platform.level_configs] == ["L1", "L2"]
        assert platform.level_config("L2").ways == 4

    def test_counters_reject_unknown(self):
        platform = HardwarePlatform(tiny_processor())
        with pytest.raises(MeasurementError):
            platform.counters.read("L1", "tlb")
        with pytest.raises(MeasurementError):
            platform.counters.read("L7", "miss")

    def test_snapshot_delta(self):
        platform = HardwarePlatform(tiny_processor())
        buffer = platform.allocate(1 << 16)
        platform.load(buffer.base)
        before = platform.counters.snapshot()
        platform.load(buffer.base + 64)
        assert platform.counters.delta("L1", "miss", before) == 1
        assert platform.counters.delta("L1", "access", before) == 1

    def test_delta_missing_key_raises_measurement_error(self):
        # Regression: a snapshot lacking the (level, event) key used to
        # escape as a raw KeyError, violating the module's contract that
        # measurement failures surface as MeasurementError.
        platform = HardwarePlatform(tiny_processor())
        with pytest.raises(MeasurementError, match="snapshot"):
            platform.counters.delta("L1", "miss", {})
        partial = {("L2", "miss"): 0}
        with pytest.raises(MeasurementError):
            platform.counters.delta("L1", "miss", partial)


class TestNoise:
    def test_counter_noise_overcounts(self):
        noisy = HardwarePlatform(tiny_processor(NoiseModel(counter_noise_rate=0.5)))
        quiet = HardwarePlatform(tiny_processor())
        buffer_noisy = noisy.allocate(1 << 16)
        buffer_quiet = quiet.allocate(1 << 16)
        for i in range(500):
            noisy.load(buffer_noisy.base + (i % 4) * 64)
            quiet.load(buffer_quiet.base + (i % 4) * 64)
        assert noisy.counters.read("L1", "miss") > quiet.counters.read("L1", "miss")

    def test_noise_is_seed_deterministic(self):
        spec = tiny_processor(NoiseModel(counter_noise_rate=0.2))
        readings = []
        for _ in range(2):
            platform = HardwarePlatform(spec, seed=9)
            buffer = platform.allocate(1 << 16)
            for i in range(200):
                platform.load(buffer.base + (i % 8) * 64)
            readings.append(platform.counters.read("L1", "miss"))
        assert readings[0] == readings[1]

    def test_prefetch_noise_issues_extra_accesses(self):
        platform = HardwarePlatform(tiny_processor(NoiseModel(prefetch_rate=1.0)))
        buffer = platform.allocate(1 << 16)
        platform.load(buffer.base)
        # The prefetch touched the next line: accessing it now hits.
        before = platform.counters.snapshot()
        platform.load(buffer.base + 64)
        assert platform.counters.delta("L1", "hit", before) == 1

    def test_prefetch_past_the_last_mapped_page_is_a_no_op(self):
        platform = HardwarePlatform(tiny_processor(NoiseModel(prefetch_rate=1.0)))
        buffer = platform.allocate(1 << 16)
        last_line = buffer.base + buffer.size - 64
        platform.load(last_line)  # the neighbour lies in unmapped space
        assert platform.loads_performed == 1
        assert platform.counters.read("L1", "access") == 1

    def test_prefetch_propagates_errors_other_than_unmapped(self, monkeypatch):
        platform = HardwarePlatform(tiny_processor(NoiseModel(prefetch_rate=1.0)))
        buffer = platform.allocate(1 << 16)
        translate = platform.memory.translate

        def failing_neighbour(virtual):
            if virtual != buffer.base:
                raise RuntimeError("page walk failed")
            return translate(virtual)

        monkeypatch.setattr(platform.memory, "translate", failing_neighbour)
        with pytest.raises(RuntimeError, match="page walk"):
            platform.load(buffer.base)

    def test_noise_model_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            NoiseModel(counter_noise_rate=1.5)
        with pytest.raises(ConfigurationError):
            NoiseModel(prefetch_rate=-0.1)

    def test_silent_property(self):
        assert NoiseModel().silent
        assert not NoiseModel(counter_noise_rate=0.01).silent


class TestFlushAccounting:
    def test_wbinvd_counts_only_the_sets_a_measurement_filled(self):
        platform = HardwarePlatform(get_processor("haswell-adaptive-like"))
        levels = platform.hierarchy.levels
        assert sum(cache.config.num_sets for cache in levels) == 8768
        oracle = HardwareSetOracle(platform, "L1")
        blocks = list(range(12))
        oracle.count_misses(blocks, blocks)
        occupied = sum(
            1
            for cache in levels
            for cache_set in cache.sets
            if any(tag is not None for tag in cache_set.contents())
        )
        before = obs_metrics.DEFAULT.counter("hw.flush.sets")
        platform.wbinvd()
        flushed = obs_metrics.DEFAULT.counter("hw.flush.sets") - before
        # Each of the 12 lines fills at most one set per level.
        assert 0 < occupied <= flushed <= len(blocks) * len(levels)
        platform.wbinvd()
        assert obs_metrics.DEFAULT.counter("hw.flush.sets") - before == flushed


class TestCatalog:
    def test_all_processors_boot(self):
        from repro.hardware import PROCESSORS

        for name in PROCESSORS:
            platform = HardwarePlatform(get_processor(name))
            buffer = platform.allocate(1 << 20)
            platform.load(buffer.base)

    def test_ground_truth_exposed(self):
        spec = get_processor("nehalem-like")
        assert spec.ground_truth == {"L1": "plru", "L2": "plru", "L3": "nru"}

    def test_level_lookup(self):
        spec = get_processor("atom-d525-like")
        assert spec.level("L2").policy == "fifo"
        with pytest.raises(KeyError):
            spec.level("L3")

    def test_unknown_processor(self):
        with pytest.raises(KeyError, match="known"):
            get_processor("pentium-pro")


class TestBackgroundNoise:
    def test_background_disturbs_state(self):
        # With heavy background traffic the caches hold lines nobody
        # loaded through the measurement API.
        platform = HardwarePlatform(
            tiny_processor(NoiseModel(background_rate=1.0)), seed=4
        )
        buffer = platform.allocate(1 << 16)
        for i in range(200):
            platform.load(buffer.base + (i % 4) * 64)
        resident = platform.hierarchy.level("L2").resident_addresses()
        loaded = {platform.translate(buffer.base + k * 64) for k in range(4)}
        assert resident - loaded  # foreign lines present

    def test_background_not_counted_as_demand(self):
        platform = HardwarePlatform(
            tiny_processor(NoiseModel(background_rate=1.0)), seed=4
        )
        buffer = platform.allocate(1 << 16)
        for i in range(100):
            platform.load(buffer.base)
        # Exactly our 100 demand accesses are visible in the counters.
        assert platform.counters.read("L1", "access") == 100

    def test_voting_survives_light_background_noise(self):
        from repro.core import VotingOracle, reverse_engineer
        from repro.core.inference import InferenceConfig
        from repro.hardware import HardwareSetOracle

        spec = ProcessorSpec(
            name="bg-noisy",
            description="PLRU L1 with background traffic",
            levels=(LevelSpec(CacheConfig("L1", 4 * 1024, 4), "plru"),),
            noise=NoiseModel(background_rate=0.001),
        )
        platform = HardwarePlatform(spec, seed=5)
        oracle = VotingOracle(
            HardwareSetOracle(platform, "L1", max_blocks=96),
            repetitions=7,
            aggregate="min",
        )
        config = InferenceConfig(verify_sequences=8, verify_length=40, verify_window=4)
        finding = reverse_engineer(oracle, inference_config=config)
        assert finding.policy_name == "plru"


# -- measurement fingerprint ---------------------------------------------------

#: Digests of every answer the hardware path gives on the fixed streams
#: below.  Any change to the simulated hardware (flush, walk, fill, victim
#: routing, noise RNG draw order) that alters a single answer moves one.
MEASUREMENT_FINGERPRINT = {
    "quiet": "7243bf6dc242563fec392271",
    "noisy": "94c636b1b576bc26c3e2d56e",
    "evictions": "0402d7db05953861fa269809",
}


def _digest(payload) -> str:
    data = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.blake2s(data, digest_size=12).hexdigest()


def _fingerprint_processor(noise=NoiseModel()):
    return ProcessorSpec(
        name="fingerprint",
        description="test-only: small 3-level hierarchy with an inclusive DIP L3",
        levels=(
            LevelSpec(CacheConfig("L1", 1024, 2), "plru"),
            LevelSpec(CacheConfig("L2", 4096, 4), "lru"),
            LevelSpec(CacheConfig("L3", 16 * 1024, 8, inclusion="inclusive"), "dip"),
        ),
        noise=noise,
    )


def _oracle_stream(noise) -> list:
    """Answers of a seeded ``count_misses`` stream probed at L2 and at L3."""
    platform = HardwarePlatform(_fingerprint_processor(noise), seed=3)
    rng = SeededRng(11)
    answers = []
    for level in ("L2", "L3"):
        oracle = HardwareSetOracle(platform, level, max_blocks=32)
        blocks = 2 * oracle.ways
        for _ in range(40):
            setup = [rng.randrange(blocks) for _ in range(rng.randint(0, 3 * oracle.ways))]
            probe = [rng.randrange(blocks) for _ in range(rng.randint(1, oracle.ways))]
            answers.append(oracle.count_misses(setup, probe))
    answers.append(platform.loads_performed)
    answers.append(sorted(platform.counters.snapshot().items()))
    return answers


def _eviction_stream() -> list:
    """``evicts`` answers and one minimal eviction set on a hashed LLC."""
    spec = ProcessorSpec(
        name="fingerprint-llc",
        description="test-only: 8 KiB 4-way xor-folded LLC",
        levels=(LevelSpec(CacheConfig("LLC", 8 * 1024, 4, index_hash="xor-fold"), "lru"),),
    )
    platform = HardwarePlatform(spec, seed=5)
    buffer = platform.allocate(1 << 21)
    pool = [buffer.base + k * 64 for k in range(256)]
    tester = PlatformEvictionTester(platform, "LLC")
    rng = SeededRng(7)
    answers = []
    for _ in range(60):
        victim = rng.choice(pool)
        answers.append(tester.evicts(rng.sample(pool, rng.randint(64, 192)), victim))
    answers.append(find_eviction_set(tester, pool[0], pool[1:], target_size=4))
    answers.append(platform.loads_performed)
    answers.append(sorted(platform.counters.snapshot().items()))
    return answers


def test_measurement_fingerprint():
    noisy = NoiseModel(counter_noise_rate=0.05, background_rate=0.05, prefetch_rate=0.05)
    assert {
        "quiet": _digest(_oracle_stream(NoiseModel())),
        "noisy": _digest(_oracle_stream(noisy)),
        "evictions": _digest(_eviction_stream()),
    } == MEASUREMENT_FINGERPRINT
