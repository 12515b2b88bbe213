"""Tests for the simulated platform, counters and noise."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig
from repro.core import VotingOracle
from repro.core.evictionsets import PlatformEvictionTester, find_eviction_set
from repro.errors import MeasurementError, SimulationError
from repro.hardware import (
    HardwarePlatform,
    HardwareSetOracle,
    LevelSpec,
    NoiseModel,
    ProcessorSpec,
    get_processor,
)
from repro.hardware.harness import MeasurementHarness
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


def _setup_reused(spec, level: str) -> int:
    """``hw.setup_reused`` over setups that extend and repeat one another."""
    platform = HardwarePlatform(spec, seed=2)
    oracle = HardwareSetOracle(platform, level, max_blocks=32)
    before = obs_metrics.DEFAULT.counter("hw.setup_reused")
    setup = list(range(oracle.ways))
    for extra in (0, 2, 2, 1, 3):
        oracle.count_misses(setup + list(range(100, 100 + extra)), [0, 100])
    return obs_metrics.DEFAULT.counter("hw.setup_reused") - before


class TestSetupCheckpoints:
    def test_replayable_means_silent_and_deterministic(self):
        assert HardwarePlatform(_deterministic_processor()).replayable
        assert HardwarePlatform(get_processor("sandybridge-like")).replayable
        noisy = tiny_processor(NoiseModel(counter_noise_rate=0.01))
        assert not HardwarePlatform(noisy).replayable
        # DIP's bimodal insertion draws randomness on fills.
        assert not HardwarePlatform(get_processor("haswell-adaptive-like")).replayable

    def test_provenance_only_on_replayable_platforms(self):
        haswell = HardwarePlatform(get_processor("haswell-adaptive-like"))
        assert HardwareSetOracle(haswell, "L1").provenance() is None
        sandybridge = HardwarePlatform(get_processor("sandybridge-like"))
        assert HardwareSetOracle(sandybridge, "L1").provenance() is not None

    @pytest.mark.parametrize("kind", ["noisy", "dip"])
    def test_checkpoint_refused_without_replay(self, kind):
        if kind == "noisy":
            spec = tiny_processor(NoiseModel(background_rate=0.01))
        else:
            spec = _fingerprint_processor()
        platform = HardwarePlatform(spec)
        with pytest.raises(MeasurementError, match="replayable"):
            platform.checkpoint()
        with pytest.raises(MeasurementError, match="replayable"):
            platform.restore(object())

    def test_restore_replays_loads_after_a_flush_only(self):
        platform = HardwarePlatform(tiny_processor())
        buffer = platform.allocate(1 << 16)
        platform.wbinvd()
        platform.load(buffer.base)
        checkpoint = platform.checkpoint()
        with pytest.raises(SimulationError, match="flushed"):
            platform.restore(checkpoint)
        for _ in range(2):
            platform.wbinvd()
            platform.restore(checkpoint)
        assert platform.loads_performed == 3
        assert platform.counters.read("L1", "miss") == 3
        before = platform.counters.snapshot()
        platform.load(buffer.base)
        assert platform.counters.delta("L1", "hit", before) == 1

    def test_setup_reuse_only_on_replayable_platforms(self):
        assert _setup_reused(_deterministic_processor(), "L2") > 0
        noisy = tiny_processor(NoiseModel(counter_noise_rate=0.05))
        assert _setup_reused(noisy, "L2") == 0
        assert _setup_reused(_fingerprint_processor(), "L2") == 0


_STEPS = st.lists(
    st.tuples(
        st.sampled_from(("fresh", "extend", "shorten", "repeat")),
        st.lists(st.integers(0, 15), max_size=12),
        st.lists(st.integers(0, 15), min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=40, deadline=None)
@given(level=st.sampled_from(("L1", "L2", "L3")), steps=_STEPS)
def test_long_lived_oracle_matches_from_scratch_measurements(level, steps):
    """After every measurement, answers, loads and counters equal those of
    wbinvd, warm-up, setup and probe issued load by load on a twin."""
    spec = _deterministic_processor()
    platform = HardwarePlatform(spec, seed=1)
    oracle = HardwareSetOracle(platform, level, max_blocks=16)
    twin = HardwarePlatform(spec, seed=1)
    harness = MeasurementHarness(
        twin, buffer_size=(16 + 4) * twin.level_config(level).way_size
    )
    pool = harness.find_set_addresses(level, oracle.set_index, 16)
    conflicts = harness.conflict_pool(level, pool[0])
    addresses: dict[int, int] = {}

    def wrapped_load(block):
        if block not in addresses:
            addresses[block] = pool[len(addresses)]
        twin.load(addresses[block])
        for conflict in conflicts:
            twin.load(conflict)

    def from_scratch(setup, probe):
        twin.wbinvd()
        for _ in range(2):
            for conflict in conflicts:
                twin.load(conflict)
        for block in setup:
            wrapped_load(block)
        before = twin.counters.snapshot()
        for block in probe:
            wrapped_load(block)
        return twin.counters.delta(level, "miss", before)

    setup: list[int] = []
    for move, blocks, probe in steps:
        if move == "fresh":
            setup = blocks
        elif move == "extend":
            setup = setup + blocks
        elif move == "shorten":
            setup = setup[: len(blocks)]
        assert oracle.count_misses(setup, probe) == from_scratch(setup, probe)
        assert platform.loads_performed == twin.loads_performed
        assert platform.counters.snapshot() == twin.counters.snapshot()
        # Fills, evictions, invalidations and memory traffic too.
        assert platform.hierarchy.stats == twin.hierarchy.stats


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
#: routing, noise RNG draw order, setup checkpoints) that alters a single
#: answer moves one.  "quiet" and "noisy" run on a platform with a DIP
#: L3, which is not replayable; "deterministic" is the replayable side,
#: where setups are restored from checkpoints.
MEASUREMENT_FINGERPRINT = {
    "quiet": "7243bf6dc242563fec392271",
    "noisy": "94c636b1b576bc26c3e2d56e",
    "evictions": "0402d7db05953861fa269809",
    "deterministic": "55baf7714932f47c22907b30",
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


def _deterministic_processor():
    return ProcessorSpec(
        name="fingerprint-deterministic",
        description="test-only: small 3-level deterministic hierarchy, inclusive L3",
        levels=(
            LevelSpec(CacheConfig("L1", 1024, 2), "plru"),
            LevelSpec(CacheConfig("L2", 4096, 4), "fifo"),
            LevelSpec(
                CacheConfig("L3", 16 * 1024, 8, inclusion="inclusive"), "qlru_h11_m1"
            ),
        ),
    )


def _deterministic_stream() -> list:
    """Answers, loads and counters after every measurement of a stream
    whose setups extend, shorten and repeat earlier ones, probed at L2 and
    L3, plus a voting pass that measures twelve of its requests again,
    three times each."""
    platform = HardwarePlatform(_deterministic_processor(), seed=3)
    rng = SeededRng(13)
    answers = []

    def measured(answer):
        answers.append(answer)
        answers.append(platform.loads_performed)
        answers.append(sorted(platform.counters.snapshot().items()))

    for level in ("L2", "L3"):
        oracle = HardwareSetOracle(platform, level, max_blocks=32)
        ways = oracle.ways
        blocks = 2 * ways
        setup: list[int] = []
        requests = []
        for _ in range(48):
            move = rng.randrange(4)
            if move == 0:  # a fresh setup
                setup = [rng.randrange(blocks) for _ in range(rng.randint(0, 3 * ways))]
            elif move == 1:  # extend the previous one
                setup = setup + [rng.randrange(blocks) for _ in range(rng.randint(1, ways))]
            elif move == 2:  # shorten it
                setup = setup[: rng.randint(0, len(setup))]
            probe = [rng.randrange(blocks) for _ in range(rng.randint(1, ways))]
            requests.append((list(setup), probe))
            measured(oracle.count_misses(setup, probe))
        voting = VotingOracle(oracle, repetitions=3, aggregate="min")
        for request in rng.sample(requests, 12):
            measured(voting.query([request])[0])
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
        "deterministic": _digest(_deterministic_stream()),
    } == MEASUREMENT_FINGERPRINT
