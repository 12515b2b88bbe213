"""Measurement harness: turning loads and counters into a set oracle.

This module reproduces the experimental technique of the paper:

* **Set targeting** — find distinct physical line addresses that all map
  to one chosen set of the probed cache level (easy with huge pages,
  a buffer scan otherwise).
* **Upper-level defeat** — an access can only reach L2/L3 if it misses
  all smaller caches, so after every *logical* access the harness runs a
  *conflict pool*: addresses that share the upper levels' set bits with
  the target lines but map to different sets of the probed level.
  Accessing enough of them evicts the target line from every level above
  the probed one without touching the probed set.
* **Pollution-free counting** — the conflict pool is warmed during setup
  so its lines are resident in the probed level (in other sets); during
  the counted probe phase the pool therefore *hits* the probed level and
  the probed level's miss counter moves only for the logical accesses.

The result is :class:`HardwareSetOracle`, a drop-in
:class:`~repro.core.oracle.MissCountOracle`: the inference algorithms
run unchanged against simulated hardware.  A measurement issues its
loads as two sequences, like a generated loop between two counter reads:
the conflict warm-up and the setup (each logical access followed by the
conflict pool) in one :meth:`~repro.hardware.platform.HardwarePlatform.
load_all`, the probe in a second one after the counter snapshot.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence

from repro.core.oracle import MissCountOracle
from repro.errors import MeasurementError
from repro.hardware.platform import HardwarePlatform
from repro.obs import metrics as obs_metrics
from repro.util.bits import extract_bits

#: Setup checkpoints an oracle keeps on a replayable platform.  Inference
#: issues setups that extend, shorten or repeat the last few, so a handful
#: of the most recently used ones covers them.
SETUP_CHECKPOINTS = 8


class MeasurementHarness:
    """Address construction and measured runs on one platform."""

    def __init__(self, platform: HardwarePlatform, buffer_size: int = 256 * 1024 * 1024) -> None:
        self.platform = platform
        self.buffer = platform.allocate(buffer_size)
        configs = platform.level_configs
        for smaller, larger in zip(configs, configs[1:]):
            if smaller.num_sets > larger.num_sets:
                raise MeasurementError(
                    "harness assumes monotonically non-decreasing set counts "
                    f"({smaller.name} has {smaller.num_sets}, {larger.name} "
                    f"{larger.num_sets})"
                )

    # -- address classification ----------------------------------------------
    def set_index_of(self, level: str, virtual: int) -> int:
        """The set of ``level`` that a virtual address maps to."""
        config = self.platform.level_config(level)
        physical = self.platform.translate(virtual)
        return extract_bits(physical, config.offset_bits, config.index_bits)

    def find_set_addresses(self, level: str, set_index: int, count: int) -> list[int]:
        """Virtual line addresses mapping to ``(level, set_index)``.

        With huge pages the physical backing of the buffer is contiguous,
        so matches recur every ``way_size`` bytes and only the first
        window needs scanning; with small pages the whole buffer is
        scanned, as a real experiment without huge pages would.
        """
        config = self.platform.level_config(level)
        if not 0 <= set_index < config.num_sets:
            raise MeasurementError(f"set {set_index} out of range for {level}")
        found: list[int] = []
        if self.platform.memory.huge_pages:
            first = None
            for virtual in range(
                self.buffer.base, self.buffer.base + config.way_size, config.line_size
            ):
                if self.set_index_of(level, virtual) == set_index:
                    first = virtual
                    break
            if first is None:
                raise MeasurementError("no line of the buffer maps to the target set")
            virtual = first
            while len(found) < count and virtual < self.buffer.base + self.buffer.size:
                found.append(virtual)
                virtual += config.way_size
        else:
            for virtual in self.buffer.line_addresses(config.line_size):
                if self.set_index_of(level, virtual) == set_index:
                    found.append(virtual)
                    if len(found) >= count:
                        break
        if len(found) < count:
            raise MeasurementError(
                f"buffer yields only {len(found)} of {count} addresses for "
                f"{level} set {set_index}; allocate a larger buffer"
            )
        return found

    def conflict_pool(
        self, level: str, target_address: int, per_upper_way: int = 2
    ) -> list[int]:
        """Addresses that evict ``target_address`` from all levels above
        ``level`` without mapping to its set in ``level``.

        The pool shares the set bits of the largest upper level (hence of
        every smaller level too) but maps to other sets of the probed
        level.  Its size is ``per_upper_way`` times the largest upper
        associativity, enough to defeat any of the library's policies.
        """
        level_names = [config.name for config in self.platform.level_configs]
        probe_index = level_names.index(level)
        if probe_index == 0:
            return []
        upper = self.platform.level_config(level_names[probe_index - 1])
        probed = self.platform.level_config(level)
        target_upper_set = self.set_index_of(upper.name, target_address)
        target_probed_set = self.set_index_of(level, target_address)
        wanted = per_upper_way * max(
            self.platform.level_config(name).ways for name in level_names[:probe_index]
        )
        pool: list[int] = []
        virtual = self.buffer.base + (target_address - self.buffer.base) % upper.way_size
        while len(pool) < wanted and virtual < self.buffer.base + self.buffer.size:
            if (
                self.set_index_of(upper.name, virtual) == target_upper_set
                and self.set_index_of(level, virtual) != target_probed_set
            ):
                pool.append(virtual)
            virtual += upper.way_size
        if len(pool) < wanted:
            raise MeasurementError(
                f"buffer yields only {len(pool)} of {wanted} conflict addresses"
            )
        return pool


class HardwareSetOracle(MissCountOracle):
    """Miss-count oracle for one set of one level of a platform.

    Block ids are mapped to target-set addresses on first use.  Every
    measurement flushes the hierarchy (``wbinvd``), warms the conflict
    pool, runs the setup sequence, then counts the probed level's miss
    delta across the probe sequence.

    On a :attr:`~repro.hardware.platform.HardwarePlatform.replayable`
    platform the oracle checkpoints the platform at the end of every
    setup, keeping the :data:`SETUP_CHECKPOINTS` most recently used.  A
    measurement whose setup starts with a checkpointed one restores the
    longest such prefix after the flush, in place of the warm-up and the
    prefix's loads, and runs only the rest; every answer, counter and
    load count is the same as without it.  The skipped logical accesses
    are counted as ``hw.setup_reused``.
    """

    def __init__(
        self,
        platform: HardwarePlatform,
        level: str,
        set_index: int | None = None,
        max_blocks: int = 512,
        harness: MeasurementHarness | None = None,
    ) -> None:
        self.platform = platform
        self.level = level
        config = platform.level_config(level)
        self.ways = config.ways
        if set_index is None:
            # An arbitrary but fixed set.  Deliberately off the round
            # numbers: set-dueling designs place their leader sets at
            # regular power-of-two strides, and probing exactly one of
            # those by default would misrepresent an adaptive cache as
            # running the leader's component policy.
            set_index = min(config.num_sets - 1, config.num_sets // 2 + 1)
        self.set_index = set_index
        if harness is None:
            needed = (max_blocks + 4) * config.way_size
            harness = MeasurementHarness(platform, buffer_size=needed)
        self.harness = harness
        self._pool = harness.find_set_addresses(level, set_index, max_blocks)
        self._conflicts = harness.conflict_pool(level, self._pool[0])
        self._block_to_address: dict[int, int] = {}
        # Platform checkpoints by setup, least recently used first.
        self._checkpoints: OrderedDict[tuple[int, ...], object] = OrderedDict()
        self.measurements = 0
        self.accesses = 0

    def provenance(self) -> str | None:
        """Identity of the measured set — replayable platforms only.

        With any noise rate active, or a level whose policy draws
        randomness (DIP's bimodal insertion, random replacement),
        repeated identical measurements may legitimately disagree (the
        whole reason :class:`VotingOracle` exists), so there is no
        reproducible value and the oracle reports no provenance.  A
        replayable platform is a pure function of
        ``(spec, seed, level, set)``.
        """
        if not self.platform.replayable:
            return None
        return (
            f"hw|{self.platform.spec.name}|{self.level}"
            f"|set={self.set_index}|seed={self.platform.seed}"
        )

    # -- block id management -------------------------------------------------
    def _address(self, block: int) -> int:
        if block not in self._block_to_address:
            if len(self._block_to_address) >= len(self._pool):
                raise MeasurementError(
                    "address pool exhausted; raise max_blocks on the oracle"
                )
            self._block_to_address[block] = self._pool[len(self._block_to_address)]
        return self._block_to_address[block]

    # -- the measurement primitive ---------------------------------------------
    def _restore_longest_prefix(self, setup: tuple[int, ...]) -> int | None:
        """Restore the longest checkpointed prefix of ``setup``; its length.

        None when no checkpoint is a prefix of ``setup``.
        """
        best = max(
            (key for key in self._checkpoints if setup[: len(key)] == key),
            key=len,
            default=None,
        )
        if best is None:
            return None
        self._checkpoints.move_to_end(best)
        self.platform.restore(self._checkpoints[best])
        if best:
            obs_metrics.DEFAULT.incr("hw.setup_reused", len(best))
        return len(best)

    def _wrapped_loads(self, blocks: Sequence[int], loads: list[int]) -> list[int]:
        """Append each block's logical access to ``loads``: the block's
        address, then the conflict pool that defeats all upper levels."""
        address = self._address
        conflicts = self._conflicts
        for block in blocks:
            loads.append(address(block))
            loads += conflicts
        return loads

    def count_misses(self, setup: Sequence[int], probe: Sequence[int]) -> int:
        platform = self.platform
        platform.wbinvd()
        setup = tuple(setup)
        done = self._restore_longest_prefix(setup)
        if done is None:
            # Warm the conflict pool so its probe-phase accesses hit the
            # probed level and do not pollute the miss counter.
            warm_up = self._conflicts * 2
            done = 0
        else:
            warm_up = []
        platform.load_all(self._wrapped_loads(setup[done:], warm_up))
        if platform.replayable and setup not in self._checkpoints:
            self._checkpoints[setup] = platform.checkpoint()
            if len(self._checkpoints) > SETUP_CHECKPOINTS:
                self._checkpoints.popitem(last=False)
        before = platform.counters.snapshot()
        platform.load_all(self._wrapped_loads(probe, []))
        misses = platform.counters.delta(self.level, "miss", before)
        self._note_measurement(len(setup), len(probe), misses)
        return misses
