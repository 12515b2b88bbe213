"""The simulated measurement platform.

:class:`HardwarePlatform` is the stand-in for "an Intel machine with a
kernel module for measurements".  It bundles a cache hierarchy built from
a :class:`~repro.hardware.catalog.ProcessorSpec`, virtual memory,
performance counters, and the platform's noise model.  The experimenter
API mirrors what the paper's tooling had:

* :meth:`HardwarePlatform.allocate` — map a measurement buffer;
* :meth:`HardwarePlatform.load_all` — perform a sequence of loads from
  virtual addresses, in order, as one generated loop between two counter
  reads would (nanoBench-style); :meth:`HardwarePlatform.load` is the
  one-address case.  Loads are the only way to touch the caches;
* :attr:`HardwarePlatform.counters` — read performance counters;
* :meth:`HardwarePlatform.wbinvd` — privileged whole-hierarchy flush
  (the kernel-module luxury; the harness uses it to make measurements
  independent, the same role thrashing plays in user-space-only setups);
* :meth:`HardwarePlatform.checkpoint` / :meth:`HardwarePlatform.restore`
  — on a *replayable* platform, record what the loads since the last
  ``wbinvd`` did and replay it after a later one without re-issuing
  them (a simulator's shortcut with no counterpart on real hardware).

Nothing else is exposed: replacement state, tags, and the ground-truth
policies are deliberately unreachable from this API (a checkpoint is
opaque), so the inference code cannot cheat.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.errors import MeasurementError
from repro.hardware.catalog import ProcessorSpec
from repro.hardware.counters import CounterBank
from repro.hardware.memory import VirtualBuffer, VirtualMemory
from repro.obs import metrics as obs_metrics
from repro.policies import PolicyFactory
from repro.util.rng import SeededRng


class HardwarePlatform:
    """A bootable instance of a catalog processor."""

    def __init__(self, spec: ProcessorSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed
        rng = SeededRng(seed)
        self._noise_rng = rng.fork("noise")
        self.memory = VirtualMemory(page_size=spec.page_size, rng=rng.fork("vm"))
        policies = [
            PolicyFactory(level.policy, **level.policy_params) for level in spec.levels
        ]
        self.hierarchy = CacheHierarchy(
            [level.config for level in spec.levels], policies, rng=rng.fork("caches")
        )
        self.counters = CounterBank(self.hierarchy)
        # Read on every noisy load, so fixed at boot.
        self._level_names = tuple(self.hierarchy.level_names)
        self._line_size = self.hierarchy.levels[0].config.line_size
        self.loads_performed = 0
        self._loads_at_flush = 0
        # A silent noise model draws nothing, so a load skips its block.
        self._silent = spec.noise.silent
        #: True when a load's effect is a pure function of the cache state:
        #: no noise and no level whose policy draws randomness.  Only then
        #: can :meth:`restore` stand in for the loads it skips.
        self.replayable = self._silent and all(
            policy.deterministic for policy in policies
        )

    # -- experimenter API ----------------------------------------------------
    @property
    def level_configs(self) -> list[CacheConfig]:
        """Published cache geometries (data-sheet information)."""
        return [cache.config for cache in self.hierarchy.levels]

    def level_config(self, name: str) -> CacheConfig:
        """Geometry of the level called ``name``."""
        return self.hierarchy.level(name).config

    def allocate(self, size: int) -> VirtualBuffer:
        """Map a measurement buffer of at least ``size`` bytes."""
        return self.memory.allocate(size)

    def translate(self, virtual: int) -> int:
        """Virtual-to-physical translation (the /proc/pagemap privilege)."""
        return self.memory.translate(virtual)

    def load(self, virtual: int) -> None:
        """Perform one load: :meth:`load_all` of one address."""
        self.load_all((virtual,))

    def load_all(self, virtuals: Sequence[int]) -> None:
        """Perform a sequence of loads, in order; updates caches, counters
        and noise exactly as one :meth:`load` per address would.

        The sequence is translated first, so an unmapped address raises
        before any load.  A silent platform then walks the hierarchy over
        the whole sequence at once; a noisy one runs each load's noise
        block (counter noise per level, background, prefetch, in that
        draw order) right after the load.
        """
        physical = self.memory.translate_all(virtuals)
        hierarchy = self.hierarchy
        if self._silent:
            hierarchy.access_all(physical)
            self.loads_performed += len(physical)
            return
        noise = self.spec.noise
        rng = self._noise_rng
        for virtual, address in zip(virtuals, physical):
            hierarchy.access(address)
            self.loads_performed += 1
            if noise.counter_noise_rate > 0.0:
                for level_name in self._level_names:
                    if rng.random() < noise.counter_noise_rate:
                        self.counters.inject_spurious(level_name, "miss")
            if noise.background_rate > 0.0 and rng.random() < noise.background_rate:
                # Interrupt / other-process traffic: a random line in a
                # fixed physical window, issued as a demand access of
                # another agent (it moves replacement state but not *our*
                # retired-load counters, which are per-logical-core on
                # real hardware).
                background = rng.randrange(1 << 24) * self._line_size
                hierarchy.access(background, demand=False)
            if noise.prefetch_rate > 0.0 and rng.random() < noise.prefetch_rate:
                try:
                    neighbour = self.memory.translate(virtual + self._line_size)
                except MeasurementError:  # next line crosses into unmapped space
                    continue
                # Prefetches disturb cache state but are not demand loads,
                # so they do not move the MEM_LOAD_RETIRED-style counters.
                hierarchy.access(neighbour, demand=False)

    def wbinvd(self) -> None:
        """Flush the whole hierarchy (privileged, as from a kernel module).

        Counts the sets it actually reset as ``hw.flush.sets``.
        """
        self._loads_at_flush = self.loads_performed
        obs_metrics.DEFAULT.incr("hw.flush.sets", self.hierarchy.flush())

    def checkpoint(self) -> object:
        """Record, opaquely, what the loads since the last :meth:`wbinvd` did.

        Raises:
            MeasurementError: on a platform that is not :attr:`replayable`.
        """
        self._require_replayable("checkpoint")
        return self.hierarchy.checkpoint(), self.loads_performed - self._loads_at_flush

    def restore(self, checkpoint: object) -> None:
        """Right after a :meth:`wbinvd`, replay a :meth:`checkpoint`'s loads.

        The caches take the recorded state, and the counters and
        :attr:`loads_performed` advance as far as the loads moved them,
        so nothing observable tells a restore from the loads themselves.

        Raises:
            MeasurementError: on a platform that is not :attr:`replayable`.
        """
        self._require_replayable("restore")
        state, loads = checkpoint
        self.hierarchy.restore(state)
        self.loads_performed += loads

    def _require_replayable(self, operation: str) -> None:
        if not self.replayable:
            raise MeasurementError(
                f"{operation} needs a replayable platform; {self.spec.name} has "
                "noise or a randomized policy, so skipped loads would change answers"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        levels = ", ".join(config.describe() for config in self.level_configs)
        return f"<HardwarePlatform {self.spec.name}: {levels}>"
