"""The simulated measurement platform.

:class:`HardwarePlatform` is the stand-in for "an Intel machine with a
kernel module for measurements".  It bundles a cache hierarchy built from
a :class:`~repro.hardware.catalog.ProcessorSpec`, virtual memory,
performance counters, and the platform's noise model.  The experimenter
API mirrors what the paper's tooling had:

* :meth:`HardwarePlatform.allocate` — map a measurement buffer;
* :meth:`HardwarePlatform.load` — perform one load from a virtual
  address (the only way to touch the caches);
* :attr:`HardwarePlatform.counters` — read performance counters;
* :meth:`HardwarePlatform.wbinvd` — privileged whole-hierarchy flush
  (the kernel-module luxury; the harness uses it to make measurements
  independent, the same role thrashing plays in user-space-only setups).

Nothing else is exposed: replacement state, tags, and the ground-truth
policies are deliberately unreachable from this API, so the inference
code cannot cheat.
"""

from __future__ import annotations

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
        self.loads_performed = 0

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
        """Perform one load; updates caches, counters and noise."""
        physical = self.memory.translate(virtual)
        self.hierarchy.access(physical)
        self.loads_performed += 1
        noise = self.spec.noise
        if noise.counter_noise_rate > 0.0:
            for level_name in self.hierarchy.level_names:
                if self._noise_rng.random() < noise.counter_noise_rate:
                    self.counters.inject_spurious(level_name, "miss")
        if noise.background_rate > 0.0 and self._noise_rng.random() < noise.background_rate:
            # Interrupt / other-process traffic: a random line in a fixed
            # physical window, issued as a demand access of another agent
            # (it moves replacement state but not *our* retired-load
            # counters, which are per-logical-core on real hardware).
            line_size = self.level_configs[0].line_size
            background = self._noise_rng.randrange(1 << 24) * line_size
            self.hierarchy.access(background, demand=False)
        if noise.prefetch_rate > 0.0 and self._noise_rng.random() < noise.prefetch_rate:
            try:
                neighbour = self.memory.translate(virtual + self.level_configs[0].line_size)
            except MeasurementError:  # next line crosses into unmapped space
                return
            # Prefetches disturb cache state but are not demand loads, so
            # they do not move the MEM_LOAD_RETIRED-style counters.
            self.hierarchy.access(neighbour, demand=False)

    def wbinvd(self) -> None:
        """Flush the whole hierarchy (privileged, as from a kernel module).

        Counts the sets it actually reset as ``hw.flush.sets``.
        """
        obs_metrics.DEFAULT.incr("hw.flush.sets", self.hierarchy.flush())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        levels = ", ".join(config.describe() for config in self.level_configs)
        return f"<HardwarePlatform {self.spec.name}: {levels}>"
