"""A single-level set-associative cache."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.address import AddressCodec
from repro.cache.config import CacheConfig
from repro.cache.set import CacheSet
from repro.cache.stats import CacheStats
from repro.errors import SimulationError
from repro.policies import PolicyFactory
from repro.util.rng import SeededRng


@dataclass(frozen=True)
class CacheAccessResult:
    """Outcome of one access to a cache level."""

    hit: bool
    set_index: int
    way: int
    evicted_address: int | None


class Cache:
    """Physically indexed, physically tagged set-associative cache.

    Addresses are byte addresses; all accesses within one line are the
    same cache line.  The replacement policy is specified by name or
    :class:`~repro.policies.PolicyFactory`, and a cache-global shared
    context (a duel's PSEL) is created for it.  A deterministic policy
    that compiles runs on an automaton: every set holds an
    :class:`~repro.kernels.automaton.AutomatonPolicy`, whose state is one
    id into :attr:`automaton`.  Any other policy (DIP, random) is built
    once per set by :meth:`~repro.policies.PolicyFactory.build_cache`.
    Either way the shared context draws from ``rng.fork("shared")``, so
    no stream depends on which way a cache went.

    Attributes:
        automaton: the :class:`~repro.kernels.automaton.CompiledPolicy`
            every set's policy indexes, or None when the sets hold policy
            objects.  Shared with every other cache of the same policy
            and associativity in the process
            (:func:`~repro.kernels.automaton.compiled_for_level`) and
            expanded lazily as their sets reach new states: not the
            store's closed automaton, which has no transition for a fill
            into the hole a back-invalidation leaves.  The hierarchy walk
            reads its tables.
        sets: the :class:`~repro.cache.set.CacheSet` of each set index.
            Read-only from outside this class and the hierarchy walk:
            the cache records which sets are filled so that :meth:`flush`
            resets only those, and a set changed directly
            (``sets[i].access(...)``, ``sets[i].preload(...)``) bypasses
            that record and would keep its state across a flush.
            :meth:`restore` installs new set objects in this list, so
            keep the list or an index rather than a set.
        filled: indices of the sets filled since the last flush.  Only a
            fill makes a set leave its reset state (hits and
            invalidations need a resident line), so every other set is
            still in it.  The hierarchy walk, which fills ``sets[i]``
            itself, adds ``i`` here itself.  One set object for the
            cache's life: :meth:`flush` and :meth:`restore` change it in
            place, because the walk holds it (and ``sets`` and ``stats``)
            from the hierarchy's construction.
    """

    def __init__(
        self,
        config: CacheConfig,
        policy: str | PolicyFactory = "lru",
        rng: SeededRng | None = None,
    ) -> None:
        self.config = config
        self.codec = AddressCodec(config)
        #: ``locate(address) -> (set index, tag)``, the codec's split.
        self.locate = self.codec.locate
        if isinstance(policy, str):
            policy = PolicyFactory(policy)
        self.policy_factory = policy
        self._rng = rng if rng is not None else SeededRng(0)
        # Imported here: repro.kernels imports this package.
        from repro.kernels import automaton

        self.automaton = automaton.compiled_for_level(policy, config.ways)
        if self.automaton is None:
            self.shared, policies = policy.build_cache(
                config.num_sets, config.ways, self._rng
            )
        else:
            self.shared = policy.create_shared(config.num_sets, self._rng.fork("shared"))
            policies = [
                automaton.AutomatonPolicy(self.automaton)
                for _ in range(config.num_sets)
            ]
        self.sets = [CacheSet(config.ways, set_policy) for set_policy in policies]
        self.filled: set[int] = set()
        self.stats = CacheStats()
        # The statistics at the last flush, the base of a checkpoint's deltas.
        self._stats_at_flush = CacheStats()

    @property
    def name(self) -> str:
        """The level name from the configuration (e.g. ``"L2"``)."""
        return self.config.name

    # -- access path -------------------------------------------------------
    def access(self, address: int) -> CacheAccessResult:
        """Access ``address``; fill on miss; update statistics."""
        set_index, tag = self.locate(address)
        result = self.sets[set_index].access(tag)
        self.stats.accesses += 1
        evicted_address: int | None = None
        if result.hit:
            self.stats.hits += 1
        else:
            self.filled.add(set_index)
            self.stats.misses += 1
            self.stats.fills += 1
            if result.evicted_tag is not None:
                self.stats.evictions += 1
                evicted_address = self.codec.compose(result.evicted_tag, set_index)
        return CacheAccessResult(
            hit=result.hit,
            set_index=set_index,
            way=result.way,
            evicted_address=evicted_address,
        )

    # -- non-disturbing queries ---------------------------------------------
    def probe(self, address: int) -> bool:
        """Return True if ``address`` is resident; no state change."""
        set_index, tag = self.locate(address)
        return self.sets[set_index].lookup(tag) is not None

    def resident_addresses(self) -> set[int]:
        """Return the line addresses of every resident line (test helper)."""
        addresses = set()
        for set_index, cache_set in enumerate(self.sets):
            for tag in cache_set.resident_tags():
                addresses.add(self.codec.compose(tag, set_index))
        return addresses

    # -- maintenance ---------------------------------------------------------
    def invalidate(self, address: int) -> bool:
        """Drop a line (back-invalidation path); True if it was present."""
        set_index, tag = self.locate(address)
        removed = self.sets[set_index].invalidate(tag)
        if removed:
            self.stats.invalidations += 1
        return removed

    def flush(self) -> int:
        """Invalidate all lines, reset replacement state; keep statistics.

        Resets the sets filled since the last flush, every other set
        being in its reset state already, plus the shared context (a
        duel's PSEL).  No policy's ``reset`` draws randomness, so this is
        the same as resetting every set.  Returns how many sets it reset.
        """
        sets = self.sets
        for set_index in self.filled:
            sets[set_index].flush()
        reset = len(self.filled)
        self.filled.clear()
        self.shared.reset()
        self._stats_at_flush = self.stats.snapshot()
        return reset

    def checkpoint(self) -> tuple[dict[int, CacheSet], CacheStats]:
        """The state the accesses since the last flush built.

        Clones of the sets filled since then (every other set is still in
        its reset state) and what those accesses added to the statistics.
        A checkpoint records no randomness and no cache-global state, so
        :meth:`restore` reproduces the accesses only under a policy that
        draws no randomness (``PolicyFactory.deterministic``).
        """
        sets = self.sets
        return (
            {set_index: sets[set_index].clone() for set_index in self.filled},
            self.stats.delta(self._stats_at_flush),
        )

    def restore(self, checkpoint: tuple[dict[int, CacheSet], CacheStats]) -> None:
        """Rebuild a :meth:`checkpoint` on a cache flushed since its last fill.

        Installs clones of the recorded sets and advances the statistics
        by the recorded deltas: the cache ends up as if it had replayed
        the accesses, and the checkpoint stays reusable.  The checkpoint
        must come from a cache of this one's configuration and policy:
        its sets' state ids index :attr:`automaton`.
        """
        if self.filled:
            raise SimulationError(
                f"{self.name}: restore needs a cache flushed since its last fill"
            )
        filled, added = checkpoint
        sets = self.sets
        for set_index, cache_set in filled.items():
            sets[set_index] = cache_set.clone()
        self.filled.update(filled)
        self.stats.advance(added)

    def reset(self) -> None:
        """Flush and zero statistics."""
        self.stats.reset()
        self.flush()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cache {self.config.describe()} policy={self.policy_factory.name}>"
