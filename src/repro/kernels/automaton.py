"""Policy-automaton compiler: replacement policies as transition tables.

The paper's central formalism is also its best optimization: a
deterministic replacement policy managing one set is a *finite automaton*
over per-set replacement states.  The observable events are

* ``hit@w`` — an access hit the block in way ``w`` (``policy.touch``);
* ``fill@w`` — a cold fill into the invalid way ``w`` (``policy.fill``);
* ``miss`` — a miss in a full set (``policy.evict`` followed by
  ``policy.fill(victim)``).

:func:`compile_policy` enumerates reachable states by breadth-first
search from the reset state and interns them as dense integer ids, so
whole access sequences become flat table lookups instead of object method
dispatch.  A state *is* its interned ``state_key()``: the automaton keeps
the keys and one scratch policy, and a ``(state, event)`` transition is
computed by loading the source key into the scratch policy
(``load_state``), applying the event and interning the successor's key.
Enumeration is *lazy*: a transition is computed the first time the
simulation engine needs it and memoized in the flat tables forever after,
so compiling never costs more than the states a workload actually visits.
:meth:`CompiledPolicy.expand_all` closes the automaton eagerly when the
whole of it is wanted (the artifact store, the vector engine, tests):
it closes over the ``(state, valid ways)`` pairs a set can reach,
expanding only the events a set in that pair can take — hits on
its valid ways, a cold fill into its next invalid way, or, when full,
the evicting miss.  A fill into any other way never happens in a set
that is only ever accessed, so those entries stay unexpanded (``-1``).

Policies outside the automaton class — randomized (``state_key() is
None``), adaptive ones whose behaviour depends on cache-global shared
state, or ones without ``load_state`` — raise
:class:`~repro.errors.KernelUnsupported`, as does blowing the ``budget``
on reachable states; callers fall back to the interpreted simulator,
which the kernel is bit-identical to by construction.
"""

from __future__ import annotations

import weakref

from repro.errors import KernelUnsupported
from repro.policies import (
    PermutationPolicy,
    PermutationSpec,
    PolicyFactory,
    ReplacementPolicy,
)

__all__ = [
    "DEFAULT_BUDGET",
    "CompiledPolicy",
    "compile_policy",
    "compiled_for",
    "compiled_for_factory",
    "compiled_for_spec",
    "mark_unsupported",
    "mark_factory_unsupported",
    "mark_spec_unsupported",
    "clear_compile_cache",
]

#: Default bound on interned states.  Large enough for every registered
#: policy at 8 ways that a workload can realistically drive (closed, full
#: LRU is 8! = 40_320 states and SRRIP 43_818); small enough that a
#: pathological policy cannot consume unbounded memory before the
#: interpreter fallback kicks in.
DEFAULT_BUDGET = 150_000


def _loads_own_keys(cls: type) -> bool:
    """True when ``cls`` defines ``load_state`` where (or below where) it
    defines ``state_key``.

    The base class's ``load_state`` only raises, and a subclass that
    redefines ``state_key`` to cover more state than its parent would
    load only the parent's part of each key through an inherited one.
    """

    def owner(name: str) -> type:
        return next(klass for klass in cls.__mro__ if name in vars(klass))

    return issubclass(owner("load_state"), owner("state_key"))


class CompiledPolicy:
    """Flat transition tables of one deterministic policy at one ways count.

    States are dense ids; id 0 is the reset state.  The tables are flat
    int sequences indexed ``state * ways + way`` (hits and cold fills) or
    ``state`` (full-set misses); ``-1`` marks a transition that has not
    been expanded yet.  An automaton compiled in-process grows them as
    lists; a frozen one indexes the store's int buffers in place.  The
    engine reads the tables directly — attribute access is hoisted out of
    its inner loops — and calls the ``expand_*`` methods only on a ``-1``.
    """

    __slots__ = (
        "ways",
        "budget",
        "hit_next",
        "fill_next",
        "miss_victim",
        "miss_next",
        "_ids",
        "_keys",
        "_scratch",
        "_num_states",
        "vector_tables",
    )

    def __init__(self, prototype: ReplacementPolicy, budget: int = DEFAULT_BUDGET) -> None:
        if not prototype.DETERMINISTIC:
            raise KernelUnsupported(
                f"policy {type(prototype).__name__} is randomized; "
                "the compiled kernel only covers deterministic automata"
            )
        scratch = prototype.clone()
        scratch.reset()
        key = scratch.state_key()
        if key is None:
            raise KernelUnsupported(
                f"policy {type(prototype).__name__} exposes no state_key; "
                "cannot enumerate its automaton"
            )
        if not _loads_own_keys(type(scratch)):
            raise KernelUnsupported(
                f"policy {type(prototype).__name__} has no load_state for "
                "its state_key; cannot enumerate its automaton"
            )
        self.ways = prototype.ways
        self.budget = budget
        self._ids: dict = {key: 0}
        #: ``_keys[state]`` is the state's ``state_key()``; the scratch
        #: policy is loaded from it to expand the state's transitions.
        self._keys: list = [key]
        self._scratch: ReplacementPolicy | None = scratch
        self._num_states = 1
        ways = self.ways
        self.hit_next: list[int] = [-1] * ways
        self.fill_next: list[int] = [-1] * ways
        self.miss_victim: list[int] = [-1]
        self.miss_next: list[int] = [-1]
        #: Numpy mirror of the tables for :mod:`repro.kernels.vector`.
        #: ``None`` = not built yet, ``False`` = tried and unsupported
        #: (budget blown / numpy absent); managed by ``vector.ensure_tables``.
        self.vector_tables = None

    @property
    def num_states(self) -> int:
        """Number of states interned so far (grows with lazy expansion)."""
        return self._num_states

    @property
    def frozen(self) -> bool:
        """True for automata rebuilt from the store's tables.

        A frozen automaton carries no scratch policy, so it cannot expand
        further — which is fine, because only *closed* automata (see
        :meth:`expand_all`) are ever serialized: every event an engine
        can issue is expanded, and the ``-1`` entries left are events no
        set takes.  Its tables are the store's int buffers.
        """
        return self._scratch is None

    def to_tables(self) -> dict:
        """Flat ``array('i')`` buffers of the transition tables.

        Only meaningful for closed automata (see
        :meth:`repro.kernels.store.save`): the frozen automaton they
        deserialize into cannot expand a ``-1`` an engine reaches.
        """
        from array import array

        return {
            "hit_next": array("i", self.hit_next),
            "fill_next": array("i", self.fill_next),
            "miss_victim": array("i", self.miss_victim),
            "miss_next": array("i", self.miss_next),
        }

    @classmethod
    def from_mapped(
        cls, ways: int, budget: int, num_states: int, buffers: dict
    ) -> "CompiledPolicy":
        """Rebuild a closed automaton over the store's int buffers.

        ``buffers`` holds the four tables as int buffers the engines
        index in place: ``memoryview.cast('i')`` views over an ``mmap``
        of the on-disk artifact, so every worker process shares one
        page-cache copy (a view keeps its map open), or ``array('i')``
        tables when the OS refused the mapping.  The result is *frozen*:
        it has no scratch policy to expand new states with, and never
        needs one — the engines never reach the ``-1`` entries a closed
        automaton keeps.
        """
        compiled = cls.__new__(cls)
        compiled.ways = ways
        compiled.budget = budget
        compiled._ids = {}
        compiled._keys = []
        compiled._scratch = None
        compiled._num_states = num_states
        compiled.vector_tables = None
        compiled.hit_next = buffers["hit_next"]
        compiled.fill_next = buffers["fill_next"]
        compiled.miss_victim = buffers["miss_victim"]
        compiled.miss_next = buffers["miss_next"]
        return compiled

    def _intern(self, key) -> int:
        sid = self._ids.get(key)
        if sid is not None:
            return sid
        if self._num_states >= self.budget:
            raise KernelUnsupported(
                f"policy {type(self._scratch).__name__} exceeds the kernel "
                f"state budget of {self.budget} reachable states"
            )
        sid = self._num_states
        self._ids[key] = sid
        self._keys.append(key)
        self._num_states += 1
        ways = self.ways
        self.hit_next.extend([-1] * ways)
        self.fill_next.extend([-1] * ways)
        self.miss_victim.append(-1)
        self.miss_next.append(-1)
        return sid

    def _load(self, state: int) -> ReplacementPolicy:
        """The scratch policy, put into ``state``."""
        scratch = self._scratch
        if scratch is None:
            raise KernelUnsupported(
                "frozen automaton hit an unexpanded transition; the "
                "serialized artifact was not closed"
            )
        scratch.load_state(self._keys[state])
        return scratch

    # -- lazy expansion (called by the engine on a -1 table entry) --------
    def expand_hit(self, state: int, way: int) -> int:
        """Expand and memoize the ``hit@way`` transition of ``state``."""
        scratch = self._load(state)
        scratch.touch(way)
        next_state = self._intern(scratch.state_key())
        self.hit_next[state * self.ways + way] = next_state
        return next_state

    def expand_fill(self, state: int, way: int) -> int:
        """Expand and memoize the cold ``fill@way`` transition of ``state``."""
        scratch = self._load(state)
        scratch.fill(way)
        next_state = self._intern(scratch.state_key())
        self.fill_next[state * self.ways + way] = next_state
        return next_state

    def expand_miss(self, state: int) -> tuple[int, int]:
        """Expand the full-set miss of ``state``: (victim way, next state).

        Mirrors :meth:`repro.cache.set.CacheSet.fill` exactly: the victim
        is chosen by ``evict`` (which may mutate state, e.g. RRIP aging)
        and the incoming block is then filled into the victim way.
        """
        scratch = self._load(state)
        victim = scratch.evict()
        scratch.fill(victim)
        next_state = self._intern(scratch.state_key())
        self.miss_victim[state] = victim
        self.miss_next[state] = next_state
        return victim, next_state

    # -- eager enumeration -------------------------------------------------
    def expand_all(self) -> int:
        """Close the automaton over the ``(state, valid ways)`` pairs a set reaches.

        A set holding ``k < ways`` valid lines can hit ways ``0..k-1`` or
        cold-fill way ``k``; a full set can hit any way or take the
        evicting miss.  Those are the only events the engines issue —
        they fill into the fill count because they never invalidate — so
        the closure starts from the reset state with an empty set and
        with a full set (where the preloaded engines start) and expands
        exactly those events.  Entries no set reaches stay ``-1``.

        The valid count never falls, so the closure runs one layer per
        count: the states a set with ``k`` valid ways reaches, closed
        under its hits (and, when full, its evicting miss); the layer's
        cold fills seed layer ``k + 1``.  States are interned in
        discovery order.  The loop inlines ``expand_*`` for speed and
        reuses every transition already expanded.  Returns the total
        state count.  Raises :class:`~repro.errors.KernelUnsupported` if
        the reachable space exceeds the budget.
        """
        scratch = self._scratch
        if scratch is None:  # frozen: closed by construction
            return self._num_states
        ways = self.ways
        keys = self._keys
        known = self._ids.get
        intern = self._intern
        hit_next, fill_next = self.hit_next, self.fill_next
        miss_victim, miss_next = self.miss_victim, self.miss_next
        load, state_key = scratch.load_state, scratch.state_key
        touch, fill, evict = scratch.touch, scratch.fill, scratch.evict
        layer = [0]
        for valid in range(ways + 1):
            if valid == ways:
                layer.append(0)  # a preloaded full set in the reset state
            layer = list(dict.fromkeys(layer))
            seen = set(layer)
            fills = []
            for state in layer:  # the list grows as the loop walks it
                key = keys[state]
                base = state * ways
                for way in range(valid):
                    next_state = hit_next[base + way]
                    if next_state < 0:
                        load(key)
                        touch(way)
                        successor = state_key()
                        next_state = known(successor)
                        if next_state is None:
                            next_state = intern(successor)
                        hit_next[base + way] = next_state
                    if next_state not in seen:
                        seen.add(next_state)
                        layer.append(next_state)
                if valid < ways:
                    next_state = fill_next[base + valid]
                    if next_state < 0:
                        load(key)
                        fill(valid)
                        successor = state_key()
                        next_state = known(successor)
                        if next_state is None:
                            next_state = intern(successor)
                        fill_next[base + valid] = next_state
                    fills.append(next_state)
                    continue
                next_state = miss_next[state]
                if miss_victim[state] < 0:
                    load(key)
                    victim = evict()
                    fill(victim)
                    successor = state_key()
                    next_state = known(successor)
                    if next_state is None:
                        next_state = intern(successor)
                    miss_next[state] = next_state
                    miss_victim[state] = victim
                if next_state not in seen:
                    seen.add(next_state)
                    layer.append(next_state)
            layer = fills
        return self._num_states

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        origin = (
            type(self._scratch).__name__ if self._scratch is not None else "frozen"
        )
        return (
            f"<CompiledPolicy {origin} "
            f"ways={self.ways} states={self.num_states}>"
        )


def compile_policy(
    policy_or_spec: ReplacementPolicy | PermutationSpec | str,
    ways: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> CompiledPolicy:
    """Compile a policy into its transition-table automaton.

    Accepts a policy instance, a :class:`PermutationSpec` (``ways`` taken
    from the spec), or a registry name (``ways`` required).  Raises
    :class:`~repro.errors.KernelUnsupported` for randomized policies.
    """
    if isinstance(policy_or_spec, PermutationSpec):
        prototype: ReplacementPolicy = PermutationPolicy(
            policy_or_spec.ways, policy_or_spec
        )
    elif isinstance(policy_or_spec, str):
        if ways is None:
            raise KernelUnsupported(
                f"compiling {policy_or_spec!r} by name requires ways="
            )
        from repro.policies import get

        prototype = get(policy_or_spec, ways)
    else:
        prototype = policy_or_spec
    if ways is not None and prototype.ways != ways:
        raise KernelUnsupported(
            f"policy is {prototype.ways}-way but ways={ways} was requested"
        )
    return CompiledPolicy(prototype, budget=budget)


# -- compilation caches ------------------------------------------------------
#: Per-instance cache: policy object -> its automaton.  Weak keys so
#: caching a candidate pool does not pin the policies alive; identity
#: semantics are what the identify/distinguish loops want (they reuse the
#: same candidate instances across thousands of probes).
_INSTANCE_CACHE: "weakref.WeakKeyDictionary[ReplacementPolicy, CompiledPolicy]" = (
    weakref.WeakKeyDictionary()
)

#: Unsupported-policy instances, so the KernelUnsupported probe runs once.
_INSTANCE_UNSUPPORTED: "weakref.WeakSet[ReplacementPolicy]" = weakref.WeakSet()

#: Per-name cache: (name, params, ways) -> automaton (or None when the
#: named policy is not compilable), shared by every simulation cell of a
#: grid so each process compiles a policy at most once.
_FACTORY_CACHE: dict[tuple, CompiledPolicy | None] = {}


def _note_compile(source: str) -> None:
    """Count one cache resolution as ``kernel.compile.<source>``.

    ``source`` is ``"hit"`` (answered from the in-process cache),
    ``"load"`` (deserialized from the on-disk artifact store), ``"miss"``
    (compiled in-process) or ``"unsupported"`` (the policy has no
    automaton).
    """
    from repro.obs import metrics as obs_metrics

    obs_metrics.DEFAULT.incr(f"kernel.compile.{source}")


def _note_unsupported(compiled: CompiledPolicy | None) -> None:
    """Count one automaton that could not finish a run.

    An automaton compiled in-process stops only when it blows its state
    budget (``kernel.budget_fallbacks``).  A frozen one from the store
    never expands, so it stops only on an unexpanded entry: the artifact
    could not answer the run (``kernel.store.errors``).  Either way the
    caller re-runs the work on the interpreter or in direct mode, and
    the automaton is not offered again, so without this count a
    compilable policy would leave the kernel silently.
    """
    from repro.obs import metrics as obs_metrics

    frozen = compiled is not None and compiled.frozen
    obs_metrics.DEFAULT.incr(
        "kernel.store.errors" if frozen else "kernel.budget_fallbacks"
    )


def compiled_for(policy: ReplacementPolicy) -> CompiledPolicy | None:
    """The (cached) automaton of a policy instance, or None if unsupported.

    Resolution order is memory -> disk -> compile: a registry-built instance
    (stamped with its ``(name, params)`` provenance by
    :class:`~repro.policies.registry.PolicyFactory`) and a
    :class:`PermutationPolicy` (keyed by its spec) both reach the on-disk
    artifact store through their canonical caches; anything else compiles
    in-process as before.
    """
    cached = _INSTANCE_CACHE.get(policy)
    if cached is not None:
        _note_compile("hit")
        return cached
    if policy in _INSTANCE_UNSUPPORTED:
        _note_compile("hit")
        return None
    # Canonical identities route through the shared (and disk-backed)
    # caches so equivalent instances share one automaton per process.
    compiled: CompiledPolicy | None
    if isinstance(policy, PermutationPolicy):
        compiled = compiled_for_spec(policy.spec)
    else:
        provenance = getattr(policy, "_registry_key", None)
        if provenance is not None:
            name, params = provenance
            compiled = compiled_for_factory(name, params, policy.ways)
        else:
            try:
                compiled = compile_policy(policy)
            except KernelUnsupported:
                _INSTANCE_UNSUPPORTED.add(policy)
                _note_compile("unsupported")
                return None
            _note_compile("miss")
    if compiled is None:
        _INSTANCE_UNSUPPORTED.add(policy)
        return None
    _INSTANCE_CACHE[policy] = compiled
    return compiled


def compiled_for_factory(
    name: str, params: tuple, ways: int
) -> CompiledPolicy | None:
    """The (cached) automaton of a named policy, or None if unsupported.

    ``params`` is the sorted item tuple a :class:`SimCell` carries; a
    spec-parameterised permutation policy hashes through its frozen spec.
    Consults the in-process cache, then the on-disk artifact store
    (:mod:`repro.kernels.store`), then compiles.
    """
    from repro.kernels import store

    key = (name, params, ways)
    if key in _FACTORY_CACHE:
        _note_compile("hit")
        return _FACTORY_CACHE[key]
    factory = PolicyFactory(name, **dict(params))
    compiled: CompiledPolicy | None
    if not factory.deterministic:
        # Randomized/adaptive policies have no automaton at all; count
        # them apart from misses so "no compile missed the warm cache"
        # assertions hold on grids that include them.
        compiled = None
        _note_compile("unsupported")
    else:
        compiled = store.load(store.factory_key(name, params, ways))
        if compiled is not None:
            _note_compile("load")
        else:
            try:
                compiled = compile_policy(
                    factory.build(ways, set_index=0, shared=factory.create_shared(1))
                )
            except KernelUnsupported:
                compiled = None
                _note_compile("unsupported")
            else:
                _note_compile("miss")
    _FACTORY_CACHE[key] = compiled
    return compiled


#: Per-spec cache for inference verification, which simulates the same
#: freshly inferred spec against hundreds of probe prefixes.  None marks
#: a spec whose automaton failed mid-run.
_SPEC_CACHE: dict[PermutationSpec, CompiledPolicy | None] = {}


def compiled_for_spec(spec: PermutationSpec) -> CompiledPolicy | None:
    """The (cached) automaton of a permutation spec, or None if unsupported.

    Memory -> disk -> compile, like :func:`compiled_for_factory`; the disk
    key is a content digest of the spec's permutation vectors.
    """
    from repro.kernels import store

    if spec in _SPEC_CACHE:
        _note_compile("hit")
        return _SPEC_CACHE[spec]
    compiled = store.load(store.spec_key(spec))
    if compiled is not None:
        _note_compile("load")
    else:
        compiled = compile_policy(spec)
        _note_compile("miss")
    _SPEC_CACHE[spec] = compiled
    return compiled


def mark_unsupported(policy: ReplacementPolicy) -> None:
    """Record that a policy's automaton failed mid-run; stop retrying it."""
    _note_unsupported(_INSTANCE_CACHE.pop(policy, None))
    _INSTANCE_UNSUPPORTED.add(policy)


def mark_factory_unsupported(name: str, params: tuple, ways: int) -> None:
    """Record that a named policy's automaton failed mid-run."""
    key = (name, params, ways)
    _note_unsupported(_FACTORY_CACHE.get(key))
    _FACTORY_CACHE[key] = None


def mark_spec_unsupported(spec: PermutationSpec) -> None:
    """Record that a spec's automaton failed mid-run."""
    _note_unsupported(_SPEC_CACHE.get(spec))
    _SPEC_CACHE[spec] = None


def clear_compile_cache() -> None:
    """Fully reset in-process kernel compilation state (test hygiene).

    Drops every cached automaton *and* every unsupported marker —
    including the "failed mid-run" ``mark_*_unsupported``
    tombstones, so a policy that was marked off can compile again — and
    forgets which artifacts this session already persisted to the
    on-disk store (the store's files themselves are untouched; use
    :func:`repro.kernels.store.clear` for those).
    """
    from repro.kernels import store

    _INSTANCE_CACHE.clear()
    _INSTANCE_UNSUPPORTED.clear()
    _FACTORY_CACHE.clear()
    _SPEC_CACHE.clear()
    store.forget_persisted()
