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
whole access sequences become flat list lookups instead of object method
dispatch.  A state *is* its interned ``state_key()``: the automaton keeps
the keys and one scratch policy, and a ``(state, event)`` transition is
computed by loading the source key into the scratch policy
(``load_state``), applying the event and interning the successor's key.
Enumeration is *lazy*: a transition is computed the first time the
simulation engine needs it and memoized in the flat tables forever after,
so compiling never costs more than the states a workload actually visits.
:meth:`CompiledPolicy.expand_all` forces the classic eager BFS when the
full automaton is wanted (tests, state-space reports, the artifact store).

Policies outside the automaton class — randomized (``state_key() is
None``), adaptive ones whose behaviour depends on cache-global shared
state, or ones without ``load_state`` — raise
:class:`~repro.errors.KernelUnsupported`, as does blowing the ``budget``
on reachable states; callers fall back to the interpreted simulator,
which the kernel is bit-identical to by construction.
"""

from __future__ import annotations

import time
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
#: policy at 8 ways that a workload can realistically drive (full LRU is
#: 8! = 40_320 states); small enough that a pathological policy cannot
#: consume unbounded memory before the interpreter fallback kicks in.
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
    lists indexed ``state * ways + way`` (hits and cold fills) or
    ``state`` (full-set misses); ``-1`` marks a transition that has not
    been expanded yet.  The engine reads the tables directly — attribute
    access is hoisted out of its inner loops — and calls the ``expand_*``
    methods only on a ``-1``.
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
        """True for automata rebuilt from serialized tables.

        A frozen automaton carries no scratch policy, so it cannot expand
        further — which is fine, because only *complete* automata (every
        transition filled in) are ever serialized.
        """
        return self._scratch is None

    def is_complete(self) -> bool:
        """True when every interned state's transitions are expanded."""
        return (
            min(self.hit_next, default=-1) >= 0
            and min(self.fill_next, default=-1) >= 0
            and min(self.miss_victim, default=-1) >= 0
            and min(self.miss_next, default=-1) >= 0
        )

    def to_tables(self) -> dict:
        """Flat ``array('i')`` buffers of the transition tables.

        Only meaningful for complete automata (see
        :meth:`repro.kernels.store.save`); ``-1`` placeholders would
        deserialize into an automaton that cannot expand them.
        """
        from array import array

        return {
            "hit_next": array("i", self.hit_next),
            "fill_next": array("i", self.fill_next),
            "miss_victim": array("i", self.miss_victim),
            "miss_next": array("i", self.miss_next),
        }

    @classmethod
    def from_tables(
        cls, ways: int, budget: int, num_states: int, tables: dict
    ) -> "CompiledPolicy":
        """Rebuild a complete automaton from its serialized flat tables.

        The result is *frozen*: it has no scratch policy to expand new
        states with, and never needs one — completeness means the engine
        never sees a ``-1`` entry.
        """
        compiled = cls.__new__(cls)
        compiled.ways = ways
        compiled.budget = budget
        compiled._ids = {}
        compiled._keys = []
        compiled._scratch = None
        compiled._num_states = num_states
        compiled.vector_tables = None
        # Plain lists: exactly what the BFS path builds, so the engine's
        # inner loops are byte-for-byte the same on both origins.
        compiled.hit_next = list(tables["hit_next"])
        compiled.fill_next = list(tables["fill_next"])
        compiled.miss_victim = list(tables["miss_victim"])
        compiled.miss_next = list(tables["miss_next"])
        return compiled

    @classmethod
    def from_mapped(
        cls, ways: int, budget: int, num_states: int, buffers: dict, keep_alive=None
    ) -> "CompiledPolicy":
        """Rebuild a complete automaton over zero-copy mapped buffers.

        ``buffers`` holds int-typed buffer views (``memoryview.cast('i')``)
        of the four tables, typically backed by an ``mmap`` of the on-disk
        artifact so every worker process shares one page-cache copy.  The
        scalar engines want plain lists for their inner loops, so the list
        tables are materialized *lazily*, on first attribute access — a
        worker that only ever runs the vector engine (whose numpy views
        the store attaches separately) never deserializes them at all.
        ``keep_alive`` pins the underlying map for the automaton's lifetime.
        """
        compiled = _MappedCompiledPolicy.__new__(_MappedCompiledPolicy)
        compiled.ways = ways
        compiled.budget = budget
        compiled._ids = {}
        compiled._keys = []
        compiled._scratch = None
        compiled._num_states = num_states
        compiled.vector_tables = None
        compiled._buffers = dict(buffers)
        compiled._keep_alive = keep_alive
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
                "serialized artifact was not complete"
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
        """Classic eager BFS: close the automaton under every event.

        States are interned in discovery order, so walking ids upwards
        *is* the BFS queue.  The loop inlines ``expand_*`` (same events,
        same order) for speed.  Returns the total state count.  Raises
        :class:`~repro.errors.KernelUnsupported` if the reachable space
        exceeds the budget.
        """
        scratch = self._scratch
        if scratch is None:  # frozen: complete by construction
            return self._num_states
        ways = self.ways
        keys = self._keys
        known = self._ids.get
        intern = self._intern
        hit_next, fill_next = self.hit_next, self.fill_next
        miss_victim, miss_next = self.miss_victim, self.miss_next
        load, state_key = scratch.load_state, scratch.state_key
        touch, fill, evict = scratch.touch, scratch.fill, scratch.evict
        state = 0
        while state < self._num_states:
            key = keys[state]
            base = state * ways
            for way in range(ways):
                if hit_next[base + way] < 0:
                    load(key)
                    touch(way)
                    successor = state_key()
                    next_state = known(successor)
                    if next_state is None:
                        next_state = intern(successor)
                    hit_next[base + way] = next_state
                if fill_next[base + way] < 0:
                    load(key)
                    fill(way)
                    successor = state_key()
                    next_state = known(successor)
                    if next_state is None:
                        next_state = intern(successor)
                    fill_next[base + way] = next_state
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
            state += 1
        return self._num_states

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        origin = (
            type(self._scratch).__name__ if self._scratch is not None else "frozen"
        )
        return (
            f"<CompiledPolicy {origin} "
            f"ways={self.ways} states={self.num_states}>"
        )


class _MappedCompiledPolicy(CompiledPolicy):
    """Frozen automaton whose list tables materialize on first use.

    Built only by :meth:`CompiledPolicy.from_mapped`.  The table names
    are shadowed by properties that copy the mapped buffer into a plain
    list the first time a scalar engine touches it, then write the list
    through the parent's slot descriptor so every later access is a
    plain slot read again.
    """

    __slots__ = ("_buffers", "_keep_alive")


def _lazy_table(name: str):
    slot = getattr(CompiledPolicy, name)  # the parent's member descriptor

    def fget(self):
        try:
            return slot.__get__(self, type(self))
        except AttributeError:
            value = list(self._buffers[name])
            slot.__set__(self, value)
            return value

    return property(fget, slot.__set__)


for _name in ("hit_next", "fill_next", "miss_victim", "miss_next"):
    setattr(_MappedCompiledPolicy, _name, _lazy_table(_name))
del _name


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


def _note_compile(source: str, kind: str, label: str, ways: int,
                  compiled: "CompiledPolicy | None", seconds: float) -> None:
    """Account one cache resolution: counters always, an event when cold.

    ``source`` is ``"hit"`` (answered from the in-process cache),
    ``"load"`` (deserialized from the on-disk artifact store), ``"miss"``
    (BFS-compiled) or ``"unsupported"`` (the policy has no automaton).
    Memory hits are counter-only — they run on the per-measurement hot
    path; disk loads and fresh compiles additionally emit a
    ``kernel.compile`` trace event when a (cold-event) tracer is active.
    """
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    obs_metrics.DEFAULT.incr(f"kernel.compile.{source}")
    if source == "hit":
        return
    tracer = obs_trace.ACTIVE
    if tracer is not None:
        tracer.emit(
            "kernel.compile",
            source=source,
            target=kind,
            policy=label,
            ways=ways,
            states=compiled.num_states if compiled is not None else 0,
            seconds=round(seconds, 6),
        )


def compiled_for(policy: ReplacementPolicy) -> CompiledPolicy | None:
    """The (cached) automaton of a policy instance, or None if unsupported.

    Resolution order is memory -> disk -> BFS: a registry-built instance
    (stamped with its ``(name, params)`` provenance by
    :class:`~repro.policies.registry.PolicyFactory`) and a
    :class:`PermutationPolicy` (keyed by its spec) both reach the on-disk
    artifact store through their canonical caches; anything else compiles
    in-process as before.
    """
    cached = _INSTANCE_CACHE.get(policy)
    if cached is not None:
        _note_compile("hit", "instance", type(policy).__name__, policy.ways, cached, 0.0)
        return cached
    if policy in _INSTANCE_UNSUPPORTED:
        _note_compile("hit", "instance", type(policy).__name__, policy.ways, None, 0.0)
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
            start = time.perf_counter()
            try:
                compiled = compile_policy(policy)
            except KernelUnsupported:
                _INSTANCE_UNSUPPORTED.add(policy)
                _note_compile(
                    "unsupported", "instance", type(policy).__name__,
                    policy.ways, None, time.perf_counter() - start,
                )
                return None
            _note_compile(
                "miss", "instance", type(policy).__name__, policy.ways,
                compiled, time.perf_counter() - start,
            )
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
    (:mod:`repro.kernels.store`), then BFS-compiles.
    """
    from repro.kernels import store

    key = (name, params, ways)
    if key in _FACTORY_CACHE:
        _note_compile("hit", "factory", name, ways, _FACTORY_CACHE[key], 0.0)
        return _FACTORY_CACHE[key]
    factory = PolicyFactory(name, **dict(params))
    compiled: CompiledPolicy | None
    if not factory.deterministic:
        # Randomized/adaptive policies have no automaton at all; count
        # them apart from misses so "no compile missed the warm cache"
        # assertions hold on grids that include them.
        compiled = None
        _note_compile("unsupported", "factory", name, ways, None, 0.0)
    else:
        start = time.perf_counter()
        compiled = store.load(store.factory_key(name, params, ways))
        if compiled is not None:
            _note_compile(
                "load", "factory", name, ways, compiled,
                time.perf_counter() - start,
            )
        else:
            try:
                compiled = compile_policy(
                    factory.build(ways, set_index=0, shared=factory.create_shared(1))
                )
            except KernelUnsupported:
                compiled = None
                _note_compile(
                    "unsupported", "factory", name, ways, None,
                    time.perf_counter() - start,
                )
            else:
                _note_compile(
                    "miss", "factory", name, ways, compiled,
                    time.perf_counter() - start,
                )
    _FACTORY_CACHE[key] = compiled
    return compiled


#: Per-spec cache for inference verification, which simulates the same
#: freshly inferred spec against hundreds of probe prefixes.  None marks
#: a spec whose reachable space blew the budget mid-run.
_SPEC_CACHE: dict[PermutationSpec, CompiledPolicy | None] = {}


def compiled_for_spec(spec: PermutationSpec) -> CompiledPolicy | None:
    """The (cached) automaton of a permutation spec, or None if unsupported.

    Memory -> disk -> BFS, like :func:`compiled_for_factory`; the disk
    key is a content digest of the spec's permutation vectors.
    """
    from repro.kernels import store

    if spec in _SPEC_CACHE:
        _note_compile("hit", "spec", "permutation-spec", spec.ways, _SPEC_CACHE[spec], 0.0)
        return _SPEC_CACHE[spec]
    start = time.perf_counter()
    compiled = store.load(store.spec_key(spec))
    if compiled is not None:
        _note_compile(
            "load", "spec", "permutation-spec", spec.ways, compiled,
            time.perf_counter() - start,
        )
    else:
        compiled = compile_policy(spec)
        _note_compile(
            "miss", "spec", "permutation-spec", spec.ways, compiled,
            time.perf_counter() - start,
        )
    _SPEC_CACHE[spec] = compiled
    return compiled


def mark_unsupported(policy: ReplacementPolicy) -> None:
    """Record that a policy blew the budget mid-run; stop retrying it."""
    _INSTANCE_CACHE.pop(policy, None)
    _INSTANCE_UNSUPPORTED.add(policy)


def mark_factory_unsupported(name: str, params: tuple, ways: int) -> None:
    """Record that a named policy blew the budget mid-run."""
    _FACTORY_CACHE[(name, params, ways)] = None


def mark_spec_unsupported(spec: PermutationSpec) -> None:
    """Record that a spec blew the budget mid-run."""
    _SPEC_CACHE[spec] = None


def clear_compile_cache() -> None:
    """Fully reset in-process kernel compilation state (test hygiene).

    Drops every cached automaton *and* every unsupported marker —
    including the "blew the budget mid-run" ``mark_*_unsupported``
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
