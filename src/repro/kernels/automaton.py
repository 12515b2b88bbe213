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

:class:`AutomatonPolicy` puts one set of a simulated cache level on an
automaton: a :class:`~repro.policies.ReplacementPolicy` whose whole
state is one id, so :class:`~repro.cache.set.CacheSet` stays the one set
representation.  The levels of one policy and associativity share one
lazily grown automaton per process (:func:`compiled_for_level`).
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
    "AutomatonPolicy",
    "CompiledPolicy",
    "compile_policy",
    "compiled_for",
    "compiled_for_factory",
    "compiled_for_level",
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
        "_trap",
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
        self._trap = -1  # see trap()
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
        compiled._trap = -1
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
        sid = self._add_row(key)
        self._ids[key] = sid
        return sid

    def _add_row(self, key) -> int:
        """Append a row of ``-1`` entries for ``key``; return its id."""
        sid = self._num_states
        self._keys.append(key)
        self._num_states += 1
        ways = self.ways
        self.hit_next.extend([-1] * ways)
        self.fill_next.extend([-1] * ways)
        self.miss_victim.append(-1)
        self.miss_next.append(-1)
        return sid

    def trap(self) -> int:
        """The id of a row whose entries stay ``-1`` for good.

        Added on first use after the states interned so far (it counts
        in :attr:`num_states`), without a key, so no transition ever
        enters it and none is ever expanded from it: every table read at
        this id finds ``-1``.
        :class:`AutomatonPolicy` parks a set here once it runs on a real
        policy.
        """
        if self._trap < 0:
            self._trap = self._add_row(None)
        return self._trap

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


class AutomatonPolicy(ReplacementPolicy):
    """One set's replacement state as a state id of a shared automaton.

    Every set of a simulated cache level whose policy compiles holds one
    of these over the level's :class:`CompiledPolicy`
    (:func:`compiled_for_level`), and ``state`` is the set's whole
    replacement state.  Each event reads the automaton's
    tables and expands a ``-1`` through its scratch policy, so the set
    behaves exactly as the policy the automaton was compiled from;
    :meth:`state_key` answers that policy's key.  The hierarchy walk
    reads the tables itself and calls these methods only on a ``-1``.

    A full-set miss is :meth:`evict` then :meth:`fill` of the victim, as
    :class:`~repro.cache.set.CacheSet` issues it: the automaton's miss
    transition covers both, so :meth:`evict` only answers the victim and
    the fill of that victim takes the transition.

    If an expansion blows the automaton's state budget, the set goes on
    with a real policy loaded from its state key, counted as
    ``kernel.budget_fallbacks``.  Its id parks on
    :meth:`CompiledPolicy.trap`, so every later event reaches these
    methods, which pass it to that policy; :meth:`reset` returns the set
    to the automaton.
    """

    __slots__ = ("automaton", "state", "_victim", "_policy")

    def __init__(self, automaton: CompiledPolicy, state: int = 0) -> None:
        super().__init__(automaton.ways)
        self.automaton = automaton
        self.state = state
        #: The victim :meth:`evict` answered, until :meth:`fill` takes it.
        self._victim = -1
        #: The real policy the set runs on after a budget blow, else None.
        self._policy: ReplacementPolicy | None = None

    def _fall_back(self, key) -> ReplacementPolicy:
        """Move the set onto a real policy in state ``key``; return it."""
        automaton = self.automaton
        policy = automaton._scratch.clone()
        policy.load_state(key)
        self._policy = policy
        self._victim = -1
        self.state = automaton.trap()
        _note_unsupported(automaton)
        return policy

    def touch(self, way: int) -> None:
        policy = self._policy
        if policy is None:
            if not 0 <= way < self.ways:
                self._check_way(way)
            automaton, state = self.automaton, self.state
            next_state = automaton.hit_next[state * self.ways + way]
            try:
                if next_state < 0:
                    next_state = automaton.expand_hit(state, way)
                self.state = next_state
                return
            except KernelUnsupported:
                policy = self._fall_back(automaton._keys[state])
        policy.touch(way)

    def evict(self) -> int:
        policy = self._policy
        if policy is None:
            automaton, state = self.automaton, self.state
            victim = automaton.miss_victim[state]
            try:
                if victim < 0:
                    victim = automaton.expand_miss(state)[0]
                self._victim = victim
                return victim
            except KernelUnsupported:
                policy = self._fall_back(automaton._keys[state])
        return policy.evict()

    def fill(self, way: int) -> None:
        policy = self._policy
        if policy is None:
            if not 0 <= way < self.ways:
                self._check_way(way)
            automaton, state = self.automaton, self.state
            if way == self._victim:  # the miss evict() began, expanded there
                self._victim = -1
                self.state = automaton.miss_next[state]
                return
            next_state = automaton.fill_next[state * self.ways + way]
            try:
                if next_state < 0:
                    next_state = automaton.expand_fill(state, way)
                self.state = next_state
                return
            except KernelUnsupported:
                policy = self._fall_back(automaton._keys[state])
        policy.fill(way)

    def reset(self) -> None:
        self.state = 0
        self._victim = -1
        self._policy = None

    def state_key(self):
        if self._policy is not None:
            return self._policy.state_key()
        return self.automaton._keys[self.state]

    def load_state(self, key) -> None:
        self._victim = -1
        self._policy = None
        try:
            self.state = self.automaton._intern(key)
        except KernelUnsupported:
            self._fall_back(key)

    def clone(self) -> "AutomatonPolicy":
        copy = AutomatonPolicy(self.automaton, self.state)
        copy._victim = self._victim
        if self._policy is not None:
            copy._policy = self._policy.clone()
        return copy


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
    compilable policy would leave the kernel silently.  A cache set's
    :class:`AutomatonPolicy` counts each move onto a real policy here
    too, once per set and blow.
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


#: Per-level cache: (name, params, ways, budget) -> the automaton every
#: simulated cache level of that policy runs its sets on (None when the
#: policy does not compile).  Apart from _FACTORY_CACHE, whose entry may
#: be the store's frozen closure: back-invalidation leaves holes in a
#: level, and a fill into a hole is an event no closure expands.
_LEVEL_CACHE: dict[tuple, CompiledPolicy | None] = {}


def compiled_for_level(factory: PolicyFactory, ways: int) -> CompiledPolicy | None:
    """The automaton a simulated cache level of ``factory`` runs on, or None.

    Compiled in-process from a set-0 prototype on first use, under the
    budget :data:`DEFAULT_BUDGET` holds at that call, and expanded lazily
    by every later level of the same policy, params, ways and budget in
    the process, so a fresh :class:`~repro.cache.cache.Cache` starts on
    the tables its predecessors grew.  None for a randomized policy or
    one that does not compile: such a level keeps policy objects.
    """
    budget = DEFAULT_BUDGET
    key = (factory.name, tuple(sorted(factory.params.items())), ways, budget)
    try:
        return _LEVEL_CACHE[key]
    except KeyError:
        pass
    except TypeError:  # unhashable params: this level's alone
        key = None
    compiled = None
    if factory.deterministic:
        prototype = factory.build(ways, shared=factory.create_shared(1))
        try:
            compiled = compile_policy(prototype, budget=budget)
        except KernelUnsupported:
            pass
    if key is not None:
        _LEVEL_CACHE[key] = compiled
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
    _LEVEL_CACHE.clear()
    _SPEC_CACHE.clear()
    store.forget_persisted()
