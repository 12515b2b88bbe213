"""Fast simulation loops over compiled policy automata.

Three granularities, matching the three shapes of simulation in the
library; the first two live here:

* **single set, block ids** — the oracle/inference substrate.
  :func:`count_misses_kernel`, :func:`count_misses_preloaded`,
  :func:`sequence_hits` and :func:`simulate_sequence` replay block-id
  sequences against one compiled set, reproducing exactly what
  :class:`~repro.cache.set.CacheSet` driven through ``access()`` would
  do (cold fills go to ascending ways, full-set misses evict the
  policy's victim).  The batch entry points
  (:func:`count_misses_batch`, :func:`sequence_hits_batch`,
  :func:`sequence_hits_preloaded_batch`) answer many queries in one
  call on the same scalar loop: :func:`_run_batch` with post-setup
  snapshot reuse, or one run per probe.  All of them expand the
  automaton lazily, only as far as the queries reach.

* **whole cache, address traces** — the evaluation substrate.
  :func:`simulate_trace_kernel` runs a trace against ``num_sets``
  independent automaton instances sharing one transition table (all
  sets lock-step in :mod:`repro.kernels.vector` when numpy is present);
  :func:`simulate_trace_direct` covers non-compilable (randomized /
  set-dueling) policies with the real policy objects driven by an
  inlined loop that skips the interpreter's per-access dataclass
  overhead (``random`` and ``dip`` step lock-step on the vector engine
  instead whenever it may run).  :func:`try_simulate_trace` picks the
  right one.  Every engine call flushes its aggregate hit/miss/evict
  work into the metrics store (``kernel.*`` counters).

* **hierarchy levels, loads** — the simulated hardware's substrate, run
  by :meth:`repro.cache.hierarchy.CacheHierarchy.access_all` itself.
  Each set of a deterministic level holds an
  :class:`~repro.kernels.automaton.AutomatonPolicy`, one state id of the
  automaton the process keeps for that policy and associativity
  (:func:`~repro.kernels.automaton.compiled_for_level`), and the walk
  steps it by table lookups.  Back-invalidation leaves holes, and a
  fill into a hole is an event the store's closed automata do not
  expand, so that automaton is compiled in-process and grows lazily.
  The walk flushes no ``kernel.*`` counters; a set whose automaton
  blows its budget goes on with a real policy and counts
  ``kernel.budget_fallbacks``.

Bit-identity argument, in one place: per set the interpreter's state is
(tag→way map, policy state).  The kernel mirrors the tag→way map
directly and replaces the policy object with an automaton state id whose
transitions were *computed by the policy's own methods* in the same
order the interpreter calls them (hit → ``touch(way)``; cold miss →
``fill(first invalid way)``; full miss → ``evict()`` then
``fill(victim)``).  The fill-ascending invariant holds because these
loops only ever access (never invalidate), so the number of valid lines
*is* the first invalid way.  Those events, from an empty or a preloaded
full set in the reset state, are exactly the ones
:meth:`~repro.kernels.automaton.CompiledPolicy.expand_all` closes over,
so a frozen automaton from the store answers every run these loops
make.  Statistics are counted by the same rules as
:meth:`repro.cache.cache.Cache.access`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.cache.config import CacheConfig
from repro.cache.set import SetAccessResult
from repro.cache.stats import CacheStats
from repro.errors import KernelUnsupported
from repro.kernels import automaton, vector
from repro.kernels.automaton import CompiledPolicy, compiled_for_factory
from repro.obs import metrics as obs_metrics
from repro.policies import PolicyFactory
from repro.util.rng import SeededRng
from repro.workloads.trace import Trace

__all__ = [
    "count_misses_batch",
    "count_misses_kernel",
    "count_misses_preloaded",
    "sequence_hits",
    "sequence_hits_batch",
    "sequence_hits_preloaded",
    "sequence_hits_preloaded_batch",
    "simulate_sequence",
    "simulate_trace_automata",
    "simulate_trace_direct",
    "simulate_trace_kernel",
    "try_simulate_trace",
]


# -- counters ----------------------------------------------------------------

def _note_kernel_call(
    mode: str, accesses: int, hits: int, misses: int, evictions: int = 0
) -> None:
    """Flush one engine call's aggregate work into the metrics store.

    The compiled engines have no per-access instrumentation sites, so
    this per-call flush is what keeps a metrics-only observer informed
    without giving up the fast path.  ``mode`` is ``"set"`` (single-set
    block runs), ``"batch"`` (many single-set queries in one call),
    ``"trace"`` (compiled whole-cache) or ``"direct"`` (real-policy
    whole-cache).

    Invariant (every mode, every call site): ``accesses = hits +
    misses``, counting *all* executed accesses — setup replays included.
    Setup accesses a batch *skips* through snapshot reuse are reported
    separately as ``kernel.setup_reused``, so the per-query and batch
    paths reconcile exactly: ``accesses(batch) + setup_reused ==
    accesses(per-query)``.
    """
    metrics = obs_metrics.DEFAULT
    metrics.incr("kernel.calls")
    metrics.incr(f"kernel.calls.{mode}")
    metrics.incr("kernel.accesses", accesses)
    metrics.incr("kernel.hits", hits)
    metrics.incr("kernel.misses", misses)
    if evictions:
        metrics.incr("kernel.evictions", evictions)


# -- single-set runs ---------------------------------------------------------

def _run_blocks(
    compiled: CompiledPolicy,
    blocks: Sequence[int],
    way_of: dict[int, int],
    tag_of: list[int],
    state: int,
    hits: list[bool] | None = None,
) -> tuple[int, int]:
    """Advance one set over ``blocks``; return ``(final state, hit count)``.

    ``way_of``/``tag_of`` are mutated in place; ``hits`` (when given)
    collects the per-access hit/miss outcome.  The hit count is returned
    even without a ``hits`` list so setup replays can be accounted under
    the accesses = hits + misses counter invariant.
    """
    ways = compiled.ways
    hit_next = compiled.hit_next
    fill_next = compiled.fill_next
    miss_victim = compiled.miss_victim
    miss_next = compiled.miss_next
    record = hits.append if hits is not None else None
    hit_count = 0
    for block in blocks:
        way = way_of.get(block)
        if way is not None:
            nxt = hit_next[state * ways + way]
            state = nxt if nxt >= 0 else compiled.expand_hit(state, way)
            hit_count += 1
            if record is not None:
                record(True)
            continue
        filled = len(way_of)
        if filled < ways:
            way_of[block] = filled
            tag_of[filled] = block
            nxt = fill_next[state * ways + filled]
            state = nxt if nxt >= 0 else compiled.expand_fill(state, filled)
        else:
            victim = miss_victim[state]
            if victim >= 0:
                nxt = miss_next[state]
            else:
                victim, nxt = compiled.expand_miss(state)
            del way_of[tag_of[victim]]
            tag_of[victim] = block
            way_of[block] = victim
            state = nxt
        if record is not None:
            record(False)
    return state, hit_count


def count_misses_kernel(
    compiled: CompiledPolicy, setup: Sequence[int], probe: Sequence[int]
) -> int:
    """Misses of ``probe`` after ``setup``, from a fresh empty set."""
    way_of: dict[int, int] = {}
    tag_of = [0] * compiled.ways
    state, setup_hits = _run_blocks(compiled, setup, way_of, tag_of, 0)
    hits: list[bool] = []
    _run_blocks(compiled, probe, way_of, tag_of, state, hits)
    probe_hits = sum(hits)
    total = len(setup) + len(hits)
    total_hits = setup_hits + probe_hits
    _note_kernel_call("set", total, total_hits, total - total_hits)
    return len(hits) - probe_hits


def count_misses_preloaded(
    compiled: CompiledPolicy, tags: Sequence[int], probe: Sequence[int]
) -> int:
    """Misses of ``probe`` from a preloaded full set in the reset state.

    ``tags[w]`` is the block resident in way ``w`` — the kernel analogue
    of :meth:`repro.cache.set.CacheSet.preload` on a fresh set.
    """
    if len(tags) != compiled.ways:
        raise KernelUnsupported(
            f"preload needs {compiled.ways} tags, got {len(tags)}"
        )
    way_of = {tag: way for way, tag in enumerate(tags)}
    tag_of = list(tags)
    hits: list[bool] = []
    _run_blocks(compiled, probe, way_of, tag_of, 0, hits)
    probe_hits = sum(hits)
    _note_kernel_call("set", len(hits), probe_hits, len(hits) - probe_hits)
    return len(hits) - probe_hits


def sequence_hits_preloaded(
    compiled: CompiledPolicy, tags: Sequence[int], probe: Sequence[int]
) -> tuple[bool, ...]:
    """Per-access hit/miss outcome of ``probe`` from a preloaded set.

    The preloaded-set analogue of :func:`sequence_hits`, and the
    substrate of inference's cumulative verification predictions: one
    pass yields the outcome of every prefix of ``probe`` at once.
    """
    if len(tags) != compiled.ways:
        raise KernelUnsupported(
            f"preload needs {compiled.ways} tags, got {len(tags)}"
        )
    way_of = {tag: way for way, tag in enumerate(tags)}
    tag_of = list(tags)
    hits: list[bool] = []
    _run_blocks(compiled, probe, way_of, tag_of, 0, hits)
    probe_hits = sum(hits)
    _note_kernel_call("set", len(hits), probe_hits, len(hits) - probe_hits)
    return tuple(hits)


def sequence_hits_preloaded_batch(
    compiled: CompiledPolicy,
    tags: Sequence[int],
    probes: Sequence[Sequence[int]],
) -> list[tuple[bool, ...]]:
    """Per-access outcomes of many probes from one preloaded set.

    Every probe starts from the same preloaded full set (``tags[w]``
    resident in way ``w``) in the reset state — the shape of inference's
    verification round, which predicts the outcome of many candidate
    sequences against one conflict set.  Bit-identical to per-probe
    :func:`sequence_hits_preloaded` calls; one metrics flush covers the
    batch.
    """
    if len(tags) != compiled.ways:
        raise KernelUnsupported(
            f"preload needs {compiled.ways} tags, got {len(tags)}"
        )
    out: list[tuple[bool, ...]] = []
    accesses = 0
    total_hits = 0
    for probe in probes:
        way_of = {tag: way for way, tag in enumerate(tags)}
        tag_of = list(tags)
        hits: list[bool] = []
        _run_blocks(compiled, probe, way_of, tag_of, 0, hits)
        accesses += len(hits)
        total_hits += sum(hits)
        out.append(tuple(hits))
    _note_kernel_call("batch", accesses, total_hits, accesses - total_hits)
    return out


# -- batched single-set runs -------------------------------------------------

def _run_batch(
    compiled: CompiledPolicy,
    queries: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> list[list[bool]]:
    """Run many ``(setup, probe)`` queries through one automaton.

    Returns the per-query probe hit lists.  Each query is an
    independent fresh-set run (bit-identical to calling
    :func:`count_misses_kernel`/:func:`sequence_hits` per query), but
    consecutive queries sharing a setup — the dominant shape in
    inference and distinguishing searches — replay the post-setup
    snapshot instead of re-running the setup, which is where the batch
    win on top of amortized call overhead comes from.  One metrics
    flush covers the executed accesses; the skipped setup accesses are
    counted as ``kernel.setup_reused``.
    """
    ways = compiled.ways
    outcomes: list[list[bool]] = []
    executed = 0
    executed_hits = 0
    reused = 0
    prev_setup: tuple[int, ...] | None = None
    base_way_of: dict[int, int] = {}
    base_tag_of: list[int] = [0] * ways
    base_state = 0
    for setup, probe in queries:
        setup_key = tuple(setup)
        if setup_key != prev_setup:
            base_way_of = {}
            base_tag_of = [0] * ways
            base_state, setup_hits = _run_blocks(
                compiled, setup, base_way_of, base_tag_of, 0
            )
            prev_setup = setup_key
            executed += len(setup_key)
            executed_hits += setup_hits
        else:
            reused += len(setup_key)
        way_of = dict(base_way_of)
        tag_of = list(base_tag_of)
        hits: list[bool] = []
        _run_blocks(compiled, probe, way_of, tag_of, base_state, hits)
        executed += len(hits)
        executed_hits += sum(hits)
        outcomes.append(hits)
    _note_kernel_call("batch", executed, executed_hits, executed - executed_hits)
    if reused:
        obs_metrics.DEFAULT.incr("kernel.setup_reused", reused)
    return outcomes


def count_misses_batch(
    compiled: CompiledPolicy,
    queries: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> list[int]:
    """Probe miss counts of many ``(setup, probe)`` queries, in order.

    One metrics flush covers the whole batch; the counts themselves are
    bit-identical to per-query :func:`count_misses_kernel` calls.
    """
    return [len(hits) - sum(hits) for hits in _run_batch(compiled, queries)]


def sequence_hits_batch(
    compiled: CompiledPolicy,
    queries: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> list[tuple[bool, ...]]:
    """Per-access outcomes of many ``(setup, probe)`` queries, in order.

    Bit-identical to per-query :func:`sequence_hits` calls; one metrics
    flush covers the batch.
    """
    return [tuple(hits) for hits in _run_batch(compiled, queries)]


def sequence_hits(
    compiled: CompiledPolicy, setup: Sequence[int], probe: Sequence[int]
) -> tuple[bool, ...]:
    """Per-access hit/miss outcome of ``probe`` after ``setup``."""
    way_of: dict[int, int] = {}
    tag_of = [0] * compiled.ways
    state, setup_hits = _run_blocks(compiled, setup, way_of, tag_of, 0)
    hits: list[bool] = []
    _run_blocks(compiled, probe, way_of, tag_of, state, hits)
    probe_hits = sum(hits)
    total = len(setup) + len(hits)
    total_hits = setup_hits + probe_hits
    _note_kernel_call("set", total, total_hits, total - total_hits)
    return tuple(hits)


def simulate_sequence(
    compiled: CompiledPolicy, blocks: Sequence[int]
) -> list[SetAccessResult]:
    """Replay a block-id sequence from a fresh set; full per-access detail.

    Returns the same :class:`~repro.cache.set.SetAccessResult` values an
    interpreted :class:`~repro.cache.set.CacheSet` produces, eviction
    order included — the equivalence the property suite asserts.
    """
    ways = compiled.ways
    way_of: dict[int, int] = {}
    tag_of = [0] * ways
    state = 0
    results: list[SetAccessResult] = []
    for block in blocks:
        way = way_of.get(block)
        if way is not None:
            nxt = compiled.hit_next[state * ways + way]
            state = nxt if nxt >= 0 else compiled.expand_hit(state, way)
            results.append(SetAccessResult(hit=True, way=way, evicted_tag=None))
            continue
        filled = len(way_of)
        if filled < ways:
            way_of[block] = filled
            tag_of[filled] = block
            nxt = compiled.fill_next[state * ways + filled]
            state = nxt if nxt >= 0 else compiled.expand_fill(state, filled)
            results.append(SetAccessResult(hit=False, way=filled, evicted_tag=None))
        else:
            victim = compiled.miss_victim[state]
            if victim >= 0:
                nxt = compiled.miss_next[state]
            else:
                victim, nxt = compiled.expand_miss(state)
            evicted = tag_of[victim]
            del way_of[evicted]
            tag_of[victim] = block
            way_of[block] = victim
            state = nxt
            results.append(SetAccessResult(hit=False, way=victim, evicted_tag=evicted))
    total_hits = sum(1 for outcome in results if outcome.hit)
    _note_kernel_call(
        "set",
        len(results),
        total_hits,
        len(results) - total_hits,
        sum(1 for outcome in results if outcome.evicted_tag is not None),
    )
    return results


# -- whole-cache trace runs --------------------------------------------------

def _decompose_params(config: CacheConfig) -> tuple[int, int, bool, int]:
    return (
        config.offset_bits,
        config.index_bits,
        config.index_hash != "bits",
        config.num_sets - 1,
    )


def simulate_trace_kernel(
    trace: Trace,
    config: CacheConfig,
    policy: "str | PolicyFactory",
    seed: int = 0,
) -> CacheStats:
    """Compiled whole-cache run of a read trace; bit-identical statistics.

    ``seed`` is accepted for signature parity but unused: a compilable
    policy is deterministic and never draws from the cache rng.  Raises
    :class:`~repro.errors.KernelUnsupported` for non-compilable policies
    (use :func:`simulate_trace_direct`) or on a mid-run budget blow.
    """
    factory = policy if isinstance(policy, PolicyFactory) else PolicyFactory(policy)
    params = tuple(sorted(factory.params.items()))
    compiled = compiled_for_factory(factory.name, params, config.ways)
    if compiled is None:
        raise KernelUnsupported(
            f"policy {factory.name!r} has no compiled automaton at "
            f"{config.ways} ways"
        )
    try:
        stats = vector.simulate_trace_lockstep(trace, config, compiled)
        return _finish_compiled(trace, config, compiled, stats)
    except KernelUnsupported:
        automaton.mark_factory_unsupported(factory.name, params, config.ways)
        raise


def _finish_compiled(
    trace: Trace, config: CacheConfig, compiled: CompiledPolicy, stats
) -> CacheStats:
    # The lock-step vector engine takes the whole trace when it may run
    # (``stats``), the scalar loop when it refused (None).  Counters stay
    # mode-invariant: the same "trace" flush either way.
    if stats is None:
        return _simulate_trace_scalar(trace, config, compiled)
    _note_kernel_call(
        "trace", stats.accesses, stats.hits, stats.misses, stats.evictions
    )
    return stats


def simulate_trace_automata(
    trace: Trace,
    config: CacheConfig,
    runs: Sequence[tuple[PolicyFactory, CompiledPolicy, int]],
) -> list[CacheStats]:
    """Whole-trace statistics of several policies with automata, in order.

    ``runs`` holds ``(factory, compiled, seed)`` triples, ``compiled``
    being the automaton :func:`compiled_for_factory` gives ``factory``
    at ``config.ways``.  Every automaton steps the trace's one lock-step
    layout together (:func:`vector.simulate_trace_lockstep_all`); one
    the vector engine refuses runs the scalar loop alone, and one whose
    budget blows mid-run is marked unsupported and re-runs in direct
    mode with its ``seed``.  Statistics and ``kernel.*`` counters equal
    one :func:`try_simulate_trace` call per triple, but for
    ``kernel.vector.calls``, which counts the one lock-step run.
    """
    stepped = vector.simulate_trace_lockstep_all(
        trace, config, [compiled for _factory, compiled, _seed in runs]
    )
    results = []
    for (factory, compiled, seed), stats in zip(runs, stepped):
        try:
            results.append(_finish_compiled(trace, config, compiled, stats))
        except KernelUnsupported:
            # Budget blown mid-run: remember, and re-run in direct mode.
            params = tuple(sorted(factory.params.items()))
            automaton.mark_factory_unsupported(factory.name, params, config.ways)
            results.append(simulate_trace_direct(trace, config, factory, seed))
    return results


def _simulate_trace_scalar(
    trace: Trace, config: CacheConfig, compiled: CompiledPolicy
) -> CacheStats:
    """The scalar trace loop: one set at a time, expanding lazily."""
    offset_bits, index_bits, hashed, set_mask = _decompose_params(config)
    num_sets = config.num_sets
    ways = config.ways
    tag_shift = offset_bits + index_bits
    states = [0] * num_sets
    way_ofs: list[dict[int, int]] = [{} for _ in range(num_sets)]
    tag_ofs: list[list[int]] = [[0] * ways for _ in range(num_sets)]
    hit_next = compiled.hit_next
    fill_next = compiled.fill_next
    miss_victim = compiled.miss_victim
    miss_next = compiled.miss_next
    expand_hit = compiled.expand_hit
    expand_fill = compiled.expand_fill
    expand_miss = compiled.expand_miss
    hits = misses = evictions = 0
    addresses = trace.addresses
    for address in addresses:
        if hashed:
            tag = address >> offset_bits
            set_index = 0
            if index_bits:
                remaining = tag
                while remaining:
                    set_index ^= remaining & set_mask
                    remaining >>= index_bits
        else:
            set_index = (address >> offset_bits) & set_mask
            tag = address >> tag_shift
        way_of = way_ofs[set_index]
        state = states[set_index]
        way = way_of.get(tag)
        if way is not None:
            hits += 1
            nxt = hit_next[state * ways + way]
            states[set_index] = nxt if nxt >= 0 else expand_hit(state, way)
            continue
        misses += 1
        tag_of = tag_ofs[set_index]
        filled = len(way_of)
        if filled < ways:
            way_of[tag] = filled
            tag_of[filled] = tag
            nxt = fill_next[state * ways + filled]
            states[set_index] = nxt if nxt >= 0 else expand_fill(state, filled)
        else:
            evictions += 1
            victim = miss_victim[state]
            if victim >= 0:
                nxt = miss_next[state]
            else:
                victim, nxt = expand_miss(state)
            del way_of[tag_of[victim]]
            tag_of[victim] = tag
            way_of[tag] = victim
            states[set_index] = nxt
    _note_kernel_call("trace", len(addresses), hits, misses, evictions)
    return CacheStats(
        accesses=len(addresses),
        hits=hits,
        misses=misses,
        evictions=evictions,
        fills=misses,
    )


def simulate_trace_direct(
    trace: Trace,
    config: CacheConfig,
    policy: "str | PolicyFactory",
    seed: int = 0,
) -> CacheStats:
    """Inlined whole-cache run with real policy objects (direct mode).

    Covers policies the automaton cannot (randomized, set-dueling): the
    policies and their shared context are built by
    :meth:`~repro.policies.PolicyFactory.build_cache` from the same rng
    as :class:`~repro.cache.cache.Cache` builds them, and driven in the
    same call order, so every rng draw and shared-state update lands
    identically — only the interpreter's per-access object overhead is
    gone.
    """
    factory = policy if isinstance(policy, PolicyFactory) else PolicyFactory(policy)
    offset_bits, index_bits, hashed, set_mask = _decompose_params(config)
    num_sets = config.num_sets
    ways = config.ways
    tag_shift = offset_bits + index_bits
    _, policies = factory.build_cache(num_sets, ways, SeededRng(seed))
    way_ofs: list[dict[int, int]] = [{} for _ in range(num_sets)]
    tag_ofs: list[list[int]] = [[0] * ways for _ in range(num_sets)]
    hits = misses = evictions = 0
    addresses = trace.addresses
    for address in addresses:
        if hashed:
            tag = address >> offset_bits
            set_index = 0
            if index_bits:
                remaining = tag
                while remaining:
                    set_index ^= remaining & set_mask
                    remaining >>= index_bits
        else:
            set_index = (address >> offset_bits) & set_mask
            tag = address >> tag_shift
        way_of = way_ofs[set_index]
        way = way_of.get(tag)
        set_policy = policies[set_index]
        if way is not None:
            hits += 1
            set_policy.touch(way)
            continue
        misses += 1
        tag_of = tag_ofs[set_index]
        filled = len(way_of)
        if filled < ways:
            way_of[tag] = filled
            tag_of[filled] = tag
            set_policy.fill(filled)
        else:
            evictions += 1
            victim = set_policy.evict()
            del way_of[tag_of[victim]]
            tag_of[victim] = tag
            way_of[tag] = victim
            set_policy.fill(victim)
    _note_kernel_call("direct", len(addresses), hits, misses, evictions)
    return CacheStats(
        accesses=len(addresses),
        hits=hits,
        misses=misses,
        evictions=evictions,
        fills=misses,
    )


def try_simulate_trace(
    trace: Trace,
    config: CacheConfig,
    policy: "str | PolicyFactory",
    seed: int = 0,
) -> CacheStats:
    """Whole-trace simulation on the fastest engine the policy allows.

    Returns statistics bit-identical to the interpreter's, choosing the
    compiled automaton when the policy has one and direct mode when it
    does not.
    """
    factory = policy if isinstance(policy, PolicyFactory) else PolicyFactory(policy)
    params = tuple(sorted(factory.params.items()))
    compiled = compiled_for_factory(factory.name, params, config.ways)
    if compiled is not None:
        return simulate_trace_automata(trace, config, [(factory, compiled, seed)])[0]
    # random and dip step lock-step on the vector engine when it may run;
    # the flush is direct mode's, so counters stay engine-invariant.
    stats = vector.simulate_trace_randomized(trace, config, factory, seed)
    if stats is not None:
        _note_kernel_call(
            "direct", stats.accesses, stats.hits, stats.misses, stats.evictions
        )
        return stats
    return simulate_trace_direct(trace, config, factory, seed)
