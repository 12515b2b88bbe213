"""Vectorized whole-trace simulation of compiled policy automata.

A whole-cache trace is just ``num_sets`` independent automata that never
interact.  This module represents the state of every set as a *lane* of
flat numpy vectors and advances all of them with one fancy-indexed
gather per access step::

    states = fused_next[states * span + event]

:func:`simulate_trace_lockstep` partitions a trace per set and runs all
``num_sets`` automata lock-step, bit-identical to the scalar trace
engine and the interpreter (behind ``simulate_trace_kernel`` /
``try_simulate_trace``).  :func:`simulate_trace_randomized` does the
same for ``random`` and ``dip``, which have no automaton, on the same
layout, bit-identical to direct mode.  Single-set query batches do not
come here: they run on the scalar kernel (:mod:`repro.kernels.engine`),
which expands an automaton lazily, only as far as the queries reach.

The stepper's layout is chosen so per-step Python/numpy dispatch
overhead amortizes over as many lanes as possible:

* lanes are sorted by sequence length, longest first, so the active
  lanes always form a prefix and each step operates on a contiguous
  view that shrinks as lanes retire — no per-step boolean masking;
* the block matrix is stored column-major (``(width, lanes)``) so each
  step reads one contiguous row.

Ground rules:

* **numpy is optional.**  When it is absent the entry point returns
  ``None`` and callers keep the scalar engine; nothing in the library
  imports numpy unconditionally.
* **Only closed automata run vectorized.**  The stepper has no lazy
  expansion hook, so :func:`ensure_tables` closes the automaton with
  ``expand_all()`` first and memoizes a budget blow as "scalar only" on
  the automaton.  The ``-1`` entries a closed automaton keeps are events
  no set takes; :meth:`VectorTables.fused` routes them to an absorbing
  trap row, so a lane that reaches one anyway (a tampered artifact)
  makes the call fall back instead of gathering ``-1`` as a state id.
* **Fallback is always legal.**  Every ``None`` return means "use the
  scalar engine"; the vector path is an optimization, never a
  capability.  Engagement and fallbacks are visible as
  ``kernel.vector.*`` counters.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple

from repro.cache.set import CacheSet
from repro.cache.stats import CacheStats
from repro.errors import KernelUnsupported
from repro.obs import metrics as obs_metrics
from repro.policies import DipPolicy, RandomPolicy
from repro.policies.registry import get_entry
from repro.util.rng import SeededRng

try:  # numpy is an optional extra (pip install repro[vector])
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI leg
    _np = None

__all__ = [
    "VectorTables",
    "available",
    "ensure_tables",
    "numpy_available",
    "simulate_trace_lockstep",
    "simulate_trace_randomized",
]

#: Whole-trace lock-step needs enough sets to fill the lanes; below
#: this, per-step numpy dispatch overhead (~µs) would dominate.
MIN_TRACE_LANES = 64

#: Refuse lane matrices beyond this many cells (a pathologically skewed
#: trace would otherwise allocate set-count x trace-length).
MAX_MATRIX_CELLS = 64_000_000

#: A trace whose per-set access counts are so imbalanced that fewer than
#: this fraction of lane-matrix cells are real accesses stays scalar.
MIN_FILL_RATIO = 0.2

#: Block ids / tags must fit comfortably in int64 lanes.
_MAX_BLOCK = 1 << 62


def available() -> bool:
    """True when numpy is importable in this process."""
    return _np is not None


#: Package-level alias: ``repro.kernels.numpy_available()``.
numpy_available = available


class VectorTables:
    """Numpy mirror of one closed automaton's transition tables.

    Flat int32 arrays in the same layout as the scalar tables —
    ``hit_next``/``fill_next`` indexed ``state * ways + way``,
    ``miss_victim``/``miss_next`` indexed ``state``.  Instances are
    attached to their :class:`~repro.kernels.automaton.CompiledPolicy`
    (``vector_tables`` slot) by :func:`ensure_tables`: copies of an
    in-process automaton's lists, zero-copy views of a frozen one's
    store buffers.
    """

    __slots__ = (
        "ways",
        "num_states",
        "hit_next",
        "fill_next",
        "miss_victim",
        "miss_next",
        "fused_next",
        "fused_way",
    )

    def __init__(self, ways, num_states, hit_next, fill_next, miss_victim, miss_next):
        self.ways = ways
        self.num_states = num_states
        self.hit_next = hit_next
        self.fill_next = fill_next
        self.miss_victim = miss_victim
        self.miss_next = miss_next
        self.fused_next = None
        self.fused_way = None

    def fused(self):
        """The stepper's fused ``(state, event)`` tables, built lazily.

        An access step has ``2 * ways + 1`` possible events per state:
        hit at way ``w`` (event ``w``), cold fill at way ``w`` (event
        ``ways + w``), and evicting miss (event ``2 * ways``).  Fusing
        the three transition tables into one lets the stepper advance
        every lane — hit or miss — with a single gather, and
        ``fused_way`` yields the way each missing lane writes (-1 for
        hits, which write nothing).

        Row ``num_states`` is the trap: every unexpanded (``-1``) event
        leads to it and every event from it stays there, so a lane that
        ever takes such an event ends in the trap (see :func:`_run_lanes`).
        """
        if self.fused_next is None:
            np = _np
            states, ways = self.num_states, self.ways
            span = 2 * ways + 1
            nxt = np.full((states + 1, span), -1, dtype=np.int32)
            nxt[:states, :ways] = self.hit_next.reshape(states, ways)
            nxt[:states, ways : 2 * ways] = self.fill_next.reshape(states, ways)
            nxt[:states, 2 * ways] = self.miss_next
            nxt[nxt < 0] = states
            way = np.empty((states + 1, span), dtype=np.int32)
            way[:, :ways] = -1
            way[:, ways : 2 * ways] = np.arange(ways, dtype=np.int32)
            # An unexpanded miss (victim -1) writes way 0; its lane is
            # trapped, so the write is never read.
            way[:states, 2 * ways] = np.maximum(self.miss_victim, 0)
            way[states, 2 * ways] = 0
            self.fused_next = nxt.reshape(-1)
            self.fused_way = way.reshape(-1)
        return self.fused_next, self.fused_way

    @classmethod
    def from_compiled(cls, compiled) -> "VectorTables":
        """A closed automaton's tables as numpy arrays: copies of lists,
        views of int buffers."""
        return cls(
            compiled.ways,
            compiled.num_states,
            _np.asarray(compiled.hit_next, dtype=_np.int32),
            _np.asarray(compiled.fill_next, dtype=_np.int32),
            _np.asarray(compiled.miss_victim, dtype=_np.int32),
            _np.asarray(compiled.miss_next, dtype=_np.int32),
        )


def ensure_tables(compiled) -> VectorTables | None:
    """The automaton's numpy tables, or None when it must stay scalar.

    Closes the automaton first (the stepper cannot expand lazily) and
    memoizes the outcome on the automaton: a successful build is cached
    as the tables themselves, a budget blow or missing numpy as a
    ``False`` tombstone so the probe runs once.
    """
    cached = compiled.vector_tables
    if cached is not None:
        return cached or None
    if _np is None:
        compiled.vector_tables = False
        return None
    try:
        compiled.expand_all()
    except KernelUnsupported:
        compiled.vector_tables = False
        return None
    tables = VectorTables.from_compiled(compiled)
    compiled.vector_tables = tables
    return tables


# -- the lock-step stepper ---------------------------------------------------

def _run_lanes(tables, states, tags, filled, blocks, lengths):
    """Advance every lane over its block column, one access step at a time.

    Lanes MUST be ordered by non-increasing ``lengths`` so the active
    lanes are always a prefix; ``blocks`` is column-major (shape
    ``(width, Q)``, padded with -1) so each step reads one contiguous
    row.  ``states`` / ``filled`` are int32 ``(Q,)`` vectors, ``tags``
    an int64 ``(Q, ways)`` matrix (-1 = invalid way); all are mutated in
    place.  Returns ``(total_hits, total_evictions)``, or None when a
    lane ended in the fused tables' trap row: it took an event the
    automaton never expanded, and the whole run must fall back.

    Each step mirrors the scalar engine's per-access rules exactly: a
    matching tag is a hit at that way, a miss in a partly-filled lane
    cold-fills the first invalid way (== the fill count, because these
    runs never invalidate), a miss in a full lane evicts the automaton's
    victim.  The three cases collapse into one event id per lane, so a
    single gather through the fused tables advances every lane at once.
    """
    np = _np
    ways = tables.ways
    span = 2 * ways + 1
    fused_next, fused_way = tables.fused()
    width = blocks.shape[0]
    lanes = states.shape[0]
    if not width or not lanes:
        return 0, 0
    # ended_by[c] = lanes whose sequence is over by step c; the active
    # lanes are always the remaining prefix, by the length ordering.
    ended_by = np.cumsum(np.bincount(lengths, minlength=width + 1))
    arange = np.arange(lanes)
    filled_before = int(filled.sum())
    total = 0
    total_hits = 0
    for column in range(width):
        active = lanes - int(ended_by[column])
        if not active:
            break
        total += active
        s = states[:active]
        t = tags[:active]
        f = filled[:active]
        b = blocks[column, :active]
        eq = t == b[:, None]
        # One scan finds the matching way; a gather of that way tells us
        # whether it actually matched (argmax of an all-False row is 0).
        way_all = eq.argmax(axis=1)
        hit = eq[arange[:active], way_all]
        # Event id: way (hit), ways + fill count (cold miss, capped at
        # ways which IS the evicting-miss event when the lane is full).
        event = np.where(hit, way_all, ways + np.minimum(f, ways))
        index = s * span + event
        s[:] = fused_next[index]
        miss = ~hit
        miss_rows = miss.nonzero()[0]
        if miss_rows.size:
            t[miss_rows, fused_way[index[miss_rows]]] = b[miss_rows]
            f += miss & (f < ways)
        total_hits += int(np.count_nonzero(hit))
    # The trap row is absorbing, so the final states show every lane
    # that ever fell into it.
    if int(states.max()) == tables.num_states:
        return None
    # Every miss either cold-filled a way (visible as filled growth) or
    # evicted; no per-step counting needed.
    cold_fills = int(filled.sum()) - filled_before
    evictions = (total - total_hits) - cold_fills
    return total_hits, evictions


def _note_vector_call(lanes: int, accesses: int) -> None:
    metrics = obs_metrics.DEFAULT
    metrics.incr("kernel.vector.calls")
    metrics.incr("kernel.vector.lanes", lanes)
    metrics.incr("kernel.vector.accesses", accesses)


def _note_fallback() -> None:
    obs_metrics.DEFAULT.incr("kernel.vector.fallbacks")


# -- whole-trace lock-step ---------------------------------------------------

def simulate_trace_lockstep(trace, config, compiled):
    """Run a whole read trace with all ``num_sets`` automata lock-step.

    The trace is decomposed into per-set tag subsequences (sets never
    interact, and a stable partition preserves each set's access order),
    then every set advances one access per stepper column.  Returns a
    :class:`~repro.cache.stats.CacheStats` bit-identical to the scalar
    trace engine / interpreter, or ``None`` for scalar fallback (numpy
    absent, too few sets, automaton not closable within its budget, a
    pathologically skewed trace, tags beyond the int64 lane range, or a
    lane that reached an unexpanded transition).
    """
    if _np is None or config.num_sets < MIN_TRACE_LANES:
        return None
    tables = ensure_tables(compiled)
    if tables is None:
        _note_fallback()
        return None
    total = len(trace)
    if not total:
        return _stats(0, 0, 0)
    layout = _trace_layout(trace, config)
    if layout is None:
        _note_fallback()
        return None
    np = _np
    num_sets = config.num_sets
    ways = tables.ways
    states = np.zeros(num_sets, dtype=np.int32)
    tags = np.full((num_sets, ways), -1, dtype=np.int64)
    filled = np.zeros(num_sets, dtype=np.int32)
    counts = _run_lanes(tables, states, tags, filled, layout.blocks, layout.lengths)
    if counts is None:
        _note_fallback()
        return None
    hits, evictions = counts
    _note_vector_call(num_sets, total)
    return _stats(total, hits, evictions)


def _stats(accesses: int, hits: int, evictions: int) -> CacheStats:
    """Whole-trace statistics of a read trace: every miss fills."""
    misses = accesses - hits
    return CacheStats(
        accesses=accesses,
        hits=hits,
        misses=misses,
        evictions=evictions,
        fills=misses,
    )


# -- randomized policies lock-step -------------------------------------------

def simulate_trace_randomized(trace, config, factory, seed: int = 0):
    """Run ``random`` or ``dip`` over a whole read trace lock-step.

    Neither policy has an automaton, but each set's behaviour depends
    only on its own accesses and its own rng stream, with one exception:
    DIP's followers read the duel's PSEL, which only leader-set
    evictions move.  So the per-set policies and their shared context
    are built as direct mode builds them
    (:meth:`~repro.policies.PolicyFactory.build_cache`), every stream is
    drawn by the set's own policy object in the set's own access order,
    and the statistics are bit-identical to direct mode and the
    interpreter.  Returns None for any other policy (no refusal
    counted) and, like :func:`simulate_trace_lockstep`, when numpy is
    absent, the sets are too few or the layout is refused.
    """
    policy_cls = get_entry(factory.name).cls
    if policy_cls is not RandomPolicy and policy_cls is not DipPolicy:
        return None
    if _np is None or config.num_sets < MIN_TRACE_LANES:
        return None
    total = len(trace)
    if not total:
        return _stats(0, 0, 0)
    layout = _trace_layout(trace, config)
    if layout is None:
        _note_fallback()
        return None
    shared, policies = factory.build_cache(
        config.num_sets, config.ways, SeededRng(seed)
    )
    if policy_cls is RandomPolicy:
        hits, evictions = _run_random(layout, config.ways, policies)
    else:
        hits, evictions = _run_dip(layout, config.ways, shared.controller, policies)
    return _stats(total, hits, evictions)


def _run_random(layout, ways, policies):
    """Random replacement: lanes keep only their tags.

    A hit and a cold fill change no policy state; an evicting miss asks
    that set's :class:`~repro.policies.RandomPolicy` for its victim, so
    each set's stream is drawn once per eviction, in order.
    """
    np = _np
    blocks, lengths = layout.blocks, layout.lengths
    evicts = [policies[set_index].evict for set_index in layout.sets.tolist()]
    lanes = len(evicts)
    width = blocks.shape[0]
    tags = np.full((lanes, ways), -1, dtype=np.int64)
    filled = np.zeros(lanes, dtype=np.int64)
    ended_by = np.cumsum(np.bincount(lengths, minlength=width + 1))
    total = misses = 0
    for column in range(width):
        active = lanes - int(ended_by[column])
        if not active:
            break
        total += active
        b = blocks[column, :active]
        miss_rows = (tags[:active] != b[:, None]).all(axis=1).nonzero()[0]
        if not miss_rows.size:
            continue
        misses += miss_rows.size
        way = filled[miss_rows]
        full = (way == ways).nonzero()[0]
        if full.size:
            way[full] = [evicts[row]() for row in miss_rows[full].tolist()]
        tags[miss_rows, way] = b[miss_rows]
        filled[miss_rows] = np.minimum(filled[miss_rows] + 1, ways)
    _note_vector_call(lanes, total)
    return total - misses, misses - int(filled.sum())


def _run_dip(layout, ways, controller, policies):
    """DIP: a scalar leader pre-pass, then the followers lock-step.

    Only leader-set evictions move PSEL, and a leader's own insertions
    never read it, so the leaders run first, in trace order, as real
    interpreted sets; PSEL is recorded after each of their evictions.
    A follower's fill at trace position ``p`` then sees the PSEL of the
    last leader eviction before ``p`` -- its fill goes to MRU when that
    favours LRU, and otherwise the set's own BIP draw
    (:meth:`~repro.policies.DipPolicy.bip_inserts_mru`) decides.
    """
    np = _np
    lane_sets = layout.sets
    leader = np.array(
        [
            controller.is_primary_leader(set_index)
            or controller.is_secondary_leader(set_index)
            for set_index in range(len(policies))
        ],
        dtype=bool,
    )[lane_sets]
    # Leader pre-pass: the leader lanes' accesses (every duel has one),
    # merged back into trace order.
    lengths = layout.lengths
    lead = leader.nonzero()[0]
    positions = np.concatenate(
        [layout.positions[: lengths[lane], lane] for lane in lead]
    )
    order = np.argsort(positions)
    lead_tags = np.concatenate([layout.blocks[: lengths[lane], lane] for lane in lead])
    lead_sets = np.repeat(lane_sets[lead], lengths[lead])
    sets = {
        set_index: CacheSet(ways, policies[set_index])
        for set_index in lane_sets[lead].tolist()
    }
    initial = controller.psel
    event_positions: list[int] = []
    event_psel: list[int] = []
    hits = evictions = 0
    for position, set_index, tag in zip(
        positions[order].tolist(),
        lead_sets[order].tolist(),
        lead_tags[order].tolist(),
    ):
        result = sets[set_index].access(tag)
        if result.hit:
            hits += 1
        elif result.evicted_tag is not None:
            evictions += 1
            event_positions.append(position)
            event_psel.append(controller.psel)
    # PSEL as followers see it: one flag per trace position, "favours
    # LRU" from just after each leader eviction until the next one.
    favours_lru = np.array([initial] + event_psel) < controller.psel_mid
    segments = np.diff(
        [0] + [position + 1 for position in event_positions] + [layout.total]
    )
    lru_at = np.repeat(favours_lru, segments)
    follow = (~leader).nonzero()[0]
    draws = [
        policies[set_index].bip_inserts_mru for set_index in lane_sets[follow].tolist()
    ]
    follower_hits, follower_evictions = _run_dip_lanes(
        ways, layout, follow, lru_at, draws
    )
    return hits + follower_hits, evictions + follower_evictions


def _run_dip_lanes(ways, layout, follow, lru_at, draws):
    """Step DIP's follower lanes ``follow``; return ``(hits, evictions)``.

    Mirrors :class:`~repro.policies.DipPolicy` on a recency-rank vector
    per lane: a hit moves its way to rank 0, the victim is the way at
    rank ``ways - 1``, and a fill goes to rank 0 (MRU) or ``ways - 1``
    (LRU), shifting the ways between by one.  ``lru_at[p]`` says whether
    PSEL favours LRU at trace position ``p``.
    """
    np = _np
    lanes = follow.size
    lengths = layout.lengths[follow]
    width = int(lengths[0]) if lanes else 0
    ranks = np.tile(np.arange(ways, dtype=np.int64), (lanes, 1))
    tags = np.full((lanes, ways), -1, dtype=np.int64)
    filled = np.zeros(lanes, dtype=np.int64)
    ended_by = np.cumsum(np.bincount(lengths, minlength=width + 1))
    arange = np.arange(lanes)
    bottom = ways - 1
    total = hits = 0
    for column in range(width):
        active = lanes - int(ended_by[column])
        if not active:
            break
        total += active
        cells = follow[:active]
        rows = arange[:active]
        r = ranks[:active]
        t = tags[:active]
        f = filled[:active]
        b = layout.blocks[column, cells]
        eq = t == b[:, None]
        way = eq.argmax(axis=1)
        hit = eq[rows, way]
        way = np.where(hit, way, np.where(f == ways, r.argmax(axis=1), f))
        mru = hit | lru_at[layout.positions[column, cells]]
        bip = (~mru).nonzero()[0]
        if bip.size:
            mru[bip] = [draws[row]() for row in bip.tolist()]
        old = r[rows, way][:, None]
        lru = ~mru
        r += (r < old) & mru[:, None]
        r -= (r > old) & lru[:, None]
        r[rows, way] = np.where(mru, 0, bottom)
        miss = (~hit).nonzero()[0]
        t[miss, way[miss]] = b[miss]
        f[miss] = np.minimum(f[miss] + 1, ways)
        hits += int(np.count_nonzero(hit))
    _note_vector_call(lanes, total)
    return hits, (total - hits) - int(filled.sum())


class _Layout(NamedTuple):
    """One trace's accesses partitioned into lanes, one lane per set.

    Lanes are ordered busiest set first; the two matrices are
    column-major ``(width, num_sets)`` and padded with -1.  All fields
    are treated as read-only by the steppers.
    """

    #: Tag of each (step, lane) cell.
    blocks: object
    #: Accesses of each lane, non-increasing.
    lengths: object
    #: Set index of each lane.
    sets: object
    #: Trace position of each (step, lane) cell.
    positions: object
    #: Accesses in the trace.
    total: int


#: One-slot memo for the last trace's lock-step layout.  The layout
#: depends only on the trace and the cache geometry — not the policy —
#: and
#: :func:`repro.runner.cells.run_sim_cells` runs one trace's cells back
#: to back, so a grid builds one layout per trace and geometry.  Keyed
#: by trace *identity* (a weak reference, traces are immutable) so it
#: can never serve stale data for a different trace.
_TRACE_LAYOUT: tuple | None = None


def _trace_layout(trace, config):
    """Decompose + partition ``trace`` for ``config``, memoized.

    Returns a :class:`_Layout`, or None when the trace cannot run
    lock-step (address or tag beyond the int64 lane range, or a
    matrix-size gate tripped).
    The None is memoized too: the gates are deterministic per layout.
    """
    global _TRACE_LAYOUT
    np = _np
    geometry = (
        config.offset_bits,
        config.index_bits,
        config.num_sets,
        config.index_hash,
    )
    if _TRACE_LAYOUT is not None:
        trace_ref, cached_geometry, layout = _TRACE_LAYOUT
        if trace_ref() is trace and cached_geometry == geometry:
            return layout
    layout = _build_trace_layout(trace, config)
    try:
        _TRACE_LAYOUT = (weakref.ref(trace), geometry, layout)
    except TypeError:  # pragma: no cover - Trace supports weakrefs
        _TRACE_LAYOUT = None
    return layout


def _build_trace_layout(trace, config):
    np = _np
    address_vec = trace.address_array()
    if address_vec is None:
        return None
    total = len(address_vec)
    offset_bits = config.offset_bits
    index_bits = config.index_bits
    num_sets = config.num_sets
    set_mask = np.uint64(num_sets - 1)
    if config.index_hash != "bits":
        tag_vec = address_vec >> np.uint64(offset_bits)
        set_vec = np.zeros(total, dtype=np.uint64)
        if index_bits:
            remaining = tag_vec.copy()
            shift = np.uint64(index_bits)
            while remaining.any():
                set_vec ^= remaining & set_mask
                remaining >>= shift
    else:
        set_vec = (address_vec >> np.uint64(offset_bits)) & set_mask
        tag_vec = address_vec >> np.uint64(offset_bits + index_bits)
    if int(tag_vec.max()) >= _MAX_BLOCK:
        return None
    set_vec = set_vec.astype(np.int64)
    counts = np.bincount(set_vec, minlength=num_sets)
    width = int(counts.max())
    if num_sets * width > MAX_MATRIX_CELLS:
        return None
    if total < MIN_FILL_RATIO * num_sets * width:
        return None
    # Partition accesses by set (stable: per-set order preserved), order
    # the lanes busiest-set-first, and scatter every access into its
    # (step, lane) cell of the column-major block matrix in one shot.
    access_order = np.argsort(set_vec, kind="stable")
    sorted_tags = tag_vec[access_order].astype(np.int64)
    sorted_sets = set_vec[access_order]
    offsets = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    lane_order = np.argsort(-counts, kind="stable")
    inverse = np.empty(num_sets, dtype=np.int64)
    inverse[lane_order] = np.arange(num_sets)
    step_of = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], counts)
    cells = step_of * num_sets + inverse[sorted_sets]
    blocks = np.full((width, num_sets), -1, dtype=np.int64)
    blocks.reshape(-1)[cells] = sorted_tags
    # int32 suffices: the MAX_MATRIX_CELLS gate bounds the trace length.
    positions = np.full((width, num_sets), -1, dtype=np.int32)
    positions.reshape(-1)[cells] = access_order
    return _Layout(blocks, counts[lane_order], lane_order, positions, total)
