"""Vectorized whole-trace simulation of compiled policy automata.

A whole-cache trace is just ``num_sets`` independent automata that never
interact.  This module represents the state of every set as a *lane* of
flat numpy vectors and advances all of them with one fancy-indexed
gather per access step::

    states = fused_next[states * span + event]

:func:`simulate_trace_lockstep` partitions a trace per set and runs all
``num_sets`` automata lock-step, bit-identical to the scalar trace
engine and the interpreter (behind ``simulate_trace_kernel`` /
``try_simulate_trace``).  Single-set query batches do not come here:
they run on the scalar kernel (:mod:`repro.kernels.engine`), which
expands an automaton lazily, only as far as the queries reach.

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
* **Only complete automata run vectorized.**  The stepper has no lazy
  expansion hook — a ``-1`` table entry would be gathered as a state id
  — so :func:`ensure_tables` forces ``expand_all()`` first and memoizes
  a budget blow as "scalar only" on the automaton.
* **Fallback is always legal.**  Every ``None`` return means "use the
  scalar engine"; the vector path is an optimization, never a
  capability.  Engagement and fallbacks are visible as
  ``kernel.vector.*`` counters.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager

from repro.errors import KernelUnsupported
from repro.obs import metrics as obs_metrics

try:  # numpy is an optional extra (pip install repro[vector])
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI leg
    _np = None

__all__ = [
    "VectorTables",
    "available",
    "ensure_tables",
    "numpy_available",
    "set_vector_enabled",
    "simulate_trace_lockstep",
    "vector_allowed",
    "vector_disabled",
    "vector_enabled",
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

_ENABLED = True


def available() -> bool:
    """True when numpy is importable in this process."""
    return _np is not None


#: Package-level alias: ``repro.kernels.numpy_available()``.
numpy_available = available


def vector_enabled() -> bool:
    """True when the vector engine may be used (process-wide switch)."""
    return _ENABLED


def set_vector_enabled(enabled: bool) -> None:
    """Globally enable or disable the vector engine (scalar kernel stays)."""
    global _ENABLED
    _ENABLED = bool(enabled)


@contextmanager
def vector_disabled():
    """Temporarily force the scalar engine (tests, A/B benchmarks)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def vector_allowed() -> bool:
    """True when the vector engine may run right now."""
    return _ENABLED and _np is not None


class VectorTables:
    """Numpy mirror of one complete automaton's transition tables.

    Flat int32 arrays in the same layout as the scalar lists —
    ``hit_next``/``fill_next`` indexed ``state * ways + way``,
    ``miss_victim``/``miss_next`` indexed ``state``.  Instances are
    attached to their :class:`~repro.kernels.automaton.CompiledPolicy`
    (``vector_tables`` slot) by :func:`ensure_tables`, or zero-copy by
    the artifact store over an mmap of the on-disk tables.
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
        """
        if self.fused_next is None:
            np = _np
            states, ways = self.num_states, self.ways
            span = 2 * ways + 1
            nxt = np.empty((states, span), dtype=np.int32)
            nxt[:, :ways] = self.hit_next.reshape(states, ways)
            nxt[:, ways : 2 * ways] = self.fill_next.reshape(states, ways)
            nxt[:, 2 * ways] = self.miss_next
            way = np.empty((states, span), dtype=np.int32)
            way[:, :ways] = -1
            way[:, ways : 2 * ways] = np.arange(ways, dtype=np.int32)
            way[:, 2 * ways] = self.miss_victim
            self.fused_next = nxt.reshape(-1)
            self.fused_way = way.reshape(-1)
        return self.fused_next, self.fused_way

    @classmethod
    def from_lists(cls, compiled) -> "VectorTables":
        """Copy a complete automaton's list tables into numpy arrays."""
        return cls(
            compiled.ways,
            compiled.num_states,
            _np.asarray(compiled.hit_next, dtype=_np.int32),
            _np.asarray(compiled.fill_next, dtype=_np.int32),
            _np.asarray(compiled.miss_victim, dtype=_np.int32),
            _np.asarray(compiled.miss_next, dtype=_np.int32),
        )

    @classmethod
    def from_buffers(cls, ways, num_states, buffers) -> "VectorTables":
        """Zero-copy views over int32 buffers (the store's mmap payload)."""
        return cls(
            ways,
            num_states,
            _np.frombuffer(buffers["hit_next"], dtype=_np.int32),
            _np.frombuffer(buffers["fill_next"], dtype=_np.int32),
            _np.frombuffer(buffers["miss_victim"], dtype=_np.int32),
            _np.frombuffer(buffers["miss_next"], dtype=_np.int32),
        )


def ensure_tables(compiled) -> VectorTables | None:
    """The automaton's numpy tables, or None when it must stay scalar.

    Forces full expansion first (the stepper cannot expand lazily) and
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
    tables = VectorTables.from_lists(compiled)
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
    place.  Returns ``(total_hits, total_evictions)``.

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
    absent/disabled, too few sets, automaton not fully expandable, a
    pathologically skewed trace, or tags beyond the int64 lane range).
    """
    if not vector_allowed() or config.num_sets < MIN_TRACE_LANES:
        return None
    tables = ensure_tables(compiled)
    if tables is None:
        if available() and vector_enabled():
            _note_fallback()
        return None
    from repro.cache.stats import CacheStats

    total = len(trace)
    if not total:
        return CacheStats(accesses=0, hits=0, misses=0, evictions=0, fills=0)
    layout = _trace_layout(trace, config)
    if layout is None:
        _note_fallback()
        return None
    np = _np
    blocks, lengths_sorted = layout
    num_sets = config.num_sets
    ways = tables.ways
    states = np.zeros(num_sets, dtype=np.int32)
    tags = np.full((num_sets, ways), -1, dtype=np.int64)
    filled = np.zeros(num_sets, dtype=np.int32)
    hits, evictions = _run_lanes(tables, states, tags, filled, blocks, lengths_sorted)
    misses = total - hits
    _note_vector_call(num_sets, total)
    return CacheStats(
        accesses=total,
        hits=hits,
        misses=misses,
        evictions=evictions,
        fills=misses,
    )


#: One-slot memo for the last trace's lock-step layout.  The layout
#: (block matrix + per-lane lengths) depends only on the trace and the
#: cache geometry — not the policy — and
#: :func:`repro.runner.cells.run_sim_cells` runs one trace's cells back
#: to back, so a grid builds one layout per trace and geometry.  Keyed
#: by trace *identity* (a weak reference, traces are immutable) so it
#: can never serve stale data for a different trace.
_TRACE_LAYOUT: tuple | None = None


def _trace_layout(trace, config):
    """Decompose + partition ``trace`` for ``config``, memoized.

    Returns ``(blocks, lengths_sorted)`` — both treated as read-only by
    the stepper — or None when the trace cannot run lock-step (address
    or tag beyond the int64 lane range, or a matrix-size gate tripped).
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
    blocks = np.full((width, num_sets), -1, dtype=np.int64)
    blocks[step_of, inverse[sorted_sets]] = sorted_tags
    return blocks, counts[lane_order]
