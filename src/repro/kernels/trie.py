"""Prefix-trie query planner: execute each shared access prefix once.

The batched engines (:func:`repro.kernels.count_misses_batch` /
:func:`repro.kernels.sequence_hits_batch`) execute every ``(setup,
probe)`` query of a batch end-to-end, reusing work only for
*consecutive, bit-identical* setups.  But inference-shaped batches are
far more redundant than that: the establishment prefix is shared by
every position measurement, verification windows replay nested prefixes
of one another, and fresh-block suffixes extend each other one access at
a time.  Concatenated as ``setup ‖ probe`` block sequences, such a batch
forms a *radix trie* in which each node is one access — and since the
automaton run over any sequence prefix is deterministic, every trie node
needs to be executed exactly **once**, not once per query that contains
it.  This planner turns O(Σ|query|) executed accesses into O(|trie|).

The trie is never materialized as linked nodes.  Sorting the sequences
lexicographically makes prefix sharing *adjacent*: consecutive sorted
sequences share exactly their longest common prefix (LCP), and the trie
nodes are precisely the suffix accesses beyond each LCP.  The planner
therefore

1. sorts the concatenated sequences as tuple keys (stable, so duplicate
   queries collapse entirely),
2. computes per-neighbour LCPs,
3. gates on the measured **sharing ratio** ``Σ|query| / |trie|`` —
   a batch with no prefix redundancy is not worth planning and falls
   back to the batched engines (counted as ``kernel.trie.fallbacks``),
4. executes only the deduplicated suffixes, and
5. replays per-query answers from the shared traversal: the per-depth
   outcome and cumulative-miss arrays along the current trie path are
   valid for *every* query that path passes through, so a miss count is
   one subtraction and an outcome list is one slice.

Execution is a depth-first replay of the sorted sequences in pure
Python.  Instead of snapshotting ``(state, way_of, tag_of)`` at every
branch point, it keeps one mutable set image plus a constant-size *undo
record* per depth — a hit restores nothing, a fill or eviction restores
one way — so backtracking from one sorted sequence to the next costs
O(depth difference), and the per-node work matches the scalar engine's,
lazy automaton expansion included.

Ground rules:

* fallback is always legal — every ``None`` return means "use the
  batched engines", and the planner is an optimization, never a
  capability;
* engagement is observable — ``kernel.trie.plans`` / ``.nodes`` /
  ``.reused_accesses`` / ``.fallbacks``, while the logical
  ``kernel.accesses = hits + misses`` invariant continues to hold over
  the accesses actually executed (see OBSERVABILITY.md for the relaxed
  parity contract).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs import metrics as obs_metrics

__all__ = [
    "MIN_QUERIES",
    "MIN_SHARE_RATIO",
    "plan_miss_counts",
    "plan_outcomes",
    "set_trie_enabled",
    "trie_allowed",
    "trie_disabled",
    "trie_enabled",
]

#: Below this many queries a batch stays on the batched engines: the
#: sort/LCP bookkeeping cannot pay for itself, and tiny batches are the
#: adaptive (unbatchable) measurement shape anyway.
MIN_QUERIES = 8

#: Minimum measured sharing ratio ``total accesses / trie nodes``.  At
#: 1.0 the trie is the batch (no sharing); below this bar planning would
#: add sort overhead on top of full execution, so the planner declines
#: (counted as a ``kernel.trie.fallbacks``).
MIN_SHARE_RATIO = 1.2

_ENABLED = True


def trie_enabled() -> bool:
    """True when the planner may be used (process-wide switch)."""
    return _ENABLED


def set_trie_enabled(enabled: bool) -> None:
    """Globally enable or disable the planner (batched engines stay)."""
    global _ENABLED
    _ENABLED = bool(enabled)


@contextmanager
def trie_disabled():
    """Temporarily force the batched engines (tests, A/B benchmarks)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def trie_allowed() -> bool:
    """True when the planner may run right now (pure Python, no numpy)."""
    return _ENABLED


def _note_fallback() -> None:
    obs_metrics.DEFAULT.incr("kernel.trie.fallbacks")


def _note_plan(nodes: int, reused: int) -> None:
    metrics = obs_metrics.DEFAULT
    metrics.incr("kernel.trie.plans")
    metrics.incr("kernel.trie.nodes", nodes)
    if reused:
        metrics.incr("kernel.trie.reused_accesses", reused)


# -- planning ----------------------------------------------------------------

def plan_miss_counts(compiled, queries):
    """Plan + execute a batch for per-query probe miss counts.

    Returns ``(counts, executed, executed_hits)`` — counts in request
    order, plus the accounting the caller flushes as one ``"batch"``
    kernel call — or ``None`` when the batch should stay on the batched
    engines (planner disabled, too few queries, or sharing below
    :data:`MIN_SHARE_RATIO`).
    """
    return _plan(compiled, queries, want_outcomes=False)


def plan_outcomes(compiled, queries):
    """Plan + execute a batch for per-query hit/miss outcome lists.

    Same contract and accounting as :func:`plan_miss_counts`, with
    ``outcomes[q]`` a list of bools covering query ``q``'s probe.
    """
    return _plan(compiled, queries, want_outcomes=True)


def _plan(compiled, queries, want_outcomes):
    if not trie_allowed() or len(queries) < MIN_QUERIES:
        return None
    seqs = [tuple(setup) + tuple(probe) for setup, probe in queries]
    total = sum(map(len, seqs))
    if not total:
        return None  # all-empty batch: nothing to share
    order = sorted(range(len(seqs)), key=seqs.__getitem__)
    lcps = [0] * len(seqs)
    prev = seqs[order[0]]
    for position in range(1, len(seqs)):
        cur = seqs[order[position]]
        bound = min(len(prev), len(cur))
        shared = 0
        while shared < bound and prev[shared] == cur[shared]:
            shared += 1
        lcps[position] = shared
        prev = cur
    nodes = total - sum(lcps)
    if total < MIN_SHARE_RATIO * nodes:
        _note_fallback()
        return None
    splits = [len(setup) for setup, _ in queries]
    answers, executed_hits = _replay(
        compiled, seqs, order, lcps, splits, want_outcomes
    )
    _note_plan(nodes, total - nodes)
    return answers, nodes, executed_hits


# -- replay ------------------------------------------------------------------

def _replay(compiled, seqs, order, lcps, splits, want_outcomes):
    """Depth-first replay of the sorted sequences with per-depth undo.

    Executes exactly the trie's node accesses: each sorted sequence
    backtracks to its LCP with the previous one (undoing one access per
    popped depth) and runs only its new suffix.  The per-depth outcome
    (``hits_path``) and cumulative-miss (``cum``) arrays along the
    current path answer every query whose sequence is the current path,
    shared prefix included.  Per-access rules and lazy expansion match
    the scalar engine's ``_run_blocks`` exactly.
    """
    ways = compiled.ways
    hit_next = compiled.hit_next
    fill_next = compiled.fill_next
    miss_victim = compiled.miss_victim
    miss_next = compiled.miss_next
    way_of: dict[int, int] = {}
    tag_of = [-1] * ways
    width = max(len(seq) for seq in seqs)
    path_states = [0] * width
    # Undo record per depth: way written by the access (-1 for hits,
    # which change only the state) and the tag it displaced (-1 for cold
    # fills).  Restoring a record exactly inverts the access given every
    # deeper one is already undone.
    undo_ways = [0] * width
    undo_tags = [0] * width
    hits_path = [False] * width
    cum = [0] * (width + 1)
    answers: list = [None] * len(seqs)
    depth = 0
    executed_hits = 0
    for position, index in enumerate(order):
        seq = seqs[index]
        keep = lcps[position]
        for d in range(depth - 1, keep - 1, -1):
            way = undo_ways[d]
            if way >= 0:
                old = undo_tags[d]
                del way_of[tag_of[way]]
                tag_of[way] = old
                if old >= 0:
                    way_of[old] = way
        state = path_states[keep - 1] if keep else 0
        for d in range(keep, len(seq)):
            block = seq[d]
            way = way_of.get(block)
            if way is not None:
                nxt = hit_next[state * ways + way]
                state = nxt if nxt >= 0 else compiled.expand_hit(state, way)
                undo_ways[d] = -1
                hits_path[d] = True
                cum[d + 1] = cum[d]
                executed_hits += 1
            else:
                filled = len(way_of)
                if filled < ways:
                    way_of[block] = filled
                    tag_of[filled] = block
                    nxt = fill_next[state * ways + filled]
                    state = nxt if nxt >= 0 else compiled.expand_fill(state, filled)
                    undo_ways[d] = filled
                    undo_tags[d] = -1
                else:
                    victim = miss_victim[state]
                    if victim >= 0:
                        nxt = miss_next[state]
                    else:
                        victim, nxt = compiled.expand_miss(state)
                    old = tag_of[victim]
                    del way_of[old]
                    tag_of[victim] = block
                    way_of[block] = victim
                    state = nxt
                    undo_ways[d] = victim
                    undo_tags[d] = old
                hits_path[d] = False
                cum[d + 1] = cum[d] + 1
            path_states[d] = state
        depth = len(seq)
        split = splits[index]
        if want_outcomes:
            answers[index] = hits_path[split:depth]
        else:
            answers[index] = cum[depth] - cum[split]
    return answers, executed_hits
