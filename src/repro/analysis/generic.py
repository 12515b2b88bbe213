"""Policy-generic cache analysis via the minimum-life-span metric.

The LRU must analysis generalises to *any* deterministic policy P with
one number, the **minimum life span** mls(P): the smallest number of
accesses to pairwise-distinct other blocks that can possibly evict a
just-accessed block, starting from any reachable state.  If fewer than
mls(P) distinct blocks were accessed since a block's last access, the
block is still cached under P — so the LRU must domain with capacity
mls(P) is a sound must analysis for P.  (This is the generic-analysis
construction of Reineke's predictability framework; the companion may
bound is the evict metric of :mod:`repro.eval.predictability`.)

Known values reproduced by the computation (and asserted in tests):

* mls(LRU, a) = a — the optimum;
* mls(FIFO, a) = 1 — a hit block can be the next victim, so FIFO gets
  (almost) no guaranteed hits from this analysis;
* mls(PLRU, a) = log2(a) + 1 — an a-way PLRU only *guarantees* as much
  as a (log2(a)+1)-way LRU, the classic PLRU result;
* mls(bit-PLRU/MRU, a) = 2.

mls is computed exactly as a shortest adversarial eviction: breadth-
first search over (policy state, target way) pairs where the adversary
may miss (evicting the policy's victim) or claim a hit on any
not-yet-claimed non-target block.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.classify import AnalysisResult, analyze
from repro.analysis.program import Program
from repro.cache.config import CacheConfig
from repro.core.permutation import derive_spec_from_policy
from repro.errors import ConfigurationError
from repro.eval.predictability import (
    evict_metric_policy,
    evict_metric_spec,
    full_set_states,
)
from repro.policies import ReplacementPolicy

OLD = "O"  # unclaimed non-target block (may absorb one adversary hit)
CLAIMED = "C"  # non-target block already accessed (blocks are distinct)
TARGET = "T"


def mls_metric_spec(spec, max_states: int = 2_000_000) -> int | None:
    """Exact minimum life span of a permutation policy.

    Positions abstract the ways away, so the search state is just the
    label of each position and the initial states are exactly the
    positions a just-accessed block can occupy: ``hit_perms[i][i]`` for
    a hit at any position ``i``, or the insertion position after a fill.
    """
    from repro.policies.permutation import apply_permutation

    ways = spec.ways
    if ways == 1:
        return 1
    start_positions = {spec.hit_perms[i][i] for i in range(ways)}
    start_positions.add(spec.insertion_position)
    queue: deque = deque()
    seen = set()
    for position in start_positions:
        labels = tuple(
            TARGET if p == position else OLD for p in range(ways)
        )
        if labels not in seen:
            seen.add(labels)
            queue.append((labels, 0))
    evict_pos = spec.eviction_position
    while queue:
        labels, depth = queue.popleft()
        successors = []
        if labels[evict_pos] == TARGET:
            # A miss would evict the target right now.
            return depth + 1
        relocated = list(labels)
        relocated[evict_pos] = CLAIMED  # the incoming block is claimed
        successors.append(tuple(apply_permutation(relocated, spec.miss_perm)))
        for position, label in enumerate(labels):
            if label == OLD:
                claimed = list(labels)
                claimed[position] = CLAIMED
                successors.append(
                    tuple(apply_permutation(claimed, spec.hit_perms[position]))
                )
        for new_labels in successors:
            if new_labels not in seen:
                if len(seen) >= max_states:
                    raise ConfigurationError(
                        f"mls search exceeded {max_states} states"
                    )
                seen.add(new_labels)
                queue.append((new_labels, depth + 1))
    return None


def mls_metric_policy(policy: ReplacementPolicy, max_states: int = 300_000) -> int | None:
    """Exact minimum life span of a deterministic policy.

    Permutation policies are analysed in position space (cheap at any
    relevant associativity); others in way space on their automaton,
    where the search stays shallow because their life spans are small.
    Returns None for randomized policies (no guarantee exists).
    """
    if not policy.DETERMINISTIC:
        return None
    spec = derive_spec_from_policy(policy)
    if spec is not None:
        return mls_metric_spec(spec)
    return _mls_way_space(policy, max_states)


def _mls_way_space(policy: ReplacementPolicy, max_states: int = 300_000) -> int | None:
    """Minimum life span of a deterministic policy, on its automaton."""
    # A node is (automaton state id, target way, mask of the unclaimed
    # non-target ways).  The target was just touched, or just filled on
    # a miss, in any reachable full-set state.
    compiled, states = full_set_states(policy)
    ways, hit_next = compiled.ways, compiled.hit_next
    miss_victim, miss_next = compiled.miss_victim, compiled.miss_next
    queue: deque = deque()
    seen = set()
    for state in states:
        starts = [(hit_next[state * ways + way], way) for way in range(ways)]
        starts.append((miss_next[state], miss_victim[state]))
        for start, target in starts:
            node = (start, target, (1 << ways) - 1 & ~(1 << target))
            if node not in seen:
                seen.add(node)
                queue.append((node, 0))
    while queue:
        (state, target, unclaimed), depth = queue.popleft()
        # Adversary move 1: a miss with a fresh block, which is claimed.
        victim = miss_victim[state]
        if victim == target:
            # Breadth-first order makes the first eviction the minimum.
            return depth + 1
        successors = [(miss_next[state], target, unclaimed & ~(1 << victim))]
        # Adversary move 2: a hit on any unclaimed non-target block.
        for way in range(ways):
            if unclaimed >> way & 1:
                successors.append((hit_next[state * ways + way], target, unclaimed & ~(1 << way)))
        for node in successors:
            if node not in seen:
                if len(seen) >= max_states:
                    raise ConfigurationError(
                        f"mls search exceeded {max_states} states"
                    )
                seen.add(node)
                queue.append((node, depth + 1))
    return None  # the target can never be evicted (would be odd)


def generic_analysis(
    program: Program,
    config: CacheConfig,
    policy: ReplacementPolicy,
) -> AnalysisResult:
    """Sound must/may classification of ``program`` under any policy.

    Uses the LRU domains with the policy's mls as the must bound and its
    evict metric as the may bound, both played on the policy's
    permutation spec when it has one (derived once) and in way space
    otherwise.  Falls back to "no guarantees" (capacity 1 / never-absent)
    when a metric is unbounded.
    """
    if policy.ways != config.ways:
        raise ConfigurationError(
            f"policy is {policy.ways}-way but the cache has {config.ways} ways"
        )
    mls = evict = None
    if policy.DETERMINISTIC:
        spec = derive_spec_from_policy(policy)
        if spec is None:
            mls, evict = _mls_way_space(policy), evict_metric_policy(policy)
        else:
            mls, evict = mls_metric_spec(spec), evict_metric_spec(spec)
    must_capacity = mls if mls is not None else 1
    # The may bound must cover the worst case; an unbounded evict metric
    # means absence can never be concluded, approximated by a bound the
    # program cannot reach.
    may_capacity = evict if evict is not None else 1 << 30
    return analyze(
        program, config, capacity=must_capacity, may_capacity=may_capacity
    )
