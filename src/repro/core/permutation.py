"""Algorithms on permutation policies: derivation, equivalence, naming.

This module complements the data definition in
:mod:`repro.policies.permutation` with the algorithmic machinery the
paper's formalism rests on:

* :func:`derive_spec_from_policy` — extract the permutation vectors of an
  arbitrary deterministic policy *implementation* (e.g. tree-PLRU) by
  white-box simulation, or report that the policy is not a (standard-miss)
  permutation policy;
* :func:`equivalent` — decide observational equivalence exactly by
  comparing miss-cycle normal forms; inferred policies are named with it;
* :func:`specs_equivalent` — decide observational equivalence of two
  specs by an exhaustive product-state search.

"Standard miss" means the miss behaviour assumed by the paper's
measurement algorithms: the block in the last position is evicted, the
new block enters at position 0, and all survivors shift one position
towards eviction.
"""

from __future__ import annotations

from collections import deque

from repro.policies import ReplacementPolicy, PermutationPolicy, PermutationSpec
from repro.cache.set import CacheSet

#: The standard miss permutation: insert at 0, shift survivors, evict last.
def standard_miss_perm(ways: int) -> tuple[int, ...]:
    """Return ``(1, 2, ..., ways-1, 0)``."""
    return tuple(list(range(1, ways)) + [0])


def _fresh_set(policy: ReplacementPolicy) -> CacheSet:
    clone = policy.clone()
    clone.reset()
    return CacheSet(clone.ways, clone)


def _eviction_order(cache_set: CacheSet, next_block: int) -> list[int] | None:
    """Destructively read the positions of all resident blocks.

    Issues misses with fresh block ids and records the eviction sequence.
    The block evicted first was in the eviction position, so the reversed
    eviction sequence lists blocks from position 0 to position A-1 --
    provided the policy has standard miss behaviour.

    Returns None if the original blocks are not all evicted within a
    miss budget of ``ways**2 + ways`` (a non-thrashable policy).
    """
    ways = cache_set.ways
    evicted: list[int] = []
    block = next_block
    budget = ways * ways + ways
    while len(evicted) < ways and block - next_block < budget:
        result = cache_set.access(block)
        if result.hit:
            return None  # fresh block hit: caller's bookkeeping is broken
        if result.evicted_tag is not None and result.evicted_tag < next_block:
            evicted.append(result.evicted_tag)
        block += 1
    if len(evicted) < ways:
        return None
    return list(reversed(evicted))


def derive_spec_from_policy(
    policy: ReplacementPolicy,
    verify_accesses: int = 2000,
    seed: int = 0,
) -> PermutationSpec | None:
    """Derive the permutation vectors of a deterministic policy.

    The derivation establishes a reference state by filling a cold set
    with blocks ``0 .. A-1``, reads the position of every block through
    eviction sequences, measures how a hit at each position reorders the
    set, and finally *verifies* the resulting spec against the original
    implementation on random traces (including from states other than the
    reference state).

    Returns:
        The spec, or ``None`` if the policy is not observationally a
        standard-miss permutation policy (verification failed).
    """
    ways = policy.ways
    establish = list(range(ways))

    def established_set() -> CacheSet:
        cache_set = _fresh_set(policy)
        for block in establish:
            cache_set.access(block)
        return cache_set

    # Reference order after establishment.
    base_order = _eviction_order(established_set(), next_block=ways)
    if base_order is None or sorted(base_order) != establish:
        return None  # some establishment block was never evicted

    # Miss permutation: must be the standard one for the class we handle.
    cache_set = established_set()
    cache_set.access(ways)  # one miss
    after_miss = _eviction_order(cache_set, next_block=ways + 1)
    expected = [ways] + base_order[:-1]
    if after_miss != expected:
        return None

    # Hit permutations.
    hit_perms = []
    for position in range(ways):
        cache_set = established_set()
        cache_set.access(base_order[position])  # hit at `position`
        after_hit = _eviction_order(cache_set, next_block=ways)
        if after_hit is None or sorted(after_hit) != establish:
            return None
        perm = [0] * ways
        for old_position, block in enumerate(base_order):
            perm[old_position] = after_hit.index(block)
        hit_perms.append(tuple(perm))

    spec = PermutationSpec(ways, tuple(hit_perms), standard_miss_perm(ways))
    if not _verify_spec(policy, spec, base_order, verify_accesses, seed):
        return None
    return spec


def _verify_spec(
    policy: ReplacementPolicy,
    spec: PermutationSpec,
    base_order: list[int],
    accesses: int,
    seed: int,
) -> bool:
    """Check spec and policy respond identically to a random trace.

    The comparison starts from the policy's *established* state (a cold
    set filled with blocks ``0 .. A-1``) because a policy's cold-fill
    arrangement generally differs from its steady-state miss behaviour:
    invalid ways are filled in index order, not in victim order.  The
    permutation model — like the paper's — describes the steady state of
    a full set.  The candidate is aligned using the measured
    ``base_order`` (block resident at each position).
    """
    import random

    rng = random.Random(seed)
    ways = policy.ways
    reference = _fresh_set(policy)
    for block in range(ways):
        reference.access(block)
    candidate = CacheSet(ways, PermutationPolicy(ways, spec))
    # Way p holds block base_order[p]; the fresh policy has way p at
    # position p, so block base_order[p] sits at position p as measured.
    candidate.preload(list(base_order))
    window = ways + 3
    next_fresh = ways
    for _ in range(accesses):
        if rng.random() < 0.3:
            block = next_fresh
            next_fresh += 1
        else:
            # Re-access a recently seen block (may or may not be resident).
            block = max(next_fresh - 1 - rng.randrange(window), 0)
        got = candidate.access(block)
        want = reference.access(block)
        if got.hit != want.hit or got.evicted_tag != want.evicted_tag:
            return False
    return True


def specs_equivalent(first: PermutationSpec, second: PermutationSpec, max_states: int = 500_000) -> bool:
    """Decide observational equivalence of two specs.

    Performs a breadth-first search over pairs of policy states driven by
    a block universe of size A+1, which suffices to expose any reachable
    behavioural difference: hits/misses and (indirectly observable)
    evictions must agree everywhere.

    Raises:
        MemoryError-like ValueError when the search exceeds ``max_states``.
    """
    if first.ways != second.ways:
        return False
    ways = first.ways
    universe = list(range(ways + 1))

    def initial(spec: PermutationSpec) -> CacheSet:
        cache_set = CacheSet(ways, PermutationPolicy(ways, spec))
        # Thrash with throwaway blocks, then establish with 0..A-1, so the
        # comparison starts from steady state (cold-fill arrangements are
        # representation dependent).
        for block in range(ways):
            cache_set.access(1000 + block)
        for block in range(ways):
            cache_set.access(block)
        return cache_set

    start = (initial(first), initial(second))
    seen: set = set()
    queue = deque([start])

    def key(pair) -> tuple:
        set_a, set_b = pair
        return (set_a.state_key(), set_b.state_key())

    seen.add(key(start))
    while queue:
        set_a, set_b = queue.popleft()
        for block in universe:
            next_a = set_a.clone()
            next_b = set_b.clone()
            result_a = next_a.access(block)
            result_b = next_b.access(block)
            if result_a.hit != result_b.hit:
                return False
            pair_key = key((next_a, next_b))
            if pair_key not in seen:
                if len(seen) >= max_states:
                    raise ValueError("state space too large for exhaustive equivalence")
                seen.add(pair_key)
                queue.append((next_a, next_b))
    return True


def _cycle_normal_form(spec: PermutationSpec) -> PermutationSpec | None:
    """Relabel ``spec`` so that its miss permutation becomes the standard one.

    When the miss permutation is one cycle through all A positions,
    exactly one relabeling fixing the eviction position A-1 does this: the
    position a miss inserts at becomes 0, and the position reached from
    A-1 by applying ``miss_perm`` k times becomes k-1.  Returns None when
    the miss permutation is not such a cycle.
    """
    ways = spec.ways
    relabel = [ways - 1] * ways
    position = spec.miss_perm[ways - 1]
    for label in range(ways - 1):
        if position == ways - 1:
            return None
        relabel[position] = label
        position = spec.miss_perm[position]
    return spec.conjugate(relabel)


def equivalent(first: PermutationSpec, second: PermutationSpec) -> bool:
    """Decide observational equivalence of two specs exactly.

    Two specs whose miss permutations are each one cycle through all
    positions (as for every spec inference and :func:`derive_spec_from_policy`
    produce) are equivalent exactly when their miss-cycle normal forms are
    equal: relabeling preserves behaviour, and a hit at position ``i``
    followed by misses tells apart two standard-miss specs that differ in
    ``hit_perms[i]``.  Any other pair goes to :func:`specs_equivalent`,
    which raises its ``ValueError`` when the search outgrows its state
    budget, as it can at large associativities.
    """
    if first.ways != second.ways:
        return False
    first_form = _cycle_normal_form(first)
    second_form = _cycle_normal_form(second)
    if first_form is not None and second_form is not None:
        return first_form == second_form
    return specs_equivalent(first, second)
