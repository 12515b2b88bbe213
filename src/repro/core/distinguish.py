"""Finding access sequences that tell two policies apart.

Two tools, used by candidate identification and the E8 experiment:

* :func:`bfs_distinguishing_sequence` — exact shortest distinguishing
  probe via breadth-first search over the product of the two policies'
  state spaces (small associativities);
* :func:`random_distinguishing_sequence` — randomized search that scales
  to any associativity and to expensive candidate pools.

Both compare policies from their *established* state (a thrashed, then
deterministically refilled set), the same reference point the inference
algorithms use, and both treat the per-access hit/miss outcome as the
only observable.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Callable, Sequence

from repro.cache.set import CacheSet
from repro.errors import KernelUnsupported
from repro.obs import trace as obs_trace
from repro.policies import ReplacementPolicy
from repro import kernels

PolicyFactoryFn = Callable[[], ReplacementPolicy]

#: Probes the randomized search simulates per batched engine call.
SEARCH_CHUNK = 256


def established_set(policy: ReplacementPolicy, thrash_factor: int = 2) -> CacheSet:
    """Return a set in the policy's established state.

    Thrash blocks use ids >= 10_000, establishment blocks are 0..A-1 —
    the same convention as :class:`repro.core.inference.PermutationInference`.
    """
    clone = policy.clone()
    clone.reset()
    cache_set = CacheSet(clone.ways, clone)
    for i in range(thrash_factor * clone.ways):
        cache_set.access(10_000 + i)
    for block in range(clone.ways):
        cache_set.access(block)
    return cache_set


def response(policy: ReplacementPolicy, probe: Sequence[int], thrash_factor: int = 2) -> tuple[bool, ...]:
    """Hit/miss outcome of each probe access from the established state."""
    # Compiled fast path (deterministic policies, kernel on, no tracer
    # wanting cache.* events): identification replays thousands of
    # candidate responses, and the established state is just thrash +
    # establishment from reset.
    if kernels.kernel_allowed():
        compiled = kernels.compiled_for(policy)
        if compiled is not None:
            setup = [10_000 + i for i in range(thrash_factor * policy.ways)]
            setup += list(range(policy.ways))
            try:
                return kernels.sequence_hits(compiled, setup, probe)
            except KernelUnsupported:
                kernels.mark_unsupported(policy)
    cache_set = established_set(policy, thrash_factor)
    return tuple(cache_set.access(block).hit for block in probe)


_measuredb = None


def _hits_cache(policy: ReplacementPolicy, thrash_factor: int):
    """The persistent hit-vector cache for ``policy``, if opted in.

    Opt-in via :func:`repro.measuredb.set_hits_cache_enabled`; policies
    without provenance (randomized, unregistered) get None and keep
    re-simulating.  The import is deferred and memoized so the disabled
    path costs one attribute read.
    """
    global _measuredb
    if _measuredb is None:
        from repro import measuredb

        _measuredb = measuredb
    if not _measuredb.hits_cache_enabled():
        return None
    return _measuredb.response_cache_for(policy, thrash_factor)


def responses(
    policy: ReplacementPolicy,
    probes: Sequence[Sequence[int]],
    thrash_factor: int = 2,
) -> list[tuple[bool, ...]]:
    """Outcome of each probe in ``probes`` from the established state.

    The batched form of :func:`response`: on the compiled fast path the
    whole list runs through one automaton in a single engine call, with
    the shared establishment setup replayed from a snapshot instead of
    re-simulated per probe.  Bit-identical to mapping :func:`response`.

    With the measurement DB's hit-vector cache opted in
    (:func:`repro.measuredb.set_hits_cache_enabled`) and a provenanced
    policy, previously computed vectors are served from the database and
    only the unresolved probes are simulated (and written back).
    """
    probes = list(probes)
    cache = _hits_cache(policy, thrash_factor)
    if cache is not None:
        found, missing = cache.lookup(probes)
        if not missing:
            return [vector for vector in found if vector is not None]
        computed = _responses_simulated(
            policy, [probes[index] for index in missing], thrash_factor
        )
        cache.store([probes[index] for index in missing], computed)
        for index, vector in zip(missing, computed):
            found[index] = vector
        return found
    return _responses_simulated(policy, probes, thrash_factor)


def _responses_simulated(
    policy: ReplacementPolicy,
    probes: Sequence[Sequence[int]],
    thrash_factor: int = 2,
) -> list[tuple[bool, ...]]:
    """Simulate every probe's response (kernel batch when allowed)."""
    if kernels.kernel_allowed():
        compiled = kernels.compiled_for(policy)
        if compiled is not None:
            setup = [10_000 + i for i in range(thrash_factor * policy.ways)]
            setup += list(range(policy.ways))
            try:
                return kernels.sequence_hits_batch(
                    compiled, [(setup, probe) for probe in probes]
                )
            except KernelUnsupported:
                kernels.mark_unsupported(policy)
    return [response(policy, probe, thrash_factor) for probe in probes]


def miss_count(policy: ReplacementPolicy, probe: Sequence[int], thrash_factor: int = 2) -> int:
    """Number of probe misses from the established state."""
    return sum(1 for hit in response(policy, probe, thrash_factor) if not hit)


def bfs_distinguishing_sequence(
    first: ReplacementPolicy,
    second: ReplacementPolicy,
    max_depth: int = 12,
    max_states: int = 200_000,
) -> list[int] | None:
    """Shortest probe on which the two policies' hit/miss outcomes differ.

    Returns None if no distinguishing probe of length ``max_depth`` or
    less exists within the state budget (the policies may be equivalent).
    Requires deterministic policies (hashable state keys).
    """
    if first.ways != second.ways:
        raise ValueError("policies must have equal associativity")
    ways = first.ways
    universe = list(range(ways + 2))
    start = (established_set(first), established_set(second))

    def key(pair):
        return (pair[0].state_key(), pair[1].state_key())

    seen = {key(start)}
    queue: deque = deque([(start, [])])
    while queue:
        (set_a, set_b), path = queue.popleft()
        if len(path) >= max_depth:
            continue
        for block in universe:
            next_a = set_a.clone()
            next_b = set_b.clone()
            hit_a = next_a.access(block).hit
            hit_b = next_b.access(block).hit
            probe = path + [block]
            if hit_a != hit_b:
                return probe
            pair_key = key((next_a, next_b))
            if pair_key not in seen and len(seen) < max_states:
                seen.add(pair_key)
                queue.append(((next_a, next_b), probe))
    return None


def random_distinguishing_sequence(
    first: ReplacementPolicy,
    second: ReplacementPolicy,
    tries: int = 400,
    length: int = 40,
    seed: int = 0,
) -> list[int] | None:
    """Randomized search for a probe with differing *miss counts*.

    Miss counts (not per-access outcomes) are what a hardware oracle
    reports, so this is the discriminator candidate identification needs.
    The found sequence is greedily truncated to the shortest prefix that
    still discriminates.
    """
    if first.ways != second.ways:
        raise ValueError("policies must have equal associativity")
    ways = first.ways
    rng = random.Random(seed)
    pool = list(range(ways)) + [20_000 + i for i in range(ways)]
    # Probes are generated and examined in rng order but simulated in
    # chunks, so each policy's automaton runs one batched engine call
    # per chunk.  The returned sequence is the first diverging probe in
    # generation order — identical to the probe-at-a-time search, and
    # (because the rng feeds nothing but probe generation) independent
    # of the chunk size.
    produced = 0
    while produced < tries:
        count = min(SEARCH_CHUNK, tries - produced)
        produced += count
        probes = [
            [rng.choice(pool) for _ in range(length)] for _ in range(count)
        ]
        resp_as = responses(first, probes)
        resp_bs = responses(second, probes)
        for probe, resp_a, resp_b in zip(probes, resp_as, resp_bs):
            if resp_a != resp_b:
                # Truncate to the first divergence point: miss counts on
                # the prefix up to and including it must differ by
                # construction.
                for index, (bit_a, bit_b) in enumerate(zip(resp_a, resp_b)):
                    if bit_a != bit_b:
                        return probe[: index + 1]
    return None
