"""Predictability metrics of replacement policies.

The second half of the paper's evaluation asks how *analysable* the
reverse-engineered policies are for worst-case execution time analysis,
using the metrics of Reineke et al.:

* **evict** — the smallest number of accesses to pairwise distinct
  blocks after which the cache is *guaranteed* to contain only blocks
  from the accessed sequence, no matter the initial state and no matter
  which of the accessed blocks happened to be cached already (an old
  block that one of the accesses aliases becomes part of the known
  contents).  Small evict = fast "may" information for WCET analysis.
* **fill** — the smallest number of such accesses after which the cache
  state is *completely known*.  We compute it as ``evict + collapse``,
  where ``collapse`` is how many further guaranteed misses force every
  possible policy state into the same state (exactly A for standard-miss
  permutation policies, whose miss behaviour is a forced shift).

Both are computed exactly by an adversarial longest-path search: the
analyst picks the number of accesses, an adversary picks the initial
state and which accesses alias still-cached old blocks (each old block
can be claimed at most once because accesses are pairwise distinct).  A
reachable cycle that still contains old blocks means the metric is
unbounded (reported as ``None``).  A permutation policy plays over its
spec's positions, which factor out way symmetry; any other deterministic
policy plays in way space on its closed automaton (:mod:`repro.kernels`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.permutation import derive_spec_from_policy
from repro.errors import ConfigurationError, KernelUnsupported
from repro.kernels import CompiledPolicy, compiled_for
from repro.policies import PermutationSpec, ReplacementPolicy
from repro.policies.permutation import apply_permutation

OLD_FRESH = "O"  # unknown old block; the analysis goal is to clear these
# A claimed old block (hit by one of the distinct accesses) becomes part
# of the known contents, indistinguishable from a newly inserted block
# for the purposes of the metric, so both share one label.
NEW = "N"

_UNBOUNDED = object()


class _GameUnbounded(Exception):
    """Raised internally when the adversary can stall forever."""


def _search(initial_states, moves_of, max_states: int) -> int | None:
    """Longest adversary-controlled path until no old blocks remain.

    ``moves_of(state)`` yields successor states; terminal states (no old
    labels) have value 0.  Returns None when a cycle keeps old blocks
    alive forever.
    """
    values: dict = {}
    ON_STACK = _UNBOUNDED  # sentinel reused as the "in progress" marker

    def value(state) -> int:
        known = values.get(state)
        if known is ON_STACK:
            raise _GameUnbounded
        if known is not None:
            return known
        if len(values) > max_states:
            raise ConfigurationError(
                f"predictability search exceeded {max_states} states"
            )
        successors = list(moves_of(state))
        if not successors:
            values[state] = 0
            return 0
        values[state] = ON_STACK
        best = 1 + max(value(next_state) for next_state in successors)
        values[state] = best
        return best

    try:
        return max(value(state) for state in initial_states)
    except _GameUnbounded:
        return None


def evict_metric_spec(spec: PermutationSpec, max_states: int = 300_000) -> int | None:
    """Exact evict metric of a permutation policy.

    Positions abstract away the ways, so the game state is simply the
    label of each position (3^A states) and there is a single initial
    state: every position old.
    """
    ways = spec.ways

    def moves_of(labels: tuple[str, ...]):
        if OLD_FRESH not in labels:
            return
        # A miss: evict last position's label, relocate the rest, insert NEW.
        relocated = list(labels)
        relocated[ways - 1] = NEW
        yield tuple(apply_permutation(relocated, spec.miss_perm))
        # A hit claiming any still-unknown old block.
        for position, label in enumerate(labels):
            if label == OLD_FRESH:
                claimed = list(labels)
                claimed[position] = NEW
                yield tuple(apply_permutation(claimed, spec.hit_perms[position]))

    return _search([tuple([OLD_FRESH] * ways)], moves_of, max_states)


def full_set_states(policy: ReplacementPolicy) -> tuple[CompiledPolicy, list[int]]:
    """The policy's closed automaton and the ids of the states a full set reaches.

    The states close the one after the cold fill of all ways (ascending,
    as :class:`~repro.cache.set.CacheSet` fills) under every hit and the
    evicting miss.  A policy with no automaton raises KernelUnsupported;
    a closure past the compile budget raises ConfigurationError.
    """
    compiled = compiled_for(policy)
    if compiled is None:
        raise KernelUnsupported(f"policy {type(policy).__name__} has no automaton")
    try:
        compiled.expand_all()
    except KernelUnsupported as error:
        raise ConfigurationError(str(error)) from error
    ways, hit_next, miss_next = compiled.ways, compiled.hit_next, compiled.miss_next
    start = 0
    for way in range(ways):
        start = compiled.fill_next[start * ways + way]
    states, seen = [start], {start}
    for state in states:  # the list grows as the loop walks it
        for successor in (*hit_next[state * ways : (state + 1) * ways], miss_next[state]):
            if successor not in seen:
                seen.add(successor)
                states.append(successor)
    return compiled, states


def evict_metric_policy(policy: ReplacementPolicy, max_states: int = 300_000) -> int | None:
    """Exact evict metric of an arbitrary deterministic policy, in way space.

    A game state is ``(automaton state id, mask of the ways still holding
    old blocks)``, and the adversary also picks the initial full-set state.
    """
    if not policy.DETERMINISTIC:
        return None  # e.g. random replacement: eviction can never be forced
    compiled, states = full_set_states(policy)
    ways, hit_next = compiled.ways, compiled.hit_next
    miss_victim, miss_next = compiled.miss_victim, compiled.miss_next

    def moves_of(node):
        state, old = node
        if old:
            yield miss_next[state], old & ~(1 << miss_victim[state])
            for way in range(ways):
                if old >> way & 1:
                    yield hit_next[state * ways + way], old & ~(1 << way)

    return _search([(state, (1 << ways) - 1) for state in states], moves_of, max_states)


def collapse_depth_spec(spec: PermutationSpec) -> int:
    """Misses needed to force a known state for a permutation policy.

    For the standard miss permutation this is exactly A: every miss
    inserts at a fixed position and shifts deterministically, so A
    consecutive guaranteed misses determine the position of every block.
    General miss permutations converge once every position has been
    visited by an insertion, bounded by A * A (or never, for
    non-thrashable miss permutations).
    """
    ways = spec.ways
    position = spec.insertion_position
    visited = {position}
    for step in range(1, ways * ways + 1):
        position = spec.miss_perm[position]
        visited.add(position)
        if len(visited) == ways:
            return step + 1
    return ways  # standard-miss specs exit through the loop; keep a floor


def collapse_depth_policy(policy: ReplacementPolicy, horizon_factor: int = 4) -> int | None:
    """Misses after which all reachable policy states coincide.

    Follows ``m`` consecutive evicting misses from every reachable
    full-set state and finds the smallest ``m`` (up to ``horizon_factor
    * ways``) where both the states and the orders in which the last
    ``ways`` fills happened agree; returns None if never.
    """
    if not policy.DETERMINISTIC:
        return None
    compiled, states = full_set_states(policy)
    ways, miss_victim, miss_next = compiled.ways, compiled.miss_victim, compiled.miss_next
    signatures = {(state, ()) for state in states}
    for step in range(1, horizon_factor * ways + 1):
        signatures = {
            (miss_next[state], (fills + (miss_victim[state],))[-ways:])
            for state, fills in signatures
        }
        if len(signatures) == 1 and step >= ways:
            return step
    return None


@dataclass(frozen=True)
class PredictabilityResult:
    """The predictability metrics of one policy.

    ``evict``/``fill`` are None when the metric is unbounded (note
    "unbounded"), when the policy is randomized (note "randomized"),
    when a deterministic policy has no automaton to play on (note "no
    automaton"), or when the exact game was too large (note "state
    budget exceeded").
    """

    policy: str
    ways: int
    evict: int | None = None
    fill: int | None = None
    note: str = ""

    def row(self) -> list:
        """The table row ``[policy, ways, evict, fill, note]``, "-" for a missing metric."""
        metrics = ["-" if value is None else value for value in (self.evict, self.fill)]
        return [self.policy, self.ways, *metrics, self.note]


def predictability_of_spec(name: str, spec: PermutationSpec) -> PredictabilityResult:
    """evict/fill for a permutation policy given by its spec."""
    evict = evict_metric_spec(spec)
    fill = None if evict is None else evict + collapse_depth_spec(spec)
    note = "unbounded" if evict is None else ""
    return PredictabilityResult(policy=name, ways=spec.ways, evict=evict, fill=fill, note=note)


def predictability_of_policy(name: str, policy: ReplacementPolicy) -> PredictabilityResult:
    """evict/fill for an arbitrary deterministic policy implementation.

    Permutation policies are analysed through their derived spec, whose
    abstract positions factor out way symmetry (a way-labeled collapse
    check would wrongly report unbounded fill for LRU: the block-to-way
    assignment stays unknown, but the observable state does collapse).
    Other policies are analysed in way space, where their victim choice
    genuinely depends on way indices.
    """
    if not policy.DETERMINISTIC:
        return PredictabilityResult(name, policy.ways, note="randomized")
    spec = derive_spec_from_policy(policy)
    if spec is not None:
        return predictability_of_spec(name, spec)
    try:
        evict = evict_metric_policy(policy)
        collapse = collapse_depth_policy(policy)
    except KernelUnsupported:
        return PredictabilityResult(name, policy.ways, note="no automaton")
    except ConfigurationError:
        return PredictabilityResult(name, policy.ways, note="state budget exceeded")
    fill = None if evict is None or collapse is None else evict + collapse
    note = "unbounded" if evict is None else "fill unbounded" if fill is None else ""
    return PredictabilityResult(policy=name, ways=policy.ways, evict=evict, fill=fill, note=note)
