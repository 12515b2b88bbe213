"""Measurement oracles: the only window inference has onto a cache.

The paper's algorithms never see replacement state; they run access
sequences and read a miss counter.  One *measurement* is

    ``(setup, probe) -> number of probe misses``

where ``setup`` is run first (uncounted, used to establish a state) and
``probe`` is the counted part.  Every measurement starts from an
equivalent fresh environment, mirroring how the paper restarts each
experiment; sequences are lists of abstract *block ids*, each id denoting
a distinct memory block mapping to the probed cache set.

**The protocol.**  :class:`OracleProtocol` is the single oracle surface:
the canonical entry point is the *batched* :meth:`~OracleProtocol.query`
(``requests -> miss counts``), which lets implementations answer a whole
batch in one kernel engine call.
:meth:`~OracleProtocol.provenance` names what is being measured — a
stable identity that exists only when the oracle's answers are a pure
function of the request; oracles with randomized policies or noisy
hardware return ``None``.  Inference batches its verification windows
only against an oracle that reports one (see
:meth:`repro.core.inference.PermutationInference._verify`).

:class:`MissCountOracle` keeps the scalar ``count_misses`` as the
measurement *primitive* for adaptive algorithms (inference decides each
request from the previous answer); its default ``query`` loops over it,
and subclasses override ``query`` with real batch paths.

Implementations:

* :class:`SimulatedSetOracle` — wraps a single simulated :class:`CacheSet`
  (white-box substrate, zero noise).  Used for unit tests, algorithm
  development and the cost experiments.
* :class:`HardwareSetOracle` — lives in :mod:`repro.hardware.harness`;
  drives a full simulated platform through virtual memory and performance
  counters, including the L1-defeating access patterns needed to probe
  L2/L3.
* :class:`VotingOracle` — repeats measurements and takes a per-sequence
  majority vote, the paper's defence against counter noise.
* :class:`CachingOracle` — memoizes identical ``(setup, probe)``
  measurements against a deterministic inner oracle.

Simulated measurements of a policy with an automaton run on the
compiled kernel (:mod:`repro.kernels`); a policy without one runs on the
interpreted loop, and the ``oracle.*`` metrics are identical on both
paths.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from collections import Counter
from collections.abc import Sequence

from repro.errors import KernelUnsupported, MeasurementError
from repro.obs import metrics as obs_metrics
from repro.policies import PermutationPolicy, ReplacementPolicy
from repro.cache.set import CacheSet
from repro import kernels


def policy_provenance(policy: ReplacementPolicy) -> str | None:
    """Stable identity of a *deterministic* policy, or None.

    The provenance string must (a) uniquely determine the policy's
    measurable behaviour and (b) exist only when that behaviour is
    reproducible:

    * registry-built instances carry a ``_registry_key`` provenance
      stamp (name + sorted params, see
      :meth:`repro.policies.registry.PolicyFactory.build`) — combined
      with the associativity that pins the automaton exactly;
    * a :class:`~repro.policies.PermutationPolicy` is identified by a
      content digest of its permutation vectors;
    * randomized policies and bare unregistered instances (whose
      constructor params are unknowable here) return None.
    """
    if isinstance(policy, PermutationPolicy):
        spec = policy.spec
        payload = repr((spec.ways, spec.hit_perms, spec.miss_perm)).encode()
        digest = hashlib.blake2s(payload, digest_size=8).hexdigest()
        return f"spec:{digest}|ways={spec.ways}"
    if not type(policy).DETERMINISTIC:
        return None
    key = getattr(policy, "_registry_key", None)
    if key is None:
        return None
    name, params = key
    return f"policy:{name}|{params!r}|ways={policy.ways}"


class OracleProtocol(ABC):
    """The unified oracle surface: batched queries plus provenance.

    ``query`` is the canonical call shape every oracle implements; the
    scalar ``count_misses`` is layered on top by :class:`MissCountOracle`.
    Results are returned in request order and are bit-identical to
    issuing the requests one at a time — batching is an execution
    strategy, never a semantic change.
    """

    #: Associativity if known to the experimenter, else None (must be inferred).
    ways: int | None = None

    @abstractmethod
    def query(
        self, requests: Sequence[tuple[Sequence[int], Sequence[int]]]
    ) -> list[int]:
        """Miss counts for a batch of ``(setup, probe)`` requests, in order."""

    def provenance(self) -> str | None:
        """Stable identity of the measured substrate, or None.

        None means the oracle's answers are not a reproducible function
        of the request (noise, randomness).
        """
        return None


class MissCountOracle(OracleProtocol):
    """Oracle built on a scalar measurement primitive.

    Subclasses implement :meth:`count_misses` (one measurement) and may
    override :meth:`query` with a genuinely batched path; the default
    implementation loops, so every scalar-only oracle still satisfies
    the full protocol.
    """

    @abstractmethod
    def count_misses(self, setup: Sequence[int], probe: Sequence[int]) -> int:
        """Run ``setup`` then ``probe`` from a fresh state; count probe misses."""

    def query(
        self, requests: Sequence[tuple[Sequence[int], Sequence[int]]]
    ) -> list[int]:
        return [self.count_misses(setup, probe) for setup, probe in requests]

    #: Number of measurements performed (for the cost evaluation).
    measurements: int = 0
    #: Total accesses issued across all measurements.
    accesses: int = 0

    def reset_cost(self) -> None:
        """Zero the measurement cost counters."""
        self.measurements = 0
        self.accesses = 0

    def _note_measurement(self, setup_len: int, probe_len: int, misses: int) -> None:
        """Account one measurement: cost counters and metrics.

        Implementations call this once per :meth:`count_misses`; the
        rate is per measurement (not per simulated access), so the
        metrics bookkeeping stays off the simulation hot path.
        """
        self.measurements += 1
        self.accesses += setup_len + probe_len
        metrics = obs_metrics.DEFAULT
        metrics.incr("oracle.measurements")
        metrics.incr("oracle.accesses", setup_len + probe_len)
        metrics.observe("oracle.probe_misses", misses)


class SimulatedSetOracle(MissCountOracle):
    """Oracle over a single simulated cache set.

    Each measurement gets a freshly reset clone of the prototype policy,
    so measurements are independent, as on rebooted hardware.
    """

    def __init__(self, policy: ReplacementPolicy, expose_ways: bool = True) -> None:
        self._prototype = policy
        self.ways = policy.ways if expose_ways else None
        self.measurements = 0
        self.accesses = 0

    def provenance(self) -> str | None:
        identity = policy_provenance(self._prototype)
        return f"sim|{identity}" if identity is not None else None

    def count_misses(self, setup: Sequence[int], probe: Sequence[int]) -> int:
        # Compiled fast path: same measurement as the interpreted loop
        # below (bit-identical by the kernel's equivalence suite), taken
        # whenever the policy has an automaton.
        compiled = kernels.compiled_for(self._prototype)
        if compiled is not None:
            try:
                misses = kernels.count_misses_kernel(compiled, setup, probe)
            except KernelUnsupported:
                kernels.mark_unsupported(self._prototype)
            else:
                self._note_measurement(len(setup), len(probe), misses)
                return misses
        policy = self._prototype.clone()
        policy.reset()
        cache_set = CacheSet(policy.ways, policy)
        for block in setup:
            cache_set.access(block)
        misses = 0
        for block in probe:
            if not cache_set.access(block).hit:
                misses += 1
        self._note_measurement(len(setup), len(probe), misses)
        return misses

    def query(
        self, requests: Sequence[tuple[Sequence[int], Sequence[int]]]
    ) -> list[int]:
        """Answer many ``(setup, probe)`` measurements in order.

        On the compiled fast path the batch is first deduplicated —
        identical requests (by :meth:`CachingOracle.memo_key`) are
        measured once and fanned back out, since a deterministic set
        answers them identically — and the unique requests run through
        one automaton in a single engine call
        (:func:`repro.kernels.count_misses_batch`).  Measurement
        results and per-measurement cost accounting (``measurements``,
        ``accesses``, ``oracle.*`` metrics) are bit-identical
        to looping over :meth:`count_misses` — every *logical*
        measurement is accounted, duplicates included; only the executed
        ``kernel.*`` work shrinks.
        """
        requests = list(requests)
        compiled = kernels.compiled_for(self._prototype) if len(requests) > 1 else None
        if compiled is not None:
            keys = [
                CachingOracle.memo_key(setup, probe)
                for setup, probe in requests
            ]
            position: dict[tuple, int] = {}
            unique: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
            for key in keys:
                if key not in position:
                    position[key] = len(unique)
                    unique.append(key)
            try:
                measured = kernels.count_misses_batch(compiled, unique)
            except KernelUnsupported:
                kernels.mark_unsupported(self._prototype)
            else:
                counts = [measured[position[key]] for key in keys]
                for (setup, probe), misses in zip(requests, counts):
                    self._note_measurement(len(setup), len(probe), misses)
                return counts
        return [self.count_misses(setup, probe) for setup, probe in requests]


class VotingOracle(MissCountOracle):
    """Repeated-measurement wrapper that makes a noisy oracle reliable.

    Repeats every measurement ``repetitions`` times and aggregates:

    * ``"majority"`` (default) — the most common count.  Right when noise
      is rare per measurement (short probes).
    * ``"min"`` — the smallest count.  Right when noise is strictly
      additive (spurious events only ever *add* miss counts, which is how
      performance-counter pollution behaves), and the best choice for
      longer probes where a perfectly clean run is the rarity.
    * ``"median"`` — robust middle ground for symmetric disturbances.

    Experiment E6 quantifies the difference.
    """

    AGGREGATES = ("majority", "min", "median")

    def __init__(
        self, inner: MissCountOracle, repetitions: int = 5, aggregate: str = "majority"
    ) -> None:
        if repetitions < 1:
            raise MeasurementError("repetitions must be >= 1")
        if aggregate not in self.AGGREGATES:
            raise MeasurementError(
                f"unknown aggregate {aggregate!r}; known: {self.AGGREGATES}"
            )
        self._inner = inner
        self.repetitions = repetitions
        self.aggregate = aggregate
        self.ways = inner.ways

    def provenance(self) -> str | None:
        inner = self._inner.provenance()
        if inner is None:
            return None
        return f"vote[{self.aggregate}x{self.repetitions}]|{inner}"

    def _note_vote(self, counts: list[int], result: int) -> None:
        """Per-request vote bookkeeping, shared by scalar and batch paths."""
        disagreements = sum(1 for count in counts if count != result)
        if disagreements:
            obs_metrics.DEFAULT.incr("oracle.vote_disagreements", disagreements)

    def count_misses(self, setup: Sequence[int], probe: Sequence[int]) -> int:
        if self.aggregate == "majority":
            # Short-circuit: once one count holds a strict majority
            # (floor(reps/2)+1 votes, the ceil(reps/2) threshold for the
            # odd repetition counts used in practice), no other count can
            # catch up or tie, so the remaining repetitions cannot change
            # the vote and are skipped.  min/median need every sample.
            decisive = self.repetitions // 2 + 1
            tally: Counter[int] = Counter()
            counts = []
            result: int | None = None
            for _ in range(self.repetitions):
                count = self._inner.count_misses(setup, probe)
                counts.append(count)
                tally[count] += 1
                if tally[count] >= decisive:
                    result = count
                    break
            if result is None:
                result = tally.most_common(1)[0][0]
        else:
            counts = [
                self._inner.count_misses(setup, probe)
                for _ in range(self.repetitions)
            ]
            if self.aggregate == "min":
                result = min(counts)
            else:
                result = sorted(counts)[len(counts) // 2]
        self._note_vote(counts, result)
        return result

    def query(
        self, requests: Sequence[tuple[Sequence[int], Sequence[int]]]
    ) -> list[int]:
        """Batched voting: whole repetition rounds ride the inner batch path.

        ``majority`` proceeds in rounds — one inner :meth:`query` over
        the still-undecided requests per round — so each request
        consumes exactly as many inner measurements as the scalar
        short-circuit would (a request decided in round *k* took *k*
        samples).  ``min``/``median`` flatten to ``repetitions``
        consecutive copies per request, matching the scalar loop's
        measurement stream order exactly.  Against a deterministic
        inner oracle (the only kind with a real batch fast path),
        results and per-request sample counts are bit-identical to
        looping over :meth:`count_misses`; against a noisy oracle the
        *interleaving* of noise draws differs between the two shapes,
        as it would between any two measurement schedules.
        """
        requests = list(requests)
        if not requests:
            return []
        if self.aggregate == "majority":
            decisive = self.repetitions // 2 + 1
            tallies: list[Counter[int]] = [Counter() for _ in requests]
            counts_per: list[list[int]] = [[] for _ in requests]
            results: list[int | None] = [None] * len(requests)
            undecided = list(range(len(requests)))
            for _ in range(self.repetitions):
                if not undecided:
                    break
                measured = self._inner.query([requests[i] for i in undecided])
                still: list[int] = []
                for index, count in zip(undecided, measured):
                    counts_per[index].append(count)
                    tallies[index][count] += 1
                    if tallies[index][count] >= decisive:
                        results[index] = count
                    else:
                        still.append(index)
                undecided = still
            for index in range(len(requests)):
                if results[index] is None:
                    results[index] = tallies[index].most_common(1)[0][0]
        else:
            flat: list[tuple[Sequence[int], Sequence[int]]] = []
            for request in requests:
                flat.extend([request] * self.repetitions)
            measured = self._inner.query(flat)
            counts_per = [
                measured[i * self.repetitions : (i + 1) * self.repetitions]
                for i in range(len(requests))
            ]
            if self.aggregate == "min":
                results = [min(counts) for counts in counts_per]
            else:
                results = [
                    sorted(counts)[len(counts) // 2] for counts in counts_per
                ]
        for counts, result in zip(counts_per, results):
            self._note_vote(counts, result)
        return list(results)

    @property
    def measurements(self) -> int:  # type: ignore[override]
        return self._inner.measurements

    @measurements.setter
    def measurements(self, value: int) -> None:
        # The base class assigns this attribute in __init__; delegate.
        self._inner.measurements = value

    @property
    def accesses(self) -> int:  # type: ignore[override]
        return self._inner.accesses

    @accesses.setter
    def accesses(self, value: int) -> None:
        self._inner.accesses = value

    def reset_cost(self) -> None:
        self._inner.reset_cost()


class CachingOracle(MissCountOracle):
    """Memoizing wrapper: identical measurements are answered once.

    Inference and the E7 ablations re-issue many structurally identical
    ``(setup, probe)`` measurements (the establishment prefix is shared
    by every position measurement, verification windows replay prefixes).
    Against a *deterministic* oracle the answer cannot change, so it is
    cached on the exact sequence pair and served back for free — cached
    answers perform no inner measurement and therefore do not advance the
    ``measurements``/``accesses`` cost counters, which is the point.

    Do **not** wrap a noisy oracle directly: caching freezes the first
    noisy sample.  Put the :class:`VotingOracle` *inside* the cache
    (``CachingOracle(VotingOracle(noisy))``) so denoised values are what
    gets memoized.
    """

    def __init__(self, inner: MissCountOracle) -> None:
        self._inner = inner
        self.ways = inner.ways
        self._cache: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        #: Measurements answered from the cache / passed to the inner oracle.
        self.cache_hits = 0
        self.cache_misses = 0

    def provenance(self) -> str | None:
        # Pure memoization: measurably identical to the inner oracle.
        return self._inner.provenance()

    @staticmethod
    def memo_key(
        setup: Sequence[int], probe: Sequence[int]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The memo key of one measurement: a *nested* pair of tuples.

        The split matters as much as the contents: ``([1], [2, 3])`` and
        ``([1, 2], [3])`` replay the same concatenated accesses but count
        different misses, so the key must never flatten the pair into one
        sequence (or join it with any in-band separator an id could
        collide with).  Every cache path keys through here so the
        invariant lives in one place.
        """
        return (tuple(setup), tuple(probe))

    def count_misses(self, setup: Sequence[int], probe: Sequence[int]) -> int:
        key = self.memo_key(setup, probe)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            obs_metrics.DEFAULT.incr("oracle.cache_hits")
            return cached
        self.cache_misses += 1
        obs_metrics.DEFAULT.incr("oracle.cache_misses")
        result = self._inner.count_misses(setup, probe)
        self._cache[key] = result
        return result

    def query(
        self, requests: Sequence[tuple[Sequence[int], Sequence[int]]]
    ) -> list[int]:
        """Answer a batch of ``(setup, probe)`` requests in order.

        Duplicates within the batch are measured once (later occurrences
        are cache hits, exactly as in the sequential loop), and the
        deduplicated misses are dispatched through the inner oracle's
        own :meth:`~OracleProtocol.query` — for a
        :class:`SimulatedSetOracle` that is one batched kernel call for
        the whole list.  Results and hit/miss accounting are
        bit-identical to looping over :meth:`count_misses`.
        """
        keys = [self.memo_key(setup, probe) for setup, probe in requests]
        pending: set[tuple] = set()
        to_measure: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        hits = 0
        for key in keys:
            if key in self._cache or key in pending:
                hits += 1
            else:
                pending.add(key)
                to_measure.append(key)
        self.cache_hits += hits
        self.cache_misses += len(to_measure)
        if hits:
            obs_metrics.DEFAULT.incr("oracle.cache_hits", hits)
        if to_measure:
            obs_metrics.DEFAULT.incr("oracle.cache_misses", len(to_measure))
            measured = self._inner.query(to_measure)
            for key, result in zip(to_measure, measured):
                self._cache[key] = result
        return [self._cache[key] for key in keys]

    def clear_cache(self) -> None:
        """Drop every memoized measurement and zero the hit/miss counters."""
        self._cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def measurements(self) -> int:  # type: ignore[override]
        return self._inner.measurements

    @measurements.setter
    def measurements(self, value: int) -> None:
        self._inner.measurements = value

    @property
    def accesses(self) -> int:  # type: ignore[override]
        return self._inner.accesses

    @accesses.setter
    def accesses(self, value: int) -> None:
        self._inner.accesses = value

    def reset_cost(self) -> None:
        self._inner.reset_cost()
