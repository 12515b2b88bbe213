"""Measurement-based inference of permutation policies.

This is the paper's central algorithm.  Given only a
:class:`~repro.core.oracle.MissCountOracle` — "run this access sequence,
tell me how many misses the probe part suffered" — it reconstructs the
policy's permutation vectors:

1. **Associativity** (if unknown): the largest ``k`` for which accessing
   ``k`` distinct blocks twice costs exactly ``k`` misses.
2. **Establishment**: after a *thrash prefix* fills the set (cold-fill
   arrangements differ from steady state!), accessing fresh blocks
   ``e_0 .. e_{A-1}`` leaves ``e_j`` in position ``A-1-j`` — forced by the
   standard miss behaviour (evict last, insert first, shift).
3. **Position measurement**: a block in position ``p`` survives exactly
   ``A-1-p`` further misses, so its position is read off by evicting with
   fresh blocks and probing — linearly or by binary search (the E7
   ablation).
4. **Hit permutations**: establish, hit the block in position ``i``,
   measure everyone's new position; repeat for each ``i``.
5. **Verification**: random access sequences are measured and compared
   against the inferred spec's prediction.

If any stage is inconsistent (positions do not form a permutation, the
miss behaviour is not standard, or verification fails), the result
carries ``spec=None`` and a failure reason; callers fall back to
candidate-set identification (:mod:`repro.core.identify`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.oracle import MissCountOracle
from repro.core.permutation import standard_miss_perm
from repro.errors import InferenceError, KernelUnsupported
from repro.obs import metrics as obs_metrics
from repro.policies import PermutationPolicy, PermutationSpec
from repro.cache.set import CacheSet
from repro import kernels


def _phase(name: str):
    """Time one inference stage as ``infer.phase_seconds.<name>``."""
    return obs_metrics.DEFAULT.timer(f"infer.phase_seconds.{name}")


@dataclass
class InferenceConfig:
    """Tunable knobs of the inference procedure."""

    #: Position-measurement strategy: "linear" scans the miss depth,
    #: "binary" binary-searches it (fewer, longer measurements).
    strategy: str = "linear"
    #: Length of the thrash prefix in multiples of the associativity.
    thrash_factor: int = 2
    #: Number of random verification sequences.
    verify_sequences: int = 30
    #: Length of each verification sequence.
    verify_length: int = 60
    #: Measure verification sequences in windows of this many accesses
    #: (0 = one measurement per sequence).  Short windows keep each
    #: measurement's exposure to counter noise small, so repetition-based
    #: denoising works; the cost is more measurements.
    verify_window: int = 0
    #: Seed for verification sequence generation.
    seed: int = 0
    #: Upper bound used when the associativity must be inferred.
    max_ways: int = 64

    def __post_init__(self) -> None:
        if self.strategy not in ("linear", "binary"):
            raise InferenceError(f"unknown strategy {self.strategy!r}")


@dataclass
class InferenceResult:
    """Outcome of one inference run."""

    ways: int
    spec: PermutationSpec | None
    verified: bool
    measurements: int
    accesses: int
    failure_reason: str | None = None
    #: Raw measured position tables, for diagnostics: index i gives the
    #: positions of blocks e_0..e_{A-1} after a hit at position i.
    position_tables: list[list[int]] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        """True when a verified spec was produced."""
        return self.spec is not None and self.verified


class PermutationInference:
    """Reverse engineers one cache set through a miss-count oracle.

    Measurements are issued through the scalar ``count_misses`` wrapper
    of the :class:`~repro.core.oracle.OracleProtocol` surface on
    purpose: every stage is *adaptive* — each request (how deep to
    evict, whether to keep scanning) depends on the previous answer, so
    there is no batch to form and the early exits are what the paper's
    cost model counts.  Batching lives below the oracle (the kernel's
    batched engines), not here; the one exception is verification
    (:meth:`_verify`), whose windows are fixed up front.
    """

    def __init__(
        self,
        oracle: MissCountOracle,
        ways: int | None = None,
        config: InferenceConfig | None = None,
    ) -> None:
        self.oracle = oracle
        self.config = config if config is not None else InferenceConfig()
        self._ways = ways if ways is not None else oracle.ways

    # -- block id allocation ------------------------------------------------
    # Measurements are independent runs, so ids can be reused across
    # measurements; within one run the id spaces below never collide.
    def _prefix(self, ways: int) -> list[int]:
        return [10_000 + i for i in range(self.config.thrash_factor * ways)]

    @staticmethod
    def _establishment(ways: int) -> list[int]:
        return list(range(ways))

    @staticmethod
    def _fresh(ways: int, count: int) -> list[int]:
        return [20_000 + i for i in range(count)]

    # -- stage 1: associativity ----------------------------------------------
    def infer_associativity(self) -> int:
        """Return the largest k for which k blocks accessed twice cost k misses."""
        best = 0
        for k in range(1, self.config.max_ways + 1):
            blocks = list(range(k))
            misses = self.oracle.count_misses([], blocks + blocks)
            if misses == k:
                best = k
            elif best:
                break
        if best == 0:
            raise InferenceError("could not determine associativity")
        return best

    # -- stage 3: position measurement ----------------------------------------
    def _present_after(self, ways: int, tail: list[int], depth: int, block: int) -> bool:
        """Is ``block`` still cached after establishment + tail + depth misses?"""
        setup = self._prefix(ways) + self._establishment(ways) + tail + self._fresh(ways, depth)
        return self.oracle.count_misses(setup, [block]) == 0

    def _position_of(self, ways: int, tail: list[int], block: int) -> int:
        """Measure the position of ``block`` after establishment + tail.

        A block in position p survives exactly A-1-p further misses.
        """
        if self.config.strategy == "linear":
            survived = 0
            for depth in range(1, ways + 1):
                if not self._present_after(ways, tail, depth, block):
                    break
                survived = depth
            return ways - 1 - survived
        low, high = 0, ways  # invariant: survives `low`, does not survive `high`
        if not self._present_after(ways, tail, 0, block):
            return ways  # not resident at all (inconsistent state)
        while high - low > 1:
            mid = (low + high) // 2
            if self._present_after(ways, tail, mid, block):
                low = mid
            else:
                high = mid
        return ways - 1 - low

    def _position_table(self, ways: int, tail: list[int]) -> list[int] | None:
        """Positions of every establishment block after ``tail``.

        Returns None when the measured positions are not a permutation,
        i.e. the standard-miss permutation-policy assumption is violated.
        """
        positions = [self._position_of(ways, tail, block) for block in range(ways)]
        if sorted(positions) != list(range(ways)):
            return None
        return positions

    # -- the full pipeline -------------------------------------------------------
    def infer(self) -> InferenceResult:
        """Run all stages and return the (possibly failed) result."""
        self.oracle.reset_cost()
        obs_metrics.DEFAULT.incr("inference.runs")
        if self._ways is not None:
            ways = self._ways
        else:
            with _phase("associativity"):
                ways = self.infer_associativity()

        def result(spec, verified, reason=None, tables=()):
            succeeded = spec is not None and verified
            obs_metrics.DEFAULT.incr(
                "inference.succeeded" if succeeded else "inference.failed"
            )
            return InferenceResult(
                ways=ways,
                spec=spec,
                verified=verified,
                measurements=self.oracle.measurements,
                accesses=self.oracle.accesses,
                failure_reason=reason,
                position_tables=list(tables),
            )

        # Sanity-check the establishment arrangement: e_j must sit at
        # position A-1-j.  A mismatch means non-standard miss behaviour.
        with _phase("baseline"):
            baseline = self._position_table(ways, [])
        if baseline is None:
            return result(None, False, "baseline positions not a permutation")
        if baseline != [ways - 1 - j for j in range(ways)]:
            return result(None, False, "establishment arrangement is not standard-miss")

        # Measure each hit permutation.
        hit_perms: list[tuple[int, ...]] = []
        tables = []
        with _phase("hit-perms"):
            for position in range(ways):
                block_at_position = ways - 1 - position
                table = self._position_table(ways, [block_at_position])
                if table is None:
                    return result(
                        None,
                        False,
                        f"positions after hit at {position} not a permutation",
                        tables,
                    )
                tables.append(table)
                perm = [0] * ways
                for block, new_position in enumerate(table):
                    perm[ways - 1 - block] = new_position
                hit_perms.append(tuple(perm))

        spec = PermutationSpec(ways, tuple(hit_perms), standard_miss_perm(ways))
        with _phase("verify"):
            verified = self._verify(ways, spec)
        if not verified:
            return result(spec, False, "random-sequence verification failed", tables)
        return result(spec, True, None, tables)

    # -- stage 5: verification ------------------------------------------------------
    def _verify(self, ways: int, spec: PermutationSpec) -> bool:
        """Compare oracle miss counts against the spec's predictions.

        All verification sequences are generated first (same rng, same
        draw order as generating them one at a time — the rng feeds
        nothing else) and predicted in one batch, one kernel call for
        every sequence.
        Predictions are kernel work, not oracle cost, so the oracle's
        ``measurements``/``accesses`` accounting is unchanged by them.

        Measurements: against a *deterministic* oracle (``provenance()``
        is not None) every verification window is issued as one
        :meth:`~repro.core.oracle.OracleProtocol.query` batch, in the
        same request order as the sequential loop, with identical
        results and identical measurement cost when verification
        *passes* (the overwhelmingly common case; every window is
        measured either way).  On a *failing* verification the batch
        measures every window where the loop stopped at the first
        mismatch, trading a few extra measurements on a cold negative
        for the batched fast path on every positive.  Noisy oracles
        (provenance None) keep the sequential first-mismatch loop so a
        failure costs as little hardware time as before.
        """
        rng = random.Random(self.config.seed)
        establishment = self._establishment(ways)
        probes: list[list[int]] = []
        for _ in range(self.config.verify_sequences):
            probe: list[int] = []
            next_fresh = 30_000
            for _ in range(self.config.verify_length):
                if rng.random() < 0.35:
                    probe.append(next_fresh)
                    next_fresh += 1
                else:
                    pool = establishment + probe[-ways:]
                    probe.append(rng.choice(pool))
            probes.append(probe)
        setup = self._prefix(ways) + establishment
        # One simulation pass per sequence predicts every window at
        # once: the prediction for window [start, end) is the difference
        # of cumulative miss counts, identical (by determinism) to
        # simulating each window afresh from the established state but
        # costing O(len(probe)) instead of O(len(probe)^2 / window) work.
        cumulatives = self._predict_cumulative_batch(
            ways, spec, establishment, probes
        )
        if self.oracle.provenance() is not None:
            requests: list[tuple[list[int], list[int]]] = []
            predicted: list[int] = []
            for probe, cumulative in zip(probes, cumulatives):
                window = self.config.verify_window or len(probe)
                for start in range(0, len(probe), window):
                    end = min(start + window, len(probe))
                    requests.append((setup + probe[:start], probe[start:end]))
                    predicted.append(cumulative[end] - cumulative[start])
            if not requests:
                return True
            measured = self.oracle.query(requests)
            return measured == predicted
        for probe, cumulative in zip(probes, cumulatives):
            window = self.config.verify_window or len(probe)
            for start in range(0, len(probe), window):
                end = min(start + window, len(probe))
                measured = self.oracle.count_misses(
                    setup + probe[:start], probe[start:end]
                )
                if measured != cumulative[end] - cumulative[start]:
                    return False
        return True

    @staticmethod
    def _predict_cumulative(
        ways: int, spec: PermutationSpec, establishment: list[int], probe: list[int]
    ) -> list[int]:
        """Cumulative predicted misses: ``result[i]`` covers ``probe[:i]``.

        One pass over the probe (kernel
        :func:`~repro.kernels.sequence_hits_preloaded`, interpreted when
        the spec's automaton blew its budget) predicts every
        verification window.
        """
        preload = [establishment[ways - 1 - p] for p in range(ways)]
        flags: tuple[bool, ...] | None = None
        compiled = kernels.compiled_for_spec(spec)
        if compiled is not None:
            try:
                flags = kernels.sequence_hits_preloaded(compiled, preload, probe)
            except KernelUnsupported:
                kernels.mark_spec_unsupported(spec)
        if flags is None:
            cache_set = CacheSet(ways, PermutationPolicy(ways, spec))
            cache_set.preload(preload)
            flags = tuple(cache_set.access(block).hit for block in probe)
        cumulative = [0]
        misses = 0
        for hit in flags:
            if not hit:
                misses += 1
            cumulative.append(misses)
        return cumulative

    @classmethod
    def _predict_cumulative_batch(
        cls,
        ways: int,
        spec: PermutationSpec,
        establishment: list[int],
        probes: list[list[int]],
    ) -> list[list[int]]:
        """Cumulative predicted misses for many probes from one state.

        Every probe starts from the same established state, so the batch
        maps onto :func:`~repro.kernels.sequence_hits_preloaded_batch`
        (one kernel call for the whole batch).  Per-probe
        results are bit-identical to :meth:`_predict_cumulative`.
        """
        preload = [establishment[ways - 1 - p] for p in range(ways)]
        flags_list: list[tuple[bool, ...]] | None = None
        compiled = kernels.compiled_for_spec(spec) if len(probes) > 1 else None
        if compiled is not None:
            try:
                flags_list = kernels.sequence_hits_preloaded_batch(
                    compiled, preload, probes
                )
            except KernelUnsupported:
                kernels.mark_spec_unsupported(spec)
        if flags_list is None:
            return [
                cls._predict_cumulative(ways, spec, establishment, probe)
                for probe in probes
            ]
        cumulatives = []
        for flags in flags_list:
            cumulative = [0]
            misses = 0
            for hit in flags:
                if not hit:
                    misses += 1
                cumulative.append(misses)
            cumulatives.append(cumulative)
        return cumulatives
