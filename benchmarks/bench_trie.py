"""BENCH — prefix-trie query planner versus the batched engine.

The acceptance benchmark for :mod:`repro.kernels.trie`: the same
compiled automaton answers the same batches twice, once with the
planner disabled (the scalar batched engine, which reuses only
consecutive identical setups) and once enabled, interleaved in one
process so CPU-clock drift cancels.  Two workloads:

* **E2-shaped stream** — the position-measurement family the paper's
  E2 experiment issues: every query replays the same thrash +
  establishment prefix, re-accesses one establishment block, appends a
  fresh-block eviction tail and probes one block.  Concatenated, the
  batch is a shallow, very wide radix trie (measured sharing ratio
  ~40x), and the acceptance gate (:data:`ACCEPTANCE_SPEEDUP`) lives here
  for both ``count_misses_batch`` and ``sequence_hits_batch``.  The stream is
  deterministically shuffled: arrival order is whatever the inference
  loop produced, so the batched engines' consecutive-identical-setup
  reuse cannot see the redundancy — the planner's sort can.
* **end-to-end inference** — a full ``PermutationInference.infer`` run
  against ``SimulatedSetOracle`` with the planner on versus off must
  produce *bit-identical* ``InferenceResult``s (the planner changes
  cost, never answers); engagement is asserted through
  ``kernel.trie.plans`` and the run must record zero
  ``kernel.trie.fallbacks``.

Results are bit-compared before any timing claim, land in
``benchmarks/results/bench_trie.txt``, and the acceptance run writes
the ``benchmarks/results/BENCH_trie.json`` trajectory point (an
ExperimentResult envelope, validated in CI by
``python -m repro.obs.result``).

Nothing here needs numpy: the planner and the batched engine it is
measured against both run on the scalar kernel.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from repro.core import InferenceConfig, PermutationInference, SimulatedSetOracle
from repro.kernels import (
    clear_compile_cache,
    compile_policy,
    count_misses_batch,
    sequence_hits_batch,
    trie_disabled,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.result import ExperimentResult
from repro.policies import make_policy
from repro.util.tables import format_table

RESULTS_DIR = Path(__file__).parent / "results"

WAYS = 8

#: The E2 position-measurement family: for every (re-accessed block,
#: eviction depth, probed block) triple one query replays the shared
#: establishment prefix.  ways^3 = 512 queries per round.
THRASH_FACTOR = 4

#: Scale multiplier: repeat the family with distinct fresh-block tails
#: so the batch is big enough for stable timing.
ROUNDS = 4

#: The planner must beat the batched engine it bypasses by this factor
#: on the E2-shaped stream, for both entry points.  Ten runs on a shared
#: 2-core x86-64 host (Python 3.11) measured 1.24-2.53x (median 1.72x)
#: for count_misses_batch and 1.52-1.92x (median 1.68x) for
#: sequence_hits_batch; the bar sits below every run and above 1.0x.
ACCEPTANCE_SPEEDUP = 1.2


def _skip_if_tracing():
    tracer = obs_trace.ACTIVE
    if tracer is not None:
        pytest.skip("an active tracer routes queries through the scalar oracle")


def _e2_stream(ways=WAYS, rounds=ROUNDS, seed=0):
    """The E2-shaped batch: position measurements at every depth.

    ``setup = thrash || e_0..e_{A-1} || e_hit || fresh_1..fresh_d``,
    ``probe = [e_target]`` — the exact concatenation shape inference's
    position-table stage produces, where everything up to the fresh
    tail is shared by the whole family.  Deterministically shuffled:
    measurements arrive in whatever order the inference loop asked, not
    conveniently grouped by identical setup.
    """
    thrash = [1000 + block for block in range(ways * THRASH_FACTOR)]
    establish = list(range(ways))
    queries = []
    for round_id in range(rounds):
        fresh_base = 2000 + 100 * round_id
        for hit in range(ways):
            base = thrash + establish + [hit]
            for depth in range(1, ways + 1):
                tail = [fresh_base + offset for offset in range(depth)]
                for target in range(ways):
                    queries.append((base + tail, [target]))
    random.Random(seed).shuffle(queries)
    return queries


def _best(fn, repeats):
    result, elapsed = None, float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = min(elapsed, time.perf_counter() - start)
    return result, elapsed


def _ab(fn, repeats=3):
    """Interleaved batched/planned best-of-N; asserts identical results."""
    fn()  # warm: automaton expansion
    with trie_disabled():
        batched_result, batched_seconds = _best(fn, repeats)
    planned_result, planned_seconds = _best(fn, repeats)
    assert planned_result == batched_result, "planner result diverged from batched"
    speedup = batched_seconds / planned_seconds if planned_seconds else 0.0
    return batched_seconds, planned_seconds, speedup


def test_bench_trie_speedup(save_result):
    """Acceptance: E2-shaped batches >= ACCEPTANCE_SPEEDUP, zero
    fallbacks, identical InferenceResults end to end."""
    _skip_if_tracing()
    clear_compile_cache()

    compiled = compile_policy(make_policy("plru", WAYS))
    queries = _e2_stream()
    total_accesses = sum(len(setup) + len(probe) for setup, probe in queries)

    count_batched, count_planned, count_speedup = _ab(
        lambda: count_misses_batch(compiled, queries)
    )
    seq_batched, seq_planned, seq_speedup = _ab(
        lambda: sequence_hits_batch(compiled, queries)
    )

    # End-to-end: the planner must be invisible in the answers.
    def infer():
        oracle = SimulatedSetOracle(make_policy("plru", WAYS))
        config = InferenceConfig(verify_sequences=10)
        return PermutationInference(oracle, config=config).infer()

    infer()  # warm
    with trie_disabled():
        (result_off, infer_off) = _best(infer, 2)
    (result_on, infer_on) = _best(infer, 2)
    assert result_on == result_off, "InferenceResult diverged under the planner"
    assert result_on.succeeded

    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    plans = counters.get("kernel.trie.plans", 0)
    fallbacks = counters.get("kernel.trie.fallbacks", 0)
    nodes = counters.get("kernel.trie.nodes", 0)
    reused = counters.get("kernel.trie.reused_accesses", 0)
    share_ratio = (nodes + reused) / nodes if nodes else 0.0

    rows = [
        ["stream/count_misses", f"{count_batched:.3f}", f"{count_planned:.3f}",
         f"{count_speedup:.2f}x"],
        ["stream/sequence_hits", f"{seq_batched:.3f}", f"{seq_planned:.3f}",
         f"{seq_speedup:.2f}x"],
        ["inference/infer", f"{infer_off:.3f}", f"{infer_on:.3f}",
         f"{(infer_off / infer_on) if infer_on else 0.0:.2f}x"],
    ]
    table = format_table(
        ["workload", "batched s", "planned s", "speedup"],
        rows,
        title=(
            f"BENCH trie: {len(queries)}-query E2 stream "
            f"({total_accesses} accesses, sharing {share_ratio:.1f}x); "
            f"plans={plans} fallbacks={fallbacks}"
        ),
    )

    data = {
        "stream": {
            "queries": len(queries),
            "total_accesses": total_accesses,
            "share_ratio": share_ratio,
            "count_misses": {
                "batched_seconds": count_batched,
                "planned_seconds": count_planned,
                "speedup": count_speedup,
            },
            "sequence_hits": {
                "batched_seconds": seq_batched,
                "planned_seconds": seq_planned,
                "speedup": seq_speedup,
            },
        },
        "inference": {
            "batched_seconds": infer_off,
            "planned_seconds": infer_on,
            "identical_result": True,
        },
        "counters": {
            "kernel.trie.plans": plans,
            "kernel.trie.fallbacks": fallbacks,
            "kernel.trie.nodes": nodes,
            "kernel.trie.reused_accesses": reused,
        },
    }
    params = {
        "ways": WAYS,
        "thrash_factor": THRASH_FACTOR,
        "rounds": ROUNDS,
        "policy": "plru",
        "trie": True,
        "seed": 0,
    }
    save_result("bench_trie", table, data=data, params=params)

    point = ExperimentResult(
        name="bench_trie",
        params=json.loads(json.dumps(params, default=str)),
        data=json.loads(json.dumps(data, default=str)),
        metrics=obs_metrics.DEFAULT.snapshot(),
    )
    trajectory = RESULTS_DIR / "BENCH_trie.json"
    trajectory.write_text(point.to_json(indent=2) + "\n")
    print(f"[trajectory point saved to {trajectory}]")

    assert plans >= 1, "the planner never engaged on the E2 stream"
    assert fallbacks == 0, f"{fallbacks} batches fell back to the batched engines"
    assert count_speedup >= ACCEPTANCE_SPEEDUP, (
        f"planned count_misses_batch only {count_speedup:.2f}x over the "
        f"batched engine, below the {ACCEPTANCE_SPEEDUP}x acceptance bar"
    )
    assert seq_speedup >= ACCEPTANCE_SPEEDUP, (
        f"planned sequence_hits_batch only {seq_speedup:.2f}x over the "
        f"batched engine, below the {ACCEPTANCE_SPEEDUP}x acceptance bar"
    )
