"""Prefix-trie query planner tests.

Four concerns, mirroring the contract in :mod:`repro.kernels.trie`:

* **Equivalence** — the planner is bit-identical to the batched
  engines for miss counts and outcome lists, over random batches and the
  awkward shapes: empty setups/probes, duplicate queries, single-query
  batches, and the no-numpy leg, whichever way the vector switch is
  set.  It expands automata lazily, like the scalar engine, never all
  at once.
* **Counters** — a planned batch still satisfies ``kernel.accesses ==
  kernel.hits + kernel.misses``, and the relaxed parity contract holds:
  ``kernel.accesses + kernel.trie.reused_accesses`` equals the accesses
  a per-query run would have executed.  ``kernel.trie.plans`` / ``nodes``
  / ``fallbacks`` record engagement.
* **Gates** — small batches are silently declined, low-sharing batches
  are declined *and counted* as fallbacks, and the process-wide switch
  (``set_trie_enabled`` / ``trie_disabled`` / CLI ``--no-trie``) forces
  the batched engines.
* **Integration** — ``SimulatedSetOracle.query`` dedups without
  perturbing ``oracle.*`` accounting, and a full inference run produces
  an identical :class:`InferenceResult` with the planner on or off.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InferenceConfig, PermutationInference, SimulatedSetOracle
from repro.kernels import (
    clear_compile_cache,
    compile_policy,
    compiled_for,
    count_misses_batch,
    count_misses_kernel,
    sequence_hits,
    sequence_hits_batch,
    set_trie_enabled,
    trie,
    trie_allowed,
    trie_disabled,
    trie_enabled,
    vector,
)
from repro.obs import metrics as obs_metrics
from repro.policies import LruPolicy, PlruPolicy, make_policy
from tests.conftest import VECTOR_SWITCH, all_deterministic_policies, vector_switch

WAYS = 4

#: A batch the default gates accept: 9 queries (>= MIN_QUERIES) whose
#: duplicates collapse to 3 distinct sequences, sharing ratio ~3.6.
SHARED_QUERIES = (
    [(list(range(WAYS)), [5, 0, 6, 1])] * 5
    + [([7, 8], [7, 9, 8])] * 3
    + [([], [1, 1, 2])]
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_compile_cache()
    yield
    clear_compile_cache()


@contextmanager
def planner_forced():
    """Open every gate so the planner takes even shareless batches."""
    saved = (trie.MIN_QUERIES, trie.MIN_SHARE_RATIO)
    trie.MIN_QUERIES = 1
    trie.MIN_SHARE_RATIO = 0.0
    try:
        yield
    finally:
        trie.MIN_QUERIES, trie.MIN_SHARE_RATIO = saved


policy_names = st.sampled_from([name for name, _ in all_deterministic_policies(WAYS)])
# A small block alphabet makes shared prefixes (and duplicate queries)
# common, so sorted-LCP sharing is actually exercised.
blocks = st.lists(st.integers(min_value=0, max_value=7), max_size=24)
query_lists = st.lists(st.tuples(blocks, blocks), min_size=1, max_size=23)


def build(name, ways=WAYS):
    if name == "permutation":
        from repro.policies import lru_spec

        return make_policy(name, ways, spec=lru_spec(ways))
    return make_policy(name, ways)


# -- equivalence -------------------------------------------------------------

@pytest.mark.parametrize("switch", VECTOR_SWITCH)
@given(name=policy_names, queries=query_lists)
@settings(max_examples=60, deadline=None)
def test_planner_counts_bit_identical(switch, name, queries):
    """Planned miss counts == batched-engine miss counts, and the
    planner attaches no vector tables, whatever the vector switch."""
    compiled = compile_policy(build(name))
    tables = compiled.vector_tables
    with trie_disabled():
        expected = count_misses_batch(compiled, queries)
    with vector_switch(switch), planner_forced():
        assert count_misses_batch(compiled, queries) == expected
    assert compiled.vector_tables is tables


@pytest.mark.parametrize("switch", VECTOR_SWITCH)
@given(name=policy_names, queries=query_lists)
@settings(max_examples=60, deadline=None)
def test_planner_outcomes_bit_identical(switch, name, queries):
    """Planned hit/miss outcome lists == batched-engine outcomes."""
    compiled = compile_policy(build(name))
    tables = compiled.vector_tables
    with trie_disabled():
        expected = sequence_hits_batch(compiled, queries)
    with vector_switch(switch), planner_forced():
        assert sequence_hits_batch(compiled, queries) == expected
    assert compiled.vector_tables is tables


@pytest.mark.parametrize("switch", VECTOR_SWITCH)
def test_planner_edge_shapes(switch):
    """Empty setups/probes, duplicates, single-query batches."""
    compiled = compile_policy(LruPolicy(WAYS))
    cases = [
        [([], [])],                              # single, fully empty
        [([], []), ([], [])],                    # all-empty batch
        [([], [1, 2, 1])],                       # single-query batch
        [([1, 2], [])],                          # empty probe
        [([1, 2], [3, 1])] * 7,                  # pure duplicates
        [([], []), ([], []), ([1], [1])],        # empties then content
        [([1, 2, 3], [4]), ([1, 2], [3, 4]), ([1], [2, 3, 4])],  # nested
        [([i], [i, i + 1]) for i in range(17)],  # no sharing at all
    ]
    for queries in cases:
        expected = [
            sequence_hits(compiled, setup, probe) for setup, probe in queries
        ]
        with vector_switch(switch), planner_forced():
            assert sequence_hits_batch(compiled, queries) == expected
            counts = count_misses_batch(compiled, queries)
        assert counts == [len(h) - sum(h) for h in expected]
    assert compiled.vector_tables is None


def test_planner_engines_agree_on_huge_ids():
    """Block ids beyond int64 plan and replay like any other id."""
    compiled = compile_policy(LruPolicy(WAYS))
    big = 1 << 70
    queries = [([big], [big, 1])] * 5 + [([big], [big, 2])] * 4
    expected = [sequence_hits(compiled, s, p) for s, p in queries]
    assert sequence_hits_batch(compiled, queries) == expected


# -- counters ----------------------------------------------------------------

def test_planner_counter_reconciliation():
    """Relaxed parity: executed + reused == per-query accesses."""
    compiled = compile_policy(LruPolicy(WAYS))
    total = sum(len(s) + len(p) for s, p in SHARED_QUERIES)
    obs_metrics.DEFAULT.reset()
    counts = count_misses_batch(compiled, SHARED_QUERIES)
    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    assert counters["kernel.trie.plans"] == 1
    assert counters["kernel.trie.nodes"] == counters["kernel.accesses"]
    assert counters["kernel.accesses"] < total  # sharing actually reused work
    assert counters["kernel.accesses"] + counters["kernel.trie.reused_accesses"] == total
    assert counters["kernel.accesses"] == counters["kernel.hits"] + counters["kernel.misses"]
    assert "kernel.trie.fallbacks" not in counters

    # The per-query scalar reference executes every single access.
    obs_metrics.DEFAULT.reset()
    with trie_disabled():
        expected = [
            count_misses_kernel(compiled, setup, probe)
            for setup, probe in SHARED_QUERIES
        ]
    reference = obs_metrics.DEFAULT.snapshot()["counters"]
    assert reference["kernel.accesses"] == total
    assert counts == expected


def test_batch_never_forces_full_expansion():
    """A wide batch on a large automaton stays lazy: no expand_all().

    Expanding every reachable qlru state costs far more than the states
    a batch reaches, so neither the planner nor the batched engines may
    build full tables (a non-None ``vector_tables``) on the way.
    """
    rng = random.Random(0)
    setup = [10_000 + i for i in range(16)] + list(range(8))
    queries = [
        (setup, [rng.randrange(16) for _ in range(8)]) for _ in range(256)
    ]
    compiled = compiled_for(make_policy("qlru_h00_m2", 8))
    obs_metrics.DEFAULT.reset()
    planned = sequence_hits_batch(compiled, queries)
    assert obs_metrics.DEFAULT.snapshot()["counters"]["kernel.trie.plans"] == 1
    assert compiled.vector_tables is None
    with trie_disabled():
        assert sequence_hits_batch(compiled, queries) == planned
    assert compiled.vector_tables is None


def test_small_batches_silently_decline():
    """Below MIN_QUERIES the planner refuses without a fallback count."""
    compiled = compile_policy(LruPolicy(WAYS))
    queries = SHARED_QUERIES[: trie.MIN_QUERIES - 1]
    obs_metrics.DEFAULT.reset()
    assert trie.plan_miss_counts(compiled, queries) is None
    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    assert "kernel.trie.plans" not in counters
    assert "kernel.trie.fallbacks" not in counters


def test_low_sharing_batches_count_a_fallback(monkeypatch):
    """A shareless batch is declined and recorded as kernel.trie.fallbacks."""
    compiled = compile_policy(LruPolicy(WAYS))
    monkeypatch.setattr(trie, "MIN_QUERIES", 1)
    queries = [([], [i]) for i in range(8)]  # ratio exactly 1.0 < 1.2
    obs_metrics.DEFAULT.reset()
    assert trie.plan_miss_counts(compiled, queries) is None
    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    assert counters["kernel.trie.fallbacks"] == 1
    assert "kernel.trie.plans" not in counters
    # The batched engines still answer the batch, bit-identically.
    assert count_misses_batch(compiled, queries) == [
        count_misses_kernel(compiled, setup, probe) for setup, probe in queries
    ]


def test_all_empty_batch_is_not_planned():
    compiled = compile_policy(LruPolicy(WAYS))
    obs_metrics.DEFAULT.reset()
    assert trie.plan_miss_counts(compiled, [([], [])] * 9) is None
    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    assert "kernel.trie.fallbacks" not in counters


# -- no-numpy fallback -------------------------------------------------------

class TestNoNumpyPlanner:
    """With numpy gone the planner runs exactly as with it."""

    @pytest.fixture(autouse=True)
    def _without_numpy(self, monkeypatch):
        monkeypatch.setattr(vector, "_np", None)

    def test_planner_still_engages_and_matches(self):
        compiled = compile_policy(LruPolicy(WAYS))
        assert trie_allowed()  # no numpy requirement, unlike the vector engine
        obs_metrics.DEFAULT.reset()
        planned = count_misses_batch(compiled, SHARED_QUERIES)
        counters = obs_metrics.DEFAULT.snapshot()["counters"]
        assert counters["kernel.trie.plans"] == 1
        with trie_disabled():
            assert planned == count_misses_batch(compiled, SHARED_QUERIES)

    def test_outcomes_match(self):
        compiled = compile_policy(PlruPolicy(WAYS))
        expected = [
            sequence_hits(compiled, setup, probe)
            for setup, probe in SHARED_QUERIES
        ]
        assert sequence_hits_batch(compiled, SHARED_QUERIES) == expected


# -- switches ----------------------------------------------------------------

def test_trie_enable_disable_switch():
    assert trie_enabled()
    set_trie_enabled(False)
    try:
        assert not trie_enabled()
        assert not trie_allowed()
    finally:
        set_trie_enabled(True)
    with trie_disabled():
        assert not trie_enabled()
        compiled = compile_policy(LruPolicy(WAYS))
        assert trie.plan_miss_counts(compiled, SHARED_QUERIES) is None
    assert trie_enabled()


def test_cli_trie_flag_parses():
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["evaluate", "--policies", "lru"])
    assert args.trie is True
    args = parser.parse_args(["evaluate", "--policies", "lru", "--no-trie"])
    assert args.trie is False


# -- integration -------------------------------------------------------------

def test_oracle_query_dedup_preserves_accounting():
    """Duplicate requests are measured once by the kernel, yet oracle.*
    counters (and the oracle's own cost fields) stay per-request."""
    requests = [([1, 2], [1, 3])] * 6 + [([], [4])] * 3
    oracle = SimulatedSetOracle(LruPolicy(WAYS))
    obs_metrics.DEFAULT.reset()
    counts = oracle.query(requests)
    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    assert counters["oracle.measurements"] == len(requests)
    assert counters["oracle.accesses"] == sum(
        len(setup) + len(probe) for setup, probe in requests
    )
    assert oracle.measurements == len(requests)
    assert counts == [oracle.count_misses(setup, probe) for setup, probe in requests]


def test_inference_result_invariant_under_planner():
    """The planner changes cost, never answers: bit-identical results.

    The policy is registry-built so the oracle has a provenance (it is
    deterministic), which is what lets ``_verify`` batch its windows
    through ``oracle.query`` and reach the planner.
    """
    def run():
        oracle = SimulatedSetOracle(make_policy("plru", 8))
        config = InferenceConfig(verify_sequences=10)
        return PermutationInference(oracle, config=config).infer()

    obs_metrics.DEFAULT.reset()
    with_planner = run()
    counters = obs_metrics.DEFAULT.snapshot()["counters"]
    assert counters.get("kernel.trie.plans", 0) >= 1
    with trie_disabled():
        without_planner = run()
    assert with_planner == without_planner
    assert with_planner.succeeded
