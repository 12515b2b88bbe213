"""Compiled policy-automaton simulation kernel.

The interpreter (:mod:`repro.cache`) simulates one access as a chain of
method calls and dataclass constructions.  This package compiles a
deterministic replacement policy into flat integer transition tables
(:mod:`repro.kernels.automaton`) and runs whole access sequences and
address traces as table lookups (:mod:`repro.kernels.engine`), producing
**bit-identical** miss counts, eviction orders and
:class:`~repro.cache.stats.CacheStats`.

One engine per simulation shape:

* single-set queries, one at a time or in batches, run on the scalar
  engine, which expands an automaton lazily; a batch replays each
  run of consecutive equal setups from one post-setup snapshot;
* whole-cache traces run all sets lock-step on the numpy engine
  (:mod:`repro.kernels.vector`) when numpy is installed, and on the
  scalar trace loop otherwise; ``random`` and ``dip``, which have no
  automaton, step lock-step there too, and run in direct mode
  otherwise;
* the simulated hardware's cache levels run their sets on
  :class:`~repro.kernels.automaton.AutomatonPolicy` state ids of one
  lazily grown automaton per policy and associativity in the process,
  which the hierarchy walk
  (:meth:`repro.cache.hierarchy.CacheHierarchy.access_all`) steps by
  table lookups; ``dip`` and ``random`` levels keep policy objects.

Routing rules (enforced by the callers in :mod:`repro.core.oracle`,
:mod:`repro.core.inference`, :mod:`repro.core.distinguish`,
:mod:`repro.eval.missratio` and :mod:`repro.runner.cells`):

* every policy with an automaton runs compiled; there is no switch, and
  the engines flush aggregate ``kernel.*`` counters into the metrics
  store per call;
* randomized/adaptive policies raise
  :class:`~repro.errors.KernelUnsupported` at compile time and fall back
  to the interpreter (whole-cache trace simulation instead runs them in
  "direct mode", which drives the real policy objects through an
  inlined loop, still bit-identical);
* a policy whose reachable state space exceeds the compile budget falls
  back the same way, even if that is only discovered mid-run (a cache
  set goes on with a real policy loaded from its state key); each
  such mid-run blow counts ``kernel.budget_fallbacks``, and a frozen
  store artifact that meets an unexpanded entry mid-run counts
  ``kernel.store.errors`` instead.
"""

from __future__ import annotations

from repro.errors import KernelUnsupported
from repro.kernels.automaton import (
    DEFAULT_BUDGET,
    CompiledPolicy,
    clear_compile_cache,
    compile_policy,
    compiled_for,
    compiled_for_factory,
    compiled_for_spec,
    mark_factory_unsupported,
    mark_spec_unsupported,
    mark_unsupported,
)
from repro.kernels.engine import (
    count_misses_batch,
    count_misses_kernel,
    count_misses_preloaded,
    sequence_hits,
    sequence_hits_batch,
    sequence_hits_preloaded,
    sequence_hits_preloaded_batch,
    simulate_sequence,
    simulate_trace_automata,
    simulate_trace_direct,
    simulate_trace_kernel,
    try_simulate_trace,
)
from repro.kernels import store, vector
from repro.kernels.vector import numpy_available

__all__ = [
    "DEFAULT_BUDGET",
    "CompiledPolicy",
    "KernelUnsupported",
    "compile_policy",
    "compiled_for",
    "compiled_for_factory",
    "compiled_for_spec",
    "mark_unsupported",
    "mark_factory_unsupported",
    "mark_spec_unsupported",
    "clear_compile_cache",
    "count_misses_batch",
    "count_misses_kernel",
    "count_misses_preloaded",
    "sequence_hits",
    "sequence_hits_batch",
    "sequence_hits_preloaded",
    "sequence_hits_preloaded_batch",
    "simulate_sequence",
    "store",
    "vector",
    "simulate_trace_automata",
    "simulate_trace_direct",
    "simulate_trace_kernel",
    "try_simulate_trace",
    "kernel_enabled",
    "numpy_available",
    "vector_enabled",
    "trie_enabled",
]

# The three read-only names below are kept only because the repository
# benchmark (``perfbench/bench.py``) stamps their values into its
# environment record; they go when that stamp does.

def kernel_enabled() -> bool:
    """Always True: every policy with an automaton runs compiled."""
    return True


#: True when numpy imports, so whole-trace runs of 64 or more sets may
#: step lock-step on :mod:`repro.kernels.vector`.
vector_enabled = numpy_available


def trie_enabled() -> bool:
    """Always False: there is no prefix-trie batch planner."""
    return False
