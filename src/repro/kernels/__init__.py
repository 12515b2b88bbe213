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
  otherwise.

Routing rules (:func:`kernel_enabled`, enforced by the callers in
:mod:`repro.core.oracle`, :mod:`repro.core.inference`,
:mod:`repro.core.distinguish`, :mod:`repro.eval.missratio` and
:mod:`repro.runner.cells`):

* the kernel is used automatically when it is enabled (the default; see
  :func:`set_kernel_enabled` and the CLI's ``--no-kernel``); its engines
  flush aggregate ``kernel.*`` counters into the metrics store per call;
* randomized/adaptive policies raise
  :class:`~repro.errors.KernelUnsupported` at compile time and fall back
  to the interpreter (whole-cache trace simulation additionally has a
  "direct mode" that drives the real policy objects through an inlined
  loop, still bit-identical);
* a policy whose reachable state space exceeds the compile budget falls
  back the same way, even if that is only discovered mid-run; each
  such mid-run blow counts ``kernel.budget_fallbacks``, and a frozen
  store artifact that meets an unexpanded entry mid-run counts
  ``kernel.store.errors`` instead.
"""

from __future__ import annotations

from contextlib import contextmanager

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
    simulate_trace_direct,
    simulate_trace_kernel,
    try_simulate_trace,
)
from repro.kernels import store, vector
from repro.kernels.vector import (
    numpy_available,
    set_vector_enabled,
    vector_disabled,
    vector_enabled,
)

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
    "simulate_trace_direct",
    "simulate_trace_kernel",
    "try_simulate_trace",
    "kernel_enabled",
    "set_kernel_enabled",
    "kernel_disabled",
    "numpy_available",
    "vector_enabled",
    "set_vector_enabled",
    "vector_disabled",
    "trie_enabled",
]

#: Process-wide switch.  Worker processes forked by the runner inherit
#: the parent's setting, so ``--no-kernel`` disables the fast path in
#: parallel grids too.
_ENABLED = True


def kernel_enabled() -> bool:
    """True when the compiled fast path may be used."""
    return _ENABLED


def set_kernel_enabled(enabled: bool) -> None:
    """Globally enable or disable the compiled fast path."""
    global _ENABLED
    _ENABLED = bool(enabled)


@contextmanager
def kernel_disabled():
    """Temporarily force the interpreted path (tests, A/B benchmarks)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def trie_enabled() -> bool:
    """Always False: there is no prefix-trie batch planner.

    Kept only because the repository benchmark (``perfbench/bench.py``)
    stamps this value into its environment record; it goes when that
    stamp does.
    """
    return False
