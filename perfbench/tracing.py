"""Layer-attributed tracing of the ``repro`` package, from outside it.

The traced run wraps the public entry points of each layer (module
functions and class methods) and records a span per call: name, start,
end and parent span.  Nothing under ``src/`` is edited; the wrappers are
installed by :func:`install` and removed by :meth:`Tracer.uninstall`.

A layer's self time is its spans' durations minus the parts their child
spans cover.  Call-granular entry points (an inference run, a
measurement, an eviction test, a kernel call) are kept as individual
spans; per-access entry points (a platform load, a hierarchy access, a
set access) run hundreds of thousands of times a pass, so their spans
are rolled up per parent span (call count, total and self seconds)
instead of kept one by one.  Every span carries the id of its root, the
benchmark operation it ran under, so the spans of one operation share an
identifier.

Counts that the program keeps itself are read from
``repro.obs.metrics.DEFAULT`` around each pass; a few more are taken at
the wrapped boundaries (requests per outermost oracle query, vote
samples, sets flushed per ``wbinvd``, distinguishing sequences found,
addresses generated).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.set import CacheSet
from repro.core import distinguish, evictionsets, identify, inference, oracle, report
from repro.eval import comparison, missratio
from repro.hardware.harness import HardwareSetOracle
from repro.hardware.platform import HardwarePlatform
from repro.kernels import automaton, engine, store, vector
from repro.obs import metrics as obs_metrics
from repro.runner import cells as runner_cells
from repro.runner import core as runner_core
from repro.workloads import generators, stackdist, synthetic
from repro.workloads.trace import Trace

#: The named layers, most specific prefix first.  A span belongs to the
#: first layer its name starts with; time outside all of them is "other".
LAYERS = (
    "core.inference",
    "core.identify",
    "core.distinguish",
    "core.oracle",
    "core.evictionsets",
    "hardware.harness",
    "hardware.platform",
    "cache.hierarchy",
    "cache.set",
    "kernels",
    "runner",
    "eval",
    "workloads",
)


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name.startswith(layer + "."):
            return layer
    return "other"


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: Open frames, innermost last: [span id, child seconds, root id, name].
        self.stack: list[list] = []
        #: Kept spans: (id, parent id, root id, name, start, end, self seconds).
        self.spans: list[tuple] = []
        #: Rolled-up spans: (parent id, name) -> [calls, seconds, self seconds].
        self.rollups: dict[tuple[int, str], list] = {}
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Counts taken at wrapped boundaries.
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------
    def wrap(self, name: str, fn, before=None, after=None):
        """A kept-span wrapper around ``fn``.

        ``before(args, kwargs)`` runs first and returns a token;
        ``after(token, args, kwargs, result)`` runs once the span closed,
        when ``fn`` returned.
        """
        stack, spans, ids = self.stack, self.spans, self._ids
        calls, self_s, clock = self.calls, self.self_s, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            parent = stack[-1] if stack else None
            span_id = next(ids)
            frame = [span_id, 0.0, parent[2] if parent else span_id, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                own = elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                calls[name] += 1
                self_s[name] += own
                spans.append(
                    (span_id, parent[0] if parent else 0, frame[2], name, start, end, own)
                )
            if after is not None:
                after(token, args, kwargs, result)
            return result

        return wrapper

    def wrap_rolled(self, name: str, fn):
        """A rolled-up wrapper for per-access entry points.

        Its frame reuses the nearest kept ancestor's id, so spans below
        it roll up under that ancestor too.
        """
        stack, rollups = self.stack, self.rollups
        calls, self_s, clock = self.calls, self.self_s, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [parent[0], 0.0, parent[2], name] if parent else [0, 0.0, 0, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                own = elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                calls[name] += 1
                self_s[name] += own
                key = (frame[0], name)
                entry = rollups.get(key)
                if entry is None:
                    rollups[key] = [1, elapsed, own]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += own

        return wrapper

    # -- patching ------------------------------------------------------------
    def patch_method(self, cls, attr: str, name: str, rolled=False, **hooks) -> None:
        original = cls.__dict__[attr]
        wrapped = self.wrap_rolled(name, original) if rolled else self.wrap(
            name, original, **hooks
        )
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, original))

    def patch_function(self, module, attr: str, name: str, rolled=False, **hooks) -> None:
        """Wrap a module function and every ``from ... import`` alias of it."""
        original = getattr(module, attr)
        wrapped = self.wrap_rolled(name, original) if rolled else self.wrap(
            name, original, **hooks
        )
        for loaded in list(sys.modules.values()):
            owner = getattr(loaded, "__name__", "") or ""
            if not owner.startswith(("repro", "perfbench")):
                continue
            namespace = vars(loaded)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapped
                    self._undo.append((loaded, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, type):
                setattr(owner, attr, original)
            else:
                vars(owner)[attr] = original
        self._undo.clear()

    # -- operation roots -----------------------------------------------------
    def operation(self, name: str, fn):
        """Run one benchmark operation as a root span."""
        return self.wrap(f"op.{name}", fn)()

    # -- reading -------------------------------------------------------------
    def layer_self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            totals[layer_of(name)] += seconds
        return totals

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, _, n, start, end, _ in self.spans if n == name]

    def write(self, path: Path) -> None:
        """Write every kept and rolled-up span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span_id, parent, root, name, start, end, own in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "root": root, "name": name,
                    "layer": layer_of(name), "start": start, "end": end,
                    "self_s": own,
                }) + "\n")
            for (parent, name), (count, seconds, own) in sorted(self.rollups.items()):
                handle.write(json.dumps({
                    "parent": parent, "name": name, "layer": layer_of(name),
                    "rolled_up": count, "seconds": seconds, "self_s": own,
                }) + "\n")


# -- boundary counts -----------------------------------------------------------

def _in_layer(tracer: Tracer, layer: str) -> bool:
    return any(frame[3].startswith(layer + ".") for frame in tracer.stack)


def _oracle_hooks(tracer: Tracer, batched: bool):
    """Requests per outermost oracle call (``query`` or ``count_misses``)."""

    def after(token, args, kwargs, result):
        if _in_layer(tracer, "core.oracle"):
            return
        tracer.counts["oracle.outer_calls"] += 1
        tracer.counts["oracle.outer_requests"] += len(result) if batched else 1

    return {"after": after}


def _vote_hooks(tracer: Tracer, batched: bool):
    """Inner samples per voted request, read from the measurement counter."""

    def before(args, kwargs):
        return obs_metrics.DEFAULT.counter("oracle.measurements")

    def after(token, args, kwargs, result):
        tracer.counts["vote.requests"] += len(result) if batched else 1
        tracer.counts["vote.samples"] += (
            obs_metrics.DEFAULT.counter("oracle.measurements") - token
        )

    return {"before": before, "after": after}


def _flush_hooks(tracer: Tracer):
    def after(token, args, kwargs, result):
        platform = args[0]
        tracer.counts["platform.flush_sets"] += sum(
            config.num_sets for config in platform.level_configs
        )

    return {"after": after}


def _search_hooks(tracer: Tracer):
    def after(token, args, kwargs, result):
        if result is not None:
            tracer.counts["distinguish.found"] += 1

    return {"after": after}


def _generation_hooks(tracer: Tracer):
    """Addresses generated, counted at the outermost generator call."""

    def after(token, args, kwargs, result):
        if _in_layer(tracer, "workloads"):
            return
        traces = result if isinstance(result, list) else [result]
        tracer.counts["workloads.addresses"] += sum(len(trace) for trace in traces)

    return {"after": after}


def install() -> Tracer:
    """Wrap every layer's entry points; return the recording tracer."""
    tracer = Tracer()
    method, function = tracer.patch_method, tracer.patch_function

    # core: the pipeline driver and inference, identification, search.
    function(report, "reverse_engineer", "core.inference.reverse_engineer")
    method(inference.PermutationInference, "infer", "core.inference.infer")
    method(identify.CandidateIdentification, "identify", "core.identify.identify")
    function(distinguish, "random_distinguishing_sequence", "core.distinguish.search",
             **_search_hooks(tracer))
    for name in ("response", "responses", "miss_count", "established_set"):
        function(distinguish, name, f"core.distinguish.{name}", rolled=True)

    # core.oracle: every oracle class's query and scalar primitive.
    for cls in (oracle.SimulatedSetOracle, oracle.CachingOracle):
        for attr, batched in (("query", True), ("count_misses", False)):
            method(cls, attr, f"core.oracle.{cls.__name__}.{attr}",
                   **_oracle_hooks(tracer, batched))
    for attr, batched in (("query", True), ("count_misses", False)):
        hooks = _oracle_hooks(tracer, batched)
        vote = _vote_hooks(tracer, batched)

        def after(token, args, kwargs, result, hooks=hooks, vote=vote):
            vote["after"](token, args, kwargs, result)
            hooks["after"](token, args, kwargs, result)

        method(oracle.VotingOracle, attr, f"core.oracle.VotingOracle.{attr}",
               before=vote["before"], after=after)
    # The inherited loop HardwareSetOracle answers batches with.
    method(oracle.MissCountOracle, "query", "core.oracle.MissCountOracle.query",
           **_oracle_hooks(tracer, True))

    # core.evictionsets
    function(evictionsets, "find_eviction_set", "core.evictionsets.find")
    method(evictionsets.PlatformEvictionTester, "evicts", "core.evictionsets.test")

    # hardware: the harness measurement and the platform primitives.
    method(HardwareSetOracle, "__init__", "hardware.harness.setup")
    method(HardwareSetOracle, "count_misses", "hardware.harness.measure",
           **_oracle_hooks(tracer, False))
    method(HardwarePlatform, "__init__", "hardware.platform.boot")
    method(HardwarePlatform, "wbinvd", "hardware.platform.wbinvd", **_flush_hooks(tracer))
    method(HardwarePlatform, "load", "hardware.platform.load", rolled=True)

    # cache: the interpreter (policy time counts inside cache.set).
    method(CacheHierarchy, "access", "cache.hierarchy.access", rolled=True)
    method(CacheSet, "access", "cache.set.access", rolled=True)

    # kernels: engines, automaton resolution, full expansion.
    for name in (
        "count_misses_kernel", "count_misses_batch", "count_misses_preloaded",
        "sequence_hits", "sequence_hits_batch", "sequence_hits_preloaded",
        "sequence_hits_preloaded_batch", "simulate_sequence", "try_simulate_trace",
        "simulate_trace_kernel", "simulate_trace_direct",
    ):
        function(engine, name, f"kernels.run.{name}", rolled=True)
    for module, name in (
        (automaton, "compiled_for"), (automaton, "compiled_for_factory"),
        (automaton, "compiled_for_spec"), (automaton, "compile_policy"),
        (store, "load"), (store, "save"), (store, "warm"),
    ):
        function(module, name, f"kernels.compile.{name}", rolled=True)
    function(vector, "ensure_tables", "kernels.expand.ensure_tables", rolled=True)

    # runner
    method(runner_core.ExperimentRunner, "map", "runner.map")
    function(runner_cells, "run_sim_cells", "runner.run_sim_cells")
    function(runner_cells, "simulate_cell", "runner.cell", rolled=True)

    # eval
    for name in ("miss_ratio_matrix", "cache_size_sweep", "simulate_trace", "miss_ratio"):
        function(missratio, name, f"eval.{name}")
    function(comparison, "agreement_matrix", "eval.agreement_matrix")
    # E8's runner cell: without it, serial replay loops read as runner time.
    function(comparison, "_replay_stream", "eval.replay_stream", rolled=True)

    # workloads: the suite, its app models and every generator.
    generation = _generation_hooks(tracer)
    function(synthetic, "workload_suite", "workloads.workload_suite", **generation)
    method(synthetic.AppModel, "trace", "workloads.app_model", **generation)
    for name in (
        "sequential_scan", "cyclic_loop", "random_uniform", "zipf", "strided",
        "pointer_chase", "hot_cold",
    ):
        function(generators, name, f"workloads.{name}", **generation)
    method(stackdist.StackDistanceModel, "generate", "workloads.stackdist", **generation)
    method(Trace, "concat", "workloads.concat", **generation)
    return tracer
