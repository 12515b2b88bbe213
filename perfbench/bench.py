"""One benchmark process: set-up, timed passes, then an optional traced pass.

``perfbench/run.py`` starts this module in a fresh process (``python -m
perfbench.bench`` from the repository root, ``PYTHONPATH=src``, a fresh
``REPRO_CACHE_DIR``) and reads the JSON record it writes to ``--out``.

Set-up is everything between process start and the first timed pass:
imports, warming the fresh automaton store, and on policy-eval-par
spawning the worker pool.  Every pass then starts from the same state:
the store as set-up left it, in-process compile caches and the runner
memo empty, and on policy-eval-par a freshly forked pool (respawned
between passes, outside the timed region) with no broadcast segments.

A :class:`SpeedProbe` thread times a fixed spin loop all along, so each
host time in the record comes with the host's speed while it was taken.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import sys
import threading
import time
from pathlib import Path

from perfbench import tracing, workloads
from repro import kernels
from repro.kernels import clear_compile_cache, store
from repro.obs import metrics as obs_metrics
from repro.runner import clear_memo, get_pool, shutdown_pool

#: Where the kernel lets a process restart its peak-RSS high-water mark.
CLEAR_REFS = "/proc/self/clear_refs"


def _vm_hwm_kib(pid: int | str = "self") -> int:
    """Peak resident set size of a process, in KiB (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _reset_peak_rss() -> None:
    """Restart this process's peak-RSS high-water mark at its current RSS."""
    try:
        with open(CLEAR_REFS, "w") as handle:
            handle.write("5")
    except OSError:
        pass  # stamped as peak_rss_per_pass=False; peaks then span the process


class SpeedProbe:
    """Times a fixed pure-Python spin loop every 50 ms on a daemon thread.

    The host this benchmark runs on shares its cores: the same pass can
    take 10-30% longer from one minute to the next.  The spin loop slows
    down with it, so the median spin time over an interval measures the
    host's speed during that interval.  One spin costs about 0.3 ms of
    the interpreter lock every 50 ms.
    """

    INTERVAL_S = 0.05
    SPIN = 4000

    def __init__(self) -> None:
        #: (perf_counter at the end of the spin, spin seconds)
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)

    def _run(self) -> None:
        clock, samples = time.perf_counter, self.samples
        while not self._stop.wait(self.INTERVAL_S):
            start = clock()
            total = 0
            for value in range(self.SPIN):
                total += value * value % 7
            end = clock()
            samples.append((end, end - start))

    def median(self, start: float, end: float) -> float:
        """Median spin time between two ``perf_counter`` readings."""
        inside = [spin for at, spin in self.samples if start <= at <= end]
        return statistics.median(inside or [spin for _, spin in self.samples])


class Bench:
    def __init__(self, workload: str, seed: int, probe: SpeedProbe) -> None:
        self.workload = workload
        self.seed = seed
        self.probe = probe
        self.parallel = workload == "policy-eval-par"
        self.pass_count = 0

    def set_up(self) -> None:
        store.warm((name, (), workloads.WARM_WAYS) for name in workloads.WARM_POLICIES)
        clear_compile_cache()
        clear_memo()
        if self.parallel:
            get_pool(workloads.PAR_JOBS)

    def _fresh_state(self) -> None:
        """Reset to the state set-up left; the first pass finds it so."""
        if self.pass_count:
            clear_compile_cache()
            clear_memo()
            if self.parallel:
                shutdown_pool()
                get_pool(workloads.PAR_JOBS)
        self.pass_count += 1

    def run_pass(
        self,
        traced: bool = False,
        spans: Path | None = None,
        jobs_override: int | None = None,
    ) -> dict:
        """One timed pass; with ``traced``, under the layer tracer."""
        operations = (
            workloads.policy_eval(self.seed, jobs=jobs_override)
            if jobs_override is not None
            else workloads.WORKLOADS[self.workload](self.seed)
        )
        self._fresh_state()
        # Installed after the pool respawn, so forked workers stay unwrapped.
        tracer = tracing.install() if traced else None
        _reset_peak_rss()
        before = obs_metrics.DEFAULT.snapshot()
        outcomes = []
        try:
            start = time.perf_counter()
            for operation in operations:
                op_start = time.perf_counter()
                try:
                    if tracer is not None:
                        outcome = tracer.operation(operation.name, operation.run)
                    else:
                        outcome = operation.run()
                except Exception as exc:  # a failed operation is counted, not fatal
                    outcome = workloads.Outcome(
                        ok=False, detail=f"{type(exc).__name__}: {exc}"
                    )
                outcomes.append((operation.name, time.perf_counter() - op_start, outcome))
            end = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = end - start
        peak_kib = _vm_hwm_kib()
        # Pool workers: only multiprocessing children (the pool), not the
        # shared-memory resource tracker.
        for child in multiprocessing.active_children():
            peak_kib += _vm_hwm_kib(child.pid)
        after = obs_metrics.DEFAULT.snapshot()
        record = {
            "wall_s": wall,
            "probe_s": self.probe.median(start, end),
            "peak_rss_mb": peak_kib / 1024,
            "operations": [_operation_record(*entry) for entry in outcomes],
            "counters": _counter_delta(before, after),
            "observed_s": _observed_delta(before, after),
        }
        if tracer is not None:
            record["layers"] = layer_metrics(tracer, record)
            if spans is not None:
                tracer.write(spans)
        return record


def _operation_record(name: str, seconds: float, outcome) -> dict:
    """An operation's JSON record, after its deferred check has run."""
    ok, detail = outcome.ok, outcome.detail
    if outcome.check is not None:
        try:
            problem = outcome.check()
        except Exception as exc:  # a failed check is a failed operation
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            ok, detail = False, problem
    return {
        "name": name,
        "seconds": seconds,
        "ok": ok,
        "detail": detail,
        "measurements": outcome.measurements,
        "oracle_accesses": outcome.oracle_accesses,
        "sim_accesses": outcome.sim_accesses,
        "loads": outcome.loads,
        "logical_loads": outcome.logical_loads,
        "digest": outcome.digest,
    }


def _counter_delta(before: dict, after: dict) -> dict:
    old = before["counters"]
    return {
        name: value - old.get(name, 0)
        for name, value in after["counters"].items()
        if value != old.get(name, 0)
    }


def _observed_delta(before: dict, after: dict) -> dict:
    old = before["observations"]
    delta = {}
    for name, summary in after["observations"].items():
        total = summary["total"] - old.get(name, {}).get("total", 0.0)
        if total:
            delta[name] = total
    return delta


def environment() -> dict:
    """What every result is stamped with; results compare only when equal."""
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "numpy": kernels.numpy_available(),
        "kernel_enabled": kernels.kernel_enabled(),
        "vector_enabled": kernels.vector_enabled(),
        "trie_enabled": kernels.trie_enabled(),
        "peak_rss_per_pass": os.access(CLEAR_REFS, os.W_OK),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the launcher started this process")
    parser.add_argument("--deadline", type=float, required=True,
                        help="start no timed pass likely to end past this monotonic time")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    bench = Bench(args.workload, args.seed, probe)
    bench.set_up()
    setup_s = time.monotonic() - args.started
    setup_probe_s = probe.median(0.0, time.perf_counter())

    passes = []
    measure_start = time.monotonic()
    while True:
        passes.append(bench.run_pass())
        now = time.monotonic()
        if now - measure_start >= args.seconds:
            break
        if now + 1.5 * passes[-1]["wall_s"] > args.deadline:
            break

    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "passes": passes,
        "reference": None,
        "traced": None,
    }

    if bench.parallel and args.seed != workloads.DEFAULT_SEED:
        # The pooled digests must equal the serial ones at this seed.
        record["reference"] = bench.run_pass(jobs_override=0)

    if args.trace:
        record["traced"] = bench.run_pass(traced=True, spans=args.spans)

    if bench.parallel:
        shutdown_pool()
        # Set-up's pool served the first pass; each later pass forked its own.
        record["pools"] = bench.pass_count
    probe.stop()
    args.out.write_text(json.dumps(record))
    return 0


def _percentile(values: list[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def layer_metrics(tracer, traced: dict) -> dict:
    """The per-layer metrics of one traced pass."""
    counters = traced["counters"]
    observed = traced["observed_s"]
    counts = tracer.counts
    calls = tracer.calls
    self_s = tracer.self_s
    layers = tracer.layer_self_seconds()
    ops = traced["operations"]

    def self_of(prefix: str) -> float:
        return sum(seconds for name, seconds in self_s.items() if name.startswith(prefix))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    measure_ms = [seconds * 1000 for seconds in tracer.durations("hardware.harness.measure")]
    loads = calls.get("hardware.platform.load", 0)
    logical = sum(op["logical_loads"] for op in ops)
    cache_hits = counters.get("oracle.cache_hits", 0)
    cache_misses = counters.get("oracle.cache_misses", 0)
    trie_reused = counters.get("kernel.trie.reused_accesses", 0)
    named = sum(layers.get(layer, 0.0) for layer in tracing.LAYERS)
    wall = traced["wall_s"]
    return {
        "core.inference.runs": calls.get("core.inference.infer", 0),
        "core.inference.self_s": layers.get("core.inference", 0.0),
        "core.inference.phase_s.baseline": observed.get("infer.phase_seconds.baseline", 0.0),
        "core.inference.phase_s.hit-perms": observed.get("infer.phase_seconds.hit-perms", 0.0),
        "core.inference.phase_s.verify": observed.get("infer.phase_seconds.verify", 0.0),
        "core.identify.self_s": layers.get("core.identify", 0.0),
        "core.identify.rejected": counters.get("identify.rejected", 0),
        "core.distinguish.calls": calls.get("core.distinguish.search", 0),
        "core.distinguish.s": layers.get("core.distinguish", 0.0),
        "core.distinguish.found_ratio": ratio(
            counts["distinguish.found"], calls.get("core.distinguish.search", 0)
        ),
        "core.oracle.query_calls": int(counts["oracle.outer_calls"]),
        "core.oracle.batch_mean": ratio(
            counts["oracle.outer_requests"], counts["oracle.outer_calls"]
        ),
        "core.oracle.s": layers.get("core.oracle", 0.0),
        "core.oracle.cache_hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "core.oracle.vote_samples_per_request": ratio(
            counts["vote.samples"], counts["vote.requests"]
        ),
        "core.oracle.measurements": counters.get("oracle.measurements", 0),
        "core.oracle.accesses": counters.get("oracle.accesses", 0),
        "hardware.harness.measure_ms.p50": _percentile(measure_ms, 0.50),
        "hardware.harness.measure_ms.p99": _percentile(measure_ms, 0.99),
        "hardware.harness.self_s": layers.get("hardware.harness", 0.0),
        "hardware.platform.loads": loads,
        "hardware.platform.load_s": self_s.get("hardware.platform.load", 0.0),
        "hardware.platform.conflict_share": 1 - ratio(logical, loads) if loads else 0.0,
        "hardware.platform.wbinvd_calls": calls.get("hardware.platform.wbinvd", 0),
        "hardware.platform.wbinvd_s": self_s.get("hardware.platform.wbinvd", 0.0),
        "hardware.platform.flush_sets": int(counts["platform.flush_sets"]),
        "core.evictionsets.tests": calls.get("core.evictionsets.test", 0),
        "core.evictionsets.s": layers.get("core.evictionsets", 0.0),
        "cache.hierarchy.accesses": calls.get("cache.hierarchy.access", 0),
        "cache.hierarchy.s": layers.get("cache.hierarchy", 0.0),
        "cache.set.accesses": calls.get("cache.set.access", 0),
        "cache.set.s": layers.get("cache.set", 0.0),
        "kernels.calls": counters.get("kernel.calls", 0),
        "kernels.accesses": counters.get("kernel.accesses", 0),
        "kernels.s": layers.get("kernels", 0.0),
        "kernels.compile.miss": counters.get("kernel.compile.miss", 0),
        "kernels.compile.load": counters.get("kernel.compile.load", 0),
        "kernels.compile_s": self_of("kernels.compile."),
        "kernels.expand_s": self_of("kernels.expand."),
        "kernels.vector.lanes": counters.get("kernel.vector.lanes", 0),
        "kernels.vector.fallbacks": counters.get("kernel.vector.fallbacks", 0),
        "kernels.trie.plans": counters.get("kernel.trie.plans", 0),
        "kernels.trie.reused_share": ratio(
            trie_reused, counters.get("kernel.accesses", 0) + trie_reused
        ),
        "kernels.trie.fallbacks": counters.get("kernel.trie.fallbacks", 0),
        "kernels.setup_reused": counters.get("kernel.setup_reused", 0),
        "runner.map_s": layers.get("runner", 0.0),
        "runner.cells": sum(
            value for name, value in counters.items() if name.startswith("runner.cells.")
        ),
        "runner.pool.spawned": counters.get("runner.pool.spawned", 0),
        "runner.pool.restarted": counters.get("runner.pool.restarted", 0),
        "runner.chunk_retries": counters.get("runner.chunk_retries", 0),
        "runner.shm.broadcasts": counters.get("runner.shm.broadcasts", 0),
        "runner.shm.bytes": counters.get("runner.shm.bytes", 0),
        "runner.shm.fallbacks": counters.get("runner.shm.fallbacks", 0),
        "eval.self_s": layers.get("eval", 0.0),
        "eval.sim_accesses": sum(
            op["sim_accesses"] for op in ops if op["name"] in ("e3-grid", "e4-sweep", "e8-agreement")
        ),
        "workloads.gen_s": layers.get("workloads", 0.0),
        "workloads.addresses": int(counts["workloads.addresses"]),
        "run.other_s": wall - named,
        "run.layer_coverage": ratio(named, wall),
        "run.traced_wall_s": wall,
    }


if __name__ == "__main__":
    sys.exit(main())
