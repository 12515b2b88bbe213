"""BENCH — cold versus warm automaton compilation via the artifact store.

The acceptance benchmark for :mod:`repro.kernels.store`: every
deterministic E3 policy is resolved at 8 ways twice against a fresh
store directory — once cold (compile, close with ``expand_all``, persist)
and once warm (memory caches dropped, automaton deserialized from disk).
The warm pass must be at least 5x faster in total, every warm
resolution must be a disk load (``kernel.compile.miss == 0``), and every
loaded automaton's four tables must equal the freshly closed one's.  Results
land in ``benchmarks/results/bench_compile_cache.txt`` and the
``bench_compile_cache.ledger.json`` run record.

The store directory is a per-run temp dir so the cold pass is genuinely
cold regardless of any populated repo-local ``.repro-cache/``.
"""

from __future__ import annotations

import time

from repro.kernels import clear_compile_cache, compiled_for_factory
from repro.kernels import store
from repro.obs import metrics as obs_metrics
from repro.util.tables import format_table


#: The deterministic (compilable) slice of the E3 policy set.
POLICIES = ["lru", "fifo", "plru", "bitplru", "nru", "srrip", "lip"]
WAYS = 8


def _resolve_all(policies):
    """Resolve + persist each policy from empty memory caches.

    Returns (per-policy report, total seconds).  ``store.warm`` is the
    same warm point the parallel runner and the ``cache warm`` CLI use.
    """
    clear_compile_cache()
    start = time.perf_counter()
    report = store.warm((name, (), WAYS) for name in policies)
    return report, time.perf_counter() - start


def test_bench_compile_cache_cold_vs_warm(save_result, tmp_path):
    """Acceptance: a populated store makes compilation >= 5x faster."""
    store.set_cache_dir(tmp_path / "repro-cache")
    try:
        obs_metrics.DEFAULT.reset()
        cold_report, cold_seconds = _resolve_all(POLICIES)
        cold_counters = obs_metrics.DEFAULT.snapshot()["counters"]
        # The freshly closed automata, kept past the warm pass's cache clear.
        cold_automata = [compiled_for_factory(name, (), WAYS) for name in POLICIES]

        obs_metrics.DEFAULT.reset()
        warm_report, warm_seconds = _resolve_all(POLICIES)
        warm_counters = obs_metrics.DEFAULT.snapshot()["counters"]

        # Warm resolutions must all be disk loads, and frozen automata
        # must agree with their freshly closed originals state for state.
        assert warm_counters.get("kernel.compile.miss", 0) == 0
        assert warm_counters.get("kernel.compile.load", 0) == len(POLICIES)
        for name, cold, warm, original in zip(
            POLICIES, cold_report, warm_report, cold_automata
        ):
            assert cold["status"] == "persisted", (name, cold)
            assert warm["states"] == cold["states"], name
            compiled = compiled_for_factory(name, (), WAYS)
            assert compiled is not None and compiled.frozen
            assert not original.frozen, name
            for table in store.TABLE_NAMES:
                loaded, closed = getattr(compiled, table), getattr(original, table)
                assert list(loaded) == list(closed), (name, table)
    finally:
        store.set_cache_dir(None)
        clear_compile_cache()

    speedup = cold_seconds / warm_seconds if warm_seconds else 0.0
    rows = [
        [
            cold["policy"],
            cold["states"],
            f"{cold['seconds']:.3f}",
            f"{warm['seconds']:.3f}",
            f"{cold['seconds'] / warm['seconds']:.1f}x" if warm["seconds"] else "-",
        ]
        for cold, warm in zip(cold_report, warm_report)
    ]
    rows.append(["TOTAL", "-", f"{cold_seconds:.3f}", f"{warm_seconds:.3f}",
                 f"{speedup:.1f}x"])
    table = format_table(
        ["policy", "states", "cold s", "warm s", "speedup"],
        rows,
        title=f"BENCH compile cache: cold closure vs warm disk load @ {WAYS} ways",
    )

    data = {
        "policies": {
            cold["policy"]: {
                "states": cold["states"],
                "cold_seconds": cold["seconds"],
                "warm_seconds": warm["seconds"],
            }
            for cold, warm in zip(cold_report, warm_report)
        },
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": speedup,
        "cold_counters": {
            key: value for key, value in cold_counters.items()
            if key.startswith("kernel.compile.")
        },
        "warm_counters": {
            key: value for key, value in warm_counters.items()
            if key.startswith("kernel.compile.")
        },
        "schema_version": store.SCHEMA_VERSION,
    }
    params = {"policies": POLICIES, "ways": WAYS}
    save_result("bench_compile_cache", table, data=data, params=params)

    assert speedup >= 5.0, (
        f"warm store only {speedup:.1f}x faster than cold compilation "
        f"({cold_seconds:.3f}s -> {warm_seconds:.3f}s)"
    )
