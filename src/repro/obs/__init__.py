"""Observability: structured events, metrics and the run record.

The paper's method is measurement, and ``repro.obs`` makes the
reproduction's own measurement loops observable the same way nanoBench
and CacheQuery are: every hot layer emits structured events through a
zero-cost-when-disabled :class:`~repro.obs.trace.Tracer`, cheap counters
and timers aggregate into the module-wide :data:`~repro.obs.metrics.DEFAULT`
:class:`~repro.obs.metrics.Metrics` store, and every run leaves one
schema-versioned :class:`~repro.obs.ledger.RunLedger`.

Four layers describe one run:

* :mod:`repro.obs.trace` — the event bus.  ``install(Tracer(...))`` (or
  the ``tracing(...)`` context manager) turns on event emission from
  :class:`~repro.cache.set.CacheSet` (hit/miss/evict/fill),
  :class:`~repro.core.oracle.MissCountOracle` (queries),
  :class:`~repro.core.inference.PermutationInference` (phases, verify),
  :class:`~repro.core.identify.CandidateIdentification` (candidates
  accepted/rejected) and :class:`~repro.runner.core.ExperimentRunner`
  (cells scheduled/retried/completed).  With no tracer installed the
  instrumentation is a single global ``is None`` check.
* :mod:`repro.obs.metrics` — counters, timers and histograms,
  snapshot-able to JSON, printable as a summary table, and mergeable
  across processes (the runner folds worker stores back into the
  parent's :data:`~repro.obs.metrics.DEFAULT`).
* :mod:`repro.obs.spans` — hierarchical timed spans (context manager and
  decorator) emitting ``span.start``/``span.end`` events and feeding the
  metrics timers; span context propagates into runner worker processes
  so a cell's spans nest under the run that scheduled it.
* :mod:`repro.obs.ledger` — the schema-versioned ``*.ledger.json`` run
  record (the experiment's ``data``, git SHA, params, seeds,
  environment, wall time, counters and observations) that the CLI's
  ``--metrics`` and every benchmark write, compared by the
  ``repro-cache report`` subcommand.

Three more layers build the *across-run* plane on top of those four:

* :mod:`repro.obs.history` — the WAL-mode sqlite run-history store
  (``history-v<schema>.sqlite``) that every ledger is recorded into
  (auto-recorded by the CLI under ``--metrics`` and by the benchmarks,
  backfilled by ``repro-cache history ingest``);
* :mod:`repro.obs.regress` — the perf-regression detector (median + MAD
  baselines per experiment group) behind ``repro-cache history check``;
* :mod:`repro.obs.dash` — the static HTML dashboard renderer behind
  ``repro-cache dash``.

The event schema, ledger schema and run-history plane are documented in
OBSERVABILITY.md.
"""

from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    build_ledger,
    diff_ledgers,
    format_ledger,
    read_ledger,
    validate_ledger,
    write_ledger,
)
from repro.obs.metrics import DEFAULT, Metrics, MetricSummary
from repro.obs.spans import adopt, current_span, span, traced
from repro.obs.trace import (
    JsonlWriter,
    Tracer,
    filter_events,
    format_event,
    install,
    read_jsonl,
    tracing,
    uninstall,
    write_jsonl,
)

__all__ = [
    "DEFAULT",
    "Metrics",
    "MetricSummary",
    "LEDGER_SCHEMA_VERSION",
    "RunLedger",
    "build_ledger",
    "diff_ledgers",
    "format_ledger",
    "read_ledger",
    "validate_ledger",
    "write_ledger",
    "JsonlWriter",
    "Tracer",
    "adopt",
    "current_span",
    "span",
    "traced",
    "filter_events",
    "format_event",
    "install",
    "read_jsonl",
    "tracing",
    "uninstall",
    "write_jsonl",
]
