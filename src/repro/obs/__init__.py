"""Observability: metrics, timed spans and the run record.

The paper's method is measurement, and ``repro.obs`` makes the
reproduction's own measurement loops observable the same way nanoBench
reports them, as aggregate counts around the measured work: cheap
counters and timers aggregate into the module-wide
:data:`~repro.obs.metrics.DEFAULT` :class:`~repro.obs.metrics.Metrics`
store, and every run leaves one schema-versioned
:class:`~repro.obs.ledger.RunLedger`.

Three layers describe one run:

* :mod:`repro.obs.metrics` — counters, timers and histograms,
  snapshot-able to JSON, printable as a summary table, and mergeable
  across processes (the runner folds worker stores back into the
  parent's :data:`~repro.obs.metrics.DEFAULT`).
* :mod:`repro.obs.spans` — named wall-time spans (context manager and
  decorator) observed as ``span.seconds.<name>`` timers.
* :mod:`repro.obs.ledger` — the schema-versioned ``*.ledger.json`` run
  record (the experiment's ``data``, git SHA, params, seeds,
  environment, wall time, counters and observations) that the CLI's
  ``--metrics`` and every benchmark write, compared by the
  ``repro-cache report`` subcommand.

Three more layers build the *across-run* plane on top of those three:

* :mod:`repro.obs.history` — the WAL-mode sqlite run-history store
  (``history-v<schema>.sqlite``) that every ledger is recorded into
  (auto-recorded by the CLI under ``--metrics`` and by the benchmarks,
  backfilled by ``repro-cache history ingest``);
* :mod:`repro.obs.regress` — the perf-regression detector (median + MAD
  baselines per experiment group) behind ``repro-cache history check``;
* :mod:`repro.obs.dash` — the static HTML dashboard renderer behind
  ``repro-cache dash``.

The counter names, the ledger schema and the run-history plane are
documented in OBSERVABILITY.md.
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
from repro.obs.spans import span, traced

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
    "span",
    "traced",
]
