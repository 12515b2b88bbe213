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
  ``repro-cache report`` subcommand, and the committed-results gate
  (``repro-cache report --gate``) that holds fresh ledgers to the
  committed ones.

:mod:`repro.obs.dash` renders ledgers from many runs as a static HTML
dashboard (``repro-cache dash``).  The counter names, the ledger schema
and the gate's rules are documented in OBSERVABILITY.md.
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
