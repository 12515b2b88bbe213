"""Counters, timers and histograms for the measurement layers.

A :class:`Metrics` store aggregates three kinds of measurements:

* **counters** — monotonically increasing integers (:meth:`Metrics.incr`);
* **observations** — running summaries of a value stream
  (:meth:`Metrics.observe`): count, total, min, max, mean, plus a
  power-of-two bucket histogram coarse enough to stay O(1) per sample;
* **timers** — :meth:`Metrics.timer` wraps a block and observes its wall
  time in seconds under the given name.

The module-wide :data:`DEFAULT` store is always on; the cold layers
(oracles, the experiment runner, the inference drivers) write to it
unconditionally because their event rate is per *measurement* or per
*cell*, not per simulated access; the simulation engines flush their
per-access work as aggregate ``kernel.*`` counters once per call, which
keeps the simulation hot path free of metric bookkeeping.

Snapshots (:meth:`Metrics.snapshot`) are plain JSON-able dictionaries;
their ``counters`` and ``observations`` become the fields of the same
names in a run's :class:`~repro.obs.ledger.RunLedger`.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

from repro.util.tables import format_table

__all__ = ["Metrics", "MetricSummary", "DEFAULT"]


class MetricSummary:
    """Running summary of one observed value stream."""

    __slots__ = ("count", "total", "minimum", "maximum", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        #: Power-of-two histogram: upper bound -> sample count.  Values
        #: <= 0 land in the 0.0 bucket.
        self.buckets: dict[float, int] = {}

    def observe(self, value: float) -> None:
        """Fold one sample into the summary."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value <= 0:
            bound = 0.0
        else:
            bound = 2.0 ** math.ceil(math.log2(value))
        self.buckets[bound] = self.buckets.get(bound, 0) + 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observed values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, snapshot: dict) -> None:
        """Fold another summary's :meth:`snapshot` into this one.

        Exact for every reported statistic (count, total, min, max, the
        bucket histogram — and therefore the mean), which is what lets
        worker processes observe into local stores and the runner merge
        them back without loss.
        """
        count = int(snapshot.get("count", 0))
        if not count:
            return
        self.count += count
        self.total += float(snapshot.get("total", 0.0))
        minimum = snapshot.get("min")
        if minimum is not None and minimum < self.minimum:
            self.minimum = minimum
        maximum = snapshot.get("max")
        if maximum is not None and maximum > self.maximum:
            self.maximum = maximum
        for key, samples in snapshot.get("buckets", {}).items():
            bound = float(str(key)[3:])  # "le_<bound>" -> bound
            self.buckets[bound] = self.buckets.get(bound, 0) + samples

    def snapshot(self) -> dict:
        """JSON-able rendering of the summary."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean,
            "buckets": {f"le_{bound:g}": n for bound, n in sorted(self.buckets.items())},
        }


class Metrics:
    """A named collection of counters and observation summaries."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._summaries: dict[str, MetricSummary] = {}

    # -- recording ---------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into the observation summary ``name``."""
        summary = self._summaries.get(name)
        if summary is None:
            summary = self._summaries[name] = MetricSummary()
        summary.observe(value)

    @contextmanager
    def timer(self, name: str):
        """Observe the wall time of the enclosed block, in seconds."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    # -- reading -----------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never incremented)."""
        return self._counters.get(name, 0)

    def summary(self, name: str) -> MetricSummary | None:
        """The observation summary for ``name``, or None."""
        return self._summaries.get(name)

    def snapshot(self) -> dict:
        """JSON-able snapshot: ``{"counters": ..., "observations": ...}``."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "observations": {
                name: summary.snapshot()
                for name, summary in sorted(self._summaries.items())
            },
        }

    def reset(self) -> None:
        """Drop every counter and summary.

        Entry points that write run ledgers (the CLI dispatcher, the
        benchmark harness) reset the module-wide :data:`DEFAULT` store at
        the start of each invocation so one run's counters never
        contaminate the next run's ledger.
        """
        self._counters.clear()
        self._summaries.clear()

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` from another store into this one.

        Counters add; observation summaries merge exactly (see
        :meth:`MetricSummary.merge`).  This is how the experiment runner
        folds worker-process metrics back into the parent's store —
        merging every worker's delta into the parent reproduces the
        serial run's counters exactly (timings differ in value, never in
        count).
        """
        for name, amount in snapshot.get("counters", {}).items():
            self.incr(name, amount)
        for name, data in snapshot.get("observations", {}).items():
            summary = self._summaries.get(name)
            if summary is None:
                summary = self._summaries[name] = MetricSummary()
            summary.merge(data)

    def format_summary(self, title: str = "metrics") -> str:
        """Render the snapshot as a printable table."""
        rows: list[list[object]] = []
        for name, value in sorted(self._counters.items()):
            rows.append([name, value, "", "", "", ""])
        for name, summary in sorted(self._summaries.items()):
            rows.append(
                [
                    name,
                    summary.count,
                    f"{summary.total:.6g}",
                    f"{summary.mean:.6g}",
                    f"{summary.minimum:.6g}" if summary.count else "-",
                    f"{summary.maximum:.6g}" if summary.count else "-",
                ]
            )
        return format_table(
            ["metric", "count", "total", "mean", "min", "max"], rows, title=title
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Metrics counters={len(self._counters)} "
            f"observations={len(self._summaries)}>"
        )


#: The always-on module-wide store the instrumentation writes to.
DEFAULT = Metrics()
