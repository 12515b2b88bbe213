"""Named wall-time spans over the metrics store.

A *span* times one logical unit of work — an experiment, a runner grid,
a single experiment cell — as the ``span.seconds.<name>`` observation
in :data:`repro.obs.metrics.DEFAULT`, which every run's ledger records:

.. code-block:: python

    from repro.obs import span, traced

    with span("e1.infer"):
        finding = reverse_engineer(oracle)

    @traced("eval.matrix")
    def compute_matrix(...):
        ...

Spans live on the cold layers, so the per-span cost is irrelevant next
to the work they bracket.  A runner worker times its cells into its own
store, which the runner merges back into the parent's.
"""

from __future__ import annotations

from functools import wraps

from repro.obs import metrics as _metrics

__all__ = ["span", "traced"]


def span(name: str):
    """Time the enclosed block as ``span.seconds.<name>``."""
    return _metrics.DEFAULT.timer(f"span.seconds.{name}")


def traced(name: str):
    """Decorator form of :func:`span`: ``@traced("eval.matrix")``."""

    def decorator(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorator
