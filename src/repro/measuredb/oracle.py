"""The DB-backed oracle: persistence behind the ``OracleProtocol``.

:class:`MeasurementDBOracle` wraps any oracle that can state its
*provenance* (a string identifying what is being measured — see
:meth:`repro.core.oracle.OracleProtocol.provenance`) and routes every
query through the shared :class:`~repro.measuredb.service.OracleService`
for that scope: memo/DB hits are answered without touching the inner
oracle, misses are delegated in one batched call and written back.

Cost accounting is *logical*, deliberately unlike
:class:`~repro.core.oracle.CachingOracle`: the wrapper's
``measurements``/``accesses`` counters advance for **every** request,
DB-served or not.  They model the query budget of the paper's
algorithms — how many measurements the algorithm *asked for* — so an
:class:`~repro.core.inference.InferenceResult` produced against a warm
database is bit-identical to one produced cold (same spec, same
``measurements``, same ``accesses``).  What changed physically shows up
in the metrics instead: warm runs report ``db.miss == 0`` and
``oracle.measurements == 0`` (no real measurement ran), while
``db.hit`` counts the served requests.  The wrapper itself emits no
``oracle.*`` metrics or events — the inner oracle already emits them
for the measurements that actually execute, and double-counting would
corrupt the ledgers.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.oracle import MissCountOracle, OracleProtocol
from repro.errors import MeasurementError
from repro.measuredb.service import OracleService, shared_service

__all__ = ["MeasurementDBOracle", "wrap_if_enabled"]


class MeasurementDBOracle(MissCountOracle):
    """Persistent, service-coalesced memoization of an inner oracle.

    Only meaningful over a *deterministic* inner oracle: provenance is
    the promise that equal requests always yield equal answers, so an
    oracle that cannot state one (randomized policy, noisy hardware) is
    refused — persisting its samples would freeze noise into every
    future run.  Denoise first (:class:`~repro.core.oracle.VotingOracle`
    around the noisy oracle reports no provenance either, unless its
    inner is deterministic), or don't persist.
    """

    def __init__(
        self,
        inner: OracleProtocol,
        scope: str | None = None,
        service: OracleService | None = None,
    ) -> None:
        if scope is None:
            scope = inner.provenance()
        if scope is None:
            raise MeasurementError(
                "measurement DB needs a deterministic oracle with provenance; "
                f"{type(inner).__name__} reports none"
            )
        self._inner = inner
        self.scope = scope
        self._service = service if service is not None else shared_service(scope)
        self.ways = inner.ways
        self.measurements = 0
        self.accesses = 0

    def provenance(self) -> str | None:
        return self.scope

    def query(
        self, requests: Sequence[tuple[Sequence[int], Sequence[int]]]
    ) -> list[int]:
        requests = list(requests)
        results = self._service.query(requests, self._inner)
        # Logical cost: the algorithm asked for these measurements,
        # whether or not the database saved the physical work.
        for setup, probe in requests:
            self.measurements += 1
            self.accesses += len(setup) + len(probe)
        return results

    def count_misses(self, setup: Sequence[int], probe: Sequence[int]) -> int:
        return self.query([(setup, probe)])[0]


def wrap_if_enabled(oracle: OracleProtocol) -> OracleProtocol:
    """Wrap every oracle that reports provenance in a :class:`MeasurementDBOracle`.

    Returns ``oracle`` unchanged when it has no provenance
    (non-deterministic), so call sites can opt in unconditionally:
    ``oracle = wrap_if_enabled(oracle)``.
    """
    if oracle.provenance() is None:
        return oracle
    return MeasurementDBOracle(oracle)
