"""Tests for repro.obs.spans: named wall-time spans over the metrics store."""

import pytest

from repro.core import InferenceConfig, PermutationInference, SimulatedSetOracle
from repro.obs import metrics as obs_metrics
from repro.obs.spans import span, traced
from repro.policies import get


@pytest.fixture(autouse=True)
def _clean_metrics():
    obs_metrics.DEFAULT.reset()
    yield
    obs_metrics.DEFAULT.reset()


def _observations() -> dict:
    return obs_metrics.DEFAULT.snapshot()["observations"]


class TestSpanTimers:
    def test_span_observes_its_seconds(self):
        with span("outer"):
            with span("inner"):
                pass
        observations = _observations()
        outer, inner = observations["span.seconds.outer"], observations["span.seconds.inner"]
        assert outer["count"] == inner["count"] == 1
        assert outer["total"] >= inner["total"] >= 0

    def test_span_closes_on_exception(self):
        with pytest.raises(RuntimeError):
            with span("doomed"):
                raise RuntimeError("boom")
        assert _observations()["span.seconds.doomed"]["count"] == 1

    def test_traced_decorator(self):
        @traced("custom.name")
        def doubled(value):
            return 2 * value

        assert doubled(3) == 6
        assert doubled.__name__ == "doubled"
        assert _observations()["span.seconds.custom.name"]["count"] == 1

    def test_inference_times_each_phase(self):
        """The phase timers the repository benchmark reads."""
        result = PermutationInference(
            SimulatedSetOracle(get("lru", 2)),
            config=InferenceConfig(verify_sequences=2),
        ).infer()
        assert result.succeeded
        phases = {
            name: summary["count"]
            for name, summary in _observations().items()
            if name.startswith("infer.phase_seconds.")
        }
        assert phases == {
            "infer.phase_seconds.baseline": 1,
            "infer.phase_seconds.hit-perms": 1,
            "infer.phase_seconds.verify": 1,
        }
