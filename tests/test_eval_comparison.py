"""Tests for the policy agreement matrix."""

import pytest

from repro import kernels
from repro.eval import agreement_matrix
from repro.obs import metrics as obs_metrics
from repro.policies import FifoPolicy, LruPolicy, PlruPolicy, get


class TestAgreementMatrix:
    def make(self):
        policies = {
            "lru": LruPolicy(4),
            "fifo": FifoPolicy(4),
            "plru": PlruPolicy(4),
        }
        return agreement_matrix(policies, accesses=5000, seed=0)

    def test_diagonal_is_one(self):
        matrix = self.make()
        for name in matrix.policies:
            assert matrix.value(name, name) == 1.0

    def test_symmetric(self):
        matrix = self.make()
        for a in matrix.policies:
            for b in matrix.policies:
                assert matrix.value(a, b) == matrix.value(b, a)

    def test_plru_closer_to_lru_than_fifo(self):
        # PLRU approximates LRU; FIFO ignores hits entirely.
        matrix = self.make()
        assert matrix.value("plru", "lru") > matrix.value("fifo", "lru")

    def test_high_agreement_overall(self):
        # The motivating observation of E8: random streams rarely
        # separate policies, hence crafted sequences are needed.
        matrix = self.make()
        assert matrix.value("fifo", "lru") > 0.8

    def test_rows_render(self):
        matrix = self.make()
        rows = matrix.rows()
        assert len(rows) == 3
        assert rows[0][0] == matrix.policies[0]

    def test_mixed_ways_rejected(self):
        with pytest.raises(ValueError):
            agreement_matrix({"a": LruPolicy(2), "b": LruPolicy(4)})


class TestKernelReplay:
    """Replays run on the compiled kernel where a policy compiles."""

    NAMES = ("lru", "plru", "srrip", "random")

    def _matrix(self, seed):
        # Fresh policy objects per matrix: random's stream is in its rng.
        policies = {name: get(name, 4) for name in self.NAMES}
        return agreement_matrix(policies, accesses=3000, seed=seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_interpreter(self, seed, monkeypatch):
        obs_metrics.DEFAULT.reset()
        compiled = self._matrix(seed)
        # One engine call per deterministic policy; random interprets.
        assert obs_metrics.DEFAULT.counter("kernel.calls") == 3
        # With no automaton offered, every replay interprets.
        monkeypatch.setattr(kernels, "compiled_for", lambda policy: None)
        obs_metrics.DEFAULT.reset()
        assert self._matrix(seed) == compiled
        assert obs_metrics.DEFAULT.counter("kernel.calls") == 0
