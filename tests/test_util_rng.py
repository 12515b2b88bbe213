"""Tests for repro.util.rng."""

import copy
import pickle

from repro.util.rng import SeededRng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        first = [SeededRng(42).randint(0, 1000) for _ in range(1)]
        second = [SeededRng(42).randint(0, 1000) for _ in range(1)]
        assert first == second

    def test_long_streams_match(self):
        a, b = SeededRng(7), SeededRng(7)
        assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]

    def test_different_seeds_differ(self):
        a = [SeededRng(1).random() for _ in range(10)]
        b = [SeededRng(2).random() for _ in range(10)]
        assert a != b

    def test_copies_made_before_the_first_draw_match_a_fresh_stream(self):
        pickled = pickle.loads(pickle.dumps(SeededRng(11)))
        copied = copy.deepcopy(SeededRng(11))
        fresh = SeededRng(11)
        draws = [[stream.random() for _ in range(100)] for stream in (pickled, copied, fresh)]
        assert draws[0] == draws[2]
        assert draws[1] == draws[2]


class TestFork:
    def test_fork_is_deterministic(self):
        a = SeededRng(5).fork("child").random()
        b = SeededRng(5).fork("child").random()
        assert a == b

    def test_fork_labels_decorrelate(self):
        parent = SeededRng(5)
        assert parent.fork("x").random() != parent.fork("y").random()

    def test_fork_independent_of_parent_consumption(self):
        parent_a = SeededRng(9)
        parent_b = SeededRng(9)
        parent_b.random()  # consume from one parent only
        assert parent_a.fork("c").random() == parent_b.fork("c").random()


class TestHelpers:
    def test_sample_distinct(self):
        rng = SeededRng(3)
        sample = rng.sample(range(100), 10)
        assert len(set(sample)) == 10

    def test_choice_member(self):
        rng = SeededRng(3)
        items = ["a", "b", "c"]
        for _ in range(20):
            assert rng.choice(items) in items

    def test_randrange_bounds(self):
        rng = SeededRng(3)
        values = [rng.randrange(5) for _ in range(200)]
        assert set(values) == {0, 1, 2, 3, 4}
