"""Tests for stack-distance analysis and generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig
from repro.errors import ConfigurationError
from repro.eval.missratio import miss_ratio
from repro.util.rng import SeededRng
from repro.workloads import (
    INFINITE,
    StackDistanceModel,
    Trace,
    lru_miss_ratio_from_histogram,
    sequential_scan,
    stack_distance_histogram,
    stack_distances,
)


class TestStackDistances:
    def test_known_sequence(self):
        trace = Trace.from_lines("t", [1, 2, 1, 3, 2, 1])
        assert stack_distances(trace) == [INFINITE, INFINITE, 1, INFINITE, 2, 2]

    def test_scan_all_infinite_first_pass(self):
        trace = sequential_scan(5)
        assert stack_distances(trace) == [INFINITE] * 5

    def test_second_pass_distance_equals_footprint(self):
        trace = sequential_scan(5, passes=2)
        assert stack_distances(trace)[5:] == [4] * 5

    def test_histogram(self):
        trace = Trace.from_lines("t", [1, 1, 1])
        assert stack_distance_histogram(trace) == {INFINITE: 1, 0: 2}


class TestMattson:
    def test_matches_fully_associative_lru_simulation(self):
        # The single-pass Mattson computation must agree with an actual
        # fully associative LRU cache at every capacity.
        from repro.workloads import zipf

        trace = zipf(60, 3000, alpha=1.0, seed=3)
        histogram = stack_distance_histogram(trace)
        for capacity in (4, 16, 64):
            config = CacheConfig("fa", capacity * 64, capacity)  # 1 set
            simulated = miss_ratio(trace, config, "lru")
            analytic = lru_miss_ratio_from_histogram(histogram, capacity)
            assert simulated == pytest.approx(analytic)

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            lru_miss_ratio_from_histogram({0: 1}, 0)


class TestStackDistanceModel:
    def test_generates_requested_profile(self):
        model = StackDistanceModel([(0, 5.0), (3, 1.0)], new_line_weight=1.0, seed=0)
        trace = model.generate(5000)
        histogram = stack_distance_histogram(trace)
        # Distance 0 should dominate distance 3 roughly 5:1.
        assert histogram[0] > 3 * histogram.get(3, 1)

    def test_deterministic(self):
        a = StackDistanceModel([(1, 1.0)], 0.5, seed=4).generate(100)
        b = StackDistanceModel([(1, 1.0)], 0.5, seed=4).generate(100)
        assert a == b

    def test_weight_validation(self):
        with pytest.raises(ConfigurationError):
            StackDistanceModel([(0, -1.0)], 1.0)
        with pytest.raises(ConfigurationError):
            StackDistanceModel([], 0.0)
        with pytest.raises(ConfigurationError):
            StackDistanceModel([(-1, 1.0)], 1.0)

    def test_length_validation(self):
        model = StackDistanceModel([(0, 1.0)], 1.0)
        with pytest.raises(ConfigurationError):
            model.generate(0)


def _reference_generate(distance_weights, new_line_weight, seed, length):
    """The lines the model drew with a linear scan and a most-recent-first
    stack, the reference."""
    total = new_line_weight + sum(w for _, w in distance_weights)
    choices = [INFINITE]
    cumulative = [new_line_weight / total]
    running = cumulative[0]
    for distance, weight in distance_weights:
        running += weight / total
        choices.append(distance)
        cumulative.append(running)
    rng = SeededRng(seed)

    def draw():
        point = rng.random()
        for choice, cut in zip(choices, cumulative):
            if point <= cut:
                return choice
        return choices[-1]

    stack = []
    next_line = 0
    lines = []
    for _ in range(length):
        distance = draw()
        if distance == INFINITE or distance >= len(stack):
            line = next_line
            next_line += 1
        else:
            line = stack[distance]
            del stack[distance]
        stack.insert(0, line)
        lines.append(line)
    return lines


@st.composite
def stackdist_models(draw):
    """Weights with zeros, distances past the stack, any new-line weight."""
    weight = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=10.0))
    distance_weights = draw(
        st.lists(st.tuples(st.integers(min_value=0, max_value=60), weight), max_size=6)
    )
    new_line_weight = draw(weight)
    if new_line_weight + sum(w for _, w in distance_weights) <= 0:
        new_line_weight = 1.0
    return distance_weights, new_line_weight


@given(
    model=stackdist_models(),
    seed=st.integers(),
    length=st.integers(min_value=1, max_value=2000),
)
@settings(max_examples=100, deadline=None)
def test_generate_matches_the_reference_loops(model, seed, length):
    distance_weights, new_line_weight = model
    trace = StackDistanceModel(distance_weights, new_line_weight, seed=seed).generate(length)
    expected = _reference_generate(distance_weights, new_line_weight, seed, length)
    assert trace.addresses == tuple(line * 64 for line in expected)
