"""Tests for stack-distance trace generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.util.rng import SeededRng
from repro.workloads import INFINITE, StackDistanceModel


class TestStackDistanceModel:
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
