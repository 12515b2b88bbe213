"""Property-based tests on the permutation-policy formalism.

These pin down the library's central invariants: random specs survive
the inference round trip, equivalence behaves like an equivalence
relation, and conjugation never changes observable behaviour.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PermutationInference, SimulatedSetOracle, equivalent
from repro.core.permutation import specs_equivalent, standard_miss_perm
from repro.policies import PermutationPolicy, PermutationSpec, lru_spec


def permutations_of(size):
    return st.permutations(list(range(size)))


@st.composite
def random_specs(draw, ways=4, cycle_miss=False):
    """Random standard-miss specs (the class inference targets).

    With ``cycle_miss`` the miss permutation is instead a random cycle
    through all positions, the class ``equivalent`` decides by normal form.
    """
    hits = tuple(tuple(draw(permutations_of(ways))) for _ in range(ways))
    miss = standard_miss_perm(ways)
    if cycle_miss:
        order = draw(permutations_of(ways))
        successor = {order[i]: order[(i + 1) % ways] for i in range(ways)}
        miss = tuple(successor[position] for position in range(ways))
    return PermutationSpec(ways, hits, miss)


@st.composite
def eviction_fixing_relabels(draw, ways=4):
    prefix = draw(st.permutations(list(range(ways - 1))))
    return tuple(prefix) + (ways - 1,)


@given(spec=random_specs())
@settings(max_examples=25, deadline=None)
def test_inference_round_trip(spec):
    """Inference over a black-box random spec recovers an equivalent spec."""
    oracle = SimulatedSetOracle(PermutationPolicy(4, spec))
    result = PermutationInference(oracle).infer()
    assert result.succeeded
    assert equivalent(result.spec, spec)


@given(spec=random_specs(), relabel=eviction_fixing_relabels())
@settings(max_examples=40, deadline=None)
def test_conjugation_preserves_behaviour(spec, relabel):
    """A relabeled spec is observationally equivalent to the original."""
    assert specs_equivalent(spec, spec.conjugate(relabel))


@given(spec=random_specs())
@settings(max_examples=40, deadline=None)
def test_equivalence_reflexive(spec):
    assert specs_equivalent(spec, spec)


@given(first=random_specs(), second=random_specs())
@settings(max_examples=25, deadline=None)
def test_equivalence_symmetric(first, second):
    assert specs_equivalent(first, second) == specs_equivalent(second, first)


@st.composite
def spec_pairs(draw):
    """A random spec and a random spec, a conjugate of it, or a conjugate
    with one hit permutation replaced, at 2-4 ways."""
    ways = draw(st.integers(min_value=2, max_value=4))
    first = draw(random_specs(ways, cycle_miss=draw(st.booleans())))
    kind = draw(st.sampled_from(["random", "conjugate", "perturbed"]))
    if kind == "random":
        return first, draw(random_specs(ways, cycle_miss=draw(st.booleans())))
    second = first.conjugate(draw(eviction_fixing_relabels(ways)))
    if kind == "perturbed":
        hits = list(second.hit_perms)
        index = draw(st.integers(min_value=0, max_value=ways - 1))
        hits[index] = tuple(draw(permutations_of(ways)))
        second = PermutationSpec(ways, tuple(hits), second.miss_perm)
    return first, second


@given(pair=spec_pairs())
@settings(max_examples=40, deadline=None)
def test_equivalent_agrees_with_the_exhaustive_search(pair):
    first, second = pair
    assert equivalent(first, second) == specs_equivalent(first, second)


@given(
    tags=st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=100)
)
@settings(max_examples=60, deadline=None)
def test_lru_spec_tracks_lru_on_any_trace(tags):
    """The analytic LRU spec is trace-equivalent to the list implementation."""
    from repro.cache.set import CacheSet
    from repro.policies import LruPolicy

    spec_set = CacheSet(4, PermutationPolicy(4, lru_spec(4)))
    lru_set = CacheSet(4, LruPolicy(4))
    for tag in tags:
        assert spec_set.access(tag).hit == lru_set.access(tag).hit
