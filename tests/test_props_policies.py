"""Property-based tests over the whole policy zoo.

Every deterministic policy must satisfy the structural contract of the
policy interface for arbitrary operation sequences; hypothesis generates
the sequences.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.set import CacheSet
from repro.core.permutation import derive_spec_from_policy
from repro.policies import get, lru_spec
from tests.conftest import all_deterministic_policies

WAYS = 4

policy_names = st.sampled_from([name for name, _ in all_deterministic_policies(WAYS)])
tag_sequences = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=120)


def build(name):
    if name == "permutation":
        return get(name, WAYS, spec=lru_spec(WAYS))
    return get(name, WAYS)


@given(name=policy_names, tags=tag_sequences)
@settings(max_examples=150, deadline=None)
def test_set_invariants_hold(name, tags):
    """Occupancy and uniqueness invariants for every policy."""
    cache_set = CacheSet(WAYS, build(name))
    resident = set()
    for tag in tags:
        result = cache_set.access(tag)
        # A hit must not change occupancy; a miss installs exactly the tag.
        if result.hit:
            assert tag in resident
        else:
            assert tag not in resident
            resident.add(tag)
            if result.evicted_tag is not None:
                assert result.evicted_tag in resident
                resident.discard(result.evicted_tag)
        assert cache_set.resident_tags() == resident
        contents = [t for t in cache_set.contents() if t is not None]
        assert len(contents) == len(set(contents))
        assert len(contents) <= WAYS


@given(name=policy_names, tags=tag_sequences)
@settings(max_examples=100, deadline=None)
def test_determinism(name, tags):
    """The same trace always produces the same outcomes."""

    def run():
        cache_set = CacheSet(WAYS, build(name))
        return [cache_set.access(tag).hit for tag in tags]

    assert run() == run()


@given(name=policy_names, tags=tag_sequences)
@settings(max_examples=100, deadline=None)
def test_clone_is_transparent(name, tags):
    """Cloning mid-trace must not change subsequent behaviour."""
    split = len(tags) // 2
    reference = CacheSet(WAYS, build(name))
    for tag in tags[:split]:
        reference.access(tag)
    forked = reference.clone()
    tail_reference = [reference.access(tag).hit for tag in tags[split:]]
    tail_forked = [forked.access(tag).hit for tag in tags[split:]]
    assert tail_reference == tail_forked


@given(name=policy_names, tags=tag_sequences)
@settings(max_examples=100, deadline=None)
def test_state_key_characterises_future(name, tags):
    """Equal state keys imply equal responses to the next access."""
    a = CacheSet(WAYS, build(name))
    b = CacheSet(WAYS, build(name))
    for tag in tags:
        a.access(tag)
        b.access(tag)
    assert a.state_key() == b.state_key()
    for probe in range(10):
        assert a.clone().access(probe).hit == b.clone().access(probe).hit


@given(tags=tag_sequences)
@settings(max_examples=100, deadline=None)
def test_lru_inclusion_property(tags):
    """An a-way LRU set's contents are included in a larger LRU set's.

    The classic stack property of LRU, on fully associative caches.
    """
    small = CacheSet(4, get("lru", 4))
    large = CacheSet(8, get("lru", 8))
    for tag in tags:
        small.access(tag)
        large.access(tag)
        assert small.resident_tags() <= large.resident_tags()


#: Every deterministic policy, plus the permutation policy on two specs.
LOADABLE = {name: (name, {}) for name, _ in all_deterministic_policies(WAYS)}
LOADABLE["permutation-lru"] = ("permutation", {"spec": lru_spec(WAYS)})
LOADABLE["permutation-plru"] = (
    "permutation",
    {"spec": derive_spec_from_policy(get("plru", WAYS))},
)

policy_events = st.lists(
    st.tuples(
        st.sampled_from(["touch", "fill", "evict"]),
        st.integers(min_value=0, max_value=WAYS - 1),
    ),
    max_size=40,
)


def _step(policy, event):
    kind, way = event
    if kind == "evict":
        return policy.evict()
    getattr(policy, kind)(way)
    return None


@given(
    label=st.sampled_from(sorted(LOADABLE)),
    history=policy_events,
    other=policy_events,
    continuation=policy_events,
)
@settings(max_examples=300, deadline=None)
def test_load_state_round_trips(label, history, other, continuation):
    """``load_state(state_key())`` reproduces a policy exactly.

    A second instance, first driven somewhere else, loads the key of the
    first; from then on both must agree on every key and every victim.
    This is all the compiled kernel relies on to expand an automaton
    through one scratch policy.
    """
    name, params = LOADABLE[label]
    source = get(name, WAYS, **params)
    loaded = get(name, WAYS, **params)
    for event in history:
        _step(source, event)
    for event in other:
        _step(loaded, event)
    loaded.load_state(source.state_key())
    assert loaded.state_key() == source.state_key()
    for event in continuation:
        assert _step(loaded, event) == _step(source, event)
        assert loaded.state_key() == source.state_key()
