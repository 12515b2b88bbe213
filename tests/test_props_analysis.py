"""Property-based soundness tests for the static cache analysis.

The single most important property of the whole analysis package: on
randomly generated programs, every always-hit classification truly hits
and every always-miss truly misses, on every sampled execution path —
for the plain LRU analysis and for the generic analysis under several
policies.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import BasicBlock, Program, analyze, check_soundness
from repro.analysis.generic import generic_analysis
from repro.cache import CacheConfig
from repro.policies import get

CONFIG = CacheConfig("L1", 512, 4)  # 2 sets, 4-way: plenty of contention
LINE_POOL = [k * 64 for k in range(10)]  # 10 lines over 2 sets


@st.composite
def random_programs(draw):
    """Random small CFGs: 2-5 blocks, random accesses, random edges."""
    block_count = draw(st.integers(min_value=2, max_value=5))
    blocks = {}
    for index in range(block_count):
        accesses = draw(
            st.lists(st.sampled_from(LINE_POOL), min_size=0, max_size=6)
        )
        blocks[f"B{index}"] = BasicBlock(f"B{index}", tuple(accesses))
    edges = {}
    names = list(blocks)
    for index, name in enumerate(names):
        # Bias towards forward edges so paths terminate, allow back edges.
        candidates = names[index + 1 :] + ([names[index]] if draw(st.booleans()) else [])
        if index > 0 and draw(st.booleans()):
            candidates.append(names[draw(st.integers(0, index - 1))])
        count = draw(st.integers(min_value=0, max_value=min(2, len(candidates))))
        if candidates and count:
            targets = tuple(
                draw(st.sampled_from(candidates)) for _ in range(count)
            )
            edges[name] = tuple(dict.fromkeys(targets))
    return Program(blocks=blocks, edges=edges, entry="B0")


@given(program=random_programs(), seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_lru_analysis_sound(program, seed):
    result = analyze(program, CONFIG)
    assert check_soundness(program, CONFIG, result, paths=15, seed=seed) == []


@given(program=random_programs())
@settings(max_examples=15, deadline=None)
def test_generic_analysis_sound_for_non_lru_policies(program):
    for policy_name in ("fifo", "plru", "bitplru"):
        policy = get(policy_name, CONFIG.ways)
        result = generic_analysis(program, CONFIG, policy)
        violations = check_soundness(
            program, CONFIG, result, policy=policy_name, paths=10
        )
        assert violations == [], (policy_name, violations)


@given(program=random_programs())
@settings(max_examples=25, deadline=None)
def test_lru_guarantees_dominate_generic_weaker_policies(program):
    """The LRU analysis proves at least as many hits as FIFO's generic
    analysis on the same program — mls(LRU) is maximal."""
    lru_hits = analyze(program, CONFIG).counts()["always-hit"]
    fifo_hits = generic_analysis(
        program, CONFIG, get("fifo", CONFIG.ways)
    ).counts()["always-hit"]
    assert lru_hits >= fifo_hits
