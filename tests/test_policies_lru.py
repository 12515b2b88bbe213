"""Tests for LRU and its insertion-policy variants (LIP/BIP/DIP)."""

import hashlib
import random

import pytest

from repro.cache import Cache, CacheConfig
from repro.cache.set import CacheSet
from repro.kernels import vector
from repro.kernels.engine import simulate_trace_direct
from repro.policies import BipPolicy, DipPolicy, LipPolicy, LruPolicy, PolicyFactory
from repro.util.rng import SeededRng
from repro.workloads import Trace


def run_trace(policy, tags):
    """Drive a CacheSet and return the hit/miss outcome list."""
    cache_set = CacheSet(policy.ways, policy)
    return [cache_set.access(tag).hit for tag in tags]


class TestLru:
    def test_evicts_least_recent(self):
        policy = LruPolicy(2)
        cache_set = CacheSet(2, policy)
        cache_set.access(1)
        cache_set.access(2)
        result = cache_set.access(3)
        assert result.evicted_tag == 1

    def test_touch_refreshes(self):
        policy = LruPolicy(2)
        cache_set = CacheSet(2, policy)
        cache_set.access(1)
        cache_set.access(2)
        cache_set.access(1)  # 2 is now least recent
        result = cache_set.access(3)
        assert result.evicted_tag == 2

    def test_stack_behaviour_known_sequence(self):
        hits = run_trace(LruPolicy(4), [1, 2, 3, 4, 1, 2, 5, 1, 2, 3])
        #                               m  m  m  m  h  h  m  h  h  m
        assert hits == [False] * 4 + [True, True, False, True, True, False]

    def test_state_key_reflects_order(self):
        policy = LruPolicy(3)
        policy.touch(2)
        assert policy.state_key() == (2, 0, 1)

    def test_clone_independent(self):
        policy = LruPolicy(3)
        copy = policy.clone()
        policy.touch(2)
        assert copy.state_key() == (0, 1, 2)

    def test_reset(self):
        policy = LruPolicy(3)
        policy.touch(2)
        policy.reset()
        assert policy.state_key() == (0, 1, 2)

    def test_way_bounds_checked(self):
        with pytest.raises(ValueError):
            LruPolicy(2).touch(2)


class TestLip:
    def test_insertion_at_lru_makes_scans_self_evicting(self):
        # A scanning pattern over ways+1 blocks: under LRU everything
        # thrashes, under LIP the resident blocks survive the scan.
        scan = [1, 2, 3, 4, 5] * 4
        lru_hits = sum(run_trace(LruPolicy(4), scan))
        lip_hits = sum(run_trace(LipPolicy(4), scan))
        assert lru_hits == 0
        assert lip_hits > 0

    def test_hit_promotes(self):
        policy = LipPolicy(2)
        cache_set = CacheSet(2, policy)
        cache_set.access(1)
        cache_set.access(2)
        cache_set.access(2)  # promote 2 to MRU
        result = cache_set.access(3)  # inserted at LRU position
        # 3 was inserted at LRU, so a further miss evicts 3, not 1 or 2.
        result = cache_set.access(4)
        assert result.evicted_tag == 3


class TestBip:
    def test_epsilon_zero_equals_lip(self):
        trace = [1, 2, 3, 4, 5, 1, 2, 6] * 3
        bip = BipPolicy(4, rng=SeededRng(1), epsilon=0.0)
        lip = LipPolicy(4)
        assert run_trace(bip, trace) == run_trace(lip, trace)

    def test_epsilon_one_equals_lru(self):
        trace = [1, 2, 3, 4, 5, 1, 2, 6] * 3
        bip = BipPolicy(4, rng=SeededRng(1), epsilon=1.0)
        lru = LruPolicy(4)
        assert run_trace(bip, trace) == run_trace(lru, trace)

    def test_not_deterministic_flag(self):
        assert BipPolicy.DETERMINISTIC is False
        assert BipPolicy(4).state_key() is None


class TestDip:
    def test_standalone_instance_works(self):
        policy = DipPolicy(4, rng=SeededRng(0))
        cache_set = CacheSet(4, policy)
        for tag in [1, 2, 3, 4, 5, 1, 2, 3]:
            cache_set.access(tag)
        # No crash and set holds exactly 4 blocks.
        assert len(cache_set.resident_tags()) == 4

    def test_recency_stack_stays_a_permutation(self):
        shared = DipPolicy.create_shared(64, SeededRng(0))
        # An LRU leader, a follower and a BIP leader of a 64-set cache.
        for set_index in (0, 1, 8):
            policy = DipPolicy(4, shared=shared, set_index=set_index, epsilon=0.5)
            cache_set = CacheSet(4, policy)
            for tag in range(40):
                cache_set.access(tag % 6)
                assert sorted(policy._stack) == [0, 1, 2, 3]

    def test_shared_context_created_per_cache(self):
        shared = DipPolicy.create_shared(64, SeededRng(0))
        a = DipPolicy(4, shared=shared, set_index=0)
        b = DipPolicy(4, shared=shared, set_index=1)
        assert a._shared is b._shared


#: Sets of the DIP pin caches: enough for four leaders per component
#: and followers between them.
DIP_SETS = 64

#: DIP on ``_dip_stream(ways)`` in a ``DIP_SETS``-set cache, recorded
#: when DIP still kept separate LRU and BIP stacks: (ways, seed) ->
#: ((accesses, hits, misses, evictions), final PSEL, sha256 of the
#: per-access ``(hit, way, evicted_address)`` tuples).  The interpreted
#: ``Cache`` and ``simulate_trace_direct`` gave the same statistics.
RECORDED_DIP = {
    (1, 0): ((6000, 2512, 3488, 3424), 581, "a0f45c6c58152b6776cba58a4521450cd2e307485ceaea6d10ec2f8378c8aaaa"),
    (1, 1): ((6000, 2512, 3488, 3424), 581, "a0f45c6c58152b6776cba58a4521450cd2e307485ceaea6d10ec2f8378c8aaaa"),
    (1, 2): ((6000, 2512, 3488, 3424), 581, "a0f45c6c58152b6776cba58a4521450cd2e307485ceaea6d10ec2f8378c8aaaa"),
    (2, 0): ((6000, 2628, 3372, 3244), 546, "d932579bc7d256cf861ec6ca663f5b1e2a118c062f4cde8933082be543f62cce"),
    (2, 1): ((6000, 2638, 3362, 3234), 547, "8ae1e22474274bfa17e2724e716a84dc9136e026577de6c77feef46941a5ed7e"),
    (2, 2): ((6000, 2601, 3399, 3271), 545, "7a79605f92e2fcd9fdf3f0160add89aa96b1ffe4066dc2947c5f868e495091fb"),
    (4, 0): ((6000, 2466, 3534, 3278), 537, "147fa5b4df08604aabd62ed7bf5e8e8476831b4a271333fb82f0e159bea45369"),
    (4, 1): ((6000, 2494, 3506, 3250), 551, "3fea709f4a2ebf129e4428776c5fa2a762cc4208b308071bb5e4394ba182b459"),
    (4, 2): ((6000, 2488, 3512, 3256), 544, "c347fb90b6af5ff3bb9412e7befb322f9a05b9063807f483ce82dfade4b5fb31"),
    (8, 0): ((6000, 2609, 3391, 2879), 581, "72a95450e8194831066eba4c70ba57bed3ac5afc536ab258849b0c4bec81e3fa"),
    (8, 1): ((6000, 2609, 3391, 2879), 574, "7bfc83109c6b8e295e8b3ce2d4a7178d2c99b7dbe057fe7a48b590cff34f202d"),
    (8, 2): ((6000, 2604, 3396, 2884), 577, "73b9b6304ac53a9f1b83b4bbb8939a204b47b6db8f00b9ac7a2fe896ef837ecc"),
    (16, 0): ((6000, 2473, 3527, 2503), 571, "207b9bdccb96534bd5eaf0821294cd5612658726bba1ce23dca52d2545233f2a"),
    (16, 1): ((6000, 2463, 3537, 2513), 577, "6376d9a9cd6ce5ecd6cdccf0307ecb8223bee2ab5a64b56e20ea62dae3623279"),
    (16, 2): ((6000, 2460, 3540, 2516), 576, "0c6c96365701da3b0af8142594eac298cfff498b4d4fc5ab5521e5b2956040f8"),
}

#: Victims of ``_drive`` on a follower with ``epsilon=0.3``: the
#: original, then its clone, then the original again (same recording).
RECORDED_CLONE_VICTIMS = [
    [3, 2, 1, 1, 0, 0, 3, 3, 2, 2, 1, 0, 3, 2, 1, 3, 2, 2, 0, 1, 3, 2, 1, 1, 1, 1, 1, 0, 0, 0, 3, 3],
    [2, 1, 0, 0, 3, 3, 3, 2, 2, 2, 1, 1, 0, 0, 3, 2, 2, 2, 1, 1, 0, 3, 3, 3, 2, 1, 1, 1, 0, 0, 3, 3],
    [2, 2, 1, 1, 0, 0, 3, 3, 2, 2, 1, 0, 0, 3, 3, 3, 2, 1, 1, 1, 0, 3, 3, 2, 1, 0, 0, 0, 3, 3, 3, 2],
]


def _dip_stream(ways: int, length: int = 6000) -> tuple[int, ...]:
    """Uniform random lines over 3x the cache mixed with a loop just above it."""
    rng = random.Random(2014)
    lines = DIP_SETS * ways
    loop = lines + lines // 4 + 1
    addresses = []
    for index in range(length):
        if rng.random() < 0.4:
            addresses.append(rng.randrange(3 * lines) * 64)
        else:
            addresses.append((index % loop) * 64)
    return tuple(addresses)


def _drive(policy: DipPolicy) -> list[int]:
    """Two misses then a hit, 16 times over; the victims of the misses."""
    victims = []
    for step in range(48):
        if step % 3 == 2:
            policy.touch(step % policy.ways)
        else:
            victim = policy.evict()
            policy.fill(victim)
            victims.append(victim)
    return victims


class TestDipRecorded:
    """DIP's answers are pinned to the recording above."""

    @pytest.mark.parametrize("ways,seed", sorted(RECORDED_DIP))
    def test_cache_matches_the_recording(self, ways, seed):
        stats, psel, digest = RECORDED_DIP[(ways, seed)]
        config = CacheConfig("dip", DIP_SETS * ways * 64, ways)
        trace = Trace("dip-mix", _dip_stream(ways))
        cache = Cache(config, "dip", rng=SeededRng(seed))
        hasher = hashlib.sha256()
        for address in trace.addresses:
            result = cache.access(address)
            hasher.update(repr((result.hit, result.way, result.evicted_address)).encode())
        snapshot = cache.stats.snapshot()
        assert (snapshot.accesses, snapshot.hits, snapshot.misses, snapshot.evictions) == stats
        assert cache.shared.controller.psel == psel
        assert hasher.hexdigest() == digest
        direct = simulate_trace_direct(trace, config, PolicyFactory("dip"), seed)
        assert (direct.accesses, direct.hits, direct.misses, direct.evictions) == stats

    @pytest.mark.skipif(not vector.available(), reason="numpy not installed")
    @pytest.mark.parametrize("ways,seed", sorted(RECORDED_DIP))
    def test_vector_stepper_matches_the_recording(self, ways, seed):
        stats = RECORDED_DIP[(ways, seed)][0]
        config = CacheConfig("dip", DIP_SETS * ways * 64, ways)
        trace = Trace("dip-mix", _dip_stream(ways))
        stepped = vector.simulate_trace_randomized(trace, config, PolicyFactory("dip"), seed)
        assert (stepped.accesses, stepped.hits, stepped.misses, stepped.evictions) == stats

    def test_clone_shares_the_bip_stream(self):
        shared = DipPolicy.create_shared(DIP_SETS, SeededRng(0))
        controller = shared.controller
        assert not controller.is_primary_leader(1) and not controller.is_secondary_leader(1)
        assert not controller.use_primary(1)  # PSEL at its midpoint: BIP draws
        original = DipPolicy(4, shared=shared, set_index=1, epsilon=0.3)
        first = _drive(original)
        second = _drive(original.clone())
        third = _drive(original)
        assert [first, second, third] == RECORDED_CLONE_VICTIMS
