"""Tests for spec derivation and equivalence."""

from repro.core.permutation import (
    derive_spec_from_policy,
    equivalent,
    specs_equivalent,
    standard_miss_perm,
)
from repro.policies import (
    BitPlruPolicy,
    FifoPolicy,
    LruPolicy,
    NruPolicy,
    PlruPolicy,
    SrripPolicy,
    fifo_spec,
    get,
    lru_spec,
)


class TestDerivation:
    def test_lru_derives_to_analytic_spec(self):
        for ways in (2, 3, 4, 6, 8):
            assert derive_spec_from_policy(LruPolicy(ways)) == lru_spec(ways)

    def test_fifo_derives_to_analytic_spec(self):
        for ways in (2, 4, 8):
            assert derive_spec_from_policy(FifoPolicy(ways)) == fifo_spec(ways)

    def test_plru_is_a_permutation_policy(self):
        # The RTAS 2013 lemma, checked computationally.
        for ways in (2, 4, 8, 16):
            assert derive_spec_from_policy(PlruPolicy(ways)) is not None

    def test_plru2_equals_lru2(self):
        assert derive_spec_from_policy(PlruPolicy(2)) == lru_spec(2)

    def test_age_policies_are_not_standard_miss(self):
        for policy in (BitPlruPolicy(4), NruPolicy(4), SrripPolicy(4),
                       get("qlru_h00_m1", 4)):
            assert derive_spec_from_policy(policy) is None

    def test_plru_spec_predicts_plru(self):
        # Round trip through the CacheSet on a fresh random trace.
        import random

        from repro.cache.set import CacheSet
        from repro.policies import PermutationPolicy

        spec = derive_spec_from_policy(PlruPolicy(4))
        rng = random.Random(42)
        reference = CacheSet(4, PlruPolicy(4))
        candidate = CacheSet(4, PermutationPolicy(4, spec))
        # Align through a full thrash + establishment (steady state).
        for block in list(range(100, 104)) + list(range(4)):
            reference.access(block)
            candidate.access(block)
        for _ in range(2000):
            block = rng.randrange(7)
            assert reference.access(block).hit == candidate.access(block).hit


class TestEquivalence:
    def test_reflexive(self):
        assert specs_equivalent(lru_spec(4), lru_spec(4))

    def test_lru_not_fifo(self):
        assert not specs_equivalent(lru_spec(4), fifo_spec(4))
        assert not equivalent(lru_spec(8), fifo_spec(8))

    def test_conjugates_are_equivalent(self):
        spec = lru_spec(4)
        relabeled = spec.conjugate((2, 0, 1, 3))
        assert specs_equivalent(spec, relabeled)

    def test_different_ways_not_equivalent(self):
        assert not specs_equivalent(lru_spec(2), lru_spec(4))
        assert not equivalent(lru_spec(2), lru_spec(4))

    def test_plru_neither_lru_nor_fifo(self):
        plru = derive_spec_from_policy(PlruPolicy(4))
        assert not specs_equivalent(plru, lru_spec(4))
        assert not specs_equivalent(plru, fifo_spec(4))

    def test_equivalent_uses_fallbacks_for_large_ways(self):
        spec = lru_spec(16)
        relabeled = spec.conjugate(tuple(list(range(14, -1, -1)) + [15]))
        assert equivalent(spec, relabeled)


class TestStandardMissPerm:
    def test_shape(self):
        assert standard_miss_perm(4) == (1, 2, 3, 0)
        assert standard_miss_perm(2) == (1, 0)
