"""Tests for spec naming."""

import pytest

from repro.core.naming import known_specs, name_spec
from repro.core.permutation import derive_spec_from_policy, equivalent, specs_equivalent
from repro.policies import PermutationSpec, PlruPolicy, fifo_spec, lru_spec
from repro.policies.permutation import identity
from tests.conftest import all_deterministic_policies

#: ``name_spec``'s answers recorded before naming compared miss-cycle
#: normal forms, when 6-8 ways tried every relabeling and then a long
#: random trace, and 16 ways only the trace: (policy, ways) -> names of
#: the derived spec, of ``_reversed`` of it and of ``_perturbed`` of it.
RECORDED_NAMES = {
    ("fifo", 6): ("fifo", "fifo", None),
    ("lru", 6): ("lru", "lru", None),
    ("fifo", 7): ("fifo", "fifo", None),
    ("lru", 7): ("lru", "lru", None),
    ("fifo", 8): ("fifo", "fifo", None),
    ("lru", 8): ("lru", "lru", None),
    ("plru", 8): ("plru", "plru", None),
    ("fifo", 16): ("fifo", "fifo", None),
    ("lru", 16): ("lru", "lru", None),
    ("plru", 16): ("plru", "plru", None),
}


def _reversed(spec: PermutationSpec) -> PermutationSpec:
    """Conjugate reversing positions 0 .. A-2 (A-1 stays the eviction position)."""
    ways = spec.ways
    return spec.conjugate(tuple(range(ways - 2, -1, -1)) + (ways - 1,))


def _perturbed(spec: PermutationSpec) -> PermutationSpec:
    """Make a hit at position 0 swap positions 0 and 1 (all recorded specs
    leave the order unchanged there)."""
    swap = (1, 0) + tuple(range(2, spec.ways))
    return PermutationSpec(spec.ways, (swap,) + spec.hit_perms[1:], spec.miss_perm)


def _derived_specs(ways: int) -> dict[str, PermutationSpec]:
    """Specs of the deterministic registry policies that derive at ``ways``."""
    specs = {}
    for name, policy in all_deterministic_policies(ways):
        spec = derive_spec_from_policy(policy)
        if spec is not None:
            specs[name] = spec
    return specs


class TestKnownSpecs:
    def test_power_of_two_includes_plru(self):
        table = known_specs(4)
        assert set(table) == {"lru", "fifo", "plru"}

    def test_non_power_of_two_excludes_plru(self):
        table = known_specs(6)
        assert set(table) == {"lru", "fifo"}

    def test_cached(self):
        assert known_specs(4) is known_specs(4)


class TestNameSpec:
    def test_names_classics(self):
        assert name_spec(lru_spec(4)) == "lru"
        assert name_spec(fifo_spec(8)) == "fifo"
        assert name_spec(derive_spec_from_policy(PlruPolicy(8))) == "plru"

    def test_names_up_to_relabeling(self):
        relabeled = lru_spec(4).conjugate((2, 0, 1, 3))
        assert name_spec(relabeled) == "lru"

    def test_undocumented_returns_none(self):
        from repro.core.permutation import standard_miss_perm
        from repro.policies import PermutationSpec
        from repro.policies.permutation import identity

        # Hits at 0/1 swap the top two positions, others identity: not a
        # classic policy.
        odd = PermutationSpec(
            4,
            ((1, 0, 2, 3), (1, 0, 2, 3), identity(4), identity(4)),
            standard_miss_perm(4),
        )
        assert name_spec(odd) is None


class TestRecordedNames:
    def test_every_derivable_registry_policy_is_recorded(self):
        derived = {(name, ways) for ways in (6, 7, 8, 16) for name in _derived_specs(ways)}
        assert derived == set(RECORDED_NAMES)

    @pytest.mark.parametrize("policy, ways", sorted(RECORDED_NAMES))
    def test_names_match_the_recorded_ones(self, policy, ways):
        spec = _derived_specs(ways)[policy]
        got = (name_spec(spec), name_spec(_reversed(spec)), name_spec(_perturbed(spec)))
        assert got == RECORDED_NAMES[(policy, ways)]


class TestNonCycleMiss:
    def test_falls_back_to_the_exhaustive_search(self):
        # Position 0 is fixed by the miss permutation, so the block there
        # is never evicted by misses: no relabeling makes it standard.
        pinned = PermutationSpec(3, (identity(3),) * 3, (0, 2, 1))
        others = [
            pinned,
            pinned.conjugate((1, 0, 2)),
            lru_spec(3),
            PermutationSpec(3, (identity(3), (1, 0, 2), identity(3)), (0, 2, 1)),
        ]
        answers = [specs_equivalent(pinned, other) for other in others]
        assert True in answers and False in answers
        assert [equivalent(pinned, other) for other in others] == answers
