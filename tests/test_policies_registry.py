"""Tests for the policy registry and factories."""

import pytest

from repro.core.permutation import derive_spec_from_policy
from repro.errors import ConfigurationError, UnknownPolicyError
from repro.policies import (
    LruPolicy,
    PolicyFactory,
    available,
    default_policies,
    get,
    get_entry,
    lru_spec,
    register,
    unregister,
)
from repro.util.rng import SeededRng


class TestRegistry:
    def test_expected_names_present(self):
        names = available()
        for expected in ("lru", "fifo", "plru", "bitplru", "nru", "random",
                         "lip", "bip", "dip", "srrip", "brrip", "drrip",
                         "qlru_h00_m1", "permutation"):
            assert expected in names

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownPolicyError):
            get("clairvoyant", 4)

    def test_error_message_lists_known(self):
        with pytest.raises(UnknownPolicyError, match="lru"):
            PolicyFactory("nope")

    def test_every_policy_constructible(self):
        for name in available():
            if name == "permutation":
                policy = get(name, 4, spec=lru_spec(4))
            elif name == "plru":
                policy = get(name, 4)
            else:
                policy = get(name, 4, rng=SeededRng(0))
            assert policy.ways == 4

    def test_permutation_requires_spec(self):
        with pytest.raises(UnknownPolicyError, match="spec"):
            get("permutation", 4)


class TestRegisterDecorator:
    def test_decorator_registers_and_builds(self):
        @register(name="_test_lru")
        class ProbePolicy(LruPolicy):
            pass

        try:
            assert "_test_lru" in available()
            policy = get("_test_lru", 4)
            assert isinstance(policy, ProbePolicy)
            assert policy.ways == 4
            assert get_entry("_test_lru").cls is ProbePolicy
        finally:
            unregister("_test_lru")
        assert "_test_lru" not in available()

    def test_duplicate_name_rejected(self):
        @register(name="_test_dup")
        class FirstPolicy(LruPolicy):
            pass

        try:
            with pytest.raises(ConfigurationError, match="duplicate"):

                @register(name="_test_dup")
                class SecondPolicy(LruPolicy):
                    pass

        finally:
            unregister("_test_dup")

    def test_rng_and_dueling_exclusive(self):
        with pytest.raises(ConfigurationError):
            register(rng=True, dueling=True)

    def test_tags_select_and_order(self):
        assert available(tag="default-eval") == sorted(default_policies("eval"))
        # Curated groups keep registration order, lru leading.
        assert default_policies("eval")[0] == "lru"
        assert default_policies("predictability")[0] == "lru"

    def test_default_groups_cover_cli_defaults(self):
        assert default_policies("eval") == [
            "lru", "fifo", "plru", "bitplru", "srrip", "random"
        ]
        assert default_policies("predictability") == [
            "lru", "fifo", "plru", "bitplru", "nru"
        ]

    def test_get_rejects_invalid_geometry(self):
        with pytest.raises(ConfigurationError, match="power-of-two"):
            get("plru", 6)


class TestPolicyFactory:
    def test_build_per_set(self):
        factory = PolicyFactory("lru")
        shared = factory.create_shared(8, SeededRng(0))
        policies = [factory.build(4, i, shared) for i in range(8)]
        assert all(p.ways == 4 for p in policies)
        policies[0].touch(1)
        assert policies[1].state_key() == (0, 1, 2, 3)  # independent state

    def test_dueling_policies_share_context(self):
        factory = PolicyFactory("dip")
        shared = factory.create_shared(16, SeededRng(0))
        a = factory.build(4, 0, shared)
        b = factory.build(4, 1, shared)
        assert a._shared is b._shared

    def test_deterministic_flag(self):
        assert PolicyFactory("lru").deterministic
        assert not PolicyFactory("random").deterministic

    def test_params_forwarded(self):
        factory = PolicyFactory("srrip", rrpv_bits=3)
        policy = factory.build(4)
        assert policy.rrpv_max == 7


class TestWayBounds:
    """Every policy rejects a way outside its set, on hits and on fills."""

    @pytest.mark.parametrize("ways", [4, 8])
    @pytest.mark.parametrize("name", available())
    def test_out_of_range_way_rejected(self, name, ways):
        params = {}
        if name == "permutation":
            params["spec"] = derive_spec_from_policy(LruPolicy(ways))
        policy = get(name, ways, **params)
        for way in (-1, ways):
            for event in (policy.touch, policy.fill):
                with pytest.raises(ValueError):
                    event(way)
