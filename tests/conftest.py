"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cache import CacheConfig
from repro.cache.set import CacheSet
from repro.policies import available, get

#: Registry names of deterministic policies usable at any associativity.
DETERMINISTIC_ANY_WAYS = [
    name
    for name in available()
    if name not in ("permutation", "plru", "random", "bip", "dip", "brrip", "drrip")
]

#: Deterministic policies that additionally require power-of-two ways.
DETERMINISTIC_POW2_ONLY = ["plru"]

#: Randomized policies (no state_key, need an rng).
RANDOMIZED = ["random", "bip", "dip", "brrip", "drrip"]


@pytest.fixture(autouse=True)
def _isolated_automaton_store(tmp_path_factory):
    """Route the automaton store to a per-test temp directory.

    The cache directory defaults to a repo-local ``.repro-cache/``; tests
    must neither read a developer's warm cache (hiding cold-path bugs)
    nor litter the working tree.  The store's handle and memos are
    dropped on both sides so no state crosses tests.
    """
    from repro.kernels import store

    store.set_cache_dir(tmp_path_factory.mktemp("repro-cache"))
    yield
    store.set_cache_dir(None)


@pytest.fixture
def l1_config() -> CacheConfig:
    """A small L1-like configuration: 4 KiB, 4-way, 16 sets."""
    return CacheConfig("L1", 4 * 1024, 4)


@pytest.fixture
def tiny_config() -> CacheConfig:
    """A deliberately tiny cache: 512 B, 2-way, 4 sets."""
    return CacheConfig("tiny", 512, 2)


def all_deterministic_policies(ways: int):
    """(name, policy) pairs for every deterministic policy at ``ways``."""
    names = list(DETERMINISTIC_ANY_WAYS)
    if ways & (ways - 1) == 0:
        names += DETERMINISTIC_POW2_ONLY
    return [(name, get(name, ways)) for name in sorted(names)]


def interpreted_misses(policy, setup, probe) -> int:
    """Probe misses after ``setup`` on a fresh interpreted set.

    The reference every compiled single-set engine must equal; pass a
    freshly built ``policy``, which the set drives.
    """
    cache_set = CacheSet(policy.ways, policy)
    for block in setup:
        cache_set.access(block)
    return sum(1 for block in probe if not cache_set.access(block).hit)
