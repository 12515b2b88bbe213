"""Replacement policies and the policy registry.

The registry (:mod:`repro.policies.registry`) maps stable string names
to policy constructors so that caches, hardware catalogs, experiments,
and the command line can all refer to policies by name.  Policy classes
register themselves with the :func:`register` decorator at import time;
the import order below therefore fixes the registration order that
:func:`default_policies` groups preserve.

Use :func:`get` for a standalone per-set instance, :class:`PolicyFactory`
when building a whole cache (it threads the cache-global shared context
needed by set-dueling policies), and :func:`available` to enumerate
names.
"""

from __future__ import annotations

from repro.policies.base import ReplacementPolicy, SharedContext
from repro.policies.registry import (
    PolicyEntry,
    PolicyFactory,
    available,
    default_policies,
    get,
    get_entry,
    register,
    register_builder,
    unregister,
)

# Importing the implementation modules populates the registry; the order
# here is the registration order (and thus the order of the CLI's
# default policy groups).
from repro.policies.lru import BipPolicy, DipPolicy, LipPolicy, LruPolicy
from repro.policies.fifo import FifoPolicy
from repro.policies.plru import PlruPolicy
from repro.policies.mru import BitPlruPolicy, NruPolicy
from repro.policies.rrip import BrripPolicy, DrripPolicy, SrripPolicy
from repro.policies.random_policy import RandomPolicy
from repro.policies.clock import ClockPolicy
from repro.policies.slru import SlruPolicy
from repro.policies.qlru import HIT_FUNCTIONS, QlruPolicy, qlru_variants
from repro.policies.permutation import (
    PermutationPolicy,
    PermutationSpec,
    fifo_spec,
    lru_spec,
)
from repro.policies.dueling import DuelController

__all__ = [
    "ReplacementPolicy",
    "SharedContext",
    "DuelController",
    "LruPolicy",
    "LipPolicy",
    "BipPolicy",
    "DipPolicy",
    "FifoPolicy",
    "PlruPolicy",
    "BitPlruPolicy",
    "NruPolicy",
    "RandomPolicy",
    "ClockPolicy",
    "SlruPolicy",
    "SrripPolicy",
    "BrripPolicy",
    "DrripPolicy",
    "QlruPolicy",
    "PermutationPolicy",
    "PermutationSpec",
    "lru_spec",
    "fifo_spec",
    "HIT_FUNCTIONS",
    "qlru_variants",
    "PolicyEntry",
    "PolicyFactory",
    "register",
    "register_builder",
    "unregister",
    "available",
    "default_policies",
    "get",
    "get_entry",
]
