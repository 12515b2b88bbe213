"""repro: reverse engineering of cache replacement policies.

A from-scratch reproduction of Abel & Reineke, *Reverse engineering of
cache replacement policies in Intel microprocessors and their
evaluation* (ISPASS 2014), with the hardware side replaced by a faithful
simulated measurement platform (see DESIGN.md).

Quick start::

    from repro import HardwarePlatform, HardwareSetOracle, get_processor
    from repro import reverse_engineer

    platform = HardwarePlatform(get_processor("nehalem-like"))
    finding = reverse_engineer(HardwareSetOracle(platform, "L1"))
    print(finding.summary())   # -> "plru (permutation)"

Package map:

* :mod:`repro.policies` — replacement policy zoo and registry;
* :mod:`repro.cache` — set-associative caches and hierarchies;
* :mod:`repro.hardware` — simulated processors, counters, the harness;
* :mod:`repro.core` — the inference algorithms (the paper's contribution);
* :mod:`repro.workloads` — trace generators and app models;
* :mod:`repro.eval` — performance and predictability evaluation;
* :mod:`repro.runner` — deterministic parallel experiment runner;
* :mod:`repro.obs` — metrics, timed spans and the run ledger.
"""

from repro.cache import Cache, CacheConfig, CacheHierarchy
from repro.core import (
    CandidateIdentification,
    InferenceConfig,
    PermutationInference,
    SimulatedSetOracle,
    VotingOracle,
    derive_spec_from_policy,
    equivalent,
    name_spec,
    reverse_engineer,
)
from repro.errors import (
    ConfigurationError,
    InferenceError,
    MeasurementError,
    ReproError,
    SimulationError,
    TraceFormatError,
    UnknownPolicyError,
)
from repro.hardware import (
    PROCESSORS,
    HardwarePlatform,
    HardwareSetOracle,
    NoiseModel,
    get_processor,
)
from repro.errors import ResultSchemaError
from repro.obs import Metrics, RunLedger, validate_ledger
from repro.policies import (
    PermutationPolicy,
    PermutationSpec,
    PolicyFactory,
    available,
    available_policies,
    default_policies,
    get,
    make_policy,
    register,
)
from repro.runner import ExperimentRunner, SimCell, run_sim_cells
from repro.workloads import APP_MODELS, Trace, workload_suite

__version__ = "1.0.0"

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheHierarchy",
    "PermutationInference",
    "InferenceConfig",
    "CandidateIdentification",
    "SimulatedSetOracle",
    "VotingOracle",
    "derive_spec_from_policy",
    "equivalent",
    "name_spec",
    "reverse_engineer",
    "HardwarePlatform",
    "HardwareSetOracle",
    "NoiseModel",
    "PROCESSORS",
    "get_processor",
    "PermutationPolicy",
    "PermutationSpec",
    "PolicyFactory",
    "available",
    "available_policies",
    "default_policies",
    "get",
    "make_policy",
    "register",
    "Metrics",
    "RunLedger",
    "validate_ledger",
    "Trace",
    "APP_MODELS",
    "workload_suite",
    "ExperimentRunner",
    "SimCell",
    "run_sim_cells",
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "MeasurementError",
    "InferenceError",
    "UnknownPolicyError",
    "TraceFormatError",
    "ResultSchemaError",
    "__version__",
]
