"""The paper's contribution: measurement-based policy reverse engineering.

Public surface:

* :class:`~repro.core.oracle.MissCountOracle` and implementations — the
  measurement abstraction;
* :class:`~repro.core.inference.PermutationInference` — permutation
  policy inference from miss counts;
* :class:`~repro.core.identify.CandidateIdentification` — hypothesis
  elimination for policies outside the permutation class;
* :func:`~repro.core.report.reverse_engineer` — the combined pipeline;
* the permutation-spec algorithm toolbox in
  :mod:`repro.core.permutation`.
"""

from repro.core.adaptive import (
    AdaptivityReport,
    AdaptivitySurvey,
    SetClassification,
    detect_nondeterminism,
)
from repro.core.distinguish import (
    bfs_distinguishing_sequence,
    established_set,
    miss_count,
    random_distinguishing_sequence,
    response,
)
from repro.core.evictionsets import (
    EvictionTester,
    PlatformEvictionTester,
    find_eviction_set,
)
from repro.core.geometry import (
    AddressOracle,
    GeometryFinding,
    GeometryInference,
    PlatformAddressOracle,
)
from repro.core.identify import (
    CandidateIdentification,
    IdentificationConfig,
    IdentificationResult,
    default_candidates,
)
from repro.core.inference import InferenceConfig, InferenceResult, PermutationInference
from repro.core.naming import known_specs, name_spec
from repro.core.oracle import (
    CachingOracle,
    MissCountOracle,
    OracleProtocol,
    SimulatedSetOracle,
    VotingOracle,
    policy_provenance,
)
from repro.core.permutation import (
    derive_spec_from_policy,
    equivalent,
    specs_equivalent,
    standard_miss_perm,
)
from repro.core.query import (
    AccessOutcome,
    ParsedQuery,
    QueryParseError,
    QueryResult,
    parse_query,
    run_query,
)
from repro.core.report import PolicyFinding, reverse_engineer

__all__ = [
    "AdaptivityReport",
    "AdaptivitySurvey",
    "SetClassification",
    "detect_nondeterminism",
    "EvictionTester",
    "PlatformEvictionTester",
    "find_eviction_set",
    "AddressOracle",
    "GeometryFinding",
    "GeometryInference",
    "PlatformAddressOracle",
    "MissCountOracle",
    "OracleProtocol",
    "policy_provenance",
    "SimulatedSetOracle",
    "VotingOracle",
    "CachingOracle",
    "PermutationInference",
    "InferenceConfig",
    "InferenceResult",
    "CandidateIdentification",
    "IdentificationConfig",
    "IdentificationResult",
    "default_candidates",
    "derive_spec_from_policy",
    "specs_equivalent",
    "equivalent",
    "standard_miss_perm",
    "known_specs",
    "name_spec",
    "bfs_distinguishing_sequence",
    "random_distinguishing_sequence",
    "established_set",
    "response",
    "miss_count",
    "PolicyFinding",
    "reverse_engineer",
    "AccessOutcome",
    "ParsedQuery",
    "QueryParseError",
    "QueryResult",
    "parse_query",
    "run_query",
]
