"""Evaluation of replacement policies: performance and predictability."""

from repro.eval.comparison import AgreementMatrix, agreement_matrix
from repro.eval.hierarchy_eval import (
    DEFAULT_LATENCIES,
    HierarchyEvaluation,
    compare_policy_assignments,
    evaluate_hierarchy,
)
from repro.eval.missratio import (
    MissRatioCell,
    MissRatioMatrix,
    SweepPoint,
    cache_size_sweep,
    miss_ratio,
    miss_ratio_matrix,
    simulate_trace,
)
from repro.eval.predictability import (
    PredictabilityResult,
    collapse_depth_policy,
    collapse_depth_spec,
    evict_metric_policy,
    evict_metric_spec,
    predictability_of_policy,
    predictability_of_spec,
)

__all__ = [
    "DEFAULT_LATENCIES",
    "HierarchyEvaluation",
    "compare_policy_assignments",
    "evaluate_hierarchy",
    "AgreementMatrix",
    "agreement_matrix",
    "MissRatioCell",
    "MissRatioMatrix",
    "SweepPoint",
    "cache_size_sweep",
    "miss_ratio",
    "miss_ratio_matrix",
    "simulate_trace",
    "PredictabilityResult",
    "predictability_of_policy",
    "predictability_of_spec",
    "evict_metric_policy",
    "evict_metric_spec",
    "collapse_depth_policy",
    "collapse_depth_spec",
]
