"""Workload traces: generators, a stack-distance model, app models."""

from repro.workloads.generators import (
    cyclic_loop,
    hot_cold,
    pointer_chase,
    random_uniform,
    sequential_scan,
    strided,
    zipf,
)
from repro.workloads.stackdist import (
    INFINITE,
    StackDistanceModel,
)
from repro.workloads.synthetic import APP_MODELS, AppModel, workload_suite
from repro.workloads.trace import Trace

__all__ = [
    "Trace",
    "sequential_scan",
    "cyclic_loop",
    "random_uniform",
    "zipf",
    "strided",
    "pointer_chase",
    "hot_cold",
    "StackDistanceModel",
    "INFINITE",
    "APP_MODELS",
    "AppModel",
    "workload_suite",
]
