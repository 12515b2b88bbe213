"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by the library derive from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A cache, policy, or hardware configuration is invalid.

    Raised eagerly at construction time: for example a cache whose size is
    not divisible by ``line_size * ways``, or a permutation policy whose
    vectors are not permutations.
    """


class SimulationError(ReproError):
    """The simulator was driven into an impossible situation.

    This indicates a bug in the caller (for example filling a way that is
    already valid) rather than a property of the simulated workload.
    """


class MeasurementError(ReproError):
    """A hardware measurement could not be carried out.

    Examples: the harness cannot construct enough same-set addresses from
    the available memory buffer, or a counter for the requested cache level
    does not exist on the simulated platform.
    """


class InferenceError(ReproError):
    """Reverse engineering failed to produce a consistent result.

    Carries a human-readable reason; the most common cause is a target
    policy outside the supported class (for example a randomized policy)
    combined with ``strict=True``.
    """


class UnknownPolicyError(ReproError):
    """A policy name was not found in the policy registry."""


class KernelUnsupported(ReproError):
    """A policy cannot run on the compiled simulation kernel.

    Raised by :func:`repro.kernels.compile_policy` for randomized or
    adaptive policies (no hashable ``state_key``) and by a running kernel
    when a policy's reachable state space exceeds the compilation budget.
    Callers catch this and fall back to the interpreted simulator, whose
    results the kernel is bit-identical to.
    """


class TraceFormatError(ReproError):
    """A trace is malformed: it holds a negative address."""


class ResultSchemaError(ReproError):
    """A run ledger violates the documented schema.

    Raised by :func:`repro.obs.ledger.validate_ledger` with a
    field-level message; see OBSERVABILITY.md for the schema.
    """
