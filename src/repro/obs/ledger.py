"""Run ledgers: the one schema-versioned record every run leaves.

Reproducing a measurement paper means being able to answer, for any
number in any table, *which code, inputs and environment produced it*.
A :class:`RunLedger` is that answer and the number itself: the JSON
record every run writes (CLI ``--metrics`` runs, all E1-E12 benchmarks
and the acceptance benches), carrying the experiment's table next to
its provenance and cost:

.. code-block:: json

    {
      "ledger_schema_version": 2,
      "name": "e3_missratio",
      "created": "2026-02-11T09:30:12Z",
      "wall_seconds": 12.7,
      "params": {"policies": ["lru", "fifo"], "seed": 0},
      "seed": 0,
      "jobs": 4,
      "kernel": null,
      "git": {"sha": "b557c57...", "dirty": false},
      "env": {"python": "3.11.9", "platform": "Linux-...", "cpu_count": 8},
      "counters": {"oracle.measurements": 1234, "kernel.calls": 99},
      "observations": {"runner.cell_seconds": {"count": 81, "total": 0.9}},
      "data": {"config": {...}, "cells": [...]}
    }

Field contract (checked by :func:`validate_ledger`):

* ``ledger_schema_version`` — integer, currently
  :data:`LEDGER_SCHEMA_VERSION`; any other version is rejected;
* ``name`` — non-empty string; ``created`` — UTC timestamp string;
* ``wall_seconds`` — number; ``params`` / ``env`` / ``counters`` /
  ``observations`` — JSON objects; ``git`` — object or null;
* ``seed`` / ``jobs`` — integer or null; ``kernel`` — boolean or null
  (:func:`build_ledger` writes null; older ledgers recorded the kernel switch);
* ``data`` — the experiment's payload, any JSON value.

``counters`` and ``observations`` are the run's
:meth:`~repro.obs.metrics.Metrics.snapshot`, so two ledgers can be
*diffed* — wall time, query budget (``oracle.measurements`` /
``oracle.accesses``), kernel usage — and the ``repro-cache report``
subcommand renders exactly that comparison.

CI holds the ledgers a fresh benchmark run writes to the committed ones
with :func:`gate` (``repro-cache report --gate COMMITTED_DIR FRESH...``),
by the per-experiment rules of :data:`GATE`.

``python -m repro.obs.ledger FILE...`` validates ledger files (used by
CI): exit 0 when all are valid, 1 on an invalid file, 2 on no argument.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import subprocess
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ResultSchemaError
from repro.util.tables import format_table

__all__ = [
    "GATE",
    "LEDGER_SCHEMA_VERSION",
    "GateRule",
    "RunLedger",
    "build_ledger",
    "collect_env",
    "diff_ledgers",
    "format_ledger",
    "gate",
    "git_revision",
    "read_ledger",
    "validate_ledger",
    "write_ledger",
    "main",
]

#: Current version of the ledger manifest schema.
LEDGER_SCHEMA_VERSION = 2


def git_revision(cwd: str | Path | None = None) -> dict | None:
    """``{"sha": ..., "dirty": ...}`` of the enclosing git checkout.

    Returns None when git is unavailable or the directory is not a
    repository — a ledger must never fail the run it documents.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        if sha.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        return {"sha": sha.stdout.strip(), "dirty": dirty}
    except Exception:
        return None


def collect_env() -> dict:
    """The environment facts that matter for reproducing a run."""
    return {
        "python": sys.version.split()[0],
        "platform": _platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def validate_ledger(payload: object) -> dict:
    """Check ``payload`` against the ledger schema; return it on success.

    Raises :class:`~repro.errors.ResultSchemaError` with a field-level
    message on any violation.
    """
    if not isinstance(payload, dict):
        raise ResultSchemaError(
            f"ledger must be a JSON object, got {type(payload).__name__}"
        )
    # The version goes first: a ledger of another version is named as
    # such, not as a list of the fields this version added.
    if "ledger_schema_version" in payload:
        version = payload["ledger_schema_version"]
        if not isinstance(version, int) or isinstance(version, bool):
            raise ResultSchemaError(
                f"ledger_schema_version must be an integer, got {version!r}"
            )
        if version != LEDGER_SCHEMA_VERSION:
            raise ResultSchemaError(
                f"unsupported ledger_schema_version {version} "
                f"(supported: {LEDGER_SCHEMA_VERSION})"
            )
    required = (
        "ledger_schema_version", "name", "created", "wall_seconds",
        "params", "seed", "jobs", "kernel", "git", "env", "counters",
        "observations", "data",
    )
    missing = [key for key in required if key not in payload]
    if missing:
        raise ResultSchemaError(f"ledger is missing fields: {', '.join(missing)}")
    if not isinstance(payload["name"], str) or not payload["name"]:
        raise ResultSchemaError(
            f"name must be a non-empty string, got {payload['name']!r}"
        )
    if not isinstance(payload["created"], str):
        raise ResultSchemaError("created must be a timestamp string")
    if not isinstance(payload["wall_seconds"], (int, float)) or isinstance(
        payload["wall_seconds"], bool
    ):
        raise ResultSchemaError("wall_seconds must be a number")
    for key in ("params", "env", "counters", "observations"):
        if not isinstance(payload[key], dict):
            raise ResultSchemaError(
                f"{key} must be an object, got {type(payload[key]).__name__}"
            )
    if payload["git"] is not None and not isinstance(payload["git"], dict):
        raise ResultSchemaError("git must be an object or null")
    for key in ("seed", "jobs"):
        value = payload[key]
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            raise ResultSchemaError(f"{key} must be an integer or null")
    if payload["kernel"] is not None and not isinstance(payload["kernel"], bool):
        raise ResultSchemaError("kernel must be a boolean or null")
    return payload


@dataclass(frozen=True)
class RunLedger:
    """One run's record (see the module docstring)."""

    name: str
    created: str
    wall_seconds: float
    params: dict = field(default_factory=dict)
    seed: int | None = None
    jobs: int | None = None
    kernel: bool | None = None
    git: dict | None = None
    env: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    observations: dict = field(default_factory=dict)
    data: object = None
    ledger_schema_version: int = LEDGER_SCHEMA_VERSION

    def to_dict(self) -> dict:
        """Plain-dict rendering following the documented schema."""
        return {
            "ledger_schema_version": self.ledger_schema_version,
            "name": self.name,
            "created": self.created,
            "wall_seconds": self.wall_seconds,
            "params": self.params,
            "seed": self.seed,
            "jobs": self.jobs,
            "kernel": self.kernel,
            "git": self.git,
            "env": self.env,
            "counters": self.counters,
            "observations": self.observations,
            "data": self.data,
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, default=str)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunLedger":
        """Build from a dict, validating against the schema first."""
        validate_ledger(payload)
        return cls(
            name=payload["name"],
            created=payload["created"],
            wall_seconds=float(payload["wall_seconds"]),
            params=payload["params"],
            seed=payload["seed"],
            jobs=payload["jobs"],
            kernel=payload["kernel"],
            git=payload["git"],
            env=payload["env"],
            counters=payload["counters"],
            observations=payload["observations"],
            data=payload["data"],
            ledger_schema_version=payload["ledger_schema_version"],
        )

    @classmethod
    def from_json(cls, text: str) -> "RunLedger":
        """Parse and validate a JSON string."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ResultSchemaError(f"not valid JSON: {error}") from None
        return cls.from_dict(payload)


def build_ledger(
    name: str,
    params: dict | None = None,
    wall_seconds: float = 0.0,
    seed: int | None = None,
    jobs: int | None = None,
    metrics: dict | None = None,
    data: object = None,
    cwd: str | Path | None = None,
) -> RunLedger:
    """Assemble a ledger for a run that just finished.

    ``metrics`` is the run's :meth:`~repro.obs.metrics.Metrics.snapshot`
    (its counters and observations).  ``params`` and ``data`` are passed
    through ``json`` round-tripping so non-JSON values degrade to
    strings instead of failing the write.
    """
    metrics = metrics or {}
    return RunLedger(
        name=name,
        created=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        wall_seconds=wall_seconds,
        params=_jsonable(params or {}),
        seed=seed,
        jobs=jobs,
        git=git_revision(cwd),
        env=collect_env(),
        counters=dict(metrics.get("counters", {})),
        observations=dict(metrics.get("observations", {})),
        data=_jsonable(data),
    )


def _jsonable(value: object) -> object:
    return json.loads(json.dumps(value, default=str))


def write_ledger(ledger: RunLedger, path: str | Path) -> Path:
    """Write one ledger manifest; returns the path written."""
    path = Path(path)
    path.write_text(ledger.to_json(indent=2) + "\n", encoding="utf-8")
    return path


def read_ledger(path: str | Path) -> RunLedger:
    """Load and validate one ledger file."""
    return RunLedger.from_json(Path(path).read_text(encoding="utf-8"))


# -- reporting ---------------------------------------------------------------

#: Counters surfaced first in summaries/diffs: the paper's cost model
#: (query budget) and the execution-tier counters.
KEY_COUNTERS = (
    "oracle.measurements",
    "oracle.accesses",
    "oracle.cache_hits",
    "hw.flush.sets",
    "hw.setup_reused",
    "kernel.calls",
    "kernel.accesses",
    "kernel.compile.hit",
    "kernel.compile.load",
    "kernel.compile.miss",
    "kernel.budget_fallbacks",
    "kernel.store.errors",
    "runner.chunk_retries",
    "runner.pool.spawned",
    "runner.pool.reused",
    "runner.pool.restarted",
)


def _cells_total(counters: dict) -> int:
    return sum(
        count for name, count in counters.items()
        if name.startswith("runner.cells.")
    )


def format_ledger(ledger: RunLedger) -> str:
    """Render one ledger as a printable summary table."""
    git = ledger.git or {}
    rows = [
        ["name", ledger.name],
        ["created", ledger.created],
        ["wall_seconds", f"{ledger.wall_seconds:.3f}"],
        ["git", f"{git.get('sha', '-')}{' (dirty)' if git.get('dirty') else ''}"],
        ["python", ledger.env.get("python", "-")],
        ["seed", ledger.seed if ledger.seed is not None else "-"],
        ["jobs", ledger.jobs if ledger.jobs is not None else "-"],
        ["kernel", ledger.kernel if ledger.kernel is not None else "-"],
        ["runner.cells", _cells_total(ledger.counters) or "-"],
    ]
    for name in KEY_COUNTERS:
        if name in ledger.counters:
            rows.append([name, ledger.counters[name]])
    return format_table(["field", "value"], rows, title=f"ledger {ledger.name}")


def diff_ledgers(a: RunLedger, b: RunLedger) -> str:
    """Render a comparison table between two runs' ledgers.

    Wall time first, then every counter present in either run, with
    absolute delta and b/a ratio — the regression view for wall-time and
    query-budget drift between two invocations of the same experiment.
    """
    def _fmt_ratio(va: float, vb: float) -> str:
        if not va:
            return "-" if not vb else "new"
        return f"{vb / va:.2f}x"

    rows: list[list[object]] = [
        [
            "wall_seconds",
            f"{a.wall_seconds:.3f}",
            f"{b.wall_seconds:.3f}",
            f"{b.wall_seconds - a.wall_seconds:+.3f}",
            _fmt_ratio(a.wall_seconds, b.wall_seconds),
        ]
    ]
    names = sorted(set(a.counters) | set(b.counters))
    # Key counters first, everything else after, both alphabetical.
    names.sort(key=lambda name: (name not in KEY_COUNTERS, name))
    for name in names:
        va = a.counters.get(name, 0)
        vb = b.counters.get(name, 0)
        rows.append([name, va, vb, f"{vb - va:+d}", _fmt_ratio(va, vb)])
    git_a = (a.git or {}).get("sha", "-")
    git_b = (b.git or {}).get("sha", "-")
    header = (
        f"a: {a.name} @ {a.created} (git {str(git_a)[:12]}, jobs={a.jobs}, "
        f"kernel={a.kernel})\n"
        f"b: {b.name} @ {b.created} (git {str(git_b)[:12]}, jobs={b.jobs}, "
        f"kernel={b.kernel})\n"
    )
    return header + format_table(
        ["metric", "a", "b", "delta", "ratio"], rows, title="ledger diff"
    )


# -- the committed-results gate ----------------------------------------------


@dataclass(frozen=True)
class GateRule:
    """What one experiment's fresh ledger must share with its committed one.

    The ``data`` sections must be equal.  The counters in ``equal`` must
    be equal too, those in ``positive`` above zero in the fresh run, and
    with ``wall_ratio`` set the fresh ``wall_seconds`` may be at most that
    multiple of the committed one; the wall bound applies only when both
    runs have the same ``jobs``.
    """

    equal: tuple[str, ...] = ()
    positive: tuple[str, ...] = ()
    wall_ratio: float | None = None


#: What CI holds each regenerated experiment to, by ledger name.  Every
#: ``data`` section is a seeded, host-independent table, and every equal
#: counter counts logical work (measurements issued, accesses simulated)
#: that no host or engine changes.  The wall bound is the one
#: host-dependent rule, loose enough for a shared CI runner.
GATE: dict[str, GateRule] = {
    "e1_inferred_policies": GateRule(
        equal=("oracle.measurements",),
        positive=("hw.setup_reused",),
        wall_ratio=2.0,
    ),
    "e2_inference_cost": GateRule(equal=("oracle.measurements",)),
    "e3_missratio": GateRule(equal=("kernel.accesses",), wall_ratio=2.0),
    "e4_relative_lru": GateRule(),
    "e5_predictability": GateRule(),
    "e6_noise": GateRule(equal=("oracle.measurements",)),
    "e7_strategy_ablation": GateRule(equal=("oracle.measurements",)),
    "e7_thrash_ablation": GateRule(equal=("oracle.measurements",)),
    "e8_agreement": GateRule(equal=("kernel.accesses",), wall_ratio=2.0),
    "e8_distinguishers": GateRule(),
    "e9_adaptive": GateRule(equal=("oracle.measurements",)),
    "e10_geometry": GateRule(),
    "e11_wcet": GateRule(),
    "e12_evictionsets": GateRule(),
}


def _differing_rows(label: str, old: object, new: object) -> list[str]:
    """The rows of two ``data`` sections that differ, one line per side."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [
            row
            for key in sorted(set(old) | set(new))
            for row in _differing_rows(f"{label}.{key}", old.get(key), new.get(key))
        ]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [
            row
            for index, (row_old, row_new) in enumerate(zip(old, new))
            for row in _differing_rows(f"{label}[{index}]", row_old, row_new)
        ]
    if old == new:
        return []
    return [f"{label} committed: {old}", f"{label} fresh:     {new}"]


def gate(
    committed_dir: str | Path, fresh_paths: Sequence[str | Path]
) -> tuple[bool, list[str]]:
    """Hold fresh ledgers to the committed ones by their :data:`GATE` rules.

    Each fresh file is matched to ``<committed_dir>/<name>.ledger.json``
    by its ledger ``name``; a name without a rule is reported as not
    gated.  A fresh file that is not a valid ledger, a gated one with no
    committed ledger, and a rule with no fresh ledger among
    ``fresh_paths`` all fail.

    Returns ``(passed, lines)``: one line per check, with the differing
    rows under a failed ``data`` check.
    """
    lines: list[str] = []
    failures = 0

    def check(ok: bool, text: str) -> None:
        nonlocal failures
        failures += not ok
        lines.append(f"{'ok  ' if ok else 'FAIL'} {text}")

    unreadable = (OSError, ValueError, ResultSchemaError)
    gated: set[str] = set()
    for path in fresh_paths:
        try:
            fresh = read_ledger(path)
        except unreadable as error:
            check(False, f"{path}: not a ledger: {error}")
            continue
        label = f"{fresh.name} ({path})"
        rule = GATE.get(fresh.name)
        if rule is None:
            lines.append(f"--   {label}: not gated")
            continue
        gated.add(fresh.name)
        committed_path = Path(committed_dir) / f"{fresh.name}.ledger.json"
        try:
            committed = read_ledger(committed_path)
        except unreadable as error:
            check(False, f"{label}: no committed ledger {committed_path}: {error}")
            continue
        same = committed.data == fresh.data
        verdict = "equals" if same else "differs from"
        check(same, f"{label}: data {verdict} the committed run")
        lines.extend(
            f"       {row}"
            for row in _differing_rows("data", committed.data, fresh.data)
        )
        for name in rule.equal:
            old, new = committed.counters.get(name), fresh.counters.get(name)
            check(
                old is not None and old == new,
                f"{label}: {name} committed {old}, fresh {new}",
            )
        for name in rule.positive:
            value = fresh.counters.get(name, 0)
            check(value > 0, f"{label}: {name} {value}, must be above 0")
        if rule.wall_ratio is not None:
            walls = (
                f"wall_seconds committed {committed.wall_seconds:.3f}, "
                f"fresh {fresh.wall_seconds:.3f}"
            )
            if committed.jobs != fresh.jobs:
                lines.append(
                    f"--   {label}: {walls}; not compared, jobs {fresh.jobs} "
                    f"vs committed {committed.jobs}"
                )
            else:
                check(
                    fresh.wall_seconds <= rule.wall_ratio * committed.wall_seconds,
                    f"{label}: {walls}, at most {rule.wall_ratio:g}x",
                )
    for name in sorted(set(GATE) - gated):
        check(False, f"{name}: no fresh ledger among the arguments")
    lines.append(f"gate: {failures} failed check(s)")
    return failures == 0, lines


def main(argv: list[str] | None = None) -> int:
    """Validate ledger files given on the command line (CI entry point)."""
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print("usage: python -m repro.obs.ledger FILE [FILE ...]", file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        try:
            ledger = read_ledger(path)
        except (OSError, ResultSchemaError) as error:
            print(f"{path}: INVALID: {error}", file=sys.stderr)
            status = 1
            continue
        print(
            f"{path}: ok (name={ledger.name}, "
            f"ledger_schema_version={ledger.ledger_schema_version})"
        )
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
