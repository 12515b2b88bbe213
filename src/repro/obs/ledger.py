"""Run ledgers: schema-versioned provenance manifests for experiments.

Reproducing a measurement paper means being able to answer, for any
number in any table, *which code, inputs and environment produced it*.
A :class:`RunLedger` is a small JSON manifest written next to every
metrics sidecar (CLI ``--metrics`` runs and all E1-E12 benchmarks):

.. code-block:: json

    {
      "ledger_schema_version": 1,
      "name": "e3_missratio",
      "created": "2026-02-11T09:30:12Z",
      "wall_seconds": 12.7,
      "params": {"policies": ["lru", "fifo"], "seed": 0},
      "seed": 0,
      "jobs": 4,
      "kernel": true,
      "git": {"sha": "b557c57...", "dirty": false},
      "env": {"python": "3.11.9", "platform": "Linux-...", "cpu_count": 8},
      "counters": {"oracle.measurements": 1234, "kernel.calls": 99},
      "artifacts": [{"path": "e3_missratio.metrics.json",
                     "sha256": "...", "bytes": 4112}]
    }

Field contract (checked by :func:`validate_ledger`):

* ``ledger_schema_version`` — integer, currently
  :data:`LEDGER_SCHEMA_VERSION`;
* ``name`` — non-empty string; ``created`` — UTC timestamp string;
* ``wall_seconds`` — number; ``params`` / ``env`` / ``counters`` — JSON
  objects; ``git`` — object or null;
* ``seed`` / ``jobs`` — integer or null; ``kernel`` — boolean or null;
* ``artifacts`` — list of ``{"path", "sha256", "bytes"}`` records, the
  content digests of the files the run produced.

``counters`` carries the run's :class:`~repro.obs.metrics.Metrics`
counter snapshot, so two ledgers can be *diffed* — wall time, query
budget (``oracle.measurements`` / ``oracle.accesses``), kernel usage —
without re-opening the larger sidecars.  The ``repro-cache report``
subcommand renders exactly that comparison.

``python -m repro.obs.ledger FILE...`` validates ledger files (used by
CI, same exit convention as ``python -m repro.obs.result``).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform as _platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ResultSchemaError
from repro.util.tables import format_table

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "RunLedger",
    "build_ledger",
    "collect_env",
    "diff_ledgers",
    "file_digest",
    "format_ledger",
    "git_revision",
    "ledger_path_for",
    "read_ledger",
    "validate_ledger",
    "verify_artifacts",
    "write_ledger",
    "main",
]

#: Current version of the ledger manifest schema.
LEDGER_SCHEMA_VERSION = 1


def ledger_path_for(artifact: str | Path) -> Path:
    """The ledger path paired with an artifact path.

    ``x.metrics.json`` maps to ``x.ledger.json``; anything else gets
    ``.ledger.json`` appended, so the pairing is invertible by eye.
    """
    artifact = Path(artifact)
    name = artifact.name
    if name.endswith(".metrics.json"):
        return artifact.with_name(name[: -len(".metrics.json")] + ".ledger.json")
    return artifact.with_name(name + ".ledger.json")


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


def file_digest(path: str | Path) -> dict:
    """Artifact record for one produced file: path name, sha256, size."""
    path = Path(path)
    hasher = hashlib.sha256()
    data = path.read_bytes()
    hasher.update(data)
    return {"path": path.name, "sha256": hasher.hexdigest(), "bytes": len(data)}


def validate_ledger(payload: object) -> dict:
    """Check ``payload`` against the ledger schema; return it on success.

    Raises :class:`~repro.errors.ResultSchemaError` with a field-level
    message on any violation.
    """
    if not isinstance(payload, dict):
        raise ResultSchemaError(
            f"ledger must be a JSON object, got {type(payload).__name__}"
        )
    required = (
        "ledger_schema_version", "name", "created", "wall_seconds",
        "params", "seed", "jobs", "kernel", "git", "env", "counters",
        "artifacts",
    )
    missing = [key for key in required if key not in payload]
    if missing:
        raise ResultSchemaError(f"ledger is missing fields: {', '.join(missing)}")
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
    for key in ("params", "env", "counters"):
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
    artifacts = payload["artifacts"]
    if not isinstance(artifacts, list):
        raise ResultSchemaError("artifacts must be a list")
    for record in artifacts:
        if not isinstance(record, dict) or not {"path", "sha256", "bytes"} <= set(record):
            raise ResultSchemaError(
                "each artifact needs path/sha256/bytes, got " f"{record!r}"
            )
    return payload


@dataclass(frozen=True)
class RunLedger:
    """One run's provenance manifest (see the module docstring)."""

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
    artifacts: list = field(default_factory=list)
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
            "artifacts": self.artifacts,
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
            artifacts=payload["artifacts"],
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
    kernel: bool | None = None,
    counters: dict | None = None,
    artifacts: list | tuple = (),
    cwd: str | Path | None = None,
) -> RunLedger:
    """Assemble a ledger for a run that just finished.

    ``artifacts`` is a list of file paths the run produced; each is
    digested.  ``params`` is passed through ``json`` round-tripping so
    non-JSON values degrade to strings instead of failing the write.
    """
    return RunLedger(
        name=name,
        created=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        wall_seconds=wall_seconds,
        params=json.loads(json.dumps(params or {}, default=str)),
        seed=seed,
        jobs=jobs,
        kernel=kernel,
        git=git_revision(cwd),
        env=collect_env(),
        counters=dict(counters or {}),
        artifacts=[file_digest(path) for path in artifacts if Path(path).exists()],
    )


def write_ledger(ledger: RunLedger, path: str | Path) -> Path:
    """Write one ledger manifest; returns the path written."""
    path = Path(path)
    path.write_text(ledger.to_json(indent=2) + "\n", encoding="utf-8")
    return path


def read_ledger(path: str | Path) -> RunLedger:
    """Load and validate one ledger file."""
    return RunLedger.from_json(Path(path).read_text(encoding="utf-8"))


def verify_artifacts(
    ledger: RunLedger, base_dir: str | Path = "."
) -> list[tuple[str, str]]:
    """Check the ledger's artifact digests against the files on disk.

    Returns ``(path, problem)`` pairs — ``missing`` for an artifact file
    that no longer exists, ``digest mismatch ...`` / ``size mismatch
    ...`` for one whose content changed since the ledger was written.
    An empty list means every recorded artifact still matches.
    """
    problems: list[tuple[str, str]] = []
    base = Path(base_dir)
    for record in ledger.artifacts:
        path = base / record["path"]
        if not path.exists():
            problems.append((record["path"], "missing"))
            continue
        actual = file_digest(path)
        if actual["sha256"] != record["sha256"]:
            problems.append(
                (record["path"],
                 f"digest mismatch (recorded {str(record['sha256'])[:12]}, "
                 f"actual {actual['sha256'][:12]})")
            )
        elif actual["bytes"] != record["bytes"]:
            problems.append(
                (record["path"],
                 f"size mismatch (recorded {record['bytes']}, "
                 f"actual {actual['bytes']})")
            )
    return problems


# -- reporting ---------------------------------------------------------------

#: Counters surfaced first in summaries/diffs: the paper's cost model
#: (query budget) and the execution-tier counters.
KEY_COUNTERS = (
    "oracle.measurements",
    "oracle.accesses",
    "oracle.cache_hits",
    "db.hit",
    "db.miss",
    "db.write",
    "db.dropped",
    "hw.flush.sets",
    "hw.setup_reused",
    "kernel.calls",
    "kernel.accesses",
    "kernel.compile.hit",
    "kernel.compile.load",
    "kernel.compile.miss",
    "kernel.store.errors",
    "kernel.trie.plans",
    "kernel.trie.reused_accesses",
    "runner.chunk_retries",
    "runner.pool.spawned",
    "runner.pool.reused",
    "runner.pool.restarted",
    "runner.shm.broadcasts",
    "runner.shm.bytes",
    "runner.shm.fallbacks",
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
    for record in ledger.artifacts:
        rows.append(
            [f"artifact {record['path']}",
             f"{record['bytes']} bytes sha256:{str(record['sha256'])[:12]}"]
        )
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


def main(argv: list[str] | None = None) -> int:
    """Validate ledger files given on the command line (CI entry point).

    ``--verify`` additionally checks each ledger's artifact digests
    against the files next to it (see :func:`verify_artifacts`).
    """
    paths = list(sys.argv[1:] if argv is None else argv)
    verify = "--verify" in paths
    paths = [path for path in paths if path != "--verify"]
    if not paths:
        print(
            "usage: python -m repro.obs.ledger [--verify] FILE [FILE ...]",
            file=sys.stderr,
        )
        return 2
    status = 0
    for path in paths:
        try:
            ledger = read_ledger(path)
        except (OSError, ResultSchemaError) as error:
            print(f"{path}: INVALID: {error}", file=sys.stderr)
            status = 1
            continue
        problems = (
            verify_artifacts(ledger, Path(path).parent) if verify else []
        )
        if problems:
            for name, problem in problems:
                print(f"{path}: ARTIFACT {name}: {problem}", file=sys.stderr)
            status = 1
        else:
            print(
                f"{path}: ok (name={ledger.name}, "
                f"ledger_schema_version={ledger.ledger_schema_version})"
            )
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
