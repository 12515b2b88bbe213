"""On-disk artifact store for compiled policy automata.

Closing an automaton is the kernel's dominant fixed cost — full 8-way
LRU interns 40 320 states and steps a policy through 368 794
transitions — and the in-memory caches in :mod:`repro.kernels.automaton`
are per-process, so every CLI invocation, bench, and ``--jobs N`` worker
used to pay it again.  This module persists *closed* automata (every
event a set can take from every ``(state, valid ways)`` pair it reaches
is expanded; see :meth:`~repro.kernels.automaton.CompiledPolicy.expand_all`)
to a repo-local ``.repro-cache/`` directory so the cost is paid once per
machine instead of once per process:

* **Keys** — :class:`StoreKey` canonicalizes ``(kind, identity, ways,
  budget, schema_version)`` into a stable string; the file name is a
  digest of it, so params tuples and permutation vectors of any size
  key cleanly.  Bumping :data:`SCHEMA_VERSION` orphans old artifacts
  (they are ignored and cleaned by :func:`clear`), never misreads them.
* **Format** — a magic tag, a length-prefixed JSON header (schema, key,
  ways, budget, num_states, per-table lengths, payload checksum), then
  the four flat tables as raw ``array('i')`` buffers in a fixed order.
  Writes go to a temp file in the same directory and ``os.replace`` in,
  so readers never observe a partial artifact.
* **Validation** — :func:`load` verifies magic, schema, key, lengths, a
  blake2s payload checksum, and that every transition is in range for a
  closed automaton (``-1`` marks an event no set takes).  Anything
  wrong means *recompile*: the corrupt file is unlinked and ``None``
  returned; the store never raises into the kernel's compile path.
  Every such failure — a corrupt or unreadable artifact, a save that
  could not write, a loaded artifact that meets an unexpanded entry
  mid-run — counts as ``kernel.store.errors``; a missing artifact or
  another key's file does not.

The store is consulted by ``compiled_for_factory`` / ``compiled_for_spec``
(memory -> disk -> compile) and populated at explicit warm points — the
parallel runner's pre-resolve step, the ``repro cache warm`` CLI, and
the compile-cache bench — never on the lazy compile path, so one-shot
CLI latency is unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import mmap
import os
import struct
import tempfile
from array import array
from dataclasses import dataclass
from pathlib import Path

from repro.errors import KernelUnsupported
from repro.kernels import vector as _vector
from repro.obs import metrics as obs_metrics

__all__ = [
    "SCHEMA_VERSION",
    "StoreKey",
    "factory_key",
    "spec_key",
    "cache_dir",
    "set_cache_dir",
    "artifact_path",
    "save",
    "load",
    "ensure_persisted",
    "forget_persisted",
    "warm",
    "stats",
    "clear",
]

#: Bump on any change to the key canonicalization, the file layout or
#: what the tables hold.  Old artifacts become invisible (different
#: subdirectory), never misread.  v2: tables are closed over ``(state,
#: valid ways)`` pairs, so unreached entries stay ``-1`` and state ids
#: follow that closure's discovery order.
SCHEMA_VERSION = 2

#: First bytes of every artifact file.
MAGIC = b"RPRAUTO1"

#: Tables serialized, in on-disk order.  ``hit_next``/``fill_next`` are
#: ``num_states * ways`` long, ``miss_victim``/``miss_next`` ``num_states``.
TABLE_NAMES = ("hit_next", "fill_next", "miss_victim", "miss_next")

_ITEM = struct.calcsize("i")

#: Environment override for the cache directory (CI, shared machines).
ENV_VAR = "REPRO_CACHE_DIR"

#: Default directory name, created under the current working directory.
DEFAULT_DIRNAME = ".repro-cache"

_CACHE_DIR: Path | None = None

#: Keys already persisted (or found on disk) this session, so warm
#: points skip the fsync + checksum work on re-runs.  Cleared by
#: :func:`forget_persisted` (and through it ``clear_compile_cache``).
_PERSISTED: set[str] = set()


@dataclass(frozen=True)
class StoreKey:
    """Canonical identity of one artifact: what was compiled, and how."""

    kind: str  #: "factory" or "spec"
    label: str  #: human-readable policy name for stats
    canonical: str  #: full canonical key string (embedded in the header)

    @property
    def digest(self) -> str:
        return hashlib.blake2s(self.canonical.encode()).hexdigest()[:24]

    @property
    def filename(self) -> str:
        safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in self.label)
        return f"{safe[:48]}-{self.digest}.autom"


def factory_key(name: str, params: tuple, ways: int, budget: int | None = None) -> StoreKey:
    """Key for a registry-named policy (the SimCell identity)."""
    if budget is None:
        from repro.kernels.automaton import DEFAULT_BUDGET

        budget = DEFAULT_BUDGET
    canonical = (
        f"v{SCHEMA_VERSION}|factory|{name}|{params!r}|ways={ways}|budget={budget}"
    )
    return StoreKey(kind="factory", label=name, canonical=canonical)


def spec_key(spec, budget: int | None = None) -> StoreKey:
    """Key for a permutation spec: a content digest of its vectors."""
    if budget is None:
        from repro.kernels.automaton import DEFAULT_BUDGET

        budget = DEFAULT_BUDGET
    canonical = (
        f"v{SCHEMA_VERSION}|spec|ways={spec.ways}|hit={spec.hit_perms!r}"
        f"|miss={spec.miss_perm!r}|budget={budget}"
    )
    return StoreKey(kind="spec", label="permutation-spec", canonical=canonical)


# -- directory ---------------------------------------------------------------
def cache_dir() -> Path:
    """The artifact directory: explicit > $REPRO_CACHE_DIR > ./.repro-cache."""
    if _CACHE_DIR is not None:
        return _CACHE_DIR
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.cwd() / DEFAULT_DIRNAME


def set_cache_dir(path: str | os.PathLike | None) -> None:
    """Override the artifact directory (None restores the default rule)."""
    global _CACHE_DIR
    _CACHE_DIR = Path(path) if path is not None else None
    _PERSISTED.clear()


def _schema_dir() -> Path:
    return cache_dir() / f"v{SCHEMA_VERSION}"


def artifact_path(key: StoreKey) -> Path:
    """Where ``key``'s artifact lives (whether or not it exists yet)."""
    return _schema_dir() / key.filename


# -- serialization -----------------------------------------------------------
def save(key: StoreKey, compiled) -> bool:
    """Persist a *closed* automaton atomically; True on success.

    The automaton is closed with ``expand_all()`` first — only closed
    tables round-trip (a ``-1`` an engine reaches could never be
    expanded by the frozen automaton :func:`load` rebuilds).  A policy
    that blows its budget or a read-only cache directory returns False;
    persistence is an optimization, never a requirement.  A write that
    fails counts as ``kernel.store.errors``.
    """
    try:
        compiled.expand_all()
    except KernelUnsupported:
        return False
    tables = compiled.to_tables()
    payload = b"".join(tables[name].tobytes() for name in TABLE_NAMES)
    header = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "key": key.canonical,
            "kind": key.kind,
            "label": key.label,
            "ways": compiled.ways,
            "budget": compiled.budget,
            "num_states": compiled.num_states,
            "lengths": {name: len(tables[name]) for name in TABLE_NAMES},
            "checksum": hashlib.blake2s(payload).hexdigest(),
        },
        sort_keys=True,
    ).encode()
    path = artifact_path(key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(MAGIC)
                handle.write(struct.pack(">I", len(header)))
                handle.write(header)
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise
    except OSError:
        obs_metrics.DEFAULT.incr("kernel.store.errors")
        return False
    _PERSISTED.add(key.canonical)
    return True


def load(key: StoreKey):
    """Deserialize ``key``'s automaton, or None (missing/stale/corrupt).

    Every failure mode — wrong magic, truncation, schema or key
    mismatch, bad checksum, out-of-range transitions — degrades to
    "recompile": corrupt files are unlinked, stale ones left for their
    own schema, and None is returned.  Never raises into the caller.
    A corrupt artifact and an open that fails for any reason but a
    missing file each count as ``kernel.store.errors``.

    The file is mapped read-only and the automaton's tables become
    zero-copy views over the mapping, which every engine (scalar and
    vector) indexes in place — concurrent ``--jobs N`` workers then
    share one page-cache copy of the bytes instead of each
    deserializing a private one.  When the OS refuses the mapping
    (counted as ``kernel.mmap.fallbacks``), the bytes are read and
    copied into ``array('i')`` tables instead.

    Concurrency: the unlink of a corrupt artifact only happens when the
    file on disk is still *the exact file we read* (same inode, size and
    mtime).  Another worker may have replaced or removed it since we
    opened it — recompiling covers us either way, and deleting their
    fresh replacement would re-introduce the race this guard closes.
    """
    from repro.kernels.automaton import CompiledPolicy

    path = artifact_path(key)
    mapped = None
    try:
        with open(path, "rb") as handle:
            read_stat = os.fstat(handle.fileno())
            if read_stat.st_size > 0:
                try:
                    mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                except (OSError, ValueError):
                    obs_metrics.DEFAULT.incr("kernel.mmap.fallbacks")
                    mapped = None
            blob = memoryview(mapped) if mapped is not None else handle.read()
    except FileNotFoundError:
        return None
    except OSError:
        obs_metrics.DEFAULT.incr("kernel.store.errors")
        return None

    def corrupt():
        obs_metrics.DEFAULT.incr("kernel.store.errors")
        try:
            current = os.stat(path)
        except OSError:
            return None  # already gone: another worker beat us to it
        identity = ("st_ino", "st_dev", "st_size", "st_mtime_ns")
        if any(getattr(current, f) != getattr(read_stat, f) for f in identity):
            return None  # replaced since we read it: not ours to delete
        with contextlib.suppress(OSError):
            path.unlink()
        return None

    if bytes(blob[: len(MAGIC)]) != MAGIC:
        return corrupt()
    offset = len(MAGIC)
    if len(blob) < offset + 4:
        return corrupt()
    (header_len,) = struct.unpack_from(">I", blob, offset)
    offset += 4
    try:
        header = json.loads(bytes(blob[offset : offset + header_len]))
    except ValueError:
        return corrupt()
    offset += header_len
    if not isinstance(header, dict):
        return corrupt()
    if header.get("schema") != SCHEMA_VERSION or header.get("key") != key.canonical:
        # A hash collision or a mis-filed artifact; not ours to delete.
        return None
    ways = header.get("ways")
    num_states = header.get("num_states")
    lengths = header.get("lengths")
    if (
        not isinstance(ways, int)
        or not isinstance(num_states, int)
        or ways <= 0
        or num_states <= 0
        or not isinstance(lengths, dict)
    ):
        return corrupt()
    expected = {
        "hit_next": num_states * ways,
        "fill_next": num_states * ways,
        "miss_victim": num_states,
        "miss_next": num_states,
    }
    if {name: lengths.get(name) for name in TABLE_NAMES} != expected:
        return corrupt()
    payload = blob[offset:]
    if len(payload) != sum(expected.values()) * _ITEM:
        return corrupt()
    if hashlib.blake2s(payload).hexdigest() != header.get("checksum"):
        return corrupt()
    buffers = {}
    cursor = 0
    for name in TABLE_NAMES:
        size = expected[name] * _ITEM
        chunk = payload[cursor : cursor + size]
        cursor += size
        if mapped is not None:
            buffers[name] = chunk.cast("i")
        else:
            table = array("i")
            table.frombytes(chunk)
            buffers[name] = table
    if not _tables_in_range(buffers, num_states, ways):
        return corrupt()
    compiled = CompiledPolicy.from_mapped(
        ways, header.get("budget", num_states), num_states, buffers
    )
    if mapped is not None:
        metrics = obs_metrics.DEFAULT
        metrics.incr("kernel.mmap.loads")
        metrics.incr("kernel.mmap.bytes", len(blob))
    _PERSISTED.add(key.canonical)
    return compiled


def _tables_in_range(buffers: dict, num_states: int, ways: int) -> bool:
    """Closed-automaton invariants: every transition targets a real state
    or is ``-1`` (unexpanded), every victim a real way, and a miss's
    victim is unexpanded exactly where its next state is.  Vectorized
    when numpy is present — this is the hot half of artifact validation."""
    if _vector.available():
        np = _vector._np
        for name in ("hit_next", "fill_next", "miss_next"):
            table = np.frombuffer(buffers[name], dtype=np.int32)
            if table.size and (
                int(table.min()) < -1 or int(table.max()) >= num_states
            ):
                return False
        victims = np.frombuffer(buffers["miss_victim"], dtype=np.int32)
        successors = np.frombuffer(buffers["miss_next"], dtype=np.int32)
        return not victims.size or (
            int(victims.min()) >= -1
            and int(victims.max()) < ways
            and bool(np.array_equal(victims < 0, successors < 0))
        )
    for name in ("hit_next", "fill_next", "miss_next"):
        if any(entry < -1 or entry >= num_states for entry in buffers[name]):
            return False
    return all(
        -1 <= way < ways and (way < 0) == (successor < 0)
        for way, successor in zip(buffers["miss_victim"], buffers["miss_next"])
    )


def ensure_persisted(key: StoreKey, compiled) -> bool:
    """Persist ``compiled`` under ``key`` unless already done this session."""
    if key.canonical in _PERSISTED and artifact_path(key).exists():
        return True
    return save(key, compiled)


def forget_persisted() -> None:
    """Drop the session's persisted-keys memo (files stay on disk)."""
    _PERSISTED.clear()


def warm(entries) -> list[dict]:
    """Resolve and persist a batch of named automata; per-entry report.

    ``entries`` is an iterable of ``(name, params, ways)`` triples (the
    SimCell identity).  Duplicates are warmed once.  This is the shared
    warm point behind the parallel runner's pre-resolve step and the
    ``repro cache warm`` CLI: after it returns, a forked worker (or any
    later process pointed at the same cache dir) resolves these automata
    with zero ``kernel.compile.miss``.
    """
    import time as _time

    from repro.kernels.automaton import compiled_for_factory

    report = []
    seen = set()
    for name, params, ways in entries:
        identity = (name, tuple(params), ways)
        if identity in seen:
            continue
        seen.add(identity)
        start = _time.perf_counter()
        compiled = compiled_for_factory(name, tuple(params), ways)
        if compiled is None:
            status, states = "unsupported", 0
        else:
            persisted = ensure_persisted(factory_key(name, tuple(params), ways), compiled)
            status = "persisted" if persisted else "memory-only"
            states = compiled.num_states
        report.append(
            {
                "policy": name,
                "params": dict(params),
                "ways": ways,
                "status": status,
                "states": states,
                "seconds": round(_time.perf_counter() - start, 6),
            }
        )
    return report


# -- maintenance -------------------------------------------------------------
def _sweep_paths(root: Path) -> list[Path]:
    """Artifact paths under ``root``, robust to concurrent removal.

    A ``--jobs N`` worker (or a concurrent ``repro cache clear``) may
    delete directories while we iterate; scandir then raises mid-walk.
    Snapshotting through one guarded listing keeps :func:`stats` and
    :func:`clear` race-tolerant — files that vanish afterwards are
    handled per-file.
    """
    try:
        return sorted(root.glob("v*/*.autom"))
    except OSError:
        return []


def stats() -> dict:
    """Inventory of the store: per-artifact and aggregate sizes."""
    root = cache_dir()
    entries = []
    stale = 0
    if root.is_dir():
        for path in _sweep_paths(root):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            current = path.parent.name == f"v{SCHEMA_VERSION}"
            if not current:
                stale += 1
            entries.append(
                {
                    "file": str(path.relative_to(root)),
                    "bytes": size,
                    "schema": path.parent.name,
                    "current": current,
                }
            )
    return {
        "dir": str(root),
        "schema_version": SCHEMA_VERSION,
        "entries": len(entries),
        "stale_entries": stale,
        "total_bytes": sum(entry["bytes"] for entry in entries),
        "artifacts": entries,
    }


def clear(stale_only: bool = False) -> int:
    """Delete artifacts (all, or only non-current schemas); returns count.

    Safe against concurrent workers: files another process already
    removed (``FileNotFoundError``) or protected (``PermissionError``)
    are skipped, and a directory listing racing a removal yields an
    empty sweep rather than an exception.
    """
    root = cache_dir()
    removed = 0
    if not root.is_dir():
        return removed
    for path in _sweep_paths(root):
        if stale_only and path.parent.name == f"v{SCHEMA_VERSION}":
            continue
        with contextlib.suppress(OSError):
            path.unlink()
            removed += 1
    try:
        subdirs = list(root.glob("v*"))
    except OSError:
        subdirs = []
    for subdir in subdirs:
        with contextlib.suppress(OSError):
            subdir.rmdir()  # only succeeds when empty
    _PERSISTED.clear()
    return removed
