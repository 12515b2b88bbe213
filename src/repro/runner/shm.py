"""Zero-copy shared-memory transport for the persistent worker pool.

Large read-only inputs cross the process boundary *once per pool*
instead of once per chunk: a trace's packed address payload is broadcast
into a ``multiprocessing.shared_memory`` segment and tasks carry only a
small handle (:class:`SharedTrace` pickles to its segment name).  A
worker attaches the segment on first use, builds a zero-copy numpy view
for the vector engine, and keeps the attachment for the life of the
process — so a pool that runs ten experiment rounds over the same
workload suite ships each trace's addresses exactly once.

The same blob plane carries oversized chunk *results*, which workers
write to a fresh segment and return by handle instead of pushing
megabytes through a pipe.

Everything degrades gracefully: when shared memory is unavailable, a
segment cannot be created, or a payload will not pack, callers fall
back to plain pickling (counting ``runner.shm.fallbacks`` for the last
two).
Segments broadcast by the parent are unlinked when the owning pool shuts
down (:func:`release_broadcasts`); already-attached workers keep their
mappings — POSIX keeps an unlinked segment alive until the last close.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
from array import array

from repro.obs import metrics as obs_metrics
from repro.workloads.trace import Trace

__all__ = [
    "MIN_TRACE_ADDRESSES",
    "SharedTrace",
    "create_blob",
    "read_blob",
    "release_broadcasts",
    "share_blob",
    "share_trace",
    "shm_available",
]

#: Traces shorter than this are pickled inline — the handle indirection
#: only pays for itself once the address payload dwarfs the task pickle.
MIN_TRACE_ADDRESSES = 2048


def shm_available() -> bool:
    """True when ``multiprocessing.shared_memory`` can be imported."""
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - all supported platforms have it
        return False
    return True


# -- low-level blob plane ----------------------------------------------------
def create_blob(payload: bytes):
    """Copy ``payload`` into a fresh shm segment; None on any failure.

    The caller owns the returned ``SharedMemory`` handle: result senders
    ``close()`` after handing the name over (the receiver unlinks);
    broadcasters keep it registered until :func:`release_broadcasts`.
    """
    if not shm_available():
        return None
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(create=True, size=max(1, len(payload)))
        segment.buf[: len(payload)] = payload
    except Exception:
        return None
    return segment


def read_blob(name: str, size: int) -> bytes | None:
    """Read and unlink segment ``name`` (``size`` bytes); None if gone.

    The one-shot result transport: the reader consumes the segment.
    """
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=name)
    except Exception:
        return None
    try:
        return bytes(segment.buf[:size])
    finally:
        segment.close()
        with contextlib.suppress(Exception):
            segment.unlink()


# -- parent-side broadcast registry ------------------------------------------
#: key -> (SharedMemory, payload size).  Keys are content digests, so a
#: re-broadcast of the same trace reuses the segment.
_BROADCASTS: dict[str, tuple[object, int]] = {}


def share_blob(key: str, payload: bytes) -> tuple[str, int] | None:
    """Broadcast ``payload`` once under ``key``; return (name, size).

    Subsequent calls with the same key return the existing segment.
    Counts ``runner.shm.broadcasts`` / ``runner.shm.bytes`` on creation;
    returns None (counting ``runner.shm.fallbacks``) when segment
    creation fails.
    """
    entry = _BROADCASTS.get(key)
    if entry is not None:
        return entry[0].name, entry[1]
    segment = create_blob(payload)
    if segment is None:
        obs_metrics.DEFAULT.incr("runner.shm.fallbacks")
        return None
    _BROADCASTS[key] = (segment, len(payload))
    obs_metrics.DEFAULT.incr("runner.shm.broadcasts")
    obs_metrics.DEFAULT.incr("runner.shm.bytes", len(payload))
    return segment.name, len(payload)


def release_broadcasts() -> None:
    """Unlink every broadcast segment (pool shutdown / atexit).

    Workers that already attached keep their mappings; workers of a
    *future* pool simply trigger a fresh broadcast on next use.
    """
    for segment, _size in list(_BROADCASTS.values()):
        with contextlib.suppress(Exception):
            segment.close()
        with contextlib.suppress(Exception):
            segment.unlink()
    _BROADCASTS.clear()


def broadcast_count() -> int:
    """Number of live parent-side broadcast segments (introspection)."""
    return len(_BROADCASTS)


# -- shared traces -----------------------------------------------------------
class SharedTrace(Trace):
    """A :class:`Trace` whose address payload lives in shared memory.

    Behaves exactly like the trace it wraps — same name, addresses,
    metadata, fingerprint — but pickles to a tiny handle
    ``(segment name, count, trace name, fingerprint)`` instead of the
    address tuple.  On the worker side the addresses materialize lazily:
    ``address_array()`` is a zero-copy numpy view over the segment, and
    the ``addresses`` tuple is only rebuilt if a scalar path touches it.
    """

    @classmethod
    def _wrap(cls, trace: Trace, ref: tuple) -> "SharedTrace":
        """Parent-side constructor: full trace + broadcast handle."""
        self = object.__new__(cls)
        object.__setattr__(self, "name", trace.name)
        object.__setattr__(self, "addresses", trace.addresses)
        object.__setattr__(self, "metadata", trace.metadata)
        object.__setattr__(self, "_ref", ref)
        object.__setattr__(self, "_count", len(trace.addresses))
        object.__setattr__(self, "_segment", None)
        return self

    def __reduce__(self):
        return (_resolve_shared_trace, (self._ref,))

    def __len__(self) -> int:
        return self._count

    def __getattr__(self, attr):
        # Worker-side instances materialize ``addresses`` on first
        # scalar touch; every other missing attribute is a real miss.
        if attr == "addresses":
            value = self._materialize()
            object.__setattr__(self, "addresses", value)
            return value
        raise AttributeError(attr)

    def _materialize(self) -> tuple[int, ...]:
        segment = self.__dict__.get("_segment")
        if segment is None:  # pragma: no cover - parent side always has them
            raise AttributeError("addresses")
        data = array("Q")
        data.frombytes(bytes(segment.buf[: self._count * 8]))
        return tuple(data.tolist())

    def address_array(self):
        segment = self.__dict__.get("_segment")
        if segment is None:
            return super().address_array()
        try:
            return self._address_array
        except AttributeError:
            pass
        try:
            import numpy
        except ImportError:
            view = None
        else:
            view = numpy.frombuffer(
                segment.buf, dtype=numpy.uint64, count=self._count
            )
            view.setflags(write=False)
        object.__setattr__(self, "_address_array", view)
        return view


def share_trace(trace: Trace) -> SharedTrace | None:
    """Broadcast ``trace``'s addresses; return a handle-pickling twin.

    Returns None (caller keeps the plain trace) when the trace is small,
    shm is unavailable, the addresses exceed 64 bits, or the broadcast
    fails — every case degrades to the ordinary pickle transport.
    """
    if not shm_available() or len(trace) < MIN_TRACE_ADDRESSES:
        return None
    if isinstance(trace, SharedTrace):
        return trace
    payload = trace.address_bytes()
    if payload is None:
        obs_metrics.DEFAULT.incr("runner.shm.fallbacks")
        return None
    fingerprint = trace.metadata.get("_fingerprint")
    if fingerprint is None:
        # Same recipe as repro.runner.cells.trace_fingerprint, so the
        # memo layer and the transport share the cached digest.
        fingerprint = hashlib.blake2s(payload, digest_size=16).hexdigest()
        trace.metadata["_fingerprint"] = fingerprint
    shared = share_blob(f"trace:{fingerprint}", payload)
    if shared is None:
        return None
    segment_name, _size = shared
    ref = (segment_name, len(trace), trace.name, fingerprint)
    return SharedTrace._wrap(trace, ref)


#: Worker-side cache: fingerprint -> resolved SharedTrace.  One live
#: object per trace per worker process keeps the numpy view, the
#: vector engine's per-trace layout memo and the segment attachment all
#: stable across chunks and across map() rounds.
_RESOLVED: dict[str, SharedTrace] = {}


def _resolve_shared_trace(ref: tuple) -> Trace:
    """Unpickle hook: attach the broadcast segment (or die trying).

    A missing segment raises — the chunk fails, and the runner's
    retry/serial-fallback ladder re-runs those cells from the parent's
    plain traces, so correctness never depends on the broadcast.
    """
    segment_name, count, trace_name, fingerprint = ref
    cached = _RESOLVED.get(fingerprint)
    if cached is not None:
        return cached
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=segment_name)
    self = object.__new__(SharedTrace)
    object.__setattr__(self, "name", trace_name)
    object.__setattr__(self, "metadata", {"_fingerprint": fingerprint})
    object.__setattr__(self, "_ref", ref)
    object.__setattr__(self, "_count", count)
    object.__setattr__(self, "_segment", segment)
    _RESOLVED[fingerprint] = self
    return self


@atexit.register
def _close_resolved() -> None:  # pragma: no cover - interpreter shutdown
    """Drop numpy views before their segments are garbage-collected.

    Without this, shutdown-order GC can try to close a mapping while a
    zero-copy view still exports its buffer, which surfaces as noisy
    ``Exception ignored ... BufferError`` messages on exit.
    """
    for trace in _RESOLVED.values():
        trace.__dict__.pop("_address_array", None)
        segment = trace.__dict__.get("_segment")
        if segment is not None:
            with contextlib.suppress(Exception):
                segment.close()
    _RESOLVED.clear()
