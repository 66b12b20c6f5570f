"""Shared-memory serving state: snapshot replication and metrics lanes.

The pre-fork serving tier (:mod:`repro.serve.cluster`) runs N worker
processes, and three kinds of state must cross the process boundary
without locks on the hot path:

- **Snapshots** — the master compiles each
  :class:`~repro.serve.snapshot.InfluenceSnapshot` once and publishes
  its serialized payload into a :class:`SnapshotArena` (a
  :class:`SeqlockArena`); every worker holds an
  :class:`ArenaSnapshotSource` that notices the version bump on its
  next request, deserializes the new epoch exactly once, and keeps
  answering from its private replica.  The seqlock protocol guarantees
  a worker attaching mid-swap sees the old payload or the new one,
  never a mix.

- **Metrics** — ``/metrics`` served by one worker must still tell the
  truth about the whole cluster.  :class:`SharedHttpStats` stripes one
  lane of float64 slots per worker (single writer per slot) over a
  :class:`SharedF64Array`; any worker can render
  the cross-worker aggregate.

- **Supervision** — the master records worker pids, respawn counts and
  the degraded window in a :class:`ClusterStatusBoard` so any worker's
  ``/healthz`` can report them.

Everything here relies on ``fork``: the arenas are anonymous shared
mappings created *before* the workers are spawned and inherited by
them — nothing is pickled, nothing needs a filesystem rendezvous.
"""

from __future__ import annotations

import json
import mmap
import pickle
import threading
import time

from repro.errors import ReproError
from repro.obs import (
    LATENCY_BUCKETS,
    NULL_INSTRUMENTATION,
    Instrumentation,
    get_logger,
)
from repro.serve.snapshot import InfluenceSnapshot

__all__ = [
    "SeqlockArena",
    "SharedF64Array",
    "SnapshotArena",
    "ArenaSnapshotSource",
    "SharedHttpStats",
    "ClusterStatusBoard",
]

_LOG = get_logger("serve.shm")

#: Default snapshot arena capacity.  Anonymous mappings are allocated
#: lazily per page, so an oversized arena costs address space, not RAM.
DEFAULT_ARENA_BYTES = 64 << 20

#: Envelope format stamp (the arena payload wrapping the snapshot).
ENVELOPE_FORMAT = 1

# ----------------------------------------------------------------------
# Shared-memory primitives (fork-inherited, single-writer)
# ----------------------------------------------------------------------
# Both sit on an anonymous ``mmap`` (``mmap.mmap(-1, n)`` maps
# MAP_SHARED pages, so children forked *after* construction see the
# same memory):
#
# - :class:`SeqlockArena` — a variable-length payload one writer
#   republishes and many reader processes poll, with a seqlock version
#   word so a reader can never observe a torn (half-swapped) payload;
# - :class:`SharedF64Array` — a flat float64 slot array for counters
#   that must aggregate across processes, on the discipline that each
#   slot has exactly one writer.
#
# Every word another process may read concurrently is stored and loaded
# as one aligned 8-byte item through a ``memoryview`` cast.
# ``struct.pack_into`` is not usable for that: CPython's ``_struct``
# writes integers one byte at a time, so a reader could see a version
# word half-way through a carry (255 -> 256 reads as 0, "unpublished").

_SEQLOCK_HEADER_BYTES = 16  # (version, payload length) as two u64 words
_SEQLOCK_TAG_BYTES = 128


class SeqlockArena:
    """A single-writer, multi-reader shared-memory publication slot.

    Layout: an 8-byte version word, an 8-byte payload length, a
    fixed-width UTF-8 tag (truncated to :data:`_SEQLOCK_TAG_BYTES`),
    then the payload bytes.  The writer bumps the version to an *odd*
    value, rewrites tag + payload, then bumps it to the next *even*
    value; readers retry while the version is odd or changes across
    their copy.  Version 0 means "never published".

    One process writes (:meth:`publish`), any number of processes that
    inherited the arena over ``fork`` read (:meth:`read`); there is no
    cross-process locking, only the version protocol, so readers never
    block the writer and vice versa.
    """

    __slots__ = ("_mmap", "_header", "_capacity", "_lock")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ReproError(
                f"arena capacity must be >= 1 byte, got {capacity}"
            )
        self._capacity = int(capacity)
        total = _SEQLOCK_HEADER_BYTES + _SEQLOCK_TAG_BYTES + self._capacity
        self._mmap = mmap.mmap(-1, total)
        self._header = memoryview(self._mmap)[:_SEQLOCK_HEADER_BYTES].cast(
            "Q"
        )
        # Serializes *threads* of the single writer process; the
        # cross-process story is the seqlock itself.
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        """Largest payload this arena can hold, in bytes."""
        return self._capacity

    @property
    def version(self) -> int:
        """The current version word (even = stable, odd = mid-swap)."""
        return self._header[0]

    def publish(self, payload: bytes, tag: str = "") -> int:
        """Swap in a new payload; returns the new (even) version."""
        if len(payload) > self._capacity:
            raise ReproError(
                f"payload of {len(payload)} bytes exceeds arena "
                f"capacity {self._capacity}"
            )
        raw_tag = tag.encode("utf-8")[:_SEQLOCK_TAG_BYTES]
        raw_tag = raw_tag.ljust(_SEQLOCK_TAG_BYTES, b"\x00")
        header = self._header
        with self._lock:
            version = header[0]
            odd = version + 1 if version % 2 == 0 else version
            header[0] = odd
            header[1] = len(payload)
            start = _SEQLOCK_HEADER_BYTES
            self._mmap[start:start + _SEQLOCK_TAG_BYTES] = raw_tag
            body = start + _SEQLOCK_TAG_BYTES
            self._mmap[body:body + len(payload)] = payload
            final = odd + 1
            header[0] = final
            return final

    def read(self) -> tuple[int, str, bytes] | None:
        """A consistent ``(version, tag, payload)``; None if unpublished.

        Retries until a stable even version brackets the copy — a
        reader overlapping a swap gets either the old or the new
        payload, never a mix.
        """
        header = self._header
        spins = 0
        while True:
            before = header[0]
            if before == 0:
                return None
            if before % 2 == 0:
                length = header[1]
                start = _SEQLOCK_HEADER_BYTES
                raw_tag = bytes(
                    self._mmap[start:start + _SEQLOCK_TAG_BYTES]
                )
                body = start + _SEQLOCK_TAG_BYTES
                payload = bytes(self._mmap[body:body + length])
                if header[0] == before:
                    tag = raw_tag.rstrip(b"\x00").decode("utf-8")
                    return before, tag, payload
            spins += 1
            if spins >= 64:  # writer mid-swap for a while: yield the CPU
                time.sleep(0.0005)

    def close(self) -> None:
        """Release the header view and unmap (after every reader is gone)."""
        self._header.release()
        try:
            self._mmap.close()
        except BufferError:  # pragma: no cover - exported views linger
            pass


class SharedF64Array:
    """A flat float64 slot array in fork-shared anonymous memory.

    No locking: correctness relies on the *single-writer-per-slot*
    discipline (each worker process updates only its own slots) plus
    aligned 8-byte stores, which do not interleave with concurrent
    8-byte loads on the platforms fork exists on.  Readers aggregating
    across slots may observe different slots at slightly different
    instants — fine for monitoring counters, which is the use case.
    """

    __slots__ = ("_mmap", "_view", "_slots")

    def __init__(self, slots: int) -> None:
        if slots < 1:
            raise ReproError(f"need at least one slot, got {slots}")
        self._slots = int(slots)
        self._mmap = mmap.mmap(-1, self._slots * 8)
        self._view = memoryview(self._mmap).cast("d")

    def __len__(self) -> int:
        return self._slots

    def __getitem__(self, index: int) -> float:
        return self._view[index]

    def __setitem__(self, index: int, value: float) -> None:
        self._view[index] = value

    def add(self, index: int, amount: float) -> None:
        """Read-modify-write one slot (single writer per slot only)."""
        self._view[index] += amount

    def snapshot(self) -> list[float]:
        """Copy out every slot (one float read each, not atomic as a set)."""
        return self._view.tolist()

    def close(self) -> None:
        """Release the view and unmap (after every reader is gone)."""
        self._view.release()
        try:
            self._mmap.close()
        except BufferError:  # pragma: no cover - exported views linger
            pass


class SnapshotArena:
    """Seqlock-published snapshot payloads, tagged with their epoch.

    The master process is the only writer; worker processes that
    inherited the arena read.  The payload is a pickled envelope:
    the snapshot's :meth:`~InfluenceSnapshot.to_payload` bytes plus the
    publisher's trace context and publication timestamps, so replicas
    can graft their attach spans onto the refresh trace that produced
    the epoch (cross-process trace propagation).
    """

    __slots__ = ("_arena",)

    def __init__(self, capacity: int = DEFAULT_ARENA_BYTES) -> None:
        self._arena = SeqlockArena(capacity)

    @property
    def version(self) -> int:
        """Monotone publication counter (0 = nothing published yet)."""
        return self._arena.version

    @property
    def capacity(self) -> int:
        """Payload capacity in bytes."""
        return self._arena.capacity

    def publish(
        self, snapshot: InfluenceSnapshot, trace: dict | None = None
    ) -> int:
        """Serialize ``snapshot`` into the arena; returns the version."""
        envelope = {
            "format": ENVELOPE_FORMAT,
            "snapshot": snapshot.to_payload(),
            "trace": trace,
            "published_at": time.time(),
            "published_monotonic": time.monotonic(),
        }
        payload = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        version = self._arena.publish(payload, tag=snapshot.epoch)
        _LOG.debug(
            "published snapshot epoch %s (%d bytes, version %d)",
            snapshot.epoch[:12], len(payload), version,
        )
        return version

    def read(self) -> tuple[int, InfluenceSnapshot, dict] | None:
        """A consistent ``(version, snapshot, meta)``; None if empty."""
        record = self._arena.read()
        if record is None:
            return None
        version, tag, payload = record
        envelope = pickle.loads(payload)
        if envelope.get("format") != ENVELOPE_FORMAT:
            raise ReproError(
                f"arena envelope format {envelope.get('format')!r} does "
                f"not match this build's format {ENVELOPE_FORMAT}"
            )
        snapshot = InfluenceSnapshot.from_payload(envelope["snapshot"])
        if snapshot.epoch != tag:
            # The tag travels outside the pickle; a mismatch means the
            # seqlock protocol was violated somewhere.  Fail loudly.
            raise ReproError(
                f"arena tag {tag[:12]!r} does not match payload epoch "
                f"{snapshot.epoch[:12]!r}"
            )
        meta = {
            "version": version,
            "trace": envelope.get("trace"),
            "published_at": envelope.get("published_at"),
            "published_monotonic": envelope.get("published_monotonic"),
        }
        return version, snapshot, meta

    def close(self) -> None:
        """Unmap (master only, after the workers are gone)."""
        self._arena.close()


class ArenaSnapshotSource:
    """A worker's read-side replica of the published snapshot.

    Duck-types the slice of :class:`~repro.serve.store.SnapshotStore`
    the HTTP layer reads — ``.snapshot``, ``max_staleness``,
    ``pending_deltas``, ``staleness_seconds``, ``pipeline`` — so
    :class:`~repro.serve.http.MassHttpServer` runs unchanged on top of
    it.  ``.snapshot`` is one shared-memory version peek per call;
    deserialization happens once per *epoch*, under a thread lock (the
    worker's handler threads share one replica).

    Writes (``submit``) do not exist here: workers are read-only by
    construction, which is what makes the whole tier lock-free.
    """

    def __init__(
        self,
        arena: SnapshotArena,
        *,
        max_staleness: float = 0.5,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        self._arena = arena
        self._instr = instrumentation or NULL_INSTRUMENTATION
        self.max_staleness = float(max_staleness)
        self.pipeline = None
        self._lock = threading.Lock()
        self._version = -1
        self._snapshot: InfluenceSnapshot | None = None
        self._meta: dict = {}
        self._attach_counter = self._instr.metrics.counter(
            "repro_serve_replica_attaches_total",
            "Snapshot epochs deserialized from the shared arena",
        )

    @property
    def snapshot(self) -> InfluenceSnapshot:
        """The current replica, re-attached if the arena moved on."""
        version = self._arena.version
        cached = self._snapshot
        if cached is not None and version == self._version:
            return cached
        with self._lock:
            # Re-check under the lock: another handler thread may have
            # attached while this one waited.
            if self._snapshot is not None \
                    and self._arena.version == self._version:
                return self._snapshot
            record = self._arena.read()
            if record is None:
                raise ReproError(
                    "snapshot arena is empty; the master has not "
                    "published an initial snapshot"
                )
            version, snapshot, meta = record
            self._version = version
            self._snapshot = snapshot
            self._meta = meta
            self._attach_counter.inc()
            self._note_attach(snapshot, meta)
            return snapshot

    def _note_attach(self, snapshot: InfluenceSnapshot, meta: dict) -> None:
        """Record the attach, grafted onto the publisher's trace.

        The publisher serialized its :class:`~repro.obs.TraceContext`
        into the envelope; adopting a span with that trace id makes the
        worker's attach visible in the same trace tree as the refresh
        that produced the epoch — the request that paid for a refresh
        can see every replica pick it up.
        """
        trace = meta.get("trace") or {}
        published = meta.get("published_monotonic")
        lag = (
            max(0.0, time.monotonic() - published)
            if published is not None else 0.0
        )
        self._instr.tracer.adopt(
            "replica-attach",
            trace_id=trace.get("trace_id"),
            parent_id=trace.get("span_id"),
            epoch=snapshot.epoch[:12],
            version=meta.get("version"),
            lag_seconds=round(lag, 6),
        )
        self._instr.recorder.note(
            "replica-attach",
            epoch=snapshot.epoch[:12],
            version=meta.get("version"),
            lag_seconds=round(lag, 6),
            publisher_trace=trace.get("trace_id"),
        )

    # -- SnapshotStore protocol stubs ----------------------------------
    @property
    def pending_deltas(self) -> int:
        """Always 0: workers never hold unapplied deltas."""
        return 0

    @property
    def staleness_seconds(self) -> float:
        """Always 0.0: replication lag is not delta staleness."""
        return 0.0

    @property
    def published_meta(self) -> dict:
        """Publication metadata of the attached epoch (for /healthz)."""
        with self._lock:
            return dict(self._meta)


# ----------------------------------------------------------------------
# Cross-worker HTTP metrics
# ----------------------------------------------------------------------
_COUNTER_SPECS: tuple[tuple[str, str, str], ...] = (
    ("requests", "repro_http_requests_total", "HTTP requests handled"),
    ("shed", "repro_http_shed_total", "Requests rejected by load shedding"),
    ("errors", "repro_http_errors_total", "Requests answered with 4xx/5xx"),
    ("rate_limited", "repro_http_rate_limited_total",
     "Requests rejected by per-tenant rate limiting"),
    ("batch_queries", "repro_http_batch_queries_total",
     "Individual queries answered through /query/batch"),
)


class _SharedCounterView:
    """One worker's write handle on one shared counter slot."""

    __slots__ = ("_array", "_index")

    def __init__(self, array: SharedF64Array, index: int) -> None:
        self._array = array
        self._index = index

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ReproError(f"counter cannot decrease (inc by {amount})")
        self._array.add(self._index, amount)

    @property
    def value(self) -> float:
        return self._array[self._index]


class _SharedHistogramView:
    """One worker's write handle on its shared histogram lane."""

    __slots__ = ("_array", "_base", "_buckets")

    def __init__(
        self, array: SharedF64Array, base: int, buckets: tuple[float, ...]
    ) -> None:
        self._array = array
        self._base = base
        self._buckets = buckets

    def observe(self, value: float) -> None:
        index = len(self._buckets)
        for position, bound in enumerate(self._buckets):
            if value <= bound:
                index = position
                break
        self._array.add(self._base + index, 1.0)
        self._array.add(self._base + len(self._buckets) + 1, value)  # sum
        self._array.add(self._base + len(self._buckets) + 2, 1.0)  # count

    def time(self) -> "_ViewTimer":
        return _ViewTimer(self)


class _ViewTimer:
    __slots__ = ("_view", "_started")

    def __init__(self, view: _SharedHistogramView) -> None:
        self._view = view
        self._started = 0.0

    def __enter__(self) -> "_ViewTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._view.observe(time.perf_counter() - self._started)


class SharedHttpStats:
    """Striped per-worker HTTP counters + latency histogram.

    One float64 lane per worker: the five canonical counters, then the
    latency histogram's bucket counts, sum, and count.  Each worker
    writes only its own lane (the single-writer-per-slot discipline of
    :class:`SharedF64Array`); any process renders
    the aggregate.  The exposition uses the *same* metric names the
    single-process server registers locally, so dashboards and the
    smoke tests need no cluster-specific queries, plus per-worker
    ``{worker="N"}`` request lines for skew debugging.
    """

    def __init__(
        self,
        workers: int,
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
    ) -> None:
        if workers < 1:
            raise ReproError(f"need at least one worker lane, got {workers}")
        self.workers = int(workers)
        self.buckets = tuple(float(b) for b in buckets)
        self._hist_base = len(_COUNTER_SPECS)
        self._lane = self._hist_base + len(self.buckets) + 3
        self._array = SharedF64Array(self.workers * self._lane)
        self._counter_index = {
            key: offset for offset, (key, _, _) in enumerate(_COUNTER_SPECS)
        }

    def _slot(self, worker_id: int, offset: int) -> int:
        if not 0 <= worker_id < self.workers:
            raise ReproError(
                f"worker_id {worker_id} outside [0, {self.workers})"
            )
        return worker_id * self._lane + offset

    def counter(self, worker_id: int, key: str) -> _SharedCounterView:
        """The write view of one counter in one worker's lane."""
        offset = self._counter_index.get(key)
        if offset is None:
            raise ReproError(
                f"unknown shared counter {key!r}; known: "
                f"{sorted(self._counter_index)}"
            )
        return _SharedCounterView(self._array, self._slot(worker_id, offset))

    def histogram(self, worker_id: int) -> _SharedHistogramView:
        """The write view of one worker's latency histogram."""
        return _SharedHistogramView(
            self._array, self._slot(worker_id, self._hist_base), self.buckets
        )

    # -- aggregation ---------------------------------------------------
    def totals(self) -> dict[str, float]:
        """Cross-worker counter totals keyed by short name."""
        values = self._array.snapshot()
        out: dict[str, float] = {}
        for key, offset in self._counter_index.items():
            out[key] = sum(
                values[w * self._lane + offset] for w in range(self.workers)
            )
        return out

    def per_worker(self, key: str) -> list[float]:
        """One counter's value per worker lane."""
        offset = self._counter_index[key]
        values = self._array.snapshot()
        return [
            values[w * self._lane + offset] for w in range(self.workers)
        ]

    def histogram_totals(self) -> tuple[list[float], float, float]:
        """``(bucket_counts, sum, count)`` aggregated across workers."""
        values = self._array.snapshot()
        counts = [0.0] * (len(self.buckets) + 1)
        total_sum = 0.0
        total_count = 0.0
        for w in range(self.workers):
            base = w * self._lane + self._hist_base
            for i in range(len(self.buckets) + 1):
                counts[i] += values[base + i]
            total_sum += values[base + len(self.buckets) + 1]
            total_count += values[base + len(self.buckets) + 2]
        return counts, total_sum, total_count

    def render_text(self) -> str:
        """Prometheus exposition of the cluster-wide aggregates."""
        lines: list[str] = []
        totals = self.totals()
        for key, name, help_text in _COUNTER_SPECS:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_format_value(totals[key])}")
        counts, hist_sum, hist_count = self.histogram_totals()
        name = "repro_http_request_seconds"
        lines.append(f"# HELP {name} HTTP request handling latency")
        lines.append(f"# TYPE {name} histogram")
        running = 0.0
        for bound, count in zip(self.buckets, counts):
            running += count
            lines.append(
                f'{name}_bucket{{le="{_format_value(bound)}"}} '
                f"{_format_value(running)}"
            )
        lines.append(
            f'{name}_bucket{{le="+Inf"}} {_format_value(hist_count)}'
        )
        lines.append(f"{name}_sum {_format_value(hist_sum)}")
        lines.append(f"{name}_count {_format_value(hist_count)}")
        per_worker_name = "repro_http_worker_requests_total"
        lines.append(
            f"# HELP {per_worker_name} HTTP requests handled per worker"
        )
        lines.append(f"# TYPE {per_worker_name} counter")
        for worker_id, value in enumerate(self.per_worker("requests")):
            lines.append(
                f'{per_worker_name}{{worker="{worker_id}"}} '
                f"{_format_value(value)}"
            )
        return "\n".join(lines) + "\n"

    def close(self) -> None:
        """Release the underlying mapping (master, after teardown)."""
        self._array.close()


def _format_value(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class ClusterStatusBoard:
    """Master-written, worker-read supervision facts (JSON seqlock).

    Carries what any worker's ``/healthz`` must be able to report about
    the cluster: worker count and pids, how many respawns happened, and
    when the last one was — from which a worker derives whether the
    cluster is inside its *degraded window* (a respawn happened less
    than ``degraded_window`` seconds ago, so some in-flight connections
    were lost and capacity briefly dipped).
    """

    __slots__ = ("_arena",)

    _CAPACITY = 16384

    def __init__(self) -> None:
        self._arena = SeqlockArena(self._CAPACITY)

    def publish(self, status: dict) -> None:
        """Replace the board contents (master only)."""
        self._arena.publish(
            json.dumps(status, sort_keys=True).encode("utf-8"),
            tag="cluster-status",
        )

    def read(self) -> dict | None:
        """The latest board contents, or None before the first publish."""
        record = self._arena.read()
        if record is None:
            return None
        return json.loads(record[2].decode("utf-8"))

    def close(self) -> None:
        """Unmap the board (master, after teardown)."""
        self._arena.close()
