"""Timing wrappers for the traced run, installed on public methods.

The wrappers go on the classes before the serving cluster forks, so the
workers inherit them.  Master-side time lands in :class:`Probe`'s own
totals; worker-side time lands in per-worker lanes of an anonymous
shared mapping, read back by the master.  A shared ``enabled`` flag
switches every wrapper, in every process, between timing and plain
pass-through, so one run can measure the same path with and without
tracing.

Times are *self* times: a wrapped call nested inside another wrapped
call (``predict_proba`` inside ``DomainInfluence``, say) is subtracted
from its parent, so the stage rows built from them never double count.
"""

from __future__ import annotations

import functools
import mmap
import os
import threading
import time
from collections import defaultdict

import numpy as np

from repro.core import DomainInfluence, IncrementalAnalyzer
from repro.core.parallel import SeqlockArena
from repro.nlp import NaiveBayesClassifier
from repro.serve import InfluenceSnapshot, QueryEngine, SnapshotArena, SnapshotStore

# Worker lanes: slot name -> column.
WORKER_SLOTS = ("engine_scan_s", "engine_scan_n", "engine_cached_s",
                "engine_cached_n", "engine_other_s", "engine_other_n",
                "attach_s", "attach_n")
MAX_LANES = 8


class _SharedLanes:
    """``[enabled, pid...]`` header plus one f64 row per worker."""

    def __init__(self) -> None:
        width = len(WORKER_SLOTS)
        self._map = mmap.mmap(-1, 8 * (1 + MAX_LANES + MAX_LANES * width))
        self.flat = np.frombuffer(self._map, dtype=np.float64)
        self.rows = self.flat[1 + MAX_LANES:].reshape(MAX_LANES, width)
        self._lane: dict[int, int] = {}

    @property
    def enabled(self) -> bool:
        return bool(self.flat[0])

    def set_enabled(self, on: bool) -> None:
        self.flat[0] = 1.0 if on else 0.0

    def set_pids(self, pids: list[int]) -> None:
        self.flat[1:1 + MAX_LANES] = 0.0
        for lane, pid in enumerate(pids[:MAX_LANES]):
            self.flat[1 + lane] = pid

    def lane(self) -> int | None:
        pid = os.getpid()
        lane = self._lane.get(pid)
        if lane is None:
            pids = list(self.flat[1:1 + MAX_LANES])
            if pid in pids:
                lane = self._lane[pid] = pids.index(pid)
        return lane

    def add(self, slot: str, value: float) -> None:
        lane = self.lane()
        if lane is not None:
            self.rows[lane, WORKER_SLOTS.index(slot)] += value

    def totals(self) -> dict[str, float]:
        summed = self.rows.sum(axis=0)
        return {slot: float(summed[i]) for i, slot in enumerate(WORKER_SLOTS)}


class Probe:
    """Installs, switches and reads the benchmark's timing wrappers."""

    def __init__(self) -> None:
        self.lanes = _SharedLanes()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.totals: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # The running system's metrics registry, for frontier gauges.
        self.metrics = None

    # -- switching -----------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.lanes.enabled

    def set_enabled(self, on: bool) -> None:
        self.lanes.set_enabled(on)

    def reset(self) -> None:
        with self._lock:
            self.totals.clear()
            self.counts.clear()
        self.lanes.rows[:] = 0.0

    def read(self) -> tuple[dict[str, float], dict[str, int]]:
        with self._lock:
            return dict(self.totals), dict(self.counts)

    # -- master-side accounting -----------------------------------------
    def _record(self, name: str, seconds: float, count: int = 1) -> None:
        with self._lock:
            self.totals[name] += seconds
            self.counts[name] += count

    def note(self, name: str, value: float = 0.0, count: int = 1) -> None:
        """Record a value that is not a wrapped call (rows, bytes, ...)."""
        self._record(name, value, count)

    def _timed(self, name: str, func, after=None):
        """Wrap ``func`` so its self time is recorded under ``name``."""
        probe = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not probe.enabled:
                return func(*args, **kwargs)
            stack = getattr(probe._local, "stack", None)
            if stack is None:
                stack = probe._local.stack = []
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                probe._record(name, elapsed - nested)
                probe._record(name + ".total", elapsed, 0)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner: type, attr: str, name: str, after=None,
               kind: str = "method") -> None:
        raw = owner.__dict__[attr]
        if kind == "classmethod":
            inner = self._timed(name, raw.__func__, after)
            setattr(owner, attr, classmethod(inner))
        else:
            setattr(owner, attr, self._timed(name, raw, after))

    def _hook(self, owner: type, attr: str, after) -> None:
        """Call ``after(args, result)`` behind ``owner.attr``, untimed."""
        raw = owner.__dict__[attr]
        probe = self

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            result = raw(*args, **kwargs)
            if probe.enabled:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)

    # -- worker-side accounting -----------------------------------------
    def _worker_timed(self, func, classify):
        lanes = self.lanes

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not lanes.enabled:
                return func(*args, **kwargs)
            started = time.perf_counter()
            result = func(*args, **kwargs)
            elapsed = time.perf_counter() - started
            slot = classify(result)
            lanes.add(slot + "_s", elapsed)
            lanes.add(slot + "_n", 1.0)
            return result

        return wrapper

    def _patch_worker(self, owner: type, attr: str, classify) -> None:
        raw = owner.__dict__[attr]
        setattr(owner, attr, self._worker_timed(raw, classify))

    # -- install --------------------------------------------------------
    def install(self) -> None:
        """Patch the public methods; call before the cluster forks.

        The patches stay for the life of the process: one benchmark
        run is one process.
        """
        self._patch(NaiveBayesClassifier, "predict_proba", "nlp.classify")
        self._patch(DomainInfluence, "__init__", "core.domains")
        self._patch(DomainInfluence, "evolved", "core.domains",
                    kind="classmethod")
        self._patch(InfluenceSnapshot, "compile", "serve.snapshot_compile",
                    kind="classmethod")
        self._patch(InfluenceSnapshot, "evolve", "serve.snapshot_evolve",
                    kind="classmethod")
        self._patch(SnapshotArena, "publish", "serve.publish")
        self._hook(SeqlockArena, "publish", self._after_seqlock_publish)
        self._patch(IncrementalAnalyzer, "fit", "core.fit",
                    after=self._after_fit)
        self._patch(IncrementalAnalyzer, "apply", "core.apply",
                    after=self._after_apply)
        self._patch(SnapshotStore, "refresh_now", "serve.refresh")
        original_refresh = SnapshotStore.refresh_now
        probe = self

        @functools.wraps(original_refresh)
        def refresh_now(store, *args, **kwargs):
            if probe.enabled and store.pending_deltas:
                probe._record("serve.queue_wait", store.staleness_seconds)
            return original_refresh(store, *args, **kwargs)

        SnapshotStore.refresh_now = refresh_now

        def engine_kind(result) -> str:
            cached = getattr(result, "cached", None)
            if cached is True:
                return "engine_cached"
            if getattr(result, "kind", None) == "query":
                return "engine_scan"
            return "engine_other"

        for attr in ("query", "top", "blogger", "batch"):
            self._patch_worker(QueryEngine, attr, engine_kind)
        self._patch_worker(SnapshotArena, "read", lambda result: "attach")

    # -- after-hooks -----------------------------------------------------
    def _after_seqlock_publish(self, args, result) -> None:
        payload = args[1]
        self.note("serve.publish_bytes", float(len(payload)))

    def _after_fit(self, args, report) -> None:
        self.note("core.iterations", float(report.scores.iterations))

    def _after_apply(self, args, report) -> None:
        analyzer = args[0]
        changed = analyzer.last_changed_ids
        if changed is None:
            self.note("core.full_path", 1.0)
            self.note("core.changed_rows", float(len(report.scores.influence)))
        else:
            self.note("core.changed_rows", float(len(changed)))
        gauge = (self.metrics.get("repro_incremental_touched_rows")
                 if self.metrics is not None else None)
        if changed is not None and gauge is not None:
            self.note("core.touched_rows", float(gauge.value))
        else:
            self.note("core.touched_rows",
                      float(len(report.scores.influence)))
