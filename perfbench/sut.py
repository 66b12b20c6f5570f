"""The system under test, driven only through the public API.

One master process (this one) holds the corpus, the
:class:`~repro.serve.SnapshotStore` (and, in durable mode, its WAL and
checkpoints) and the :class:`~repro.serve.ServingCluster`'s arena; two
forked workers answer HTTP.  Configuration is the ``repro serve``
default: ``max_staleness=0.5``, the default ``IngestConfig`` and an
enabled :class:`~repro.obs.Instrumentation`, exactly as the CLI builds
it.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from pathlib import Path

from repro.data import open_corpus
from repro.ingest import IngestConfig
from repro.obs import Instrumentation
from repro.serve import ClusterConfig, ServiceConfig, ServingCluster, SnapshotStore

MAX_STALENESS = 0.5
WORKERS = 2
FIRST_QUERY = "/top?k=10"


def pss_mb(pid: int) -> float:
    """Proportional set size of ``pid`` in MiB (0.0 once it is gone).

    Pss splits each shared page between the processes mapping it, so
    the forked workers' copy-on-write pages are not counted twice.
    """
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class MemorySampler:
    """Samples the summed Pss of the system's processes in a thread."""

    INTERVAL = 0.25

    def __init__(self) -> None:
        self.peak_mb = 0.0
        self.worker_peak_mb = 0.0
        self._workers: list[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="pss-sampler",
                                        daemon=True)

    def watch_workers(self, pids: list[int]) -> None:
        self._workers = list(pids)

    def sample(self) -> None:
        workers = [pss_mb(pid) for pid in self._workers]
        total = pss_mb(os.getpid()) + sum(workers)
        self.peak_mb = max(self.peak_mb, total)
        if workers:
            self.worker_peak_mb = max(self.worker_peak_mb, max(workers))

    def _run(self) -> None:
        while not self._stop.wait(self.INTERVAL):
            self.sample()

    def __enter__(self) -> "MemorySampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


def http_get(conn: http.client.HTTPConnection, path: str) -> tuple[int, bytes]:
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, response.read()


def connect(url_port: tuple[str, int]) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(*url_port, timeout=30.0)


class ServingSystem:
    """One master + ``WORKERS`` forked workers over one corpus.

    :meth:`start` is the set-up the benchmark times: corpus open → cold
    fit → snapshot compile → first top-10 answered in the master
    (``fit_s``) → arena publish → fork → ``/healthz`` → first HTTP
    answer (``setup_s``).
    """

    def __init__(self, corpus_path: Path, *,
                 durable_dir: Path | None = None) -> None:
        self.corpus_path = corpus_path
        self.durable_dir = durable_dir
        self.instr = Instrumentation.enabled()
        self.store: SnapshotStore | None = None
        self.cluster: ServingCluster | None = None
        self.fit_s = 0.0
        self.setup_s = 0.0
        # Seconds from the start of set-up to each milestone.
        self.marks: dict[str, float] = {}

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.cluster.url.rsplit("//", 1)[1].split(":")
        return host, int(port)

    def start(self) -> "ServingSystem":
        started = time.monotonic()
        corpus = open_corpus(self.corpus_path)
        self.marks["opened"] = time.monotonic() - started
        self.store = SnapshotStore(
            corpus,
            max_staleness=MAX_STALENESS,
            durable_dir=self.durable_dir,
            ingest_config=IngestConfig() if self.durable_dir else None,
            instrumentation=self.instr,
        )
        self.store.snapshot.top(10)
        self.fit_s = time.monotonic() - started
        self.cluster = ServingCluster(
            self.store, ServiceConfig(port=0), ClusterConfig(workers=WORKERS),
            instrumentation=self.instr,
        )
        self.store.start()
        self.cluster.start()
        self.cluster.wait_ready()
        self.marks["ready"] = time.monotonic() - started
        conn = connect(self.address)
        try:
            status, _ = http_get(conn, FIRST_QUERY)
        finally:
            conn.close()
        self.setup_s = time.monotonic() - started
        if status != 200:
            raise RuntimeError(f"first query answered {status}")
        return self

    def each_worker(self, fetch) -> dict[int, object]:
        """``fetch(conn)`` once on every worker, keyed by worker id.

        Connections are balanced across workers by the kernel, so keep
        opening fresh ones until every worker id has answered.  The
        ``/debug/vars`` probe that names the worker also makes it attach
        the current epoch.
        """
        found: dict[int, object] = {}
        for _ in range(64):
            if len(found) == WORKERS:
                return found
            conn = connect(self.address)
            try:
                status, body = http_get(conn, "/debug/vars")
                worker = json.loads(body).get("worker_id")
                if status == 200 and worker not in found:
                    found[worker] = fetch(conn, json.loads(body))
            finally:
                conn.close()
        raise RuntimeError("not every worker answered")

    def warm(self) -> None:
        """Have every worker answer once, so each has attached the epoch."""
        self.each_worker(lambda conn, info: http_get(conn, FIRST_QUERY))

    def stop(self, *, clean: bool = True) -> None:
        """Stop the workers; ``clean=False`` abandons the store unclosed.

        An abandoned durable store leaves its WAL tail unfolded into
        any checkpoint, as a crash would.
        """
        if self.cluster is not None:
            self.cluster.stop()
        if self.store is not None and clean:
            self.store.close()
