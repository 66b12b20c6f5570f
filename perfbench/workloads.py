"""The three workloads: cold_fit, serve_read and serve_ingest.

Each fills its run's :class:`Outcome`: the end-to-end metrics, the
per-layer metrics (traced runs), the attempted/failed operation counts
and the lines of a human-readable report.  Every run checks its
answers; a wrong answer counts as a failed operation.
"""

from __future__ import annotations

import gc
import http.client
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import parse_qs, unquote, urlsplit

from repro.core import IncrementalAnalyzer
from repro.core.parameters import MassParameters
from repro.core.solver import InfluenceSolver
from repro.data import Blogger, BlogCorpus, Comment, Link, Post, open_corpus
from repro.nlp import NaiveBayesClassifier
from repro.obs import NULL_INSTRUMENTATION, Instrumentation
from repro.serve import InfluenceSnapshot, QueryEngine
from repro.synth import DOMAIN_VOCABULARIES

import inputs
import stages
from probe import Probe
from sut import MemorySampler, ServingSystem, connect, http_get

HERE = Path(__file__).resolve().parent

SETUPS = 2
READ_RATE = {"serve_read": 30.0, "serve_ingest": 20.0}
LADDER = (40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0, 200.0)
LADDER_STEP_S = 1.5
P99_LIMIT_MS = 100.0
RECORD_EVERY = 20         # every 20th read body is checked
FRESH_TIMEOUT_S = 30.0
POLL_S = 0.01
SCORE_BOUND = 1e-9        # served vs cold fit / reference backend
RECOVERY_BOUND = 1e-6     # recovered vs last served (bench_ingest's bound)


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    layers: dict = field(default_factory=dict)    # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    report: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one verification; a failed one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.report.append(f"CHECK FAILED: {what}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def tail_pct(count: int) -> float:
    """The highest percentile with at least 10 samples beyond it."""
    return max(50.0, 100.0 * (1 - 10 / max(1, count)))


def tail_label(count: int) -> str:
    return f"p{tail_pct(count):.1f} of {count}"


# ----------------------------------------------------------------------
# Answer checking
# ----------------------------------------------------------------------
def _strip_cached(payload):
    if isinstance(payload, dict):
        return {k: _strip_cached(v) for k, v in payload.items() if k != "cached"}
    if isinstance(payload, list):
        return [_strip_cached(v) for v in payload]
    return payload


def _weights(raw: str) -> dict[str, float]:
    return {term.split(":")[0]: float(term.split(":")[1])
            for term in raw.split(",")}


def expected_body(engine: QueryEngine, spec: dict) -> dict:
    """What the HTTP tier must answer for ``spec``, in-process."""
    parts = urlsplit(spec["path"])
    params = {k: v[0] for k, v in parse_qs(parts.query).items()}
    route = parts.path
    if route == "/top":
        return engine.top(int(params["k"]), domain=params.get("domain")).as_dict()
    if route == "/query":
        return engine.query(_weights(params["weights"]), int(params["k"])).as_dict()
    if route.startswith("/blogger/"):
        return engine.blogger(unquote(route[len("/blogger/"):])).as_dict()
    epoch, items = engine.batch(spec["body"]["queries"])
    return {"epoch": epoch, "count": len(items), "results": items}


def same_answer(actual: str, expected: dict) -> bool:
    """Byte-identical JSON bodies, ignoring the ``cached`` flags."""
    left = json.dumps(_strip_cached(json.loads(actual)), separators=(",", ":"))
    right = json.dumps(_strip_cached(expected), separators=(",", ":"))
    return left == right


def general_scores(snapshot: InfluenceSnapshot) -> dict[str, float]:
    return dict(snapshot.top(snapshot.num_bloggers))


def max_gap(left: dict[str, float], right: dict[str, float]) -> float:
    return max(abs(left[key] - right[key]) for key in left)


# ----------------------------------------------------------------------
# The open-loop load process
# ----------------------------------------------------------------------
class LoadProcess:
    """One ``loadgen.py`` child: phases of fixed-rate open-loop reads."""

    def __init__(self, run_dir: Path, name: str, address, phases: list[dict],
                 requests: list[dict], start_at: float) -> None:
        self.plan_path = run_dir / f"{name}-plan.json"
        self.out_path = run_dir / f"{name}-out.json"
        self.end_at = start_at + sum(p["duration"] for p in phases)
        plan = {"host": address[0], "port": address[1], "start_at": start_at,
                "phases": phases, "requests": requests,
                "record_every": RECORD_EVERY}
        self.plan_path.write_text(json.dumps(plan), encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "loadgen.py"), str(self.plan_path),
             str(self.out_path)])

    def finish(self) -> tuple[list, dict]:
        budget = max(0.0, self.end_at - time.monotonic()) + 60.0
        try:
            code = self.proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("load process overran its schedule") from None
        if code != 0:
            raise RuntimeError(f"load process exited with {code}")
        result = json.loads(self.out_path.read_text(encoding="utf-8"))
        return result["rows"], {int(k): v for k, v in result["bodies"].items()}


def by_kind(rows: list, requests: list[dict], phase: int = 0) -> dict:
    """Latencies in ms per request kind (phase rows align with requests)."""
    out: dict[str, list[float]] = {}
    for index, row in enumerate(rows):
        if row[0] == phase:
            out.setdefault(requests[index]["kind"], []).append(row[2] * 1e3)
    return out


def read_metrics(run: "Run", rows: list, requests: list[dict]) -> dict:
    """Record the read metrics of a fixed phase; return its stats."""
    stats = phase_stats(rows, 0)
    kinds = by_kind(rows, requests)
    stats["hit_p50_ms"] = statistics.median(
        [v for kind in inputs.HIT_KINDS for v in kinds[kind]])
    stats["scan_p50_ms"] = statistics.median(kinds["query"])
    run.metric("read_hit_p50_ms", stats["hit_p50_ms"], "ms")
    run.metric("read_scan_p50_ms", stats["scan_p50_ms"], "ms")
    run.metric("read_p50_ms", stats["p50_ms"], "ms")
    run.metric("read_p90_ms", stats["p90_ms"], "ms")
    run.metric("read_tail_ms", stats["tail_ms"], "ms")
    run.layer("loadgen.late_p99_ms", stats["late_p99_ms"], "ms")
    return stats


def kind_report(rows: list, requests: list[dict]) -> str:
    """Median latency per request kind in the fixed phase."""
    return "by kind (p50 ms): " + ", ".join(
        f"{kind} {statistics.median(v):.2f} (n={len(v)})"
        for kind, v in sorted(by_kind(rows, requests).items()))


def phase_stats(rows: list, phase: int) -> dict:
    mine = [row for row in rows if row[0] == phase]
    latencies = [row[2] * 1000.0 for row in mine]
    ok = sum(1 for row in mine if 200 <= row[4] < 300)
    quarter = max(1, len(mine) // 4)
    return {
        "count": len(mine),
        "ok": ok,
        "p50_ms": percentile(latencies, 50),
        "p90_ms": percentile(latencies, 90),
        "p99_ms": percentile(latencies, 99),
        "tail_ms": percentile(latencies, tail_pct(len(latencies))),
        "late_p99_ms": percentile([row[3] * 1000.0 for row in mine], 99),
        "first_quarter_ms": statistics.median(latencies[:quarter]),
        "last_quarter_ms": statistics.median(latencies[-quarter:]),
    }


# ----------------------------------------------------------------------
# Shared phases
# ----------------------------------------------------------------------
class Run:
    """State shared by one workload run."""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 run_dir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.run_dir = run_dir
        self.out = Outcome()
        self.probe = Probe()
        self.sampler = MemorySampler()
        self.fits: list[float] = []
        self.setups: list[float] = []
        self.stage_rows: dict[str, list] = {}
        self.timeline: list[tuple[str, float]] = []
        # Traced-run state: probe totals of the last set-up, the last
        # read window's layers, and the grow histogram over a window.
        self.probe_setup: tuple[dict, dict] = ({}, {})
        self.last_read_layers: dict = {}
        self.grow_base = 0.0
        self.grow_s = 0.0
        with self.phase("corpus"):
            self.corpus_path = inputs.corpus_file(HERE.parent, seed)
            corpus = open_corpus(self.corpus_path)
            self.blogger_ids = corpus.blogger_ids()
            self.post_ids = sorted(corpus.posts)
            corpus.close()

    @contextmanager
    def phase(self, name: str):
        """Time one phase of the run for the report's timeline."""
        started = time.monotonic()
        try:
            yield
        finally:
            self.timeline.append((name, time.monotonic() - started))

    def metric(self, name: str, value: float, unit: str) -> None:
        self.out.metrics[name] = (value, unit)

    def layer(self, name: str, value: float, unit: str) -> None:
        self.out.layers[name] = (value, unit)

    def serve_setups(self, durable: bool) -> ServingSystem:
        """Set the system up ``SETUPS`` times; keep the last one running."""
        system = None
        for index in range(SETUPS):
            if system is not None:
                system.stop()
                system = None
                gc.collect()
            durable_dir = None
            if durable:
                durable_dir = self.run_dir / f"durable-{index}"
                shutil.rmtree(durable_dir, ignore_errors=True)
            self.probe.reset()
            system = ServingSystem(self.corpus_path, durable_dir=durable_dir)
            self.probe.metrics = system.instr.metrics
            system.start()
            self.sampler.watch_workers(system.cluster.worker_pids)
            self.probe.lanes.set_pids(system.cluster.worker_pids)
            self.fits.append(system.fit_s)
            self.setups.append(system.setup_s)
            if self.trace:
                self.stage_rows["setup"] = stages.setup_table(
                    self.probe, system)
                self.probe_setup = self.probe.read()
        if self.trace:
            self.setup_layer_metrics()
        system.warm()
        self.metric("setup_s", statistics.median(self.setups), "s")
        self.metric("fit_s", statistics.median(self.fits), "s")
        self.out.report.append(
            "setups (s): " + ", ".join(f"{v:.3f}" for v in self.setups)
            + "   fits (s): " + ", ".join(f"{v:.3f}" for v in self.fits))
        return system

    def check_reads(self, rows: list, bodies: dict, requests: list,
                    engines: dict[str, QueryEngine]) -> None:
        """Each read: a 2xx status; each sampled body: the right bytes."""
        for row in rows:
            self.out.attempted += 1
            if not 200 <= row[4] < 300:
                self.out.failed += 1
        wrong = 0
        for index, body in sorted(bodies.items()):
            epoch = json.loads(body).get("epoch")
            engine = engines.get(epoch)
            if engine is None or not same_answer(
                    body, expected_body(engine, requests[index])):
                wrong += 1
        self.out.failed += wrong
        self.out.report.append(
            f"read checks: {len(rows)} reads, "
            f"{sum(1 for r in rows if not 200 <= r[4] < 300)} non-2xx, "
            f"{len(bodies)} bodies compared, {wrong} wrong")

    def read_window(self, system: ServingSystem, name: str,
                    phases: list[dict], requests: list[dict], *,
                    crawler=None):
        """Run one load process (and optionally the crawler) to the end."""
        start_at = time.monotonic() + 0.5
        start_wall = time.time() + 0.5
        self.probe.reset()
        system.instr.tracer.clear()
        grow = system.instr.metrics.get("repro_incremental_grow_seconds")
        self.grow_base = grow.sum if grow is not None else 0.0
        load = LoadProcess(self.run_dir, name, system.address, phases,
                           requests, start_at)
        try:
            if crawler is not None:
                crawler.begin(start_at, load.end_at)
            rows, bodies = load.finish()
        finally:
            if load.proc.poll() is None:
                load.proc.kill()
                load.proc.wait()
            if crawler is not None and crawler.ident is not None:
                crawler.join()
        grow = system.instr.metrics.get("repro_incremental_grow_seconds")
        self.grow_s = (grow.sum if grow is not None else 0.0) - self.grow_base
        return rows, bodies, start_wall

    def read_layer_metrics(self, system, rows, start_wall,
                           polls: list[float] = ()) -> dict:
        """Traced window: read-path layers plus the read stage table.

        The server-side rows cover every request the workers answered
        in the window, the crawler's epoch polls included, so the
        headline sums the polls' client latency with the reads'.
        """
        layers = stages.read_layers(self.probe, system, start_wall)
        self.last_read_layers = layers
        lanes = layers["lanes"]
        self.stage_rows["read"] = stages.read_table(
            layers, [r[2] for r in rows] + list(polls))
        self.layer("serve.engine_scan_s", lanes["engine_scan_s"]
                   / max(1.0, lanes["engine_scan_n"]), "s")
        self.layer("serve.engine_cached_s", lanes["engine_cached_s"]
                   / max(1.0, lanes["engine_cached_n"]), "s")
        self.layer("serve.cache_hit_ratio", layers["hit_ratio"], "ratio")
        self.layer("serve.http_self_s",
                   (layers["http_total"] - layers["engine_total"])
                   / max(1, layers["http_requests"]), "s")
        self.layer("serve.worker_share_max", layers["worker_share_max"], "ratio")
        self.layer("serve.shed", layers["shed"], "count")
        self.layer("serve.errors", layers["errors"], "count")
        return layers

    def setup_layer_metrics(self) -> None:
        """Fit-path and publish layers from the last traced set-up."""
        totals, _ = self.probe_setup
        rows = fit_layer_metrics(self, self.stage_rows["setup"],
                                 self.probe_setup)
        self.layer("serve.publish_s", rows["serve.publish"], "s")
        self.layer("serve.publish_bytes",
                   totals.get("serve.publish_bytes", 0.0), "bytes")


# ----------------------------------------------------------------------
# cold_fit
# ----------------------------------------------------------------------
def cold_fit(run: Run) -> None:
    classifier = NaiveBayesClassifier.from_seed_vocabulary(DOMAIN_VOCABULARIES)
    deadline = time.monotonic() + run.seconds
    # A traced run times its first fit with the wrappers off, for
    # obs.trace_overhead; the rest are traced.
    traced_fits = []
    with run.sampler:
        with run.phase("fits"):
            while (len(run.fits) + len(traced_fits) < SETUPS
                   or time.monotonic() < deadline):
                traced = run.trace and bool(run.fits)
                run.probe.set_enabled(traced)
                run.probe.reset()
                instr = (Instrumentation.enabled() if traced
                         else NULL_INSTRUMENTATION)
                started = time.monotonic()
                corpus = open_corpus(run.corpus_path)
                opened = time.monotonic() - started
                analyzer = IncrementalAnalyzer(classifier, instrumentation=instr)
                report = analyzer.fit(corpus)
                engine = QueryEngine(InfluenceSnapshot.compile(report))
                first = engine.top(10)
                elapsed = time.monotonic() - started
                if traced:
                    traced_fits.append(elapsed)
                    run.stage_rows["fit"] = stages.fit_table(
                        run.probe, instr, elapsed, opened)
                else:
                    run.fits.append(elapsed)
            run.probe.set_enabled(False)
    run.out.attempted += len(run.fits) + len(traced_fits)
    fit = statistics.median(run.fits)
    run.metric("setup_s", fit, "s")
    run.metric("fit_s", fit, "s")
    run.metric("op_p50_ms", fit * 1000.0, "ms")
    run.metric("peak_rss_mb", run.sampler.peak_mb, "MB")
    run.out.report.append(
        "fits (s): " + ", ".join(f"{v:.3f}" for v in run.fits + traced_fits))
    if run.trace:
        fit_layer_metrics(run, run.stage_rows["fit"], run.probe.read())
        run.layer("unattributed_s", run.stage_rows["fit"][-1][1], "s")
        run.layer("obs.trace_overhead",
                  statistics.median(traced_fits) / fit, "ratio")
        # No serving tier runs in this workload.
        idle = (("serve.publish_s", "s"), ("serve.publish_bytes", "bytes"),
                ("serve.engine_scan_s", "s"), ("serve.engine_cached_s", "s"),
                ("serve.cache_hit_ratio", "ratio"), ("serve.http_self_s", "s"),
                ("serve.worker_share_max", "ratio"), ("serve.worker_pss_mb", "MB"),
                ("loadgen.late_p99_ms", "ms"))
        for name, unit in idle:
            run.layer(name, 0.0, unit)

    with run.phase("reference oracle"):
        reference = InfluenceSolver(
            open_corpus(run.corpus_path),
            MassParameters(solver_backend="reference"),
        ).solve().influence
    ranked = sorted(reference.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    served = list(first.results)
    run.out.check([b for b, _ in served] == [b for b, _ in ranked],
                  "cold_fit top-10 ids differ from the reference backend")
    run.out.check(
        all(abs(score - reference[b]) <= SCORE_BOUND for b, score in served),
        "cold_fit top-10 scores off the reference backend by > 1e-9")


def fit_layer_metrics(run: Run, table: list, probed) -> dict[str, float]:
    """Fit-path layers of one fit, from its stage table and probe totals."""
    rows = {name: seconds for name, seconds, _ in table}
    totals, counts = probed
    run.layer("nlp.classify_s", rows["nlp.classify"], "s")
    run.layer("nlp.classify_calls", float(counts.get("nlp.classify", 0)),
              "count")
    for name in ("core.quality", "core.assemble", "core.iterate",
                 "core.domains", "graph.gl", "serve.snapshot_compile"):
        run.layer(name + "_s", rows[name], "s")
    run.layer("core.iterations", totals.get("core.iterations", 0.0), "count")
    return rows


# ----------------------------------------------------------------------
# serve_read
# ----------------------------------------------------------------------
def serve_read(run: Run) -> None:
    rate = READ_RATE["serve_read"]
    fixed = [{"name": "fixed", "rate": rate, "duration": run.seconds}]
    ladder = [{"name": f"ladder-{int(r)}", "rate": r, "duration": LADDER_STEP_S,
               "stop_p99_ms": P99_LIMIT_MS} for r in LADDER]
    # Traced runs repeat the fixed phase with the wrappers on, instead
    # of climbing the ladder; each window gets its own requests.
    windows = [("traced", True, fixed)] if run.trace else []
    windows.insert(0, ("untraced", False, fixed if run.trace else fixed + ladder))
    sizes = [sum(int(round(p["rate"] * p["duration"])) for p in phases)
             for _, _, phases in windows]
    requests = inputs.read_requests(run.seed, "serve_read", sum(sizes),
                                    run.blogger_ids)
    pending_checks = []
    with run.sampler:
        with run.phase("set-ups"):
            system = run.serve_setups(durable=False)
        try:
            offset = 0
            for (label, traced, phases), size in zip(windows, sizes):
                batch = requests[offset:offset + size]
                offset += size
                run.probe.set_enabled(traced)
                with run.phase(f"{label} window"):
                    rows, bodies, start_wall = run.read_window(
                        system, label, phases, batch)
                pending_checks.append((rows, bodies, batch))
                if not traced:
                    stats = read_metrics(run, rows, batch)
                    run.metric("op_p50_ms", stats["scan_p50_ms"], "ms")
                    run.out.report.append(
                        f"fixed {rate:.0f} rps: p50 {stats['p50_ms']:.2f} ms, "
                        f"tail {stats['tail_ms']:.2f} ms "
                        f"({tail_label(stats['count'])}), "
                        f"generator late p99 {stats['late_p99_ms']:.2f} ms")
                    run.out.report.append(kind_report(rows, batch))
                    if len(phases) > 1:
                        ladder_report(run, rows, phases)
                    base = stats["scan_p50_ms"]
                else:
                    traced_scan = statistics.median(
                        by_kind(rows, batch)["query"])
                    run.layer("obs.trace_overhead", traced_scan / base,
                              "ratio")
                    run.read_layer_metrics(system, rows, start_wall)
                    run.layer("unattributed_s", run.stage_rows["read"][-1][1],
                              "s")
                run.probe.set_enabled(False)
            snapshot = system.store.snapshot
        finally:
            system.stop()
    run.metric("peak_rss_mb", run.sampler.peak_mb, "MB")
    run.layer("serve.worker_pss_mb", run.sampler.worker_peak_mb, "MB")
    with run.phase("checks"):
        engines = {snapshot.epoch: QueryEngine(snapshot, cache_size=0)}
        for rows, bodies, batch in pending_checks:
            run.check_reads(rows, bodies, batch, engines)


def ladder_report(run: Run, rows: list, phases: list[dict]) -> None:
    """Find the highest ladder rate that keeps p99 and the backlog in check."""
    best = None
    for index, phase in enumerate(phases[1:], start=1):
        if not any(row[0] == index for row in rows):
            break
        stats = phase_stats(rows, index)
        growing = (stats["last_quarter_ms"]
                   > 2 * stats["first_quarter_ms"] + 5.0)
        passed = (stats["p99_ms"] <= P99_LIMIT_MS and not growing
                  and stats["ok"] == stats["count"])
        run.out.report.append(
            f"ladder {phase['rate']:.0f} rps: p50 {stats['p50_ms']:.2f} ms, "
            f"p99 {stats['p99_ms']:.2f} ms, backlog "
            f"{'growing' if growing else 'flat'} -> "
            f"{'pass' if passed else 'fail'}")
        if not passed:
            break
        best = phase["rate"]
    if best is None and phase_stats(rows, 0)["p99_ms"] <= P99_LIMIT_MS:
        best = phases[0]["rate"]
    best = best or 0.0
    run.out.report.append(f"read_max_rps: {best:.0f} 1/s")


# ----------------------------------------------------------------------
# serve_ingest
# ----------------------------------------------------------------------
class Crawler(threading.Thread):
    """Closed-loop writer: submit one delta, wait until a worker serves it.

    After a submit the crawler sleeps on ``published``, which a swap
    listener sets once the store has published a new epoch to the
    arena.  Only then does it poll ``GET /top?k=1`` every 10 ms, until
    a worker answers with the new epoch, so the polls stay a few per
    delta and do not load the master or the workers.
    """

    def __init__(self, store, address, deltas: list,
                 published: threading.Event) -> None:
        super().__init__(name="bench-crawler", daemon=True)
        self.store = store
        self.address = address
        self.deltas = deltas
        self.published = published
        self.results: list[tuple[str, float | None]] = []
        self.submitted = 0
        self.last_epoch = ""
        self.poll_seconds: list[float] = []   # client latency of each poll

    def begin(self, start_at: float, end_at: float) -> None:
        self.start_at = start_at
        self.end_at = end_at
        self.start()

    def _epoch(self, conn) -> str | None:
        started = time.monotonic()
        status, body = http_get(conn, "/top?k=1")
        self.poll_seconds.append(time.monotonic() - started)
        return json.loads(body)["epoch"] if status == 200 else None

    def _wait_fresh(self, conn, epoch: str, submitted: float) -> str | None:
        """The first new epoch a worker serves, or None on timeout."""
        deadline = submitted + FRESH_TIMEOUT_S
        if not self.published.wait(max(0.0, deadline - time.monotonic())):
            return None
        while time.monotonic() < deadline:
            seen = self._epoch(conn)
            if seen is not None and seen != epoch:
                return seen
            time.sleep(POLL_S)
        return None

    def run(self) -> None:
        conn = connect(self.address)
        try:
            time.sleep(max(0.0, self.start_at - time.monotonic()))
            epoch = self._epoch(conn)
            for kind, delta in self.deltas:
                if time.monotonic() >= self.end_at:
                    break
                self.published.clear()
                submitted = time.monotonic()
                self.store.submit(delta)
                self.submitted += 1
                seen = self._wait_fresh(conn, epoch, submitted)
                if seen is None:
                    self.results.append((kind, None))
                    break
                self.results.append((kind, time.monotonic() - submitted))
                epoch = seen
            self.last_epoch = epoch
        except (OSError, http.client.HTTPException):
            self.results.append(("error", None))
        finally:
            conn.close()


class EpochArchive:
    """Swap listener keeping every served epoch's snapshot on disk."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.seconds = 0.0
        directory.mkdir(parents=True, exist_ok=True)

    def __call__(self, snapshot: InfluenceSnapshot) -> None:
        started = time.perf_counter()
        path = self.directory / f"{snapshot.epoch}.bin"
        if not path.exists():
            path.write_bytes(snapshot.to_payload())
        self.seconds += time.perf_counter() - started

    def engines(self) -> dict[str, QueryEngine]:
        out = {}
        for path in self.directory.glob("*.bin"):
            snapshot = InfluenceSnapshot.from_payload(path.read_bytes())
            out[snapshot.epoch] = QueryEngine(snapshot, cache_size=0)
        return out


def serve_ingest(run: Run) -> None:
    rate = READ_RATE["serve_ingest"]
    phases = [{"name": "fixed", "rate": rate, "duration": run.seconds}]
    count = int(round(rate * run.seconds))
    stream = inputs.DeltaStream(run.blogger_ids, run.post_ids, run.seed)
    deltas = [stream.next() for _ in range(64)]
    warmup = inputs.DeltaStream(run.blogger_ids, run.post_ids, -1 - run.seed)
    windows = [("untraced", False)] + ([("traced", True)] if run.trace else [])
    requests = inputs.read_requests(run.seed, "serve_ingest",
                                    count * len(windows), run.blogger_ids)
    archive = EpochArchive(run.run_dir / "epochs")
    used = 0
    pending_checks = []
    with run.sampler:
        with run.phase("set-ups"):
            system = run.serve_setups(durable=True)
        with run.phase("warm-up delta"):
            system.store.pipeline.wait_recovery_checkpoint()
            # One unmeasured delta first: the first apply after a fit
            # copies the corpus once, a cost no later delta pays.
            warmup_delta = warmup.next()[1]
            system.store.submit(warmup_delta)
            system.store.refresh_now()
            system.warm()
        archive(system.store.snapshot)
        # Registered after the cluster's own listener, so both run once
        # the new epoch is in the arena.
        published = threading.Event()
        system.store.add_swap_listener(lambda snapshot: published.set())
        system.store.add_swap_listener(archive)
        fresh_all: list[tuple[str, float | None]] = []
        try:
            for number, (label, traced) in enumerate(windows):
                run.probe.set_enabled(traced)
                archive.seconds = 0.0
                batch = requests[number * count:(number + 1) * count]
                crawler = Crawler(system.store, system.address, deltas[used:],
                                  published)
                with run.phase(f"{label} window"):
                    rows, bodies, start_wall = run.read_window(
                        system, label, phases, batch, crawler=crawler)
                used += crawler.submitted
                fresh = [f for _, f in crawler.results if f is not None]
                if label == "untraced":
                    stats = read_metrics(run, rows, batch)
                    fresh_all = crawler.results
                    run.metric("op_p50_ms", statistics.median(fresh) * 1000.0
                               if fresh else float("nan"), "ms")
                    base = statistics.median(fresh)
                    run.out.report.append(
                        f"reads at {rate:.0f} rps under ingest: "
                        f"p50 {stats['p50_ms']:.2f} ms, "
                        f"tail {stats['tail_ms']:.2f} ms "
                        f"({tail_label(stats['count'])})")
                    run.out.report.append(kind_report(rows, batch))
                    run.out.report.append(
                        "deltas (kind, fresh s): " + ", ".join(
                            f"{k}:{f:.3f}" if f is not None else f"{k}:TIMEOUT"
                            for k, f in crawler.results))
                else:
                    run.layer("obs.trace_overhead",
                              statistics.median(fresh) / base, "ratio")
                    run.read_layer_metrics(system, rows, start_wall,
                                           crawler.poll_seconds)
                    run.stage_rows["fresh"] = stages.fresh_table(
                        run.probe, system, fresh, run.grow_s, archive.seconds)
                    ingest_layer_metrics(run, system, fresh, used)
                for _, f in crawler.results:
                    run.out.attempted += 1
                    if f is None:
                        run.out.failed += 1
                pending_checks.append((rows, bodies, batch))
                run.probe.set_enabled(False)
            run.out.check(crawler.last_epoch == system.store.snapshot.epoch,
                          "last fresh epoch is not the store's epoch")
            last_served = system.store.snapshot
            grown = system.store.report.corpus
            applied = [warmup_delta] + [delta for _, delta in deltas[:used]]
        except BaseException:
            system.stop()
            raise
    # The memory peak covers set-up and the windows; from here on the
    # abandoned store stays in this process, as a crashed one would not.
    run.metric("peak_rss_mb", run.sampler.peak_mb, "MB")
    run.layer("serve.worker_pss_mb", run.sampler.worker_peak_mb, "MB")
    # Unclean stop: workers go, the durable store is never closed.
    system.stop(clean=False)
    with run.phase("read checks"):
        engines = archive.engines()
        for rows, bodies, batch in pending_checks:
            run.check_reads(rows, bodies, batch, engines)
        del engines
    run.probe.set_enabled(run.trace)
    run.probe.reset()
    recovered = ServingSystem(run.corpus_path, durable_dir=system.durable_dir)
    run.probe.metrics = recovered.instr.metrics
    try:
        with run.phase("recovery"):
            recovered.start()
        if run.trace:
            run.stage_rows["recover"] = stages.recover_table(
                run.probe, recovered)
            rows = {n: v for n, v, _ in run.stage_rows["recover"]}
            run.layer("ingest.replay_s", rows["ingest.replay"], "s")
            run.layer("ingest.recover_load_s", rows["ingest.recover_load"], "s")
        run.probe.set_enabled(False)
        run.metric("recover_s", recovered.setup_s, "s")
        want = general_scores(last_served)
        got = general_scores(recovered.store.snapshot)
        run.out.check(set(want) == set(got),
                      "recovered blogger set differs from the last served")
        run.out.check(set(want) == set(got)
                      and max_gap(want, got) <= RECOVERY_BOUND,
                      "recovered scores off the last served by > 1e-6")
    finally:
        with run.phase("recovery stop"):
            recovered.stop()
    run.out.report.append(f"recover_s: {recovered.setup_s:.3f} s")

    # Oracle: a cold solve of the seed corpus plus the submitted deltas,
    # merged here rather than taken from the system, so a delta the
    # system merged wrongly shows.  General influence does not depend
    # on the domain classifier, so the solver alone suffices.
    with run.phase("cold-solve oracle"):
        oracle = oracle_corpus(run.corpus_path, applied)
        run.out.check(corpus_ids(oracle) == corpus_ids(grown),
                      "the system's corpus differs from seed + deltas")
        cold = InfluenceSolver(oracle, MassParameters()).solve().influence
    want = general_scores(last_served)
    run.out.check(set(want) == set(cold)
                  and max_gap(want, cold) <= SCORE_BOUND,
                  "final served scores off a cold solve of seed + deltas")
    kinds = [k for k, _ in fresh_all]
    run.out.report.append(
        f"delta mix: {kinds.count('local')} local, "
        f"{kinds.count('growing')} growing")


def oracle_corpus(corpus_path: Path, deltas: list) -> BlogCorpus:
    """The seed corpus with ``deltas`` added, built apart from the system."""
    seed = open_corpus(corpus_path)
    corpus = BlogCorpus()
    for blogger_id in seed.blogger_ids():
        row = seed.blogger(blogger_id)
        corpus.add_blogger(Blogger(row.blogger_id, name=row.name,
                                   profile_text=row.profile_text,
                                   joined_day=row.joined_day))
    for post_id in sorted(seed.posts):
        row = seed.post(post_id)
        corpus.add_post(Post(row.post_id, row.author_id, title=row.title,
                             body=row.body, created_day=row.created_day))
    for comment_id in sorted(seed.comments):
        row = seed.comments[comment_id]
        corpus.add_comment(Comment(row.comment_id, row.post_id,
                                   row.commenter_id, text=row.text,
                                   created_day=row.created_day))
    for row in seed.links:
        corpus.add_link(Link(row.source_id, row.target_id, row.weight))
    seed.close()
    for delta in deltas:
        for entities, add in ((delta.bloggers, corpus.add_blogger),
                              (delta.posts, corpus.add_post),
                              (delta.comments, corpus.add_comment),
                              (delta.links, corpus.add_link)):
            for entity in entities:
                add(entity)
    return corpus


def corpus_ids(corpus) -> tuple:
    """Blogger, post and comment ids and weighted links of ``corpus``."""
    return (set(corpus.blogger_ids()), set(corpus.posts), set(corpus.comments),
            sorted((link.source_id, link.target_id, link.weight)
                   for link in corpus.links))


def ingest_layer_metrics(run: Run, system, fresh: list[float],
                         deltas_total: int) -> None:
    """Warm-path layers, per delta, from the traced ingest window."""
    rows = {name: seconds for name, seconds, _ in run.stage_rows["fresh"]}
    totals, counts = run.probe.read()
    n = max(1, len(fresh))
    applies = max(1, counts.get("core.apply", 0))
    run.layer("unattributed_s", rows["unattributed"], "s")
    run.layer("core.apply_s", rows["core.apply"] / applies, "s")
    run.layer("core.grow_s", rows["  core.grow"] / applies, "s")
    run.layer("core.full_path_share",
              totals.get("core.full_path", 0.0) / applies, "ratio")
    touched = totals.get("core.touched_rows", 0.0)
    changed = totals.get("core.changed_rows", 0.0)
    run.layer("core.touched_rows", touched / applies, "count")
    run.layer("core.changed_rows", changed / applies, "count")
    run.layer("core.changed_per_touched", changed / max(1.0, touched), "ratio")
    run.layer("ingest.wal_append_s", rows["ingest.wal_append"] / n, "s")
    wal = sum(p.stat().st_size for p in (system.durable_dir / "wal").rglob("*")
              if p.is_file())
    run.layer("ingest.wal_bytes_per_delta", wal / max(1, deltas_total), "bytes")
    run.layer("ingest.checkpoint_s", rows["ingest.checkpoint"], "s")
    run.layer("ingest.checkpoints",
              float(sum(1 for root in system.instr.tracer.roots
                        for _ in _named(root, "ingest-checkpoint"))), "count")
    evolves = counts.get("serve.snapshot_evolve", 0)
    compiles = counts.get("serve.snapshot_compile", 0)
    run.layer("serve.snapshot_evolve_s",
              rows["serve.snapshot_evolve"] / max(1, evolves), "s")
    run.layer("serve.evolve_share", evolves / max(1, evolves + compiles),
              "ratio")
    run.layer("serve.queue_wait_s", rows["serve.queue_wait"] / n, "s")
    refreshes = max(1, counts.get("serve.refresh", 0))
    run.layer("serve.refresh_s",
              totals.get("serve.refresh.total", 0.0) / refreshes, "s")
    run.layer("serve.attach_s", rows["serve.attach"] / n, "s")
    lags = run.last_read_layers["attach_lags"]
    run.layer("serve.attach_lag_s",
              statistics.median(lags) if lags else 0.0, "s")


def _named(span, name):
    if span.name == name:
        yield span
    for child in span.children:
        yield from _named(child, name)


WORKLOADS = {"cold_fit": cold_fit, "serve_read": serve_read,
             "serve_ingest": serve_ingest}
