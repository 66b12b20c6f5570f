"""The MASS HTTP service — the demo UI as a JSON API.

A stdlib :class:`~http.server.ThreadingHTTPServer` exposing the query
engine:

====================  =================================================
Endpoint              Meaning
====================  =================================================
``GET /top``          Top-k bloggers; ``k``, ``domain``, ``offset``.
``GET /query``        Eq. 5 composite query; ``weights=Sports:0.7,
                      Art:0.3`` plus ``k`` / ``offset``.  Also accepts
                      ``POST`` with a JSON body ``{"weights": {...},
                      "k": ..., "offset": ...}``.
``POST /query/batch`` Many ``/top`` / ``/query`` specs answered from
                      one snapshot read — one epoch per batch, HTTP
                      overhead amortized across items.
``GET /blogger/<id>`` The Fig. 4 detail pop-up for one blogger.
``GET /asof``         Time travel: top-k at a past point of the
                      retained checkpoint history; ``t=<wall time>``
                      or ``seq=<delta seq>`` plus ``k`` / ``domain``.
``GET /trend``        Rising influencers over sliding windows;
                      ``domain``, ``window``, ``step``, ``k``, ``t``.
``GET /timeline``     The retained time axis (checkpoint history
                      listing) behind the two endpoints above.
``GET /healthz``      Liveness + SLO verdict: ``ok`` or ``degraded``,
                      snapshot epoch, corpus shape, burn rates.
``GET /metrics``      Prometheus text exposition of the shared
                      :mod:`repro.obs` registry (SLO gauges included).
``GET /debug/events`` The flight recorder's recent-event tail
                      (``?limit=N``; ``?dumps=1`` for incident dumps).
``GET /debug/traces`` Every recorded span tree, as JSON.
``GET /debug/vars``   Runtime variables: config, cache, staleness.
====================  =================================================

Request correlation: each request gets a :class:`TraceContext` —
adopted from an inbound ``X-Repro-Trace-Id`` header or minted fresh —
active for the whole handler, echoed back in the ``X-Repro-Trace-Id``
response header.  Every span the request causes anywhere (engine,
store refresh, incremental solve, worker attach) carries the same
trace id, so one id pulled from a response header finds the whole
story in ``/debug/traces`` and ``/debug/events``.

Observability: every request lands in ``repro_http_requests_total``
(the qps source), a latency histogram, and a per-route counter; query
routes feed the ``query_latency`` and ``error_rate`` SLOs; the engine
keeps the cache hit-rate gauge current.  Load-shed 503s and unhandled
handler errors auto-dump the flight recorder.

Load shedding: at most ``max_inflight`` requests execute at once.
Excess requests are answered immediately with **503** and a
``Retry-After`` header instead of queueing behind the thread pool —
under overload, fast rejection beats slow service.  ``/healthz``,
``/metrics`` and ``/debug/*`` are exempt so operators can always see
in.

Rate limiting (``rate_limit_qps > 0``): in *front* of the global
inflight gate sits a per-tenant token bucket keyed on the
``X-Repro-Tenant`` header.  A tenant over budget gets **429** +
``Retry-After`` while other tenants keep being served — overload
control becomes fair instead of global.  Operational endpoints are
exempt, batch requests cost one token per item.

The same server class powers both deployment shapes: the standalone
single-process service (``create_server``) and the pre-fork worker
processes of :class:`~repro.serve.cluster.ServingCluster`, which hand
in a pre-bound ``SO_REUSEPORT`` socket, a shared-memory snapshot
replica, and shared metrics lanes.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from repro.errors import QueryError, ReproError, TimelineError
from repro.obs import (
    LATENCY_BUCKETS,
    NULL_INSTRUMENTATION,
    Instrumentation,
    SloEngine,
    SloObjective,
    TraceContext,
    default_serve_objectives,
    get_logger,
    use_trace,
)
from repro.serve.engine import QueryEngine
from repro.serve.ratelimit import RateDecision, TenantRateLimiter
from repro.serve.store import SnapshotStore

if TYPE_CHECKING:  # break the serve <-> timeline import cycle
    from repro.timeline.service import TimelineService

__all__ = ["ServiceConfig", "MassHttpServer", "create_server",
           "TENANT_HEADER"]

_LOG = get_logger("serve.http")

#: Request header naming the tenant a request is billed to (rate
#: limiting); absent means the shared ``"default"`` tenant.
TENANT_HEADER = "X-Repro-Tenant"


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Operational knobs of the HTTP service."""

    host: str = "127.0.0.1"
    port: int = 8350
    max_inflight: int = 32
    retry_after_seconds: int = 1
    max_k: int = 100
    cache_size: int = 1024
    default_k: int = 3
    max_batch: int = 64
    # Per-tenant token-bucket rate limiting; 0.0 disables it.  A burst
    # of 0.0 auto-sizes to max(ceil(qps), max_batch) so a full batch is
    # always grantable.  In the multi-process tier the cluster builds
    # one fork-shared limiter before forking, so this budget is
    # enforced cluster-wide — not multiplied by the worker count.
    rate_limit_qps: float = 0.0
    rate_limit_burst: float = 0.0
    # Durable directory whose checkpoint history backs the time axis
    # (``/asof``, ``/trend``, ``/timeline``).  ``None`` disables the
    # endpoints (404).  A plain string so a pre-fork worker inherits it
    # through the frozen config and builds its own TimelineService over
    # the same on-disk chain — time travel needs no shared memory.
    timeline_dir: str | None = None

    def __post_init__(self) -> None:
        if self.max_inflight < 0:
            raise ReproError(
                f"max_inflight must be >= 0, got {self.max_inflight}"
            )
        if self.max_k < 1:
            raise ReproError(f"max_k must be >= 1, got {self.max_k}")
        if self.default_k < 1:
            raise ReproError(f"default_k must be >= 1, got {self.default_k}")
        if self.max_batch < 1:
            raise ReproError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.rate_limit_qps < 0:
            raise ReproError(
                f"rate_limit_qps must be >= 0, got {self.rate_limit_qps}"
            )
        if self.rate_limit_burst < 0:
            raise ReproError(
                f"rate_limit_burst must be >= 0, got {self.rate_limit_burst}"
            )

    def resolved_burst(self) -> float:
        """The burst the limiter will actually use (0 = auto-size)."""
        if self.rate_limit_burst > 0:
            return self.rate_limit_burst
        return float(max(
            math.ceil(self.rate_limit_qps), self.max_batch, 1
        ))


class MassHttpServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the engine, config, and metrics."""

    daemon_threads = True

    def __init__(
        self,
        store: SnapshotStore,
        config: ServiceConfig,
        instrumentation: Instrumentation,
        slo_objectives: tuple[SloObjective, ...] | None = None,
        *,
        listen_socket=None,
        worker_id: int | None = None,
        shared_stats=None,
        status_board=None,
        shared_limiter=None,
    ) -> None:
        """Build the server over a snapshot source.

        ``store`` is anything exposing the read-side store protocol
        (``.snapshot``, ``pending_deltas``, ``staleness_seconds``) — a
        :class:`~repro.serve.store.SnapshotStore` in single-process
        mode, an :class:`~repro.serve.shm.ArenaSnapshotSource` replica
        inside a cluster worker.  The keyword-only extras are the
        cluster wiring: ``listen_socket`` adopts a pre-bound
        ``SO_REUSEPORT`` socket instead of binding a new one;
        ``worker_id`` + ``shared_stats`` route the canonical HTTP
        metrics into this worker's shared-memory lane (and register the
        cross-worker aggregate with ``/metrics``); ``status_board``
        lets ``/healthz`` report cluster supervision state;
        ``shared_limiter`` hands in the cluster's fork-shared
        :class:`~repro.serve.ratelimit.SharedTenantLimiter` so the
        per-tenant budget is enforced cluster-wide instead of this
        worker building its own shared-nothing one.
        """
        if listen_socket is None:
            super().__init__((config.host, config.port), _Handler)
        else:
            # Adopt the worker's already-bound, already-listening
            # SO_REUSEPORT socket: construct without binding, then swap
            # the placeholder socket out.
            super().__init__(
                (config.host, config.port), _Handler,
                bind_and_activate=False,
            )
            self.socket.close()
            self.socket = listen_socket
            self.server_address = listen_socket.getsockname()
            host, port = self.server_address[:2]
            self.server_name = host
            self.server_port = port
        self.store = store
        self.config = config
        self.instrumentation = instrumentation
        self.worker_id = worker_id
        self.shared_stats = shared_stats
        self.status_board = status_board
        self.engine = QueryEngine(
            store,
            cache_size=config.cache_size,
            max_k=config.max_k,
            instrumentation=instrumentation,
        )
        if config.timeline_dir:
            # Imported here, not at module top: the timeline package
            # builds on repro.serve (snapshots), so a top-level import
            # would be circular when repro.timeline is imported first.
            from repro.timeline.service import TimelineService

            self.timeline: TimelineService | None = TimelineService(
                config.timeline_dir, instrumentation=instrumentation
            )
        else:
            self.timeline = None
        if shared_limiter is not None:
            self.limiter = shared_limiter
        elif config.rate_limit_qps > 0:
            self.limiter = TenantRateLimiter(
                config.rate_limit_qps, config.resolved_burst()
            )
        else:
            self.limiter = None
        self.started_at = time.time()
        # Ages served by /healthz come from the monotonic clock: a
        # wall-clock step (NTP) must not produce negative or inflated
        # uptimes.  started_at stays wall-clock for human display.
        self.started_monotonic = time.monotonic()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        metrics = instrumentation.metrics
        if shared_stats is not None and worker_id is not None:
            # Cluster mode: the canonical HTTP metrics live in this
            # worker's shared-memory lane, so any worker's /metrics
            # renders truthful cluster-wide totals.  The local registry
            # keeps everything else (engine, SLO, per-route counters,
            # which stay per-worker) and appends the shared aggregate.
            self.requests_total = shared_stats.counter(worker_id, "requests")
            self.shed_total = shared_stats.counter(worker_id, "shed")
            self.errors_total = shared_stats.counter(worker_id, "errors")
            self.rate_limited_total = shared_stats.counter(
                worker_id, "rate_limited"
            )
            self.batch_queries_total = shared_stats.counter(
                worker_id, "batch_queries"
            )
            self.request_seconds = shared_stats.histogram(worker_id)
            metrics.add_external_renderer(shared_stats.render_text)
        else:
            self.requests_total = metrics.counter(
                "repro_http_requests_total", "HTTP requests handled"
            )
            self.shed_total = metrics.counter(
                "repro_http_shed_total", "Requests rejected by load shedding"
            )
            self.errors_total = metrics.counter(
                "repro_http_errors_total", "Requests answered with 4xx/5xx"
            )
            self.rate_limited_total = metrics.counter(
                "repro_http_rate_limited_total",
                "Requests rejected by per-tenant rate limiting",
            )
            self.batch_queries_total = metrics.counter(
                "repro_http_batch_queries_total",
                "Individual queries answered through /query/batch",
            )
            self.request_seconds = metrics.histogram(
                "repro_http_request_seconds", "HTTP request handling latency",
                buckets=LATENCY_BUCKETS,
            )
        self.inflight_gauge = metrics.gauge(
            "repro_http_inflight", "Requests currently executing"
        )
        # SLO engine: explicit objectives (--slo-config) or the serving
        # defaults, with the staleness bound wired to max_staleness.
        self.slo = SloEngine(
            slo_objectives
            if slo_objectives is not None
            else default_serve_objectives(
                getattr(store, "max_staleness", 0.5)
            ),
            metrics=metrics,
            enabled=metrics.enabled,
        )
        objective_names = {o.name for o in self.slo.objectives}
        if "snapshot_staleness" in objective_names:
            self.slo.probe(
                "snapshot_staleness",
                lambda: getattr(store, "staleness_seconds", 0.0),
            )
        pipeline = getattr(store, "pipeline", None)
        if "wal_replay_lag" in objective_names and pipeline is not None:
            self.slo.probe(
                "wal_replay_lag",
                lambda: getattr(pipeline, "replay_lag", 0.0),
            )
        # Always-on recent-event capture: repro.* log lines join the
        # spans already fed through the tracer's on_close hook.
        instrumentation.recorder.capture_logs()

    def server_close(self) -> None:
        """Release sockets and detach the recorder's log capture."""
        self.instrumentation.recorder.release_logs()
        super().server_close()

    @property
    def url(self) -> str:
        """The service base URL with the bound (possibly ephemeral) port."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_in_thread(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (tests, benches)."""
        thread = threading.Thread(
            target=self.serve_forever, name="mass-http", daemon=True
        )
        thread.start()
        return thread

    # -- load shedding -------------------------------------------------
    def try_acquire_slot(self) -> bool:
        """Claim an execution slot; False means shed this request."""
        with self._inflight_lock:
            if self._inflight >= self.config.max_inflight:
                return False
            self._inflight += 1
            inflight = self._inflight
        self.inflight_gauge.set(inflight)
        return True

    def release_slot(self) -> None:
        """Return an execution slot."""
        with self._inflight_lock:
            self._inflight -= 1
            inflight = self._inflight
        self.inflight_gauge.set(inflight)


def create_server(
    store: SnapshotStore,
    config: ServiceConfig | None = None,
    instrumentation: Instrumentation | None = None,
    slo_objectives: tuple[SloObjective, ...] | None = None,
) -> MassHttpServer:
    """Build the HTTP server over a snapshot store.

    The instrumentation defaults to a fresh *enabled* bundle (not the
    shared null one) because ``/metrics`` is part of the API surface.
    ``slo_objectives`` overrides the built-in serving objectives (the
    CLI's ``--slo-config``).
    """
    return MassHttpServer(
        store,
        config or ServiceConfig(),
        instrumentation
        if instrumentation is not None
        and instrumentation is not NULL_INSTRUMENTATION
        else Instrumentation.enabled(),
        slo_objectives=slo_objectives,
    )


class _Handler(BaseHTTPRequestHandler):
    """Route, validate, and answer one request."""

    server: MassHttpServer  # narrowed for type checkers
    protocol_version = "HTTP/1.1"
    # One TCP segment per response: the buffered wfile (flushed once
    # per request by handle_one_request) coalesces headers + body, and
    # TCP_NODELAY stops Nagle from holding the second segment against
    # the client's delayed ACK — without these, every keep-alive
    # round-trip stalls ~40 ms.
    disable_nagle_algorithm = True
    wbufsize = 64 * 1024

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        _LOG.debug("%s %s", self.address_string(), format % args)

    def _send_json(
        self, status: int, payload: dict[str, object],
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        # Compact separators: on a 64-query batch response the default
        # ", "/": " padding is ~15% of the body — pure wire+CPU waste.
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        ctx = getattr(self, "_trace_ctx", None)
        if ctx is not None:
            self.send_header("X-Repro-Trace-Id", ctx.trace_id)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self._last_status = status

    def _send_error_json(self, status: int, message: str) -> None:
        self.server.errors_total.inc()
        self._send_json(status, {"error": message})

    # -- entry points --------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
        self._dispatch()

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler contract
        self._dispatch()

    def _dispatch(self) -> None:
        server = self.server
        parts = urlsplit(self.path)
        route = parts.path.rstrip("/") or "/"
        # One trace per request: adopt the caller's id (distributed
        # callers correlate across services) or mint a fresh one; it is
        # active for everything this handler causes — including a
        # synchronous snapshot refresh and its solve — and is
        # echoed in the response header.
        ctx = TraceContext.from_header(
            self.headers.get("X-Repro-Trace-Id")
        ).with_baggage(route=route, method=self.command)
        self._trace_ctx = ctx
        self._last_status = 200
        with use_trace(ctx):
            self._dispatch_traced(server, route, parts.query)

    def _dispatch_traced(
        self, server: MassHttpServer, route: str, query_string: str
    ) -> None:
        server.requests_total.inc()
        server.instrumentation.metrics.counter(
            f"repro_http_requests{_route_suffix(route)}_total",
            "HTTP requests on one route",
        ).inc()

        # Operational endpoints bypass shedding: during an overload the
        # operator still needs /healthz, /metrics and /debug/*.
        if route == "/healthz":
            with server.request_seconds.time():
                self._handle_healthz()
            return
        if route == "/metrics":
            with server.request_seconds.time():
                self._handle_metrics()
            return
        if route == "/debug" or route.startswith("/debug/"):
            with server.request_seconds.time():
                self._handle_debug(route, query_string)
            return

        # Per-tenant rate limiting sits in front of the global inflight
        # gate: a tenant over budget is *that tenant's* problem (429),
        # not a capacity signal, and must not consume an inflight slot.
        self._tenant = self.headers.get(TENANT_HEADER) or "default"
        if server.limiter is not None:
            decision = server.limiter.check(self._tenant)
            if not decision.allowed:
                self._send_rate_limited(decision)
                return

        if not server.try_acquire_slot():
            server.shed_total.inc()
            server.slo.observe("error_rate", bad=True)
            # The shed moment is exactly when an operator will come
            # asking "what was going on?" — leave the answer behind,
            # and do it before the client sees the 503 so the dump is
            # already queryable when they turn around and ask.
            server.instrumentation.recorder.dump(
                "load-shed",
                trace_id=self._trace_ctx.trace_id,
                extra={"route": route,
                       "max_inflight": server.config.max_inflight},
            )
            self._send_error_json_with_retry()
            return
        started = time.perf_counter()
        try:
            with server.request_seconds.time(), \
                    server.instrumentation.tracer.span("http-request") as span:
                span.event(route=route, method=self.command)
                self._route_query(route, query_string)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            _LOG.exception("unhandled error on %s", route)
            server.instrumentation.recorder.dump(
                "handler-error",
                trace_id=self._trace_ctx.trace_id,
                extra={"route": route, "error": repr(exc)},
            )
            try:
                self._send_error_json(500, "internal server error")
            except OSError:  # client already gone
                pass
        finally:
            elapsed = time.perf_counter() - started
            server.release_slot()
            server.slo.observe("query_latency", value=elapsed)
            server.slo.observe(
                "error_rate", bad=self._last_status >= 500
            )

    def _send_error_json_with_retry(self) -> None:
        self.server.errors_total.inc()
        self._send_json(
            503,
            {"error": "service overloaded; retry later"},
            {"Retry-After": str(self.server.config.retry_after_seconds)},
        )

    def _send_rate_limited(self, decision: RateDecision) -> None:
        """429 + Retry-After: this tenant is over budget, others are not."""
        server = self.server
        server.rate_limited_total.inc()
        server.errors_total.inc()
        retry_after = max(1, math.ceil(decision.retry_after))
        self._send_json(
            429,
            {
                "error": "rate limit exceeded; retry later",
                "tenant": decision.tenant,
                "retry_after_seconds": retry_after,
            },
            {"Retry-After": str(retry_after)},
        )

    def _route_query(self, route: str, query_string: str) -> None:
        try:
            if route == "/query/batch":
                self._handle_batch()
            elif route == "/top":
                self._handle_top(query_string)
            elif route == "/query":
                self._handle_query(query_string)
            elif route.startswith("/blogger/"):
                self._handle_blogger(unquote(route[len("/blogger/"):]))
            elif route == "/asof":
                self._handle_asof(query_string)
            elif route == "/trend":
                self._handle_trend(query_string)
            elif route == "/timeline":
                self._handle_timeline()
            else:
                self._send_error_json(404, f"unknown endpoint {route!r}")
        except QueryError as exc:
            status = 404 if "unknown blogger" in str(exc) else 400
            self._send_error_json(status, str(exc))
        except TimelineError as exc:
            # History absence ("nothing retained that far back", "no
            # time axis configured") is a client-visible state of the
            # service, not a server fault.
            self._send_error_json(404, str(exc))
        except ReproError as exc:
            self._send_error_json(500, str(exc))

    # -- endpoints -----------------------------------------------------
    def _handle_healthz(self) -> None:
        server = self.server
        snapshot = server.store.snapshot
        now = time.monotonic()
        slo = server.slo.status()
        payload: dict[str, object] = {
            # Liveness and objective-keeping are different questions:
            # a degraded service still answers 200 here (it is alive),
            # but says so, and /metrics carries the burn rates.
            "status": slo["status"],
            "slo": slo["objectives"],
            "epoch": snapshot.epoch,
            "uptime_seconds": max(0.0, now - server.started_monotonic),
            "snapshot_age_seconds": max(
                0.0, now - snapshot.created_monotonic
            ),
            "pending_deltas": server.store.pending_deltas,
            "corpus": snapshot.stats(),
            "domains": list(snapshot.domains),
        }
        if server.worker_id is not None:
            payload["worker_id"] = server.worker_id
        cluster = self._cluster_health(now)
        if cluster is not None:
            payload["cluster"] = cluster
            # A respawn inside the degraded window means capacity
            # briefly dipped and some connections died; report it the
            # same way an SLO breach is reported — alive, but say so.
            if cluster["degraded"] and payload["status"] == "ok":
                payload["status"] = "degraded"
        self._send_json(200, payload)

    def _cluster_health(self, now: float) -> dict[str, object] | None:
        """Supervision facts from the cluster status board, if any.

        ``last_respawn_monotonic`` compares against this process's
        monotonic clock — valid because CLOCK_MONOTONIC is system-wide
        on the platforms fork exists on, and master and workers share a
        boot.
        """
        board = self.server.status_board
        if board is None:
            return None
        status = board.read()
        if not status:
            return None
        last = status.get("last_respawn_monotonic")
        window = float(status.get("degraded_window", 0.0))
        since = None if last is None else max(0.0, now - float(last))
        cluster: dict[str, object] = {
            "workers": status.get("workers"),
            "pids": status.get("pids"),
            "respawns": status.get("respawns", 0),
            "degraded": since is not None and since < window,
            "degraded_window_seconds": window,
        }
        if since is not None:
            cluster["seconds_since_last_respawn"] = since
        return cluster

    def _handle_metrics(self) -> None:
        # Evaluating the SLOs here refreshes their burn gauges, so a
        # scrape always exports current values.
        self.server.slo.status()
        body = (
            self.server.instrumentation.metrics.render_text()
            .encode("utf-8")
        )
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        ctx = getattr(self, "_trace_ctx", None)
        if ctx is not None:
            self.send_header("X-Repro-Trace-Id", ctx.trace_id)
        self.end_headers()
        self.wfile.write(body)

    def _handle_debug(self, route: str, query_string: str) -> None:
        server = self.server
        recorder = server.instrumentation.recorder
        try:
            params = parse_qs(query_string)
            if route == "/debug/events":
                if _int_param(params, "dumps", 0):
                    payload: dict[str, object] = {
                        "dumps": recorder.dumps()
                    }
                else:
                    limit = _int_param(params, "limit", 100)
                    payload = recorder.as_dict(limit)
                self._send_json(200, payload)
            elif route == "/debug/traces":
                self._send_json(
                    200, server.instrumentation.tracer.as_dict()
                )
            elif route == "/debug/vars":
                self._send_json(200, self._debug_vars())
            else:
                self._send_error_json(
                    404, f"unknown debug endpoint {route!r}"
                )
        except QueryError as exc:
            self._send_error_json(400, str(exc))

    def _debug_vars(self) -> dict[str, object]:
        server = self.server
        store = server.store
        now = time.monotonic()
        payload: dict[str, object] = {
            "config": asdict(server.config),
            "python": sys.version.split()[0],
            "uptime_seconds": max(0.0, now - server.started_monotonic),
            "inflight": server._inflight,
            "epoch": store.snapshot.epoch,
            "pending_deltas": store.pending_deltas,
            "staleness_seconds": getattr(store, "staleness_seconds", 0.0),
            "max_staleness": getattr(store, "max_staleness", None),
            "durable": getattr(store, "pipeline", None) is not None,
            "cache": server.engine.cache_info,
            "recorder": {
                "events": len(server.instrumentation.recorder),
                "capacity": server.instrumentation.recorder.capacity,
                "dropped": server.instrumentation.recorder.dropped,
            },
            "slo_objectives": [
                o.as_dict() for o in server.slo.objectives
            ],
        }
        if server.worker_id is not None:
            payload["worker_id"] = server.worker_id
        if server.limiter is not None:
            payload["rate_limit"] = {
                "qps": server.limiter.rate,
                "burst": server.limiter.burst,
                "tenants": server.limiter.tenant_count,
            }
        return payload

    def _handle_top(self, query_string: str) -> None:
        params = parse_qs(query_string)
        k = _int_param(params, "k", self.server.config.default_k)
        offset = _int_param(params, "offset", 0)
        domain = _str_param(params, "domain")
        result = self.server.engine.top(k, domain=domain, offset=offset)
        self._send_json(200, result.as_dict())

    def _handle_query(self, query_string: str) -> None:
        if self.command == "POST":
            weights, k, offset = self._parse_query_body()
        else:
            params = parse_qs(query_string)
            k = _int_param(params, "k", self.server.config.default_k)
            offset = _int_param(params, "offset", 0)
            weights = _parse_weights(_str_param(params, "weights"))
        result = self.server.engine.query(weights, k, offset=offset)
        self._send_json(200, result.as_dict())

    def _handle_batch(self) -> None:
        """``POST /query/batch`` — many queries, one request, one epoch.

        The body is ``{"queries": [{...}, ...]}`` where each item is a
        ``/top``-shaped or ``/query``-shaped spec.  All items are
        answered from a single snapshot read, so the whole batch is
        stamped with one epoch; per-item validation errors come back
        inline (``{"error": ...}``) without failing the batch.  With
        rate limiting on, a batch of N items costs N tokens — the one
        the request already paid plus N-1 charged here — so batching
        amortizes HTTP overhead, not the tenant budget.
        """
        server = self.server
        if self.command != "POST":
            raise QueryError("/query/batch accepts POST only")
        body = self._read_json_body()
        queries = body.get("queries")
        if not isinstance(queries, list) or not queries:
            raise QueryError(
                'request body needs a non-empty "queries" array'
            )
        if len(queries) > server.config.max_batch:
            raise QueryError(
                f"batch of {len(queries)} queries exceeds this service's "
                f"maximum of {server.config.max_batch}"
            )
        if server.limiter is not None and len(queries) > 1:
            if not server.limiter.grantable(float(len(queries))):
                raise QueryError(
                    f"batch of {len(queries)} queries can never fit the "
                    f"rate-limit burst of {server.limiter.burst:g}"
                )
            decision = server.limiter.check(
                self._tenant, cost=float(len(queries) - 1)
            )
            if not decision.allowed:
                self._send_rate_limited(decision)
                return
        specs = []
        for item in queries:
            if isinstance(item, dict) and "k" not in item:
                item = {**item, "k": server.config.default_k}
            specs.append(item)
        epoch, items = server.engine.batch(specs)
        server.batch_queries_total.inc(len(items))
        self._send_json(
            200, {"epoch": epoch, "count": len(items), "results": items}
        )

    def _read_json_body(self) -> dict[str, object]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise QueryError("invalid Content-Length header") from None
        try:
            body = json.loads(self.rfile.read(length) or b"{}")
        except json.JSONDecodeError as exc:
            raise QueryError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(body, dict):
            raise QueryError("request body must be a JSON object")
        return body

    def _parse_query_body(self) -> tuple[dict[str, float], int, int]:
        body = self._read_json_body()
        weights = body.get("weights")
        if not isinstance(weights, dict):
            raise QueryError('request body needs a "weights" object')
        k = body.get("k", self.server.config.default_k)
        offset = body.get("offset", 0)
        if not isinstance(k, int) or isinstance(k, bool):
            raise QueryError(f"k must be an integer, got {k!r}")
        if not isinstance(offset, int) or isinstance(offset, bool):
            raise QueryError(f"offset must be an integer, got {offset!r}")
        return {str(domain): value for domain, value in weights.items()}, k, offset

    def _handle_blogger(self, blogger_id: str) -> None:
        if not blogger_id:
            raise QueryError("missing blogger id: use /blogger/<id>")
        result = self.server.engine.blogger(blogger_id)
        self._send_json(200, result.as_dict())

    # -- timeline endpoints --------------------------------------------
    def _require_timeline(self) -> TimelineService:
        timeline = self.server.timeline
        if timeline is None:
            raise TimelineError(
                "this service has no time axis; start it with a durable "
                "directory and retention enabled (repro serve --durable-dir "
                "... --retain last:N)"
            )
        return timeline

    def _handle_asof(self, query_string: str) -> None:
        """``GET /asof?t=...`` — time-travel top-k from history."""
        timeline = self._require_timeline()
        params = parse_qs(query_string)
        timestamp = _float_param(params, "t")
        seq = _opt_int_param(params, "seq")
        k = _int_param(params, "k", self.server.config.default_k)
        domain = _str_param(params, "domain")
        payload = timeline.as_of(
            timestamp=timestamp, seq=seq, k=k, domain=domain
        )
        self._send_json(200, payload)

    def _handle_trend(self, query_string: str) -> None:
        """``GET /trend`` — rising influencers over sliding windows."""
        timeline = self._require_timeline()
        params = parse_qs(query_string)
        payload = timeline.trend(
            domain=_str_param(params, "domain"),
            window_days=_int_param(params, "window", 90),
            step_days=_int_param(params, "step", 30),
            k=_int_param(params, "k", 10),
            timestamp=_float_param(params, "t"),
        )
        self._send_json(200, payload)

    def _handle_timeline(self) -> None:
        """``GET /timeline`` — the retained checkpoint history."""
        timeline = self._require_timeline()
        self._send_json(200, timeline.history_listing())


# ----------------------------------------------------------------------
# Parameter parsing
# ----------------------------------------------------------------------
def _str_param(params: dict[str, list[str]], name: str) -> str | None:
    values = params.get(name)
    if not values:
        return None
    if len(values) > 1:
        raise QueryError(f"parameter {name!r} given more than once")
    return values[0]


def _int_param(params: dict[str, list[str]], name: str, default: int) -> int:
    raw = _str_param(params, name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise QueryError(
            f"parameter {name!r} must be an integer, got {raw!r}"
        ) from None


def _opt_int_param(params: dict[str, list[str]], name: str) -> int | None:
    raw = _str_param(params, name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise QueryError(
            f"parameter {name!r} must be an integer, got {raw!r}"
        ) from None


def _float_param(params: dict[str, list[str]], name: str) -> float | None:
    raw = _str_param(params, name)
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise QueryError(
            f"parameter {name!r} must be a number, got {raw!r}"
        ) from None
    if math.isnan(value):
        raise QueryError(f"parameter {name!r} must not be NaN")
    return value


def _parse_weights(raw: str | None) -> dict[str, float]:
    """``Sports:0.7,Art:0.3`` → ``{"Sports": 0.7, "Art": 0.3}``."""
    if raw is None:
        raise QueryError(
            'missing "weights" parameter, e.g. weights=Sports:0.7,Art:0.3'
        )
    weights: dict[str, float] = {}
    for term in raw.split(","):
        term = term.strip()
        if not term:
            continue
        domain, separator, value = term.partition(":")
        domain = domain.strip()
        if not separator or not domain:
            raise QueryError(
                f"malformed weight term {term!r}; expected Domain:weight"
            )
        try:
            weight = float(value)
        except ValueError:
            raise QueryError(
                f"weight for {domain!r} must be a number, got {value!r}"
            ) from None
        if domain in weights:
            raise QueryError(f"domain {domain!r} given more than once")
        weights[domain] = weight
    if not weights:
        raise QueryError("weights parameter names no domains")
    return weights


_KNOWN_ROUTES = {
    "/top", "/query", "/healthz", "/metrics",
    "/asof", "/trend", "/timeline",
}


def _route_suffix(route: str) -> str:
    """A bounded per-route metric suffix (arbitrary 404 paths share one)."""
    if route == "/query/batch":
        return "_query_batch"
    if route.startswith("/blogger/"):
        return "_blogger"
    if route == "/debug" or route.startswith("/debug/"):
        return "_debug"
    if route in _KNOWN_ROUTES:
        return f"_{route.strip('/')}"
    return "_other"
