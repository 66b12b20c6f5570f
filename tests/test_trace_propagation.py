"""End-to-end trace propagation: one trace id from socket to solver.

The acceptance path for the trace-context tentpole: an HTTP ``/query``
that arrives with an ``X-Repro-Trace-Id``, finds the snapshot stale,
pays for the refresh on its own thread, and drives the warm re-solve
must leave ONE trace — handler span, refresh span, incremental apply,
solver and its iterate sweep — all stamped with the id the client sent
(and echoed back in the response header).  Adoption of spans from
other processes is covered by ``tests/test_obs_tracing.py`` and the
serving-worker attach path.
"""

import json
import urllib.request

import pytest

from repro.core import CorpusDelta, MassParameters
from repro.data import Blogger, Comment, Link, Post
from repro.obs import Instrumentation
from repro.serve import ServiceConfig, SnapshotStore, create_server

CLIENT_TRACE_ID = "feedface" * 4  # 32 lowercase hex chars


def make_delta(store, seq=0):
    existing = store.snapshot.blogger_ids[0]
    new_id = f"traced-{seq:02d}"
    post = Post(f"traced-post-{seq:02d}", new_id,
                body="a fresh post about the marathon stadium game " * 4,
                created_day=300)
    comment = Comment(f"traced-comment-{seq:02d}", post.post_id, existing,
                      text="I agree, a wonderful read", created_day=301)
    return CorpusDelta(
        bloggers=[Blogger(new_id)],
        posts=[post],
        comments=[comment],
        links=[Link(existing, new_id)],
    )


@pytest.fixture()
def traced_service(fig1_corpus, fig1_seed_words):
    """A server on the default solver backend.

    ``max_staleness=0.0`` + no background refresher means the *next
    read* pays for any pending delta synchronously — deterministic, and
    exactly the path that must carry the request's trace.
    """
    instr = Instrumentation.enabled()
    store = SnapshotStore(
        fig1_corpus,
        params=MassParameters(),
        domain_seed_words=fig1_seed_words,
        max_staleness=0.0,
        instrumentation=instr,
    )
    server = create_server(store, ServiceConfig(port=0), instr)
    server.serve_in_thread()
    yield server, store, instr
    server.shutdown()
    server.server_close()
    store.close()


def request_traced(server, path, trace_id=CLIENT_TRACE_ID):
    request = urllib.request.Request(
        server.url + path, headers={"X-Repro-Trace-Id": trace_id}
    )
    with urllib.request.urlopen(request, timeout=30) as resp:
        return (
            resp.status,
            resp.headers.get("X-Repro-Trace-Id"),
            json.loads(resp.read().decode("utf-8")),
        )


def spans_by_trace(tracer, trace_id):
    """Flatten every recorded span tree, keeping spans of one trace."""
    found = []

    def walk(span):
        if span.trace_id == trace_id:
            found.append(span)
        for child in span.children:
            walk(child)

    for root in tracer.roots:
        walk(root)
    return found


class TestEndToEnd:
    def test_one_trace_spans_http_refresh_solve_and_workers(
        self, traced_service
    ):
        server, store, instr = traced_service
        store.submit(make_delta(store, seq=0))
        assert store.pending_deltas == 1

        status, echoed, body = request_traced(
            server, "/query?weights=Computer:1.0&k=3"
        )
        assert status == 200
        assert echoed == CLIENT_TRACE_ID
        assert store.pending_deltas == 0  # the request paid for the refresh
        assert body["results"]

        spans = spans_by_trace(instr.tracer, CLIENT_TRACE_ID)
        names = {span.name for span in spans}
        # Handler → synchronous refresh → incremental solve → Jacobi
        # sweeps, all under the client's id.
        for expected in ("http-request", "serve-refresh",
                         "incremental-apply", "solver", "iterate"):
            assert expected in names, (expected, sorted(names))

    def test_span_tree_parents_chain_back_to_the_handler(
        self, traced_service
    ):
        server, store, instr = traced_service
        store.submit(make_delta(store, seq=1))
        request_traced(server, "/top?k=2")

        spans = spans_by_trace(instr.tracer, CLIENT_TRACE_ID)
        by_id = {span.span_id: span for span in spans}
        handler = next(s for s in spans if s.name == "http-request")
        solver = next(s for s in spans if s.name == "solver")
        # Walk parent_id links from the solver up to the handler span.
        hops, current = 0, solver
        while current is not handler:
            assert current.parent_id in by_id, (
                f"{current.name} parent {current.parent_id} missing"
            )
            current = by_id[current.parent_id]
            hops += 1
            assert hops < 10
        assert hops >= 1

    def test_fresh_snapshot_request_stays_a_single_span(
        self, traced_service
    ):
        server, store, instr = traced_service
        status, echoed, _ = request_traced(
            server, "/top?k=2", trace_id="0123456789abcdef"
        )
        assert status == 200
        assert echoed == "0123456789abcdef"
        spans = spans_by_trace(instr.tracer, "0123456789abcdef")
        assert {span.name for span in spans} == {"http-request"}

    def test_malformed_inbound_id_gets_a_fresh_one(self, traced_service):
        server, _, _ = traced_service
        _, echoed, _ = request_traced(
            server, "/top?k=2", trace_id="NOT-HEX!"
        )
        assert echoed != "NOT-HEX!"
        assert len(echoed) == 32

    def test_distinct_requests_get_distinct_traces(self, traced_service):
        server, _, _ = traced_service
        with urllib.request.urlopen(
            server.url + "/top?k=2", timeout=30
        ) as first:
            id_one = first.headers.get("X-Repro-Trace-Id")
        with urllib.request.urlopen(
            server.url + "/top?k=2", timeout=30
        ) as second:
            id_two = second.headers.get("X-Repro-Trace-Id")
        assert id_one and id_two and id_one != id_two

    def test_flight_recorder_correlates_the_refresh(self, traced_service):
        server, store, instr = traced_service
        store.submit(make_delta(store, seq=2))
        request_traced(server, "/top?k=2")
        swaps = [
            event for event in instr.recorder.tail()
            if event.get("name") == "snapshot-swap"
        ]
        assert swaps
        assert swaps[-1]["trace_id"] == CLIENT_TRACE_ID
