"""Stage tables for the traced run.

Each table splits one headline wall time into disjoint stages, read
from the system's existing spans (the master's tracer and, through
``/debug/traces``, each worker's) and from the benchmark's wrappers
(:mod:`probe`).  Whatever the stages do not cover is its own
``unattributed`` row, so the rows always add up to the headline.

A table is a list of ``(name, seconds, note)``; nested detail rows are
prefixed with two spaces and are not part of the sum.
"""

from __future__ import annotations

import json

from sut import http_get


def span_totals(instr) -> dict[str, float]:
    """Total duration per span name over the master's recorded trees."""
    totals: dict[str, float] = {}

    def walk(span) -> None:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
        for child in span.children:
            walk(child)

    for root in list(instr.tracer.roots):
        if root.end is not None:
            walk(root)
    return totals


def _finish(headline: float, rows: list) -> list:
    covered = sum(seconds for name, seconds, _ in rows
                  if not name.startswith("  "))
    rows.append(("unattributed", headline - covered,
                 f"{(headline - covered) / headline:.1%} of headline"
                 if headline else ""))
    return [("HEADLINE", headline, "")] + rows


def _fit_rows(probe, spans: dict[str, float]) -> list:
    totals, counts = probe.read()
    return [
        ("nlp.classify", totals.get("nlp.classify", 0.0),
         f"{counts.get('nlp.classify', 0)} calls"),
        ("core.quality", spans.get("quality", 0.0), "span quality"),
        ("core.assemble", spans.get("assemble", 0.0), "span assemble"),
        ("graph.gl", spans.get("gl", 0.0), "span gl"),
        ("core.iterate", spans.get("iterate", 0.0),
         f"span iterate; {totals.get('core.iterations', 0):.0f} iterations"),
        ("core.scatter", spans.get("scatter", 0.0), "span scatter"),
        ("core.domains", totals.get("core.domains", 0.0),
         "DomainInfluence build/evolved"),
        ("serve.snapshot_compile", totals.get("serve.snapshot_compile.total", 0.0),
         "InfluenceSnapshot.compile"),
    ]


def fit_table(probe, instr, headline: float, opened: float) -> list:
    """cold_fit: corpus open -> first top-10 answered in-process."""
    rows = [("store.open", opened, "open_corpus")]
    rows += _fit_rows(probe, span_totals(instr))
    return _finish(headline, rows)


def setup_table(probe, system) -> list:
    """Serve set-up: open -> fit -> compile -> publish -> fork -> answer."""
    totals, _ = probe.read()
    marks = system.marks
    publish = totals.get("serve.publish.total", 0.0)
    rows = [("store.open", marks["opened"], "open_corpus")]
    rows += _fit_rows(probe, span_totals(system.instr))
    rows += [
        ("serve.publish", publish, "SnapshotArena.publish, initial epoch"),
        ("serve.fork_ready", marks["ready"] - system.fit_s - publish,
         "fork 2 workers until /healthz answers"),
        ("serve.first_query", system.setup_s - marks["ready"],
         "first GET /top over HTTP"),
    ]
    return _finish(system.setup_s, rows)


def _worker_spans(debug: dict, start_wall: float):
    """Yield ``(name, seconds, events)`` of worker spans since the window.

    No upper bound: the probe's worker lanes also run until collection
    (the crawler polls past the read window for its last delta).
    """

    def walk(node):
        yield node
        for child in node.get("children", ()):
            yield from walk(child)

    for info in debug.values():
        for root in info["traces"]["spans"]:
            for node in walk(root):
                if node.get("wall_start", 0.0) >= start_wall:
                    yield (node["name"], node["duration_ms"] / 1000.0,
                           node.get("events", ()))


def read_layers(probe, system, start_wall: float) -> dict:
    """Read-path layer numbers for one traced window."""
    lanes = probe.lanes.totals()
    debug = system.each_worker(lambda conn, info: {
        "vars": info, "traces": json.loads(http_get(conn, "/debug/traces")[1])})
    http_total = 0.0
    requests = 0
    lags = []
    for name, seconds, events in _worker_spans(debug, start_wall):
        if name == "http-request":
            http_total += seconds
            requests += 1
        elif name == "replica-attach":
            lags.extend(e.get("lag_seconds", 0.0) for e in events)
    engine = lanes["engine_scan_s"] + lanes["engine_cached_s"] + lanes["engine_other_s"]
    hits = sum(info["vars"]["cache"].get("hits", 0) for info in debug.values())
    misses = sum(info["vars"]["cache"].get("misses", 0) for info in debug.values())
    per_worker = system.cluster.stats.per_worker("requests")
    totals = system.cluster.stats.totals()
    return {
        "lanes": lanes,
        "http_total": http_total,
        "http_requests": requests,
        "engine_total": engine,
        "attach_lags": lags,
        "hit_ratio": hits / max(1, hits + misses),
        "worker_share_max": max(per_worker) / max(1.0, sum(per_worker)),
        "shed": totals.get("shed", 0.0),
        "errors": totals.get("errors", 0.0),
    }


def read_table(layers: dict, latencies_s: list[float]) -> list:
    """serve_*: summed client latency of every request in the window."""
    lanes = layers["lanes"]
    rows = [
        ("serve.engine_scan", lanes["engine_scan_s"],
         f"{lanes['engine_scan_n']:.0f} uncached Eq. 5 queries"),
        ("serve.engine_cached", lanes["engine_cached_s"],
         f"{lanes['engine_cached_n']:.0f} cache hits"),
        ("serve.engine_other", lanes["engine_other_s"],
         f"{lanes['engine_other_n']:.0f} uncached top/blogger/batch"),
        ("serve.http_self", layers["http_total"] - layers["engine_total"],
         f"http-request spans minus engine, {layers['http_requests']} spans"),
        ("  serve.attach", lanes["attach_s"],
         f"{lanes['attach_n']:.0f} epoch attaches, inside the engine rows"),
    ]
    return _finish(sum(latencies_s), rows)


def fresh_table(probe, system, fresh_s: list[float], grow_s: float,
                archive_s: float) -> list:
    """serve_ingest: summed submit -> fresh-answer time of the deltas."""
    totals, counts = probe.read()
    spans = span_totals(system.instr)
    lanes = probe.lanes.totals()
    deltas = max(1, len(fresh_s))
    attach_each = lanes["attach_s"] / max(1.0, lanes["attach_n"])
    rows = [
        ("serve.queue_wait", totals.get("serve.queue_wait", 0.0),
         "submit -> refresh start (staleness at refresh)"),
        ("ingest.wal_append", spans.get("wal-append", 0.0), "span wal-append"),
        ("core.apply", totals.get("core.apply.total", 0.0),
         f"IncrementalAnalyzer.apply, {counts.get('core.apply', 0)} calls"),
        ("  core.grow", grow_s, "repro_incremental_grow_seconds"),
        ("  nlp.classify", totals.get("nlp.classify", 0.0),
         f"{counts.get('nlp.classify', 0)} calls"),
        ("  core.quality", spans.get("quality", 0.0), "span quality"),
        ("  core.assemble", spans.get("assemble", 0.0), "span assemble"),
        ("  graph.gl", spans.get("gl", 0.0), "span gl"),
        ("  core.iterate", spans.get("iterate", 0.0), "span iterate"),
        ("  core.domains", totals.get("core.domains", 0.0), ""),
        ("ingest.checkpoint", spans.get("ingest-checkpoint", 0.0),
         "span ingest-checkpoint"),
        ("serve.snapshot_evolve", totals.get("serve.snapshot_evolve.total", 0.0),
         f"{counts.get('serve.snapshot_evolve', 0)} evolves"),
        ("serve.snapshot_compile", totals.get("serve.snapshot_compile.total", 0.0),
         f"{counts.get('serve.snapshot_compile', 0)} compiles"),
        ("serve.publish", totals.get("serve.publish.total", 0.0),
         "SnapshotArena.publish"),
        ("serve.attach", attach_each * deltas,
         "SnapshotArena.read in a worker, one per delta"),
        ("  bench.epoch_archive", archive_s,
         "benchmark's per-epoch payload dump; after publish, beside attach"),
    ]
    return _finish(sum(fresh_s), rows)


def recover_table(probe, system) -> list:
    """serve_ingest: reopen after the unclean stop -> first answer."""
    totals, _ = probe.read()
    spans = span_totals(system.instr)
    marks = system.marks
    publish = totals.get("serve.publish.total", 0.0)
    replay = spans.get("ingest-replay", 0.0)
    rows = [
        ("store.open", marks["opened"], "open_corpus (bootstrap only)"),
        ("ingest.recover_load", spans.get("ingest-recover", 0.0) - replay,
         "checkpoint load (span ingest-recover minus replay)"),
        ("ingest.replay", replay, "span ingest-replay (WAL tail)"),
        ("serve.snapshot_compile", totals.get("serve.snapshot_compile.total", 0.0),
         ""),
        ("serve.publish", publish, ""),
        ("serve.fork_ready", marks["ready"] - system.fit_s - publish, ""),
        ("serve.first_query", system.setup_s - marks["ready"], ""),
    ]
    return _finish(system.setup_s, rows)


def render(title: str, rows: list) -> list[str]:
    lines = [f"stage table: {title}"]
    for name, seconds, note in rows:
        lines.append(f"  {name:<28} {seconds:>10.4f} s  {note}")
    return lines
