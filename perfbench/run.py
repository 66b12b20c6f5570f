"""MASS end-to-end benchmark: cold fit, live reads, delta to fresh answer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1

One run builds a seeded 10k-blogger corpus (cached under
``.perfbench_cache/``), drives the system through its public API,
checks every answer and prints a report.  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones (see ``perfbench/README.md``).  The
exit code is 0 when every answer was right, 1 when one was wrong, 2
when the run could not complete.  ``--all`` runs every workload in its
own process and exits non-zero if any of them does.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = ("setup_s", "peak_rss_mb")
PER_LAYER = (
    "nlp.classify_s", "nlp.classify_calls",
    "core.quality_s", "core.assemble_s", "core.iterate_s", "core.iterations",
    "core.domains_s", "graph.gl_s",
    "serve.snapshot_compile_s", "serve.publish_s", "serve.publish_bytes",
    "serve.engine_scan_s", "serve.engine_cached_s", "serve.cache_hit_ratio",
    "serve.http_self_s", "serve.worker_share_max", "serve.worker_pss_mb",
    "unattributed_s", "obs.trace_overhead", "loadgen.late_p99_ms",
)
WORKLOAD_NAMES = ("cold_fit", "serve_read", "serve_ingest")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload or --all")
    return args


def _run_all(args: argparse.Namespace) -> int:
    worst = 0
    summary = []
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) else None
        summary.append((name, proc.returncode, result))
        worst = max(worst, proc.returncode)
    print("== summary ==")
    for name, code, result in summary:
        if result is None:
            print(f"{name}: did not complete (exit {code})")
            continue
        ratio = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} "
              f"fail_ratio={ratio:.6f} ({result['failed']}/{result['attempted']})")
    return worst


def _print_report(name: str, outcome, stage_rows: dict, timeline: list) -> None:
    import stages

    print(f"== {name} ==")
    for line in outcome.report:
        print(line)
    print("end-to-end metrics:")
    for metric, (value, unit) in sorted(outcome.metrics.items()):
        print(f"  {metric:<28} {value:>14.6f} {unit}")
    ratio = outcome.failed / max(1, outcome.attempted)
    print(f"  {'fail_ratio':<28} {ratio:>14.6f} ratio "
          f"({outcome.failed}/{outcome.attempted})")
    if outcome.layers:
        print("per-layer metrics:")
        for metric, (value, unit) in sorted(outcome.layers.items()):
            print(f"  {metric:<28} {value:>14.6f} {unit}")
    print("run timeline: " + ", ".join(
        f"{phase} {seconds:.1f} s" for phase, seconds in timeline))
    for title, rows in stage_rows.items():
        for line in stages.render(title, rows):
            print(line)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if args.all:
        return _run_all(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no system under test: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the system under test: {exc}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        run = workloads.Run(args.seed, args.seconds, bool(args.trace), run_dir)
        if args.trace:
            run.probe.install()
        run.probe.set_enabled(bool(args.trace))
        workloads.WORKLOADS[args.workload](run)
    except Exception:  # noqa: BLE001 - report and exit without a result
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    outcome = run.out
    _print_report(args.workload, outcome, run.stage_rows, run.timeline)
    source = outcome.layers if args.trace else outcome.metrics
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name in names:
        value, unit = source.get(name, (float("nan"), ""))
        if not math.isfinite(value):
            print(f"metric {name} was not measured", file=sys.stderr)
            return 2
        metrics[name] = {"value": value, "unit": unit}
    correct = outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
