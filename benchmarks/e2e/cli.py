"""Command line: run workloads, compare two sets of runs, rewrite goldens.

``python -m benchmarks.e2e run [--workload W] [--seed N] [--trace] [--quick]``
    Runs every workload (or one), prints each end-to-end metric with its
    unit and sample count, checks the answers, and writes
    ``out/<workload>.json``.  ``--trace`` adds a traced run per workload
    and prints the per-layer metrics and the tracing overhead;
    ``--repeat K`` runs seeds N..N+K-1 and ``--out FILE`` saves every
    run for ``compare``.
``python -m benchmarks.e2e compare PARENT.json CHANGE.json``
    Compare two saved sets of runs by the rules for landing a change.
``python -m benchmarks.e2e goldens``
    Recompute the golden answers from this commit's engine.

``benchmarks/e2e/run.py`` is the fixed single-run entry point
(``--workload W --seed N --seconds S --trace 0|1``); its last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from . import layers, runs, workloads
from .checks import build_goldens
from .compare import compare_files
from .stats import percentile, supported
from .trace import load_spans
from .system import OUT, ROOT, source_digest

__all__ = ["main", "measure", "run_contract"]

QUICK_SECONDS = 2.0


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def fingerprint() -> dict:
    """What the numbers depend on besides the code: host and source."""
    commit = None
    if (ROOT / ".git").exists():  # never ask a repository above the checkout
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "loadavg": os.getloadavg(),
    }


#: Tail percentiles recorded and printed for every run but not gated:
#: their run-to-run spread is wider than any bound BENCHMARK.json may set
#: (see README.md).
TAILS = (95, 99)


def _timings(outcome: runs.RunOutcome, seconds_of, busy_of) -> dict[str, float]:
    """The timed metrics, with ``seconds_of(interval)`` as the clock and
    ``busy_of(interval)`` as the system's busy time, which throughput is
    counted against."""
    latencies = [seconds_of(interval) * 1000.0 for interval in outcome.latencies]
    rates = [
        count / sum(busy_of(interval) for interval in intervals)
        for count, intervals in outcome.rates
    ]
    timings = {
        "setup_s": statistics.median(seconds_of(boot) for boot in outcome.boots),
        "latency_p50_ms": percentile(latencies, 50),
        "throughput_per_s": statistics.median(rates),
    }
    for p in TAILS:
        timings[f"latency_p{p}_ms"] = percentile(latencies, p)
    return timings


def end_to_end(outcome: runs.RunOutcome) -> tuple[dict, dict]:
    """(gated, tails): each metric's value, unit and sample count.

    ``gated`` holds every end-to-end metric of ``BENCHMARK.json``,
    ``tails`` the :data:`TAILS` percentiles.  Timed metrics are read at
    reference host speed (``value``) and, for the record, on the wall
    clock (``wall``).  A percentile with fewer than ten samples beyond
    it is still given, flagged ``unsupported``.
    """
    units = {metric["name"]: metric["unit"] for metric in spec()["end_to_end"]}
    timeline = outcome.timeline
    scaled = _timings(
        outcome,
        lambda interval: timeline.scaled(*interval),
        lambda interval: timeline.busy(*interval),
    )

    def wall_seconds(interval: runs.Interval) -> float:
        return interval[1] - interval[0]

    wall = _timings(outcome, wall_seconds, wall_seconds)
    n = len(outcome.latencies)

    def timed(name: str, unit: str, samples: int, p: float | None = None) -> dict:
        metric = {"value": scaled[name], "unit": unit, "samples": samples, "wall": wall[name]}
        if p is not None and not supported(samples, p):
            metric["unsupported"] = True
        return metric

    gated = {
        "setup_s": timed("setup_s", units["setup_s"], len(outcome.boots)),
        "latency_p50_ms": timed("latency_p50_ms", units["latency_p50_ms"], n, 50),
        "throughput_per_s": timed(
            "throughput_per_s",
            units["throughput_per_s"],
            sum(count for count, _ in outcome.rates),
        ),
        "full_answer_rate": {
            "value": outcome.full_answers / outcome.attempted,
            "unit": units["full_answer_rate"],
            "samples": outcome.attempted,
        },
        "peak_rss_mb": {
            "value": outcome.peak_rss_mb,
            "unit": units["peak_rss_mb"],
            "samples": 1,
        },
    }
    tails = {
        f"latency_p{p}_ms": timed(f"latency_p{p}_ms", "ms", n, p) for p in TAILS
    }
    return gated, tails


def per_layer(workload: str, outcome: runs.RunOutcome) -> dict:
    """Attribute the traced run; writes ``out/<workload>.layers.json``.

    Every timestamp is first moved onto the reference-speed clock of the
    run's host-speed timeline, so layer times compare across runs as the
    end-to-end metrics do.
    """
    path = outcome.spans_path
    clock = outcome.timeline.reference_time
    with open(path, encoding="utf-8") as handle:
        spans, events = load_spans(handle)
    for span in spans:
        span["start"], span["end"] = clock(span["start"]), clock(span["end"])
    for event in events:
        event["at"] = clock(event["at"])
    client = {
        rid: clock(done) - clock(due) for rid, (due, done) in outcome.client.items()
    }
    ready = [event["at"] for event in events if event["layer"] == "ready"]
    result = layers.aggregate(
        spans, outcome.ops, len(outcome.ops), ready[0] if ready else None
    )
    metrics = result["metrics"]
    serve = {"requests": 0}
    if client:
        serve = layers.serve_decomposition(spans, events, client)
    means = serve.get("mean_ms", {})
    for key in ("server", "network", "queue_wait", "overhead"):
        metrics[f"serve.{key}_ms"] = means.get(key, 0.0)
    metrics["traced.latency_p50_ms"] = percentile(
        [(clock(end) - clock(start)) * 1000.0 for start, end in outcome.latencies], 50
    )
    # The client's side of every request joins the system's spans.
    with open(path, "a", encoding="utf-8") as handle:
        for rid, latency in client.items():
            handle.write(
                json.dumps({"layer": "client.request", "op": rid, "latency": latency})
                + "\n"
            )
    units = dict(layers.LAYER_METRICS, **{"traced.latency_p50_ms": "ms"})
    document = {
        "workload": workload,
        "ops": len(outcome.ops),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
        "ratios": result["ratios"],
        "tiling": result["tiling"],
        "serve": serve,
        "self_ms": result["self_ms"],
        "calls": result["calls"],
        "missing_layers": json.loads(path.with_name(path.name + ".missing").read_text()),
    }
    (OUT / f"{workload}.layers.json").write_text(json.dumps(document, indent=1) + "\n")
    return document


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: the result document (also written under ``out/``)."""
    started = time.perf_counter()
    host = fingerprint()
    outcome = runs.run(workload, seed, seconds, trace, boots=1 if trace else runs.BOOTS)
    host["loadavg_after"] = os.getloadavg()
    # Median over the run of how much slower than reference speed the
    # CPUs doing the work ran (1.0: at reference speed).
    host["cpu_slowdown"] = outcome.timeline.median_factor()
    document = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "valid": outcome.valid,
        "fingerprint": host,
        "correct": outcome.failed == 0 and not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "error_rate": outcome.failed / outcome.attempted,
        "errors": outcome.errors[:20],
        "details": outcome.details,
        "wall_s": None,
    }
    if trace:
        document["per_layer"] = per_layer(workload, outcome)
    else:
        document["end_to_end"], document["tails"] = end_to_end(outcome)
    document["wall_s"] = time.perf_counter() - started
    OUT.mkdir(exist_ok=True)
    name = f"{workload}.trace.json" if trace else f"{workload}.json"
    (OUT / name).write_text(json.dumps(document, indent=1, default=list) + "\n")
    return document


def contract_line(document: dict) -> str:
    """The single JSON line the fixed entry point ends with."""
    source = (
        document["per_layer"]["metrics"] if document["trace"] else document["end_to_end"]
    )
    return json.dumps(
        {
            "correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in source.items()
            },
        }
    )


def report(document: dict) -> None:
    """Human-readable lines for one run."""
    head = (
        f"== {document['workload']} seed={document['seed']} "
        f"{'traced ' if document['trace'] else ''}"
        f"({document['wall_s']:.1f}s wall, {document['attempted']} ops, "
        f"{document['failed']} failed, error_rate {document['error_rate']:.4f})"
    )
    print(head)
    if not document["valid"]:
        print("   INVALID: generator lateness p99 over 1 ms at the nominal rate")
    for message in document["errors"][:5]:
        print(f"   error: {message}")
    rows = [(name, metric, "") for name, metric in document.get("end_to_end", {}).items()]
    rows += [(name, metric, " (not gated)") for name, metric in document.get("tails", {}).items()]
    for name, metric, note in rows:
        wall = f"wall {metric['wall']:>10.4f}" if "wall" in metric else " " * 15
        flag = " (unsupported percentile)" if metric.get("unsupported") else ""
        print(
            f"   {name:<20} {metric['value']:>12.4f} {metric['unit']:<9}"
            f" {wall}  n={metric['samples']}{flag}{note}"
        )
    if document["trace"]:
        layer_doc = document["per_layer"]
        for name, metric in layer_doc["metrics"].items():
            print(f"   {name:<26} {metric['value']:>12.5f} {metric['unit']}")
        tiling = layer_doc["tiling"]
        if tiling["engine_ms"]:
            print(
                "   tiling: search/agg/closure self = "
                f"{tiling['search_agg_closure_share']:.3f} of engine.complete"
            )
        median_request = layer_doc["serve"].get("median_request")
        if median_request:
            print(
                "   tiling: network+queue+overhead+engine+render = "
                f"{median_request['sum_over_p50']:.3f} of client p50"
            )


def _exit_on_signal(signum, frame) -> None:
    raise SystemExit(128 + signum)


def run_contract(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every child is stopped on the way out.
    signal.signal(signal.SIGTERM, _exit_on_signal)
    document = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(document)
    print(contract_line(document), flush=True)
    return 0


def _run(args) -> int:
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else float(spec()["run_seconds"])
    chosen = [args.workload] if args.workload else list(workloads.WORKLOADS)
    documents = []
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        for workload in chosen:
            document = measure(workload, seed, seconds, False)
            report(document)
            documents.append(document)
            if args.trace:
                traced = measure(workload, seed, seconds, True)
                report(traced)
                documents.append(traced)
                untraced_p50 = document["end_to_end"]["latency_p50_ms"]["value"]
                traced_metrics = traced["per_layer"]["metrics"]
                traced_p50 = traced_metrics["traced.latency_p50_ms"]["value"]
                print(
                    f"   tracing overhead on latency_p50_ms: "
                    f"{traced_p50 - untraced_p50:+.4f} ms "
                    f"({(traced_p50 / untraced_p50 - 1) * 100:+.1f}%)"
                )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"runs": documents}, handle, indent=1, default=list)
            handle.write("\n")
    return 0 if all(document["correct"] for document in documents) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", choices=workloads.WORKLOADS)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float)
    run.add_argument("--trace", action="store_true")
    run.add_argument("--quick", action="store_true")
    run.add_argument("--repeat", type=int, default=1)
    run.add_argument("--out")
    compare = commands.add_parser("compare", help="compare two saved sets of runs")
    compare.add_argument("parent")
    compare.add_argument("change")
    commands.add_parser("goldens", help="recompute the golden answers")
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(args)
    if args.command == "compare":
        print(compare_files(args.parent, args.change, spec()))
        return 0
    for path in build_goldens():
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
