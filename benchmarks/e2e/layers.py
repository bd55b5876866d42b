"""Per-layer metrics from recorded spans.

Scope: every metric covers the operations of the measured window only
(requests for HTTP workloads, completions for ``batch-cold``, edit steps
for ``designer-edit``), divided by their number — "per op" — except
``compile.compile_ms``, which is the compile time of the traced
process's set-up.  Layer times are self times, except the entry points
whose whole call is the layer's cost (``engine.complete_ms``,
``search.run_ms``, ``general.complete_ms`` and ``compile.evolve_ms``).
Every ratio is reported with its base.

The serving decomposition joins the client's timeline of each request
with the server's spans on the request ID the generator sets:

``serve.server_ms``       ``read_request`` return -> ``render_response`` return
``serve.queue_wait_ms``   ``read_request`` return -> ``SlowQueryLog.observe`` entry on the worker
``serve.network_ms``      client latency - server time
``serve.overhead_ms``     server - queue wait - engine - render

so network + queue wait + overhead + engine + render is the client
latency of each request.
"""

from __future__ import annotations

from collections import defaultdict

from .stats import percentile
from .trace import self_times

__all__ = ["LAYER_METRICS", "aggregate", "serve_decomposition"]

#: name -> unit of every per-layer metric, in report order.
LAYER_METRICS = {
    "http.render_ms": "ms/op",
    "serve.server_ms": "ms/op",
    "serve.network_ms": "ms/op",
    "serve.queue_wait_ms": "ms/op",
    "serve.overhead_ms": "ms/op",
    "obs.record_ms": "ms/op",
    "tenants.governor_ms": "ms/op",
    "tenants.evictions": "count/op",
    "parser.parse_ms": "ms/op",
    "cache.lookup_ms": "ms/op",
    "cache.hit_ratio": "fraction",
    "compile.compile_ms": "ms",
    "compile.evolve_ms": "ms/op",
    "compile.carried_ratio": "fraction",
    "closure.tables_ms": "ms/op",
    "closure.table_builds": "count/op",
    "search.run_ms": "ms/op",
    "search.traverse_self_ms": "ms/op",
    "search.expansions": "count/op",
    "search.prune_ratio": "fraction",
    "search.useful_ratio": "fraction",
    "agg.aggregate_ms": "ms/op",
    "agg.preemption_ms": "ms/op",
    "general.complete_ms": "ms/op",
    "engine.complete_ms": "ms/op",
    "engine.trips": "count/op",
    "engine.degrades": "count/op",
}

#: Layers reported by their outermost call rather than by self time.
_INCLUSIVE = ("engine", "search.run", "general", "compile.evolve")

#: The layers that should account for a cold completion's time.
_SEARCH_AGG_CLOSURE = (
    "search.run",
    "search.traverse",
    "agg.aggregate",
    "agg.preemption",
    "closure",
    "closure.build",
    "general",
)


def _ratio(part: float, base: float) -> dict:
    return {"value": part / base if base else 0.0, "base": base}


def aggregate(
    spans: list[dict], ops: set, n_ops: int, ready_at: float | None = None
) -> dict:
    """Per-layer metrics of the window's operations ``ops``.

    ``ready_at`` is when set-up ended (``None``: every compile was
    set-up).  Returns ``{"metrics": {name: value}, "ratios": {...},
    "tiling": {...}, "self_ms": {layer: total}, "calls": {...}}``.
    """
    by_id = {span["id"]: span for span in spans}
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    inclusive_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    compile_s = 0.0
    lookups = hits = 0
    expansions = pruned = found = returned = 0
    evolve_before = evolve_after = 0
    trips = degrades = evictions = 0

    def outermost(span: dict) -> bool:
        parent = span["parent"]
        while parent is not None:
            above = by_id.get(parent)
            if above is None:
                return True
            if above["layer"] == span["layer"]:
                return False
            parent = above["parent"]
        return True

    for span in spans:
        layer = span["layer"]
        duration = span["end"] - span["start"]
        if layer == "compile" and outermost(span):
            if ready_at is None or span["start"] < ready_at:
                compile_s += duration
        if span["op"] not in ops:
            continue
        self_s[layer] += selfs[span["id"]]
        calls[layer] += 1
        if layer in _INCLUSIVE and outermost(span):
            inclusive_s[layer] += duration
        info = span["info"]
        if info is None:
            continue
        if layer == "cache.lookup":
            lookups += 1
            hits += info
        elif layer == "search.run":
            expansions += info[0]
            pruned += info[1]
            found += info[2]
            returned += info[3]
        elif layer == "engine":
            trips += info[0]
            degrades += info[1]
        elif layer == "compile.evolve":
            evolve_before += info[0]
            evolve_after += info[1]
        elif layer == "tenants.governor":
            evictions += info

    n = max(n_ops, 1)

    def per_op_ms(seconds: float) -> float:
        return seconds * 1000.0 / n

    ratios = {
        "cache.hit_ratio": _ratio(hits, lookups),
        "compile.carried_ratio": _ratio(evolve_after, evolve_before),
        "search.prune_ratio": _ratio(pruned, pruned + expansions),
        "search.useful_ratio": _ratio(returned, found),
    }
    metrics = {
        "http.render_ms": per_op_ms(self_s["http.render"]),
        "obs.record_ms": per_op_ms(self_s["obs"]),
        "tenants.governor_ms": per_op_ms(self_s["tenants.governor"]),
        "tenants.evictions": evictions / n,
        "parser.parse_ms": per_op_ms(self_s["parser"]),
        "cache.lookup_ms": per_op_ms(self_s["cache.lookup"]),
        "compile.compile_ms": compile_s * 1000.0,
        "compile.evolve_ms": per_op_ms(inclusive_s["compile.evolve"]),
        "closure.tables_ms": per_op_ms(
            self_s["closure"] + self_s["closure.build"]
        ),
        "closure.table_builds": calls["closure.build"] / n,
        "search.run_ms": per_op_ms(inclusive_s["search.run"]),
        "search.traverse_self_ms": per_op_ms(self_s["search.traverse"]),
        "search.expansions": expansions / n,
        "agg.aggregate_ms": per_op_ms(self_s["agg.aggregate"]),
        "agg.preemption_ms": per_op_ms(self_s["agg.preemption"]),
        "general.complete_ms": per_op_ms(inclusive_s["general"]),
        "engine.complete_ms": per_op_ms(inclusive_s["engine"]),
        "engine.trips": trips / n,
        "engine.degrades": degrades / n,
    }
    metrics.update({name: ratio["value"] for name, ratio in ratios.items()})
    # Tiling: self times of the spans inside engine calls, by layer.
    inside: dict[str, bool] = {}

    def in_engine(span: dict) -> bool:
        known = inside.get(span["id"])
        if known is None:
            parent = by_id.get(span["parent"]) if span["parent"] else None
            known = span["layer"] == "engine" or (
                parent is not None and in_engine(parent)
            )
            inside[span["id"]] = known
        return known

    below: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["op"] in ops and in_engine(span):
            below[span["layer"]] += selfs[span["id"]]
    engine_ms = inclusive_s["engine"] * 1000.0
    named_ms = 1000.0 * sum(below[layer] for layer in _SEARCH_AGG_CLOSURE)
    tiling = {
        "engine_ms": engine_ms,
        "search_agg_closure_ms": named_ms,
        "search_agg_closure_share": named_ms / engine_ms if engine_ms else 0.0,
        "inside_engine_self_ms": {
            layer: seconds * 1000.0 for layer, seconds in sorted(below.items())
        },
    }
    return {
        "metrics": metrics,
        "ratios": ratios,
        "tiling": tiling,
        "self_ms": {layer: seconds * 1000.0 for layer, seconds in sorted(self_s.items())},
        "calls": dict(sorted(calls.items())),
    }


def serve_decomposition(
    spans: list[dict],
    events: list[dict],
    client: dict[str, float],
) -> dict:
    """Join client latencies (rid -> seconds) with the server's spans.

    Returns per-metric means over the requests that have every boundary,
    and the decomposition of the median request (the 40th-60th
    percentile band of client latency) against the client p50.
    """
    read_at: dict[str, float] = {}
    worker_at: dict[str, float] = {}
    for event in events:
        op = event["op"]
        if op not in client:
            continue
        if event["layer"] == "http.read":
            read_at.setdefault(op, event["at"])
        elif event["layer"] == "serve.worker":
            worker_at.setdefault(op, event["at"])
    render: dict[str, tuple[float, float]] = {}
    engine: dict[str, float] = defaultdict(float)
    for span in spans:
        op = span["op"]
        if op not in client:
            continue
        if span["layer"] == "http.render":
            render[op] = (span["end"] - span["start"], span["end"])
        elif span["layer"] == "engine" and span["parent"] is None:
            engine[op] += span["end"] - span["start"]
    rows = []
    for rid, latency in client.items():
        if rid not in read_at or rid not in worker_at or rid not in render:
            continue
        render_s, render_end = render[rid]
        server = render_end - read_at[rid]
        queue = worker_at[rid] - read_at[rid]
        engine_s = engine.get(rid, 0.0)
        rows.append(
            {
                "client": latency,
                "server": server,
                "network": latency - server,
                "queue_wait": queue,
                "engine": engine_s,
                "render": render_s,
                "overhead": server - queue - engine_s - render_s,
            }
        )
    result = {"requests": len(rows)}
    if not rows:
        return result
    keys = ("server", "network", "queue_wait", "overhead", "engine", "render")
    result["mean_ms"] = {
        key: 1000.0 * sum(row[key] for row in rows) / len(rows) for key in keys
    }
    latencies = [row["client"] for row in rows]
    low, high = percentile(latencies, 40), percentile(latencies, 60)
    band = [row for row in rows if low <= row["client"] <= high]
    p50_ms = 1000.0 * percentile(latencies, 50)
    parts = {
        key: 1000.0 * sum(row[key] for row in band) / len(band)
        for key in ("network", "queue_wait", "overhead", "engine", "render")
    }
    total = sum(parts.values())
    result["median_request"] = {
        "band_requests": len(band),
        "client_p50_ms": p50_ms,
        "parts_ms": parts,
        "sum_ms": total,
        "sum_over_p50": total / p50_ms if p50_ms else 0.0,
    }
    return result
