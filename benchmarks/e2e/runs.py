"""One measured run of one workload, driven from outside the system.

HTTP workloads boot ``python -m repro.serve`` (or, traced, the
``serve_boot`` bootstrap), warm it as the workload requires, and load it
from this process with at most :data:`CONNECTIONS` keep-alive
connections.  In-process workloads boot the ``inproc`` child.  Set-up is
timed from spawn to ready on :data:`BOOTS` boots; the last boot is the
one measured.  Answers are checked off the clock.

The system process is pinned to one CPU and this process to another;
host-speed meters watch both CPUs for the whole run, so every interval
can also be read at reference speed (:mod:`.hostspeed`).

Every runner returns a :class:`RunOutcome`: the timed intervals, the
checks' failures, and, when traced, the span file to attribute.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import random
import time
from collections.abc import Callable
from pathlib import Path

from repro.core.compiled import CompiledSchema, estimate_result_bytes
from repro.core.engine import Disambiguator
from repro.model.serialization import save_schema
from repro.resilience.budget import Budget

from . import checks, loadgen, workloads
from .hostspeed import Meter, SpeedTimeline
from .stats import percentile
from .system import OUT, ROOT, Child, child_env, pinned_client, source_digest

__all__ = ["BOOTS", "CONNECTIONS", "RunOutcome", "run"]

#: Load comes from one process over at most this many connections.
CONNECTIONS = min(2, os.cpu_count() or 1)
#: Boots per run; ``setup_s`` is their median.
BOOTS = 5
HOST = "127.0.0.1"
#: Share of an HTTP run spent in the open loop; the rest measures
#: capacity, closed loop.  cold-http's closed loop is a fixed set of
#: queries, so its length does not follow this share.
WARM_OPEN_SHARE = 0.5
COLD_OPEN_SHARE = 0.6
#: warm-http's capacity is the median rate over this many equal slices
#: of its closed loop, so a few slow moments of the host do not set it.
CAPACITY_SEGMENTS = 16

Interval = tuple[float, float]


@dataclasses.dataclass
class RunOutcome:
    #: (spawn, ready) of every boot.
    boots: list[Interval]
    #: (start, end) of every latency sample: due time to answer for
    #: open-loop requests, call to return in process.
    latencies: list[Interval]
    #: Throughput samples: (operations, the busy intervals they took).
    rates: list[tuple[int, list[Interval]]]
    full_answers: int
    attempted: int
    failed: int
    peak_rss_mb: float
    errors: list[str]
    details: dict
    valid: bool = True
    spans_path: Path | None = None
    #: request ID -> (due, answered), for the serving decomposition.
    client: dict[str, Interval] = dataclasses.field(default_factory=dict)
    #: Operation keys of the measured window (what spans are scoped to).
    ops: set = dataclasses.field(default_factory=set)
    #: Speed of the CPUs doing the work over the run.
    timeline: SpeedTimeline | None = None


def run(workload: str, seed: int, seconds: float, trace: bool, boots: int) -> RunOutcome:
    runner = {
        "warm-http": _warm_http,
        "cold-http": _cold_http,
        "batch-cold": _in_process,
        "designer-edit": _in_process,
    }[workload]
    with pinned_client() as (client_cpu, cpu):
        meters = {each: Meter(each, child_env(), str(ROOT)) for each in (client_cpu, cpu)}
        try:
            # Open loops are paced by the speed of the system's CPU.
            outcome = runner(workload, seed, seconds, trace, boots, cpu, meters[cpu].slowdown)
            outcome.timeline = SpeedTimeline(
                [meter.stop() for meter in meters.values()], system=list(meters).index(cpu)
            )
        finally:
            for meter in meters.values():
                meter.kill()
    return outcome


# ----------------------------------------------------------------------
# Server boots
# ----------------------------------------------------------------------


def _spans_path(workload: str) -> Path:
    return OUT / f"{workload}.trace.jsonl"


def _boot_server(
    workload: str, serve_args: list[str], trace: bool, cpu: int
) -> tuple[Child, int]:
    args = ["-m", "repro.serve", *serve_args, "--port", "0"]
    if trace:
        args = [
            "-m",
            "benchmarks.e2e.serve_boot",
            str(_spans_path(workload)),
            *serve_args,
            "--port",
            "0",
        ]
    child = Child(args, f"{workload}.server", cpu)
    try:
        line = child.wait_line("serving on http://", timeout=120)
    except (TimeoutError, RuntimeError):
        child.stop()
        raise
    return child, int(line.rsplit(":", 1)[1])


def _boot_servers(
    workload: str, serve_args: list[str], trace: bool, cpu: int, boots: int, warm=None
) -> tuple[Child, int, list[Interval], object]:
    """Boot ``boots`` times, keep the last server; ``warm(port)`` is set-up."""
    times: list[Interval] = []
    warmed = None
    for boot in range(boots):
        child, port = _boot_server(workload, serve_args, trace, cpu)
        try:
            if warm is not None:
                warmed = warm(port, boot)
        except BaseException:
            child.stop()
            raise
        times.append((child.spawned, time.perf_counter()))
        if boot < boots - 1:
            child.stop()
    return child, port, times, warmed


def _body(tenant: str, expression: str, e: int) -> bytes:
    return json.dumps({"tenant": tenant, "expression": expression, "e": e}).encode()


def _post(body: bytes, rid: str, headers: dict[str, str] | None = None) -> bytes:
    return loadgen.render_post(
        "/v1/complete", body, {"X-Request-Id": rid, **(headers or {})}
    )


async def _get_json(port: int, path: str) -> dict:
    connection = await loadgen.Connection(HOST, port).open()
    try:
        data = f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode()
        status, body = await connection.request(data)
    finally:
        await connection.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


def _capacity_rate(
    result: loadgen.OpenLoopResult | None, segments: int = 1
) -> list[tuple[int, list[Interval]]]:
    """A closed-loop phase as throughput samples: the answers completed
    in each of ``segments`` equal slices of its span, over the slice."""
    if result is None or not result.samples:
        return []
    start = min(s.due for s in result.samples)
    end = max(s.done for s in result.samples)
    if end <= start:
        segments = 1
    width = (end - start) / segments
    counts = [0] * segments
    for s in result.samples:
        if s.error is None and s.status in (200, 206):
            slot = int((s.done - start) / width) if width else 0
            counts[min(slot, segments - 1)] += 1
    return [
        (count, [(start + slot * width, start + (slot + 1) * width)])
        for slot, count in enumerate(counts)
    ]


def _lateness_p99(samples: list[loadgen.Sample]) -> float:
    return percentile([sample.lateness for sample in samples], 99)


def _wall_rate(samples: list[loadgen.Sample]) -> float:
    """Requests per wall-clock second the open loop sent (the nominal rate
    is at reference speed)."""
    span = samples[-1].due - samples[0].due if len(samples) > 1 else 0.0
    return (len(samples) - 1) / span if span > 0 else 0.0


async def _senders(port: int, make_request) -> tuple[list, list]:
    """(connections, senders): ``send(key, rid)`` over each connection."""
    connections = [
        await loadgen.Connection(HOST, port).open() for _ in range(CONNECTIONS)
    ]

    def sender(connection):
        async def send(key: int, rid: str):
            return await connection.request(make_request(key, rid))

        return send

    return connections, [sender(connection) for connection in connections]


# ----------------------------------------------------------------------
# warm-http
# ----------------------------------------------------------------------


def _warm_http(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    boots: int,
    cpu: int,
    slowdown: Callable[[], float],
) -> RunOutcome:
    entries = workloads.curated_entries()
    references = _curated_references(entries)
    child, port, boot_times, warm_bodies = _boot_servers(
        workload,
        [f"--builtin={name}" for name in checks.BUILTINS],
        trace,
        cpu,
        boots,
        warm=lambda port, boot: loadgen.run_async(_warm_up(port, entries, boot)),
    )
    try:
        measured = loadgen.run_async(
            _warm_measure(port, entries, seed, seconds, trace, slowdown)
        )
        peak_rss = child.peak_rss_mb()
    finally:
        child.stop()
    nominal, capacity = measured["nominal"], measured["capacity"]
    samples = list(nominal.samples)
    if capacity is not None:
        samples += capacity.samples
    errors: list[str] = []
    failed = 0
    for sample in samples:
        if sample.error is not None or sample.status != 200:
            failed += 1
            errors.append(f"request {sample.request_id}: {sample.error or sample.status}")
    bodies = measured["bodies"]
    for key, body in warm_bodies.items():
        bodies.setdefault(key, set()).add(body)
    golden = checks.curated_golden()
    wrong_keys: set[int] = set()
    for key, distinct in bodies.items():
        for body in distinct:
            problems = _answer_errors(entries[key], body, references[key], golden)
            if problems:
                wrong_keys.add(key)
                errors.extend(problems)
    references.save()
    wrong = sum(
        1 for sample in samples if sample.key in wrong_keys and sample.status == 200
    )
    failed += wrong
    full = sum(1 for sample in samples if sample.status == 200) - wrong
    lateness = _lateness_p99(nominal.samples)
    details = {
        "nominal_rate": workloads.WARM_RATE,
        "wall_rate": _wall_rate(nominal.samples),
        "nominal_requests": len(nominal.samples),
        "lateness_p99_ms": lateness * 1000.0,
        "backlog_at_end": nominal.backlog_at_end,
        "capacity_requests": len(samples) - len(nominal.samples),
    }
    return RunOutcome(
        boots=boot_times,
        latencies=[(s.due, s.done) for s in nominal.samples],
        rates=_capacity_rate(capacity, CAPACITY_SEGMENTS),
        full_answers=full,
        attempted=len(samples),
        failed=failed,
        peak_rss_mb=peak_rss,
        errors=errors,
        details=details,
        valid=lateness <= loadgen.MAX_LATENESS_S,
        spans_path=_spans_path(workload) if trace else None,
        client={s.request_id: (s.due, s.done) for s in nominal.samples},
        ops={s.request_id for s in nominal.samples},
    )


async def _warm_up(port: int, entries, boot: int) -> dict[int, bytes]:
    """Complete every entry once over one connection (the cache fill)."""
    connection = await loadgen.Connection(HOST, port).open()
    answers = {}
    try:
        for key, (tenant, expression, e) in enumerate(entries):
            status, body = await connection.request(
                _post(_body(tenant, expression, e), f"warm{boot}-{key}")
            )
            if status != 200:
                raise RuntimeError(f"warm-up {expression} answered {status}")
            answers[key] = body
    finally:
        await connection.close()
    return answers


async def _warm_measure(
    port: int, entries, seed: int, seconds: float, trace: bool, slowdown
) -> dict:
    rng = random.Random(f"warm-http-{seed}")
    requests = [_body(tenant, expression, e) for tenant, expression, e in entries]
    bodies: dict[int, set[bytes]] = {}

    def make_request(key: int, rid: str) -> bytes:
        return _post(requests[key], rid)

    connections, senders = await _senders(port, make_request)

    def keeping(send):
        async def send_and_keep(key: int, rid: str):
            status, body = await send(key, rid)
            bodies.setdefault(key, set()).add(body)
            return status, b""

        return send_and_keep

    senders = [keeping(send) for send in senders]
    clock = loadgen.RealClock()
    nominal_seconds = seconds if trace else seconds * WARM_OPEN_SHARE
    schedule = loadgen.poisson_schedule(workloads.WARM_RATE, nominal_seconds, rng)
    keys = workloads.warm_keys(len(schedule), rng)
    rids = [f"n-{index}" for index in range(len(schedule))]
    capacity = None
    try:
        nominal = await loadgen.run_open_loop(
            schedule, keys, rids, senders, clock, slowdown
        )
        if not trace:
            await asyncio.sleep(0.2)  # let the nominal load drain
            capacity_seconds = seconds - nominal_seconds
            capacity = await loadgen.run_closed_loop(
                # More keys than the fastest server could take in time.
                workloads.warm_keys(int(10_000 * capacity_seconds) + 1, rng),
                senders,
                clock,
                duration=capacity_seconds,
            )
    finally:
        for connection in connections:
            await connection.close()
    return {"nominal": nominal, "capacity": capacity, "bodies": bodies}


# ----------------------------------------------------------------------
# cold-http
# ----------------------------------------------------------------------


def _cold_http(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    boots: int,
    cpu: int,
    slowdown: Callable[[], float],
) -> RunOutcome:
    population = workloads.load_cold_golden()
    queries = population["queries"]
    schemas = checks.cold_schemas()
    for row in population["schemas"]:
        if schemas[row["tenant"]].fingerprint() != row["fingerprint"]:
            raise RuntimeError(
                f"generated schema {row['tenant']} no longer matches the "
                "golden population; rerun `python -m benchmarks.e2e goldens`"
            )
    rng = random.Random(f"cold-http-{seed}")
    open_seconds = seconds if trace else seconds * COLD_OPEN_SHARE
    # Paced, not Poisson: how many requests a burst stacks behind a slow
    # search or a garbage-collection pause would change from seed to seed.
    schedule = [
        index / workloads.COLD_RATE
        for index in range(round(workloads.COLD_RATE * open_seconds))
    ]
    capacity_count = 0 if trace else round(workloads.COLD_CAPACITY_WORK * seconds)
    plan, capacity_keys = workloads.cold_plan(
        len(schedule), capacity_count, len(queries), rng
    )
    references = _cold_references(queries, schemas)
    # The open loop's answers size the cache bound at a quarter of what
    # its distinct full answers take.
    cached_bytes = sum(references[index][1] for index in set(plan))
    cache_bytes = max(1, cached_bytes // 4)
    OUT.mkdir(exist_ok=True)
    serve_args = [f"--cache-bytes={cache_bytes}"]
    for tenant, schema in schemas.items():
        path = OUT / f"cold-{tenant}.json"
        save_schema(schema, path)
        serve_args.append(f"--tenant={tenant}={path}")

    child, port, boot_times, _ = _boot_servers(workload, serve_args, trace, cpu, boots)
    try:
        nominal, capacity = loadgen.run_async(
            _cold_measure(port, queries, schedule, plan, capacity_keys, slowdown)
        )
        debug = loadgen.run_async(_get_json(port, "/v1/debug"))
        peak_rss = child.peak_rss_mb()
    finally:
        child.stop()

    samples = list(nominal.samples)
    if capacity is not None:
        samples += capacity.samples
    errors: list[str] = []
    failed = full = capped_misses = deadline_misses = 0
    for sample in samples:
        query = queries[sample.key]
        if sample.error is not None or sample.status not in (200, 206):
            failed += 1
            errors.append(f"request {sample.request_id}: {sample.error or sample.status}")
            continue
        expected = references[sample.key][0]
        answer = json.loads(sample.body)
        problems = checks.path_errors(query["expression"], answer["paths"])
        name = f"{query['tenant']} {query['expression']} E={query['e']}"
        if sample.status == 206:
            # Cut short by the cap, as in process, or by the deadline.
            if expected is None:
                capped_misses += 1
            else:
                deadline_misses += 1
        elif expected is None:
            problems.append(f"{name}: answered in full where the cap cuts it short")
        else:
            got = {"paths": answer["paths"], "labels": answer["labels"]}
            if got != expected:
                problems.append(f"{name}: answer differs from the in-process engine")
            if sorted(answer["labels"]) != query["labels"]:
                problems.append(f"{name}: labels differ from the golden")
        if problems:
            failed += 1
            errors.extend(problems)
        elif sample.status == 200:
            full += 1
    lateness = _lateness_p99(nominal.samples)
    details = {
        "rate": workloads.COLD_RATE,
        "wall_rate": _wall_rate(nominal.samples),
        "max_nodes": workloads.COLD_MAX_NODES,
        "open_loop_requests": len(nominal.samples),
        "capacity_requests": len(samples) - len(nominal.samples),
        "distinct_queries": len({sample.key for sample in samples}),
        "capped_misses": capped_misses,
        "deadline_misses": deadline_misses,
        "cache_bound_bytes": cache_bytes,
        "final_cache_bytes": debug["tenants"]["total_cache_bytes"],
        "lateness_p99_ms": lateness * 1000.0,
        "backlog_at_end": nominal.backlog_at_end,
    }
    references.save()
    return RunOutcome(
        boots=boot_times,
        latencies=[(s.due, s.done) for s in nominal.samples],
        rates=_capacity_rate(capacity),
        full_answers=full,
        attempted=len(samples),
        failed=failed,
        peak_rss_mb=peak_rss,
        errors=errors,
        details=details,
        valid=lateness <= loadgen.MAX_LATENESS_S,
        spans_path=_spans_path(workload) if trace else None,
        client={s.request_id: (s.due, s.done) for s in nominal.samples},
        ops={s.request_id for s in nominal.samples},
    )


async def _cold_measure(port: int, queries, schedule, plan, capacity_keys, slowdown):
    requests = [
        _body(query["tenant"], query["expression"], query["e"]) for query in queries
    ]
    limits = {
        "X-Deadline-Ms": str(workloads.COLD_DEADLINE_MS),
        "X-Max-Nodes": str(workloads.COLD_MAX_NODES),
    }

    def make_request(key: int, rid: str) -> bytes:
        return _post(requests[key], rid, limits)

    connections, senders = await _senders(port, make_request)
    clock = loadgen.RealClock()
    capacity = None
    try:
        nominal = await loadgen.run_open_loop(
            schedule,
            plan,
            [f"c-{index}" for index in range(len(schedule))],
            senders,
            clock,
            slowdown,
        )
        if capacity_keys:
            await asyncio.sleep(0.2)  # let the open loop drain
            capacity = await loadgen.run_closed_loop(capacity_keys, senders, clock)
    finally:
        for connection in connections:
            await connection.close()
    return nominal, capacity


class _References:
    """This commit's in-process answers, computed off the clock.

    ``references[index]`` is ``compute(index)``, computed on first use.
    Answers are kept in ``out/<name>.json`` under the digest of ``src/``
    and of the inputs they come from, so later runs of the same code in
    the same checkout reuse them.
    """

    def __init__(self, name: str, inputs: bytes, compute) -> None:
        self.path = OUT / f"{name}.json"
        self.compute = compute
        self.key = [source_digest(), hashlib.sha256(inputs).hexdigest()]
        self.entries: dict[int, object] = {}
        if self.path.is_file():
            stored = json.loads(self.path.read_text())
            if stored["key"] == self.key:
                self.entries = {
                    int(index): entry for index, entry in stored["entries"].items()
                }

    def __getitem__(self, index: int):
        if index not in self.entries:
            self.entries[index] = self.compute(index)
        return self.entries[index]

    def save(self) -> None:
        OUT.mkdir(exist_ok=True)
        partial = self.path.with_suffix(".partial")
        partial.write_text(json.dumps({"key": self.key, "entries": self.entries}))
        os.replace(partial, self.path)  # a run killed mid-write leaves the old file


def _cold_references(queries: list[dict], schemas: dict) -> _References:
    """``[answer, cached_bytes]`` per cold query under the requests' cap.

    ``answer`` is None where the cap cuts the search short (the server
    answers 206 there too), else what a 200 must equal; ``cached_bytes``
    is what the server's cache holds for a full answer.
    """
    engines: dict[str, dict[int, Disambiguator]] = {}
    capped = Budget(max_nodes=workloads.COLD_MAX_NODES, partial_ok=True)

    def compute(index: int) -> list:
        query = queries[index]
        if not engines:
            for tenant, schema in schemas.items():
                compiled = CompiledSchema(schema)
                engines[tenant] = {e: Disambiguator(compiled, e=e) for e in (1, 2)}
        result = engines[query["tenant"]][query["e"]].complete(
            query["expression"], budget=capped
        )
        if not result.exhausted:
            return [None, 0]
        return [checks.answer_of(result), estimate_result_bytes(result)]

    inputs = workloads.COLD_GOLDEN.read_bytes() + str(workloads.COLD_MAX_NODES).encode()
    return _References("cold-references", inputs, compute)


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------


def _in_process(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    boots: int,
    cpu: int,
    slowdown: Callable[[], float],
) -> RunOutcome:
    base = [
        "-m",
        "benchmarks.e2e.inproc",
        f"--workload={workload}",
        f"--seed={seed}",
        f"--seconds={seconds}",
    ]
    boot_times: list[Interval] = []
    for _ in range(boots - 1):
        child = Child([*base, "--setup-only"], f"{workload}.inproc", cpu)
        try:
            child.wait_line("READY", timeout=300)
            boot_times.append((child.spawned, time.perf_counter()))
        finally:
            child.wait(60)
    args = [*base, f"--spans={_spans_path(workload)}"] if trace else base
    child = Child(args, f"{workload}.inproc", cpu)
    try:
        child.wait_line("READY", timeout=300)
        boot_times.append((child.spawned, time.perf_counter()))
        line = child.wait_line("RESULT ", timeout=seconds + 300)
    finally:
        child.wait(120)
    result = json.loads(line[len("RESULT ") :])
    errors = list(result["errors"])
    failed = result["failed"]
    golden = checks.curated_golden()
    for key, answer in result["answers"].items():
        tenant, e, expression = key.split("|", 2)
        problems = checks.path_errors(expression, answer["paths"])
        problems += checks.golden_errors(
            golden, tenant, expression, int(e), answer["labels"]
        )
        if problems:
            failed += 1
            errors.extend(problems)
    ops = [(start, start + spent) for start, spent in result["ops"]]
    # Throughput per whole pass (batch-cold) or edit cycle (designer-edit):
    # every pass has the same queries and every cycle the same mix of
    # module-local and wiring steps, so they compare.  A run too short
    # for one group counts what it has.
    group = result["group"]
    rates = [
        (len(ops[start : start + group]), ops[start : start + group])
        for start in range(0, len(ops) - group + 1, group)
    ] or [(len(ops), ops)]
    details = dict(result["details"])
    return RunOutcome(
        boots=boot_times,
        latencies=ops,
        rates=rates,
        full_answers=result["attempted"] - failed,
        attempted=result["attempted"],
        failed=failed,
        peak_rss_mb=result["peak_rss_mb"],
        errors=errors,
        details=details,
        spans_path=_spans_path(workload) if trace else None,
        ops=set(range(result["attempted"])),
    )


# ----------------------------------------------------------------------
# Shared checks
# ----------------------------------------------------------------------


def _curated_references(entries) -> _References:
    """This commit's in-process answers for the curated entries."""

    def compute(index: int) -> dict:
        tenant, expression, e = entries[index]
        engine = Disambiguator(checks.builtin_schema(tenant), e=e)
        return checks.answer_of(engine.complete(expression))

    return _References("curated-references", json.dumps(entries).encode(), compute)


def _answer_errors(entry, body: bytes, reference: dict, golden) -> list[str]:
    tenant, expression, e = entry
    answer = json.loads(body)
    got = {"paths": answer.get("paths"), "labels": answer.get("labels")}
    problems = []
    if got != reference:
        problems.append(
            f"{tenant} E={e} {expression}: answer differs from the in-process engine"
        )
    problems.extend(checks.path_errors(expression, got["paths"] or []))
    problems.extend(
        checks.golden_errors(golden, tenant, expression, e, got["labels"] or [])
    )
    return problems
