"""``python -m repro.serve`` — boot the always-on serving tier.

Examples::

    # one builtin tenant, defaults everywhere
    python -m repro.serve --builtin university

    # several tenants, one with an instance database for /v1/query
    python -m repro.serve \
        --builtin university --builtin cupid \
        --tenant people=dept.json --db people=dept_data.json \
        --port 8080 --queue-limit 32 --workers 8 \
        --default-deadline-ms 500 --drain-deadline 10

The process serves until ``SIGTERM``/``SIGINT``, then drains
gracefully: new requests are refused with ``503`` while in-flight ones
finish (or degrade to ``206`` best-so-far at the drain deadline), and
the process exits ``0``.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

from repro.model.dsl import parse_schema_dsl
from repro.model.persistence import load_database
from repro.model.schema import Schema
from repro.model.serialization import load_schema
from repro.schemas.cupid import build_cupid_schema
from repro.schemas.hospital import build_hospital_schema
from repro.schemas.parts import build_parts_schema
from repro.schemas.university import build_university_schema
from repro.serve.app import ServingTier
from repro.serve.config import ServeConfig
from repro.serve.tenants import TenantRegistry, prewarm_tenant

__all__ = ["add_arguments", "build_parser", "build_tier", "main", "serve"]

_BUILTINS = {
    "university": build_university_schema,
    "cupid": build_cupid_schema,
    "hospital": build_hospital_schema,
    "parts": build_parts_schema,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=__doc__.splitlines()[0],
    )
    add_arguments(parser)
    return parser


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the serving-tier options (shared with ``repro serve``)."""
    parser.add_argument(
        "--builtin",
        action="append",
        default=[],
        choices=sorted(_BUILTINS),
        help="serve a bundled example schema (repeatable)",
    )
    parser.add_argument(
        "--tenant",
        action="append",
        default=[],
        metavar="NAME=FILE",
        help="serve a schema file (.json or DSL text) as tenant NAME "
        "(repeatable)",
    )
    parser.add_argument(
        "--db",
        action="append",
        default=[],
        metavar="NAME=FILE",
        help="attach an instance database (JSON) to tenant NAME, "
        "enabling /v1/query (repeatable)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8080, help="0 picks an ephemeral port"
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="admitted-but-unanswered bound; the next request is shed "
        "with 429 (default 16)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="engine worker threads (default 4)",
    )
    parser.add_argument(
        "--default-deadline-ms",
        type=float,
        default=1000.0,
        help="wall-clock budget for requests naming none (default 1000)",
    )
    parser.add_argument(
        "--max-deadline-ms",
        type=float,
        default=10_000.0,
        help="ceiling a request's X-Deadline-Ms is clamped to "
        "(default 10000)",
    )
    parser.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        help="default node-expansion cap (default: none)",
    )
    parser.add_argument(
        "--drain-deadline",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="grace for in-flight requests after SIGTERM (default 5)",
    )
    parser.add_argument(
        "--cache-bytes",
        type=int,
        default=8 * 1024 * 1024,
        help="global completion-cache memory bound across tenants "
        "(default 8 MiB)",
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        default=0.0,
        help="slow-log retention threshold; 0 retains every request "
        "(default 0)",
    )
    parser.add_argument(
        "--prewarm",
        action="append",
        default=[],
        metavar="NAME=EXPRESSION",
        help="complete EXPRESSION for tenant NAME at boot, with retry "
        "on transient faults (repeatable)",
    )
    parser.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        metavar="RATE",
        help="probability a request gets a recording tracer; slow or "
        "failed requests are tail-promoted regardless (default 0)",
    )
    parser.add_argument(
        "--access-log",
        default=None,
        metavar="PATH",
        help="append every structured access record to PATH as JSONL "
        "(the in-memory ring is always kept unless --no-access-log)",
    )
    parser.add_argument(
        "--no-access-log",
        action="store_true",
        help="disable the structured access log entirely",
    )
    parser.add_argument(
        "--slo-latency-ms",
        type=float,
        default=250.0,
        help="latency-objective threshold for SLO burn-rate monitoring "
        "(default 250)",
    )


def _parse_pair(raw: str, option: str) -> tuple[str, str]:
    name, separator, value = raw.partition("=")
    if not separator or not name or not value:
        raise SystemExit(f"{option} expects NAME=VALUE, got {raw!r}")
    return name, value


def _load_schema_file(path_text: str) -> Schema:
    path = Path(path_text)
    if path.suffix == ".json":
        return load_schema(path)
    return parse_schema_dsl(path.read_text())


def build_tier(args: argparse.Namespace) -> ServingTier:
    """Assemble the tenant registry and tier from parsed arguments."""
    config = ServeConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        workers=args.workers,
        default_deadline_ms=args.default_deadline_ms,
        max_deadline_ms=args.max_deadline_ms,
        default_max_nodes=args.max_nodes,
        drain_deadline_s=args.drain_deadline,
        max_cache_bytes=args.cache_bytes,
        slow_ms=args.slow_ms,
        trace_sample_rate=args.trace_sample_rate,
        access_log=not args.no_access_log,
        access_log_path=args.access_log,
        slo_latency_ms=args.slo_latency_ms,
    )
    registry = TenantRegistry(max_cache_bytes=config.max_cache_bytes)

    schemas: dict[str, Schema] = {}
    for builtin in args.builtin:
        schemas[builtin] = _BUILTINS[builtin]()
    for raw in args.tenant:
        name, path_text = _parse_pair(raw, "--tenant")
        schemas[name] = _load_schema_file(path_text)
    if not schemas:
        raise SystemExit(
            "no tenants: pass at least one --builtin or --tenant NAME=FILE"
        )

    databases: dict[str, str] = dict(
        _parse_pair(raw, "--db") for raw in args.db
    )
    unknown = sorted(set(databases) - set(schemas))
    if unknown:
        raise SystemExit(f"--db names unknown tenant(s): {', '.join(unknown)}")

    for name, schema in sorted(schemas.items()):
        database = None
        if name in databases:
            database = load_database(databases[name], schema=schema)
        registry.add(name, schema, database=database)

    tier = ServingTier(registry, config=config)

    warm: dict[str, list[str]] = {}
    for raw in args.prewarm:
        name, expression = _parse_pair(raw, "--prewarm")
        warm.setdefault(name, []).append(expression)
    unknown = sorted(set(warm) - set(schemas))
    if unknown:
        raise SystemExit(
            f"--prewarm names unknown tenant(s): {', '.join(unknown)}"
        )
    for name, expressions in sorted(warm.items()):
        warmed = prewarm_tenant(registry.get(name), expressions)
        print(
            f"prewarmed {warmed}/{len(expressions)} expression(s) "
            f"for tenant {name!r}",
            file=sys.stderr,
        )
    return tier


async def _serve(tier: ServingTier) -> None:
    await tier.start()
    host, port = tier.address
    print(f"serving on http://{host}:{port}", flush=True)
    await tier.serve_forever()
    print("drained; exiting", flush=True)


def serve(args: argparse.Namespace) -> int:
    """Build the tier from parsed args and serve until drained."""
    tier = build_tier(args)
    try:
        asyncio.run(_serve(tier))
    except KeyboardInterrupt:  # pragma: no cover - SIGINT without handler
        pass
    return 0


def main(argv: list[str] | None = None) -> int:
    return serve(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
