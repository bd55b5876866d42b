"""Command-line interface.

Installed as the ``repro`` console script.  Subcommands::

    repro complete  [--schema FILE | --builtin NAME] [-e N]
                    [--exclude CLS ...] [--verbose] EXPRESSION ...
    repro enumerate [--schema FILE | --builtin NAME] [--limit N] EXPRESSION
    repro profile   [--schema FILE | --builtin NAME] [--suggest-hubs]
    repro query     --db FILE QUERY
    repro convert   INPUT OUTPUT          # schema DSL <-> JSON by extension
    repro experiments [--quick]
    repro designer  [--mode both|incremental|rebuild] [-e N]

Schemas are loaded from ``.json`` (repro-schema documents) or any other
extension (treated as DSL text); ``--builtin`` selects one of the
bundled schemas (``university``, ``cupid``, ``parts``).

Observability (``complete``, ``query``, ``fox``, ``experiments``):
``--trace`` prints the nested span tree of the run; ``--trace=FILE``
writes the JSON-lines event log to FILE instead; ``--metrics`` prints
the schema-validated metrics summary; ``--prom[=FILE]`` prints or
writes the metrics in Prometheus text exposition format;
``--slow-log[=FILE]`` retains slow queries tail-based (``--slow-ms``
sets the threshold) and prints or writes them as schema-validated
JSONL; ``--profile[=FILE]`` attaches cProfile to the span taxonomy and
prints a per-span report or writes flamegraph-ready collapsed stacks.
See ``docs/observability.md``.

Resilience (same subcommands): ``--deadline-ms`` / ``--max-nodes``
install an ambient completion budget; on a trip the command fails with
exit code 3 and prints the best-so-far candidates, unless
``--partial-ok`` is given, in which case the flagged partial result is
reported normally.  See ``docs/resilience.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.profile import SpanProfiler
from repro.obs.promtext import render_prometheus, write_prometheus
from repro.obs.slowlog import SlowQueryLog, use_slowlog
from repro.obs.tracer import RecordingTracer, use_tracer
from repro.resilience.budget import Budget, use_budget

from repro.core.compiled import compile_schema
from repro.core.domain import DomainKnowledge
from repro.core.engine import Disambiguator
from repro.core.enumerate import enumerate_consistent_paths
from repro.core.parser import parse_path_expression
from repro.core.printer import format_result
from repro.core.target import RelationshipTarget
from repro.errors import BudgetExceededError, ReproError
from repro.model.analysis import profile_schema, suggest_hub_exclusions
from repro.model.dsl import parse_schema_dsl, schema_to_dsl
from repro.model.graph import SchemaGraph
from repro.model.persistence import load_database
from repro.model.schema import Schema
from repro.model.serialization import load_schema, save_schema
from repro.query.language import run_query
from repro.schemas.cupid import build_cupid_schema
from repro.schemas.hospital import build_hospital_schema
from repro.schemas.parts import build_parts_schema
from repro.schemas.university import build_university_schema

__all__ = ["main", "build_parser"]

_BUILTINS = {
    "university": build_university_schema,
    "cupid": build_cupid_schema,
    "hospital": build_hospital_schema,
    "parts": build_parts_schema,
}


def _load_schema_arg(args: argparse.Namespace) -> Schema:
    if getattr(args, "builtin", None):
        return _BUILTINS[args.builtin]()
    path = Path(args.schema)
    if path.suffix == ".json":
        return load_schema(path)
    return parse_schema_dsl(path.read_text())


def _add_schema_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--schema", metavar="FILE", help="schema file (.json or DSL text)"
    )
    group.add_argument(
        "--builtin",
        choices=sorted(_BUILTINS),
        help="use a bundled example schema",
    )


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help=(
            "record tracing spans; print the span tree, or write a "
            "JSON-lines event log to FILE if given"
        ),
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics summary (counters/gauges/histograms) as JSON",
    )
    parser.add_argument(
        "--prom",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help=(
            "print the metrics in Prometheus text exposition format, or "
            "write one scrape snapshot to FILE if given"
        ),
    )
    parser.add_argument(
        "--slow-log",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help=(
            "tail-based slow-query log: print the retained entries, or "
            "write them as schema-validated JSONL to FILE if given"
        ),
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "retention threshold for --slow-log (queries over MS "
            "milliseconds are always kept; default: top-K only)"
        ),
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help=(
            "attach cProfile to the span taxonomy; print the per-span "
            "report, or write flamegraph-ready collapsed stacks to FILE "
            "if given"
        ),
    )


def _add_budget_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="wall-clock budget per completion search (milliseconds)",
    )
    parser.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        metavar="N",
        help="cap on node expansions (recursive calls) per search",
    )
    parser.add_argument(
        "--partial-ok",
        action="store_true",
        help=(
            "on a tripped budget return the flagged best-so-far partial "
            "result instead of failing"
        ),
    )


def _budget_from(args: argparse.Namespace) -> Budget | None:
    """Build the ambient budget requested by the CLI flags (or None)."""
    deadline_ms = getattr(args, "deadline_ms", None)
    max_nodes = getattr(args, "max_nodes", None)
    if deadline_ms is None and max_nodes is None:
        return None
    return Budget.from_millis(
        deadline_ms,
        max_nodes=max_nodes,
        partial_ok=getattr(args, "partial_ok", False),
    )


@contextlib.contextmanager
def _observability(args: argparse.Namespace):
    """Install the telemetry requested by the observability flags.

    ``--trace`` installs a recording tracer, ``--metrics``/``--prom``
    a metrics registry, ``--slow-log`` a tail-based slow-query log,
    ``--profile`` a span profiler wrapping the tracer, and
    ``--deadline-ms``/``--max-nodes`` the ambient budget.  Yields the
    metrics registry (or ``None``) so handlers can report counters.

    Reports are emitted in a ``finally`` block: a budget trip (exit
    code 3) still flushes the slow log and trace — those artifacts
    matter *most* for the queries that blew their budget.
    """
    trace_target = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    prom_target = getattr(args, "prom", None)
    slowlog_target = getattr(args, "slow_log", None)
    profile_target = getattr(args, "profile", None)
    verbose = getattr(args, "verbose", False)
    tracer = RecordingTracer() if trace_target else None
    registry = (
        MetricsRegistry()
        if (want_metrics or prom_target or verbose)
        else None
    )
    slowlog = (
        SlowQueryLog(threshold_ms=getattr(args, "slow_ms", None))
        if slowlog_target
        else None
    )
    profiler = SpanProfiler(inner=tracer) if profile_target else None
    budget = _budget_from(args)
    try:
        with contextlib.ExitStack() as stack:
            if profiler is not None:
                stack.enter_context(use_tracer(profiler))
            elif tracer is not None:
                stack.enter_context(use_tracer(tracer))
            if registry is not None:
                stack.enter_context(use_metrics(registry))
            if slowlog is not None:
                stack.enter_context(use_slowlog(slowlog))
            if budget is not None:
                stack.enter_context(use_budget(budget))
            yield registry
    finally:
        if tracer is not None:
            if trace_target == "-":
                print(tracer.render())
            else:
                count = tracer.write_jsonl(trace_target)
                print(f"[trace: {count} event(s) written to {trace_target}]")
        if profiler is not None:
            if profile_target == "-":
                print(profiler.report())
            else:
                count = profiler.write_collapsed(profile_target)
                print(
                    f"[profile: {count} collapsed stack(s) written to "
                    f"{profile_target}]"
                )
        if slowlog is not None:
            if slowlog_target == "-":
                print(slowlog.render())
            else:
                count = slowlog.write_jsonl(slowlog_target)
                print(
                    f"[slow-log: {count} entr"
                    f"{'y' if count == 1 else 'ies'} written to "
                    f"{slowlog_target}]"
                )
        if prom_target is not None:
            if prom_target == "-":
                sys.stdout.write(render_prometheus(registry))
            else:
                count = write_prometheus(registry, prom_target)
                print(f"[prom: {count} line(s) written to {prom_target}]")
        if want_metrics and registry is not None:
            print(json.dumps(registry.as_dict(), indent=2, sort_keys=True))


def _cmd_complete(args: argparse.Namespace) -> int:
    schema = _load_schema_arg(args)
    knowledge = (
        DomainKnowledge.excluding(*args.exclude)
        if args.exclude
        else DomainKnowledge.none()
    )
    with _observability(args) as registry:
        compiled = compile_schema(schema, domain_knowledge=knowledge)
        engine = Disambiguator(compiled, e=args.e)
        batch = engine.complete_batch(args.expression)
        for index, result in enumerate(batch):
            if index:
                print()
            print(format_result(result, verbose=args.verbose))
        if args.verbose:
            print(
                f"[compiled {compiled.fingerprint[:16]}... in "
                f"{compiled.compile_seconds * 1000:.1f}ms]"
            )
            info = engine.cache_info()
            print(
                f"[cache: {info['hits']:.0f} hit(s) / "
                f"{info['misses']:.0f} miss(es), "
                f"size {info['size']:.0f}/{info['maxsize']:.0f}]"
            )
            if registry is not None:
                trips = registry.counter("budget.trips").value
                degrades = registry.counter("budget.degrades").value
                print(
                    f"[budget: {trips:.0f} trip(s), "
                    f"{degrades:.0f} degrade(s)]"
                )
    return 0 if all(result.paths for result in batch) else 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    schema = _load_schema_arg(args)
    expression = parse_path_expression(args.expression)
    if not expression.is_simple_incomplete:
        print(
            "enumerate expects the simple incomplete form  root ~ name",
            file=sys.stderr,
        )
        return 2
    graph = SchemaGraph(schema)
    paths = enumerate_consistent_paths(
        graph,
        expression.root,
        RelationshipTarget(expression.last_name),
        max_paths=args.limit,
        max_visits=args.limit * 100 if args.limit else None,
    )
    for path in paths:
        print(f"{path}  {path.label()}")
    suffix = " (truncated)" if args.limit and len(paths) >= args.limit else ""
    print(f"-- {len(paths)} consistent acyclic path(s){suffix}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    schema = _load_schema_arg(args)
    print(profile_schema(schema).render())
    print(f"fingerprint: {schema.fingerprint()}")
    if args.suggest_hubs:
        hubs = suggest_hub_exclusions(schema)
        if hubs:
            print("suggested auxiliary-class exclusions: " + ", ".join(hubs))
        else:
            print("no auxiliary hub candidates found")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    database = load_database(args.db)
    with _observability(args):
        result = run_query(database, args.query)
        for expression, values in result.per_completion:
            rendered = sorted(map(str, values)) if values else "(empty)"
            print(f"{expression} = {rendered}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    schema = _load_schema_arg(args)
    if args.analyze:
        # EXPLAIN ANALYZE: re-run the search cold under an audit log
        # and print the decision tree plus the score decomposition.
        from repro.core.audit import audit_completion

        _, audit = audit_completion(
            compile_schema(schema), args.query, e=args.e
        )
        print(audit.render())
        if args.audit_out:
            count = audit.write_jsonl(args.audit_out)
            print(f"wrote {count} audit record(s) to {args.audit_out}")
        return 0
    if args.candidate is None:
        print(
            "error: a CANDIDATE is required unless --analyze is given",
            file=sys.stderr,
        )
        return 2
    engine = Disambiguator(schema, e=args.e)
    explanation = engine.explain(args.query, args.candidate)
    print(f"[{explanation.verdict}]")
    print(explanation.render())
    return 0


def _cmd_fox(args: argparse.Namespace) -> int:
    from repro.query.fox import run_fox

    database = load_database(args.db)
    with _observability(args):
        rows = run_fox(database, args.query)
        for row in rows:
            rendered = "  |  ".join(
                ", ".join(sorted(map(str, values))) if values else "(empty)"
                for values in row.values
            )
            print(f"{row.binding}: {rendered}")
        print(f"-- {len(rows)} row(s)")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    source = Path(args.input)
    destination = Path(args.output)
    schema = (
        load_schema(source)
        if source.suffix == ".json"
        else parse_schema_dsl(source.read_text())
    )
    if destination.suffix == ".json":
        save_schema(schema, destination)
    else:
        destination.write_text(schema_to_dsl(schema))
    print(f"wrote {destination} ({schema.summary()})")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_all

    with _observability(args):
        run_all(quick=args.quick)
    return 0


def _cmd_designer(args: argparse.Namespace) -> int:
    from repro.experiments.designer import (
        compare_designer_modes,
        render_designer_session,
        run_designer_session,
    )

    with _observability(args):
        if args.mode == "both":
            incremental, rebuild = compare_designer_modes(e=args.e)
            print(render_designer_session(incremental, rebuild))
        else:
            result = run_designer_session(mode=args.mode, e=args.e)
            print(render_designer_session(result))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.__main__ import serve

    return serve(args)


def _parse_server_url(url: str) -> tuple[str, int]:
    from urllib.parse import urlsplit

    parts = urlsplit(url if "//" in url else f"http://{url}")
    if parts.hostname is None or parts.port is None:
        raise ReproError(
            f"--url must include host and port, got {url!r}"
        )
    return parts.hostname, parts.port


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient

    host, port = _parse_server_url(args.url)
    if args.action in ("complete", "query") and args.text is None:
        raise ReproError(f"{args.action!r} requires a text argument")
    client = ServeClient(host, port)
    if args.action == "complete":
        response = client.complete(
            args.text,
            tenant=args.tenant,
            e=args.e,
            deadline_ms=args.deadline_ms,
            max_nodes=args.max_nodes,
        )
    elif args.action == "query":
        response = client.query(
            args.text, tenant=args.tenant, deadline_ms=args.deadline_ms
        )
    elif args.action == "schemas":
        response = client.schemas()
    elif args.action == "healthz":
        response = client.healthz()
    elif args.action == "debug":
        response = client.debug()
    else:  # metrics
        print(client.metrics_text(), end="")
        return 0
    print(json.dumps(response.json, indent=2, sort_keys=True))
    if response.status == 206:
        return 3  # partial answer, same convention as budget trips
    return 0 if response.ok else 2


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Incomplete path expressions and their disambiguation "
            "(SIGMOD 1994 reproduction)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    complete = subparsers.add_parser(
        "complete", help="disambiguate (possibly incomplete) expressions"
    )
    _add_schema_options(complete)
    complete.add_argument("expression", nargs="+")
    complete.add_argument(
        "-e", type=int, default=1, help="AGG* relaxation parameter (>=1)"
    )
    complete.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="CLASS",
        help=(
            "domain knowledge: a class excluded from completions "
            "(repeatable)"
        ),
    )
    complete.add_argument("--verbose", action="store_true")
    _add_obs_options(complete)
    _add_budget_options(complete)
    complete.set_defaults(handler=_cmd_complete)

    enumerate_parser = subparsers.add_parser(
        "enumerate", help="list all consistent acyclic completions"
    )
    _add_schema_options(enumerate_parser)
    enumerate_parser.add_argument("expression")
    enumerate_parser.add_argument("--limit", type=int, default=1000)
    enumerate_parser.set_defaults(handler=_cmd_enumerate)

    profile = subparsers.add_parser(
        "profile", help="structural profile of a schema"
    )
    _add_schema_options(profile)
    profile.add_argument("--suggest-hubs", action="store_true")
    profile.set_defaults(handler=_cmd_profile)

    query = subparsers.add_parser(
        "query", help="run a query against a saved database"
    )
    query.add_argument("--db", required=True, metavar="FILE")
    query.add_argument("query")
    _add_obs_options(query)
    _add_budget_options(query)
    query.set_defaults(handler=_cmd_query)

    explain = subparsers.add_parser(
        "explain",
        help="why is a candidate completion (not) an answer to a query?",
    )
    _add_schema_options(explain)
    explain.add_argument("query", help="incomplete expression, e.g. 'ta ~ name'")
    explain.add_argument(
        "candidate",
        nargs="?",
        default=None,
        help="complete candidate expression (omit with --analyze)",
    )
    explain.add_argument("-e", type=int, default=1)
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="EXPLAIN ANALYZE: audit the full search and print the "
        "decision tree, cut totals, and per-edge score decomposition",
    )
    explain.add_argument(
        "--audit-out",
        metavar="FILE",
        default=None,
        help="with --analyze, also export the audit log as JSONL "
        "(validates against audit_record.schema.json)",
    )
    explain.set_defaults(handler=_cmd_explain)

    fox = subparsers.add_parser(
        "fox", help="run a for/where/select query against a saved database"
    )
    fox.add_argument("--db", required=True, metavar="FILE")
    fox.add_argument("query")
    _add_obs_options(fox)
    _add_budget_options(fox)
    fox.set_defaults(handler=_cmd_fox)

    convert = subparsers.add_parser(
        "convert", help="convert a schema between DSL and JSON"
    )
    convert.add_argument("input")
    convert.add_argument("output")
    convert.set_defaults(handler=_cmd_convert)

    experiments = subparsers.add_parser(
        "experiments", help="regenerate every figure of the paper"
    )
    experiments.add_argument("--quick", action="store_true")
    _add_obs_options(experiments)
    _add_budget_options(experiments)
    experiments.set_defaults(handler=_cmd_experiments)

    designer = subparsers.add_parser(
        "designer",
        help=(
            "run the scripted designer session (schema deltas: "
            "incremental maintenance vs rebuild-per-edit)"
        ),
    )
    designer.add_argument(
        "--mode",
        choices=("both", "incremental", "rebuild"),
        default="both",
        help="session mode(s) to run; 'both' also reports the speedup",
    )
    designer.add_argument(
        "-e", type=int, default=2, help="AGG* relaxation parameter (>=1)"
    )
    _add_obs_options(designer)
    designer.set_defaults(handler=_cmd_designer)

    from repro.serve.__main__ import add_arguments as _add_serve_arguments

    serve = subparsers.add_parser(
        "serve",
        help=(
            "run the always-on HTTP serving tier (admission control, "
            "load shedding, graceful drain)"
        ),
    )
    _add_serve_arguments(serve)
    serve.set_defaults(handler=_cmd_serve)

    client = subparsers.add_parser(
        "client", help="talk to a running serving tier (with retries)"
    )
    client.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="server address (default http://127.0.0.1:8080)",
    )
    client.add_argument(
        "action",
        choices=(
            "complete",
            "query",
            "schemas",
            "healthz",
            "debug",
            "metrics",
        ),
    )
    client.add_argument(
        "text",
        nargs="?",
        default=None,
        help="expression (complete) or query text (query)",
    )
    client.add_argument("--tenant", default=None)
    client.add_argument("-e", type=int, default=1)
    client.add_argument("--deadline-ms", type=float, default=None)
    client.add_argument("--max-nodes", type=int, default=None)
    client.set_defaults(handler=_cmd_client)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as error:
        print(f"error: {error}", file=sys.stderr)
        partial = error.partial
        if partial is not None and getattr(partial, "paths", ()):
            print(
                "best-so-far candidates (re-run with --partial-ok to "
                "accept them):",
                file=sys.stderr,
            )
            for path in partial.paths:
                print(f"  {path}", file=sys.stderr)
        return 3
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
