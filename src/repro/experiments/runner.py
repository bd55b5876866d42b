"""Run every experiment and print the paper-vs-measured report.

``python -m repro.experiments.runner`` regenerates, in order:

* Figure 5 (average recall vs E),
* Figure 6 (average precision vs E, with/without domain knowledge),
* Figure 7 (response time per query at E=5),
* the Section 5.3 in-text statistics,
* the worked examples of Sections 1-2 on the university schema,
* ablations A1 (order variants), A2 (caution sets), A4 (vs exhaustive),
* the designer session (schema deltas vs rebuild-per-edit),
* the search-audit check: every divergence of the closure-pruned
  search from the unpruned one is an admissible cut, and every ranked completion's
  per-edge score decomposition re-sums to its semantic length.

A full run takes a few minutes (Figure 7 at E=5 dominates); pass
``--quick`` to sweep E only to 3 and reuse it for Figure 7.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.core.compiled import compile_schema
from repro.core.engine import Disambiguator
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry, get_metrics, use_metrics
from repro.obs.schema import validate_metrics_summary
from repro.obs.slowlog import get_slowlog
from repro.experiments.ablation import (
    run_caution_ablation,
    run_exhaustive_comparison,
    run_order_ablation,
)
from repro.experiments.figure5 import render_figure5, run_figure5
from repro.experiments.figure6 import render_figure6, run_figure6
from repro.experiments.figure7 import render_figure7, run_figure7
from repro.experiments.intext import render_intext_stats, run_intext_stats
from repro.experiments.reporting import table
from repro.experiments.workload import (
    build_cupid_workload,
    designer_domain_knowledge,
)
from repro.schemas.cupid import build_cupid_schema
from repro.schemas.university import build_university_schema

__all__ = ["run_all", "main"]


def _banner(title: str) -> str:
    rule = "=" * 72
    return f"\n{rule}\n{title}\n{rule}"


def run_all(
    quick: bool = False,
    out=sys.stdout,
    csv_dir: str | None = None,
) -> None:
    """Run every experiment, streaming the report to ``out``.

    With ``csv_dir`` set, the Figure 5/6/7 series are also exported as
    CSV files into that directory (created if needed).

    The whole run records into a :mod:`repro.obs` metrics registry (the
    ambient one if a caller installed one, a fresh one otherwise) and
    ends with its schema-validated summary, so every figure report
    carries the accumulated traversal/prune/cache counters behind it.
    """
    registry = get_metrics()
    if registry.is_noop:
        registry = MetricsRegistry()
    with use_metrics(registry):
        _run_all_inner(quick=quick, out=out, csv_dir=csv_dir)
    slowlog = get_slowlog()
    if slowlog.enabled and len(slowlog.entries()) > 0:
        print(_banner("Slow queries (tail-based log)"), file=out)
        print(slowlog.render(limit=10), file=out)
    print(_banner("Metrics summary (repro.obs)"), file=out)
    summary = registry.as_dict()
    validate_metrics_summary(summary)
    print(json.dumps(summary, indent=2, sort_keys=True), file=out)


#: Per-query retry count for the figure workloads (transient failures
#: — injected chaos faults, deadline trips under load — often clear).
_QUERY_RETRIES = 1


def _run_all_inner(
    quick: bool = False,
    out=sys.stdout,
    csv_dir: str | None = None,
) -> None:
    started = time.perf_counter()
    schema = build_cupid_schema()
    oracle = build_cupid_workload()
    knowledge = designer_domain_knowledge()
    e_values = (1, 2, 3) if quick else (1, 2, 3, 4, 5)
    figure7_e = 3 if quick else 5

    #: (where, error text) pairs for the end-of-report failure section.
    failures: list[tuple[str, str]] = []

    def harvest(section: str, outcomes) -> None:
        """Collect per-query failures a continue-on-error workload ate."""
        for outcome in outcomes:
            if outcome.failed:
                failures.append(
                    (
                        f"{section}: {outcome.query.query_id} "
                        f"(E={outcome.e})",
                        outcome.error,
                    )
                )

    def guarded(section: str, body):
        """Run one report section; a ReproError fails the section, not
        the whole experiment run."""
        try:
            return body()
        except ReproError as error:
            failures.append((section, f"{type(error).__name__}: {error}"))
            print(f"!! section failed: {error}", file=out)
            return None

    export_to = None
    if csv_dir is not None:
        from pathlib import Path

        export_to = Path(csv_dir)
        export_to.mkdir(parents=True, exist_ok=True)

    # Compile once; every figure, ablation, and engine below shares these
    # two artifacts (with/without domain knowledge) through the registry.
    compiled = compile_schema(schema)
    compiled_with_knowledge = compile_schema(schema, domain_knowledge=knowledge)

    print(_banner("Schema under test"), file=out)
    print(schema.summary(), file=out)
    print(
        f"compiled fingerprint {compiled.fingerprint[:16]}... in "
        f"{compiled.compile_seconds * 1000:.1f}ms "
        f"(+{compiled_with_knowledge.compile_seconds * 1000:.1f}ms with "
        "domain knowledge)",
        file=out,
    )

    print(_banner("Workload (the ten ad-hoc incomplete path expressions)"), file=out)
    print(
        table(
            ["id", "query", "|U0|", "note"],
            [
                (
                    query.query_id,
                    query.text,
                    len(query.intended),
                    query.note,
                )
                for query in oracle
            ],
        ),
        file=out,
    )

    print(_banner("Figure 5: average recall vs E"), file=out)

    def _figure5():
        result = run_figure5(
            schema,
            oracle,
            e_values,
            continue_on_error=True,
            retries=_QUERY_RETRIES,
        )
        for point in result.points:
            harvest("figure5", point.outcomes)
        print(render_figure5(result), file=out)
        return result

    figure5 = guarded("figure5", _figure5)

    print(_banner("Figure 6: average precision vs E"), file=out)

    def _figure6():
        result = run_figure6(
            schema,
            oracle,
            knowledge,
            e_values,
            continue_on_error=True,
            retries=_QUERY_RETRIES,
        )
        for point in result.without_dk + result.with_dk:
            harvest("figure6", point.outcomes)
        print(render_figure6(result), file=out)
        return result

    figure6 = guarded("figure6", _figure6)

    print(_banner(f"Figure 7: response time per query (E={figure7_e})"), file=out)

    def _figure7():
        result = run_figure7(
            schema,
            oracle,
            e=figure7_e,
            continue_on_error=True,
            retries=_QUERY_RETRIES,
        )
        harvest("figure7", result.outcomes)
        print(render_figure7(result), file=out)
        return result

    figure7 = guarded("figure7", _figure7)

    if export_to is not None and None not in (figure5, figure6, figure7):
        from repro.experiments.export import (
            export_figure6_csv,
            export_figure7_csv,
            export_sweep_csv,
        )

        export_sweep_csv(figure5.points, export_to / "figure5_recall.csv")
        export_figure6_csv(figure6, export_to / "figure6_precision.csv")
        export_figure7_csv(figure7, export_to / "figure7_response_time.csv")
        print(f"\nCSV series written to {export_to}", file=out)

    print(_banner("In-text statistics"), file=out)
    cap = 50_000 if quick else 200_000
    guarded(
        "in-text statistics",
        lambda: print(
            render_intext_stats(
                run_intext_stats(schema, oracle, enumeration_cap=cap)
            ),
            file=out,
        ),
    )

    print(_banner("Worked examples (university schema, Sections 1-2)"), file=out)

    def _worked_examples():
        university = build_university_schema()
        engine = Disambiguator(university)
        result = engine.complete("ta ~ name")
        print("ta ~ name ->", file=out)
        for path in result.paths:
            print(f"  {path}  {path.label()}", file=out)

    guarded("worked examples", _worked_examples)

    print(_banner("Ablation A1: partial-order variants (E=1)"), file=out)

    def _ablation_a1():
        rows = run_order_ablation(schema, oracle, e=1)
        print(
            table(
                ["order", "avg recall", "avg precision", "avg |S|"],
                [
                    (
                        row.order_name,
                        f"{row.average_recall:.2f}",
                        f"{row.average_precision:.2f}",
                        f"{row.average_returned:.1f}",
                    )
                    for row in rows
                ],
            ),
            file=out,
        )

    guarded("ablation A1", _ablation_a1)

    print(_banner("Ablation A2: caution sets on/off (E=1)"), file=out)

    def _ablation_a2():
        caution_rows = run_caution_ablation(schema, oracle, e=1)
        print(
            table(
                ["query", "paths (caution)", "paths (no caution)", "lost"],
                [
                    (
                        row.query_id,
                        row.paths_with_caution,
                        row.paths_without_caution,
                        len(row.lost_paths),
                    )
                    for row in caution_rows
                ],
            ),
            file=out,
        )

    guarded("ablation A2", _ablation_a2)

    print(
        _banner(
            "Ablation A4: Algorithm 2 node visits vs (capped) candidate "
            "enumeration (E=1)"
        ),
        file=out,
    )

    def _ablation_a4():
        cap = 50_000 if quick else 200_000
        comparison = run_exhaustive_comparison(
            schema, oracle, e=1, enumeration_cap=cap, max_visits=cap * 10
        )
        print(
            table(
                ["query", "alg paths", "alg calls", "consistent paths (capped)"],
                [
                    (
                        row.query_id,
                        row.algorithm_paths,
                        row.algorithm_calls,
                        row.enumerated_paths,
                    )
                    for row in comparison
                ],
            ),
            file=out,
        )
        print(
            "(exact-agreement checking against full enumeration runs on the\n"
            " university schema in benchmarks/bench_vs_exhaustive.py; the\n"
            " CUPID-scale enumeration here is budget-capped, so only the\n"
            " node-visit advantage is meaningful)",
            file=out,
        )

    guarded("ablation A4", _ablation_a4)

    print(
        _banner("Designer session: schema deltas vs rebuild-per-edit"),
        file=out,
    )

    def _designer():
        from repro.experiments.designer import (
            compare_designer_modes,
            render_designer_session,
        )

        incremental, rebuild = compare_designer_modes()
        print(render_designer_session(incremental, rebuild), file=out)

    guarded("designer session", _designer)

    print(
        _banner("Search audit: closure cuts vs reference, score re-sum"),
        file=out,
    )

    def _audit():
        from repro.core.audit import decompose_path, diff_modes

        queries = [query.text for query in oracle]
        if quick:
            queries = queries[:3]
        all_ok = True
        for text in queries:
            diff = diff_modes(schema, text, e=1)
            all_ok = all_ok and diff.ok
            print(diff.render(), file=out)
        # Every ranked completion's per-edge deltas must telescope to
        # its reported semantic length (decompose_path raises if not).
        billed = 0
        for text in queries:
            result = compiled.complete_simple(
                *(part.strip() for part in text.split("~")), e=1
            )
            for path in result.paths:
                decompose_path(path)
                billed += 1
        print(
            f"score decomposition re-sums exactly for {billed} ranked "
            f"completion(s) across {len(queries)} queries",
            file=out,
        )
        if not all_ok:
            failures.append(
                ("search audit", "unexplained reference/closure divergence")
            )

    guarded("search audit", _audit)

    print(_banner("Failures"), file=out)
    if failures:
        print(
            table(
                ["where", "error"],
                [(where, text) for where, text in failures],
            ),
            file=out,
        )
        print(
            f"{len(failures)} failure(s); every other section completed "
            "(per-query failures were retried "
            f"{_QUERY_RETRIES} time(s) before being recorded)",
            file=out,
        )
    else:
        print("none — every section and query completed", file=out)

    info = compiled.cache_info()
    info_knowledge = compiled_with_knowledge.cache_info()
    print(
        "\ncompletion cache: "
        f"{info['hits']} hits / {info['misses']} misses (base), "
        f"{info_knowledge['hits']} hits / {info_knowledge['misses']} misses "
        "(with domain knowledge)",
        file=out,
    )
    print(
        f"total experiment time: {time.perf_counter() - started:.1f}s",
        file=out,
    )


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point for the experiments runner."""
    parser = argparse.ArgumentParser(
        description="Regenerate every figure and statistic of the paper."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="sweep E only to 3 (minutes -> seconds)",
    )
    parser.add_argument(
        "--csv-dir",
        metavar="DIR",
        help="also export the figure series as CSV files",
    )
    arguments = parser.parse_args(argv)
    run_all(quick=arguments.quick, csv_dir=arguments.csv_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
