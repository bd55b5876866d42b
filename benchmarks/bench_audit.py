"""Bench E7 — the search audit log (EXPLAIN ANALYZE) under CUPID.

Three contracts, measured over the ten-query Section 5 workload:

* the *disabled* audit leaves the cold search hot path intact — the
  per-decision-point guard cost is bounded under 5% of a cold
  completion (asserted here and in ``tests/core/test_audit.py``), and
  the cold completion time itself lands in the ``BENCH_history.jsonl``
  ledger so ``python -m repro.obs.perf compare`` gates regressions the
  instrumentation might introduce;
* the *enabled* audit records the full decision stream: the exported
  ``BENCH_audit.jsonl`` validates against ``audit_record.schema.json``
  and reconstructs to the exact walk order;
* the cross-mode diff sweep (every workload query under
  ``pruning=closure`` vs ``pruning=none`` at E=1..3, E=1 under
  ``BENCH_QUICK``) proves record-by-record that results are identical
  and every closure divergence is an admissible cut.
"""

from __future__ import annotations

import os
import pathlib
import time

import pytest

from benchmarks.conftest import emit, record_bench
from repro.core.audit import (
    SearchAuditLog,
    audit_completion,
    diff_modes,
    get_audit,
    reconstruct_tree,
    use_audit,
)
from repro.core.compiled import CompiledSchema, compile_schema
from repro.core.target import RelationshipTarget
from repro.obs.schema import validate_audit_records

_ROOT = pathlib.Path(__file__).parent.parent
_AUDIT_FILE = _ROOT / "BENCH_audit.jsonl"

QUICK = os.environ.get("BENCH_QUICK") == "1"
E_MAX = 1 if QUICK else 3
EXPORT_QUERY = "experiment ~ conductance"


def _median_cold_seconds(searcher, root, target, runs: int = 5) -> float:
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        searcher.run(root, target)
        samples.append(time.perf_counter() - start)
    return sorted(samples)[len(samples) // 2]


@pytest.mark.benchmark(group="search-audit")
def test_audit_overhead_and_export(cupid):
    compiled = CompiledSchema(cupid)
    searcher = compiled.searcher(e=E_MAX)
    target = RelationshipTarget("conductance")

    cold_seconds = _median_cold_seconds(searcher, "experiment", target)

    # Disabled-path bound: the guard is a hoisted local bool per
    # decision point; charge the measured contextvar-read cost (a
    # strict overestimate) at four checks per recursive call, edge,
    # and completing edge.
    audit = get_audit()
    audit_on = audit.enabled
    iterations = 200_000
    start = time.perf_counter()
    for _ in range(iterations):
        if audit_on:  # pragma: no cover - never taken
            audit.record("x")
    guarded = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(iterations):
        pass
    per_check = max(guarded - (time.perf_counter() - start), 0.0) / iterations
    stats = searcher.run("experiment", target).stats
    checks = 4 * (
        stats.recursive_calls
        + stats.edges_considered
        + stats.complete_paths_found
    ) + 128
    noop_fraction = (checks * per_check) / cold_seconds
    assert noop_fraction < 0.05, (
        f"disabled-audit overhead {noop_fraction:.1%} of a cold completion"
    )

    # Enabled cost: the same cold search under a recording log.
    start = time.perf_counter()
    with use_audit(SearchAuditLog()):
        searcher.run("experiment", target)
    enabled_seconds = time.perf_counter() - start

    # Export one full audited completion and prove the stream is both
    # schema-valid and loss-free (reconstructs the walk order).
    _, log = audit_completion(compile_schema(cupid), EXPORT_QUERY, e=E_MAX)
    records = log.to_records()
    validate_audit_records(records)
    reconstruct_tree(records)  # raises if the stream is inconsistent
    count = log.write_jsonl(_AUDIT_FILE)

    record_bench("audit.cold_seconds", cold_seconds, e=E_MAX, quick=QUICK)
    record_bench(
        "audit.noop_overhead_fraction",
        noop_fraction,
        unit="fraction",
        e=E_MAX,
        quick=QUICK,
    )
    record_bench(
        "audit.enabled_seconds", enabled_seconds, e=E_MAX, quick=QUICK
    )

    emit(
        "Search audit: disabled-path bound + audited export",
        "\n".join(
            [
                f"cold completion ({EXPORT_QUERY!r}, E={E_MAX}): "
                f"{cold_seconds * 1000:.2f} ms",
                f"disabled-audit bound: {noop_fraction:.2%} of cold "
                "(< 5% asserted)",
                f"enabled audit:        {enabled_seconds * 1000:.2f} ms "
                f"({len(records)} records)",
                f"export: {count} schema-valid record(s) -> "
                f"{_AUDIT_FILE.name}",
            ]
        ),
    )


@pytest.mark.benchmark(group="search-audit")
def test_cross_mode_diff_sweep(cupid, oracle):
    texts = [query.text for query in oracle.queries]
    diffs = []
    start = time.perf_counter()
    for e in range(1, E_MAX + 1):
        for text in texts:
            diff = diff_modes(cupid, text, e=e)
            assert diff.ok, diff.render()
            diffs.append(diff)
    sweep_seconds = time.perf_counter() - start

    explained = sum(len(diff.explained) for diff in diffs)
    saved = sum(
        diff.none_expansions - diff.closure_expansions for diff in diffs
    )
    record_bench(
        "audit.diff_sweep_seconds",
        sweep_seconds,
        e_max=E_MAX,
        combos=len(diffs),
        quick=QUICK,
    )
    emit(
        "Search audit: none-vs-closure diff sweep",
        "\n".join(
            [
                f"{len(diffs)} query/E combination(s) at E=1..{E_MAX}: "
                "all identical, zero unexplained divergences",
                f"{explained} divergence(s), every one an admissible "
                f"recorded cut; {saved} expansions saved by the closure "
                "loop overall",
                f"sweep time: {sweep_seconds:.1f} s",
            ]
        ),
    )
