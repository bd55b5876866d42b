"""Bench PR — schema deltas: incremental maintenance vs rebuild-per-edit.

Runs the scripted CUPID designer session (``repro.experiments.designer``)
once per mode (evolve each edit vs compile the edited schema cold) from
equally cold global caches.  The contract under
test:

* the incremental session is at least 5x faster end-to-end than
  rebuilding the compiled artifact after every edit (measured ~8-11x:
  module-local edits carry the completion cache, so the per-edit
  validation sweep stays warm instead of re-searching cold);
* both modes end at the same schema fingerprint, and every query step
  returns the same number of candidates in both modes (full byte
  identity of evolved completions is property-tested in
  ``tests/core/test_delta_fuzz.py``);
* a single module-local edit evolves the artifact in well under the
  cost of one cold recompile-plus-closure build.

Timings land in ``BENCH_delta.json`` at the repo root and in the
``BENCH_history.jsonl`` perf ledger (gated by
``python -m repro.obs.perf compare`` in CI).  Set ``BENCH_QUICK=1`` (as
CI does) to run one trial per mode instead of taking the best of three.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time

import pytest

from benchmarks.conftest import emit, record_bench
from repro.core.closure import SchemaClosure
from repro.core.compiled import CompiledSchema, invalidate
from repro.core.target import RelationshipTarget
from repro.experiments.designer import (
    compare_designer_modes,
    cupid_designer_script,
)
from repro.model.delta import AddClass, SchemaDelta

_ROOT = pathlib.Path(__file__).parent.parent
_RESULT_FILE = _ROOT / "BENCH_delta.json"

QUICK = os.environ.get("BENCH_QUICK") == "1"
TRIALS = 1 if QUICK else 3
#: Required end-to-end designer-session speedup of the incremental path
#: over rebuild-per-edit (acceptance bar; measured ~8-11x).
MIN_SPEEDUP = 5.0


@pytest.mark.benchmark(group="delta")
def test_designer_session_speedup(cupid):
    script = cupid_designer_script()
    edits = sum(1 for step in script if not isinstance(step, str))
    queries = len(script) - edits

    best: dict[str, object] = {}
    for _ in range(TRIALS):
        incremental, rebuild = compare_designer_modes(schema=cupid)
        if (
            not best
            or incremental.total_seconds
            < best["incremental"].total_seconds
        ):
            best = {"incremental": incremental, "rebuild": rebuild}
    incremental = best["incremental"]
    rebuild = best["rebuild"]

    speedup = (
        rebuild.total_seconds / incremental.total_seconds
        if incremental.total_seconds > 0
        else float("inf")
    )
    assert incremental.final_fingerprint == rebuild.final_fingerprint
    # Same candidates at every step — the cheap structural half of the
    # byte-identity contract (the fuzz suite asserts the full thing).
    for inc_step, reb_step in zip(incremental.steps, rebuild.steps):
        assert inc_step.kind == reb_step.kind
        assert inc_step.detail == reb_step.detail, (
            f"step {inc_step.index} ({inc_step.description!r}): "
            f"{inc_step.detail} candidates incrementally, "
            f"{reb_step.detail} on rebuild"
        )
    assert incremental.cache_hits > rebuild.cache_hits
    assert speedup >= MIN_SPEEDUP, (
        f"designer session: {speedup:.2f}x < {MIN_SPEEDUP}x "
        f"({rebuild.total_seconds * 1000:.0f}ms rebuild -> "
        f"{incremental.total_seconds * 1000:.0f}ms incremental)"
    )

    # ------------------------------------------------------------------
    # Micro: one module-local edit vs one cold recompile with an eager
    # reach build and one warm target table — the latency a live session
    # actually saves per edit (the evolve path *repairs* the table, the
    # cold path rebuilds it from scratch).
    # ------------------------------------------------------------------
    SchemaClosure.clear_cache()
    invalidate()
    target = RelationshipTarget("conductance")
    compiled = CompiledSchema(cupid)
    _ = compiled.closure.reach
    assert compiled.closure.tables_for(target)
    delta = SchemaDelta.of(AddClass("bench_probe_class"))
    start = time.perf_counter()
    evolved = compiled.evolve(delta)
    evolve_seconds = time.perf_counter() - start
    start = time.perf_counter()
    cold = CompiledSchema(evolved.schema)
    _ = cold.closure.reach
    assert cold.closure.tables_for(target)
    cold_seconds = time.perf_counter() - start
    assert evolve_seconds < cold_seconds, (
        f"evolving one class-add ({evolve_seconds * 1000:.2f}ms) should "
        f"beat a cold recompile + reach + table build "
        f"({cold_seconds * 1000:.2f}ms)"
    )

    # The two session totals are the gated ledger series; the speedup is
    # derivable and asserted directly (a faster-than-baseline run would
    # otherwise read as a regression of the ratio).
    record_bench(
        "delta.designer_incremental_seconds",
        incremental.total_seconds,
        quick=QUICK,
    )
    record_bench(
        "delta.designer_rebuild_seconds", rebuild.total_seconds, quick=QUICK
    )

    lines = [
        f"workload: scripted CUPID designer session — {edits} edits, "
        f"{queries} queries" + (" (quick mode)" if QUICK else ""),
        f"incremental: {incremental.total_seconds * 1000:8.1f} ms "
        f"(edits {incremental.edit_seconds * 1000:.1f} ms, queries "
        f"{incremental.query_seconds * 1000:.1f} ms, "
        f"{incremental.cache_hits}/{incremental.query_count} cache hits)",
        f"rebuild:     {rebuild.total_seconds * 1000:8.1f} ms "
        f"(edits {rebuild.edit_seconds * 1000:.1f} ms, queries "
        f"{rebuild.query_seconds * 1000:.1f} ms, "
        f"{rebuild.cache_hits}/{rebuild.query_count} cache hits)",
        f"session speedup: {speedup:5.2f}x (required >= {MIN_SPEEDUP:.0f}x)",
        f"single class-add: evolve {evolve_seconds * 1000:8.2f} ms vs cold "
        f"recompile+reach+table {cold_seconds * 1000:8.2f} ms",
    ]

    record = {
        "schema": "cupid",
        "quick": QUICK,
        "trials": TRIALS,
        "script": {"edits": edits, "queries": queries},
        "incremental_seconds": incremental.total_seconds,
        "rebuild_seconds": rebuild.total_seconds,
        "speedup": speedup,
        "incremental_cache_hits": incremental.cache_hits,
        "rebuild_cache_hits": rebuild.cache_hits,
        "evolve_class_add_seconds": evolve_seconds,
        "cold_recompile_seconds": cold_seconds,
        "final_fingerprint": incremental.final_fingerprint,
        "python": platform.python_version(),
    }
    _RESULT_FILE.write_text(json.dumps(record, indent=2) + "\n")
    emit(
        "Schema deltas: incremental maintenance vs rebuild-per-edit",
        "\n".join(lines),
    )
