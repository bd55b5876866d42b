"""Bench PR5 — closure-guided pruning.

Runs the ten CUPID workload queries cold on the *unrestricted* schema
(no domain-knowledge exclusions — that is where Algorithm 2 actually
hurts) twice per E: once on the paper's Algorithm 2 as published (the
verbatim loop kept as the test oracle, ``tests/reference_search.py``)
and once with ``pruning="closure"``.  The contract under test:

* the pruned pass returns byte-identical ranked paths and labels for
  every query at every E — admissibility, not approximation;
* at E=3 the pruned pass is at least 5x faster (measured ~10x); at
  lower E at least 2x (measured ~6x);
* registering the closure on the compiled artifact adds at most 30% to
  ``compile_seconds`` (the reach matrix and per-target tables are lazy,
  so the compile path only pays the index build — well under 1%);
* even the fully *eager* closure (reach + all ten target tables) costs
  less than the single unpruned cold pass it replaces.

Timings land in ``BENCH_closure.json`` at the repo root and in the
``BENCH_history.jsonl`` perf ledger (gated by
``python -m repro.obs.perf compare`` in CI).  Set ``BENCH_QUICK=1`` (as
CI does) to run E=1 only.
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
from repro.core.compiled import CompiledSchema
from repro.core.engine import Disambiguator
from repro.core.target import RelationshipTarget
from tests.reference_search import reference_engine

_ROOT = pathlib.Path(__file__).parent.parent
_RESULT_FILE = _ROOT / "BENCH_closure.json"

QUICK = os.environ.get("BENCH_QUICK") == "1"
E_VALUES = (1,) if QUICK else (1, 2, 3)
#: Required cold-pass speedup of closure pruning over the verbatim
#: loop.  The acceptance bar is 5x at E=3; the lower-E bars are sanity
#: floors far below the measured ~6x.
MIN_SPEEDUP = {1: 2.0, 2: 2.0, 3: 5.0}
#: Closure registration may add at most this fraction to compile time.
MAX_COMPILE_OVERHEAD = 0.30


def _snapshots(batch) -> list[tuple]:
    """Everything a caller can observe about each ranked result."""
    return [
        (
            tuple(str(path) for path in result.paths),
            tuple(str(label) for label in result.labels),
            result.exhausted,
            result.truncation_reason,
        )
        for result in batch.results
    ]


def _cold_pass(engine, texts):
    """One genuinely cold batch: ``engine`` is on a fresh artifact with
    an empty completion cache."""
    start = time.perf_counter()
    batch = engine.complete_batch(texts)
    seconds = time.perf_counter() - start
    calls = sum(result.stats.recursive_calls for result in batch)
    pruned = sum(
        result.stats.nodes_pruned_reachability + result.stats.nodes_pruned_bound
        for result in batch
    )
    return batch, seconds, calls, pruned


def _closure_engine(schema, e):
    return Disambiguator(CompiledSchema(schema), e=e, pruning="closure")


@pytest.mark.benchmark(group="closure")
def test_closure_pruning_speedup(cupid, oracle):
    texts = [query.text for query in oracle.queries]

    lines = [
        f"workload: {len(texts)} CUPID queries, unrestricted schema"
        + (" (quick mode)" if QUICK else "")
    ]
    by_e = {}
    for e in E_VALUES:
        reference, none_seconds, none_calls, _ = _cold_pass(
            reference_engine(cupid, e=e), texts
        )
        pruned, closure_seconds, closure_calls, cuts = _cold_pass(
            _closure_engine(cupid, e), texts
        )
        speedup = (
            none_seconds / closure_seconds
            if closure_seconds > 0
            else float("inf")
        )
        assert _snapshots(pruned) == _snapshots(reference)
        assert closure_calls < none_calls
        assert cuts > 0
        assert speedup >= MIN_SPEEDUP[e], (
            f"E={e}: {speedup:.2f}x < {MIN_SPEEDUP[e]}x "
            f"({none_seconds * 1000:.0f}ms -> {closure_seconds * 1000:.0f}ms)"
        )
        by_e[e] = {
            "none_seconds": none_seconds,
            "closure_seconds": closure_seconds,
            "speedup": speedup,
            "none_calls": none_calls,
            "closure_calls": closure_calls,
            "nodes_pruned": cuts,
        }
        # The ledger series for the pruned pass is the *steady-state*
        # cold cost: a second fresh artifact whose closure tables are
        # already shared by fingerprint (a long-lived process pays the
        # ~20ms table build once ever, and its variance would dominate
        # a 25%-tolerance gate on a ~50ms series).  The first-touch
        # pass above keeps the assertions honest.
        _, steady_seconds, _, _ = _cold_pass(_closure_engine(cupid, e), texts)
        # E is part of the series name: the ledger's regression gate
        # medians by name, and mixing E levels would blur the baseline.
        # (The speedup itself is not a gated series — "faster than the
        # baseline" would read as a regression — it is derivable from
        # the two timing series and asserted directly above.)
        record_bench(
            f"closure.none_seconds_e{e}", none_seconds, quick=QUICK
        )
        record_bench(
            f"closure.pruned_seconds_e{e}", steady_seconds, quick=QUICK
        )
        by_e[e]["steady_seconds"] = steady_seconds
        lines.append(
            f"E={e}: none {none_seconds * 1000:8.1f} ms "
            f"({none_calls} calls) | closure "
            f"{closure_seconds * 1000:8.1f} ms ({closure_calls} calls, "
            f"{cuts} cuts) | {speedup:5.2f}x "
            f"(required >= {MIN_SPEEDUP[e]:.0f}x)"
        )

    # ------------------------------------------------------------------
    # Compile-time overhead: the closure registered on a fresh artifact
    # must not inflate compile_seconds (reach/tables are lazy), and even
    # built eagerly it must cost less than the unpruned pass it replaces.
    # ------------------------------------------------------------------
    SchemaClosure.clear_cache()
    compiled = CompiledSchema(cupid)
    register_seconds = compiled.closure.build_seconds
    overhead = register_seconds / compiled.compile_seconds
    assert overhead <= MAX_COMPILE_OVERHEAD, (
        f"closure registration is {overhead:.1%} of compile "
        f"(limit {MAX_COMPILE_OVERHEAD:.0%})"
    )
    start = time.perf_counter()
    _ = compiled.closure.reach
    for text in texts:
        relationship = text.split("~")[-1].strip()
        assert compiled.closure.tables_for(RelationshipTarget(relationship))
    eager_seconds = time.perf_counter() - start
    slowest_none = max(point["none_seconds"] for point in by_e.values())
    assert eager_seconds < slowest_none
    # Not ledger series: both are microsecond/millisecond-scale numbers
    # whose scheduler noise dwarfs the 25% gate; the assertions above
    # and BENCH_closure.json carry them instead.
    lines.append(
        f"compile: {compiled.compile_seconds * 1000:8.2f} ms | closure "
        f"registration {register_seconds * 1000:8.3f} ms "
        f"({overhead:.1%}, limit {MAX_COMPILE_OVERHEAD:.0%}) | eager "
        f"reach+tables {eager_seconds * 1000:8.2f} ms"
    )

    record = {
        "schema": "cupid (unrestricted)",
        "quick": QUICK,
        "queries": len(texts),
        "by_e": {str(e): point for e, point in by_e.items()},
        "compile_seconds": compiled.compile_seconds,
        "closure_register_seconds": register_seconds,
        "closure_eager_build_seconds": eager_seconds,
        "python": platform.python_version(),
    }
    _RESULT_FILE.write_text(json.dumps(record, indent=2) + "\n")
    emit("Closure-guided pruning: cold workload, pruned vs reference", "\n".join(lines))
