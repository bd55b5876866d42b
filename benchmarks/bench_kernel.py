"""Bench PR10 — the flat search kernel and process-pool sharded batches.

Two contracts over the cold CUPID E=3 workload (the same ten queries
``bench_closure.py`` uses, unrestricted schema):

* the flat kernel — the closure-mode search loop — is timed on the
  steady-state cold pass (completion cache cleared, per-target tables
  warm — a long-lived process pays the table builds once ever, and
  bench_closure asserts those cheap separately) into the
  ``kernel.flat_seconds_e3`` ledger series, and its ranked paths and
  labels must equal those of the paper's Algorithm 2 run verbatim
  (``pruning="none"``) for every query;
* ``complete_batch(jobs=4, executor="process")`` is at least **2x**
  faster than the sequential pass on machines with 3+ cores.  On two
  cores 2x is the zero-overhead theoretical ceiling, so the bar there
  is a 1.35x floor (fork + per-worker compile are real costs the
  ledger keeps visible); on one core the comparison is *skipped, not
  faked* — a process pool cannot beat sequential without parallel
  hardware, and pretending otherwise would poison the ledger baseline.

Timings land in ``BENCH_kernel.json`` at the repo root and in the
``BENCH_history.jsonl`` perf ledger (gated by
``python -m repro.obs.perf compare`` in CI).  ``BENCH_QUICK=1`` keeps
E=3 (the contract is about the cold hot-path, quick mode cannot water
it down) but drops the repetition count.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time

import pytest

from benchmarks.conftest import emit, record_bench
from repro.core import compiled as compiled_registry
from repro.core.compiled import CompiledSchema
from repro.core.engine import Disambiguator

_ROOT = pathlib.Path(__file__).parent.parent
_RESULT_FILE = _ROOT / "BENCH_kernel.json"

QUICK = os.environ.get("BENCH_QUICK") == "1"
E = 3
#: Required process-pool speedup over sequential, by available cores.
#: 2x needs at least 3 cores to be a fair bar (on 2 cores it is the
#: zero-overhead ceiling); 2-core machines get a floor that still
#: proves genuine overlap.  One core skips — see the module docstring.
MIN_PROCESS_SPEEDUP_3PLUS = 2.0
MIN_PROCESS_SPEEDUP_2 = 1.35
#: Cold passes per timed variant; the minimum is reported (standard
#: practice for CPU-bound microbenchmarks — the min is the least-noisy
#: estimate of the true cost).
REPEATS = 2 if QUICK else 3


def _snapshots(batch) -> list[tuple]:
    """Everything a caller can observe about each ranked result."""
    return [
        (
            tuple(str(path) for path in result.paths),
            tuple(str(label) for label in result.labels),
            tuple(str(label.semantic_length) for label in result.labels),
            result.exhausted,
            result.truncation_reason,
        )
        for result in batch.results
    ]


def _cold_pass(schema, texts, jobs=1, executor=None):
    """One genuinely cold batch: fresh artifact, empty completion cache.

    With ``executor="process"`` the compile registry is cleared first so
    forked workers cannot inherit a warm artifact.
    """
    if executor == "process":
        compiled_registry.invalidate()
    engine = Disambiguator(CompiledSchema(schema), e=E)
    start = time.perf_counter()
    batch = engine.complete_batch(texts, jobs=jobs, executor=executor)
    seconds = time.perf_counter() - start
    return batch, seconds


def _steady_cold_passes(schema, texts):
    """Cold completions against warm per-target tables, best of REPEATS.

    A throwaway first pass builds the closure tables exactly as a
    long-lived serving process would, then each timed pass clears the
    completion cache so every query's *search* runs cold.  This is the
    steady-state cold cost — the same first-touch/steady split
    ``bench_closure.py`` uses for its ledger series — and it is the
    regime the kernel series is about: the expansion loop, not the
    once-per-process table builds (those are asserted cheap in
    bench_closure).
    """
    engine = Disambiguator(CompiledSchema(schema), e=E)
    batch = engine.complete_batch(texts)  # warm tables, throwaway timing
    best = None
    for _ in range(REPEATS):
        engine.compiled.cache.clear()
        start = time.perf_counter()
        batch = engine.complete_batch(texts)
        seconds = time.perf_counter() - start
        best = seconds if best is None else min(best, seconds)
    return batch, best


def _best_of(repeats, run):
    """The fastest pass and its batch (first batch kept for snapshots)."""
    batch, best = run()
    for _ in range(repeats - 1):
        _, seconds = run()
        best = min(best, seconds)
    return batch, best


@pytest.mark.benchmark(group="kernel")
def test_flat_kernel_cold_pass(cupid, oracle):
    texts = [query.text for query in oracle.queries]
    lines = [
        f"workload: {len(texts)} CUPID queries, unrestricted schema, "
        f"E={E}, best of {REPEATS}"
    ]

    flat, flat_seconds = _steady_cold_passes(cupid, texts)

    # Answers first: ranked paths, labels, semantic lengths, and the
    # anytime flags must be those of the paper's Algorithm 2 run
    # verbatim.  A fast wrong kernel is worthless.
    reference = Disambiguator(
        CompiledSchema(cupid), e=E, pruning="none"
    ).complete_batch(texts)
    assert _snapshots(flat) == _snapshots(reference)

    record_bench(f"kernel.flat_seconds_e{E}", flat_seconds, quick=QUICK)
    lines.append(f"kernel: flat {flat_seconds * 1000:8.1f} ms")

    # ------------------------------------------------------------------
    # Process-pool sharded batch vs sequential.  Skipped — not faked —
    # on one core.
    # ------------------------------------------------------------------
    cores = os.cpu_count() or 1
    sequential, seq_seconds = _best_of(
        REPEATS, lambda: _cold_pass(cupid, texts)
    )
    record_bench(
        f"kernel.batch_seq_seconds_e{E}", seq_seconds, quick=QUICK
    )
    process_point = None
    if cores >= 2:
        process, proc_seconds = _best_of(
            REPEATS,
            lambda: _cold_pass(cupid, texts, jobs=4, executor="process"),
        )
        assert _snapshots(process) == _snapshots(sequential)
        proc_speedup = (
            seq_seconds / proc_seconds if proc_seconds > 0 else float("inf")
        )
        required = (
            MIN_PROCESS_SPEEDUP_3PLUS if cores >= 3 else MIN_PROCESS_SPEEDUP_2
        )
        assert proc_speedup >= required, (
            f"process jobs=4 {proc_speedup:.2f}x < {required}x on "
            f"{cores} core(s) ({seq_seconds * 1000:.0f}ms -> "
            f"{proc_seconds * 1000:.0f}ms)"
        )
        record_bench(
            f"kernel.batch_process_jobs4_seconds_e{E}",
            proc_seconds,
            quick=QUICK,
            cores=cores,
        )
        lines.append(
            f"batch: sequential {seq_seconds * 1000:8.1f} ms | process "
            f"jobs=4 {proc_seconds * 1000:8.1f} ms | {proc_speedup:5.2f}x "
            f"(required >= {required}x on {cores} cores)"
        )
        process_point = {
            "process_jobs4_seconds": proc_seconds,
            "speedup": proc_speedup,
            "required": required,
        }
    else:
        lines.append(
            f"batch: sequential {seq_seconds * 1000:8.1f} ms | process "
            f"comparison skipped on {cores} core (no parallel hardware "
            f"to measure)"
        )

    record = {
        "schema": "cupid (unrestricted)",
        "quick": QUICK,
        "queries": len(texts),
        "e": E,
        "kernel": {"flat_seconds": flat_seconds},
        "batch": {
            "sequential_seconds": seq_seconds,
            "cores": cores,
            **(process_point or {"process_jobs4_seconds": None}),
        },
        "python": platform.python_version(),
    }
    _RESULT_FILE.write_text(json.dumps(record, indent=2) + "\n")
    emit(
        "Flat kernel + process-pool batches: cold CUPID workload",
        "\n".join(lines),
    )
