"""Bench PR10 — the flat search kernel.

The flat kernel — the closure-mode search loop — runs the cold CUPID
E=3 workload (the same ten queries ``bench_closure.py`` uses,
unrestricted schema).  It is timed on the steady-state cold pass
(completion cache cleared, per-target tables warm — a long-lived
process pays the table builds once ever, and bench_closure asserts
those cheap separately) into the ``kernel.flat_seconds_e3`` ledger
series, and its ranked paths and labels must equal those of the
paper's Algorithm 2 run verbatim (the test oracle,
``tests/reference_search.py``) for every query.

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
from repro.core.compiled import CompiledSchema
from repro.core.engine import Disambiguator
from tests.reference_search import reference_engine

_ROOT = pathlib.Path(__file__).parent.parent
_RESULT_FILE = _ROOT / "BENCH_kernel.json"

QUICK = os.environ.get("BENCH_QUICK") == "1"
E = 3
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
    reference = reference_engine(cupid, e=E).complete_batch(texts)
    assert _snapshots(flat) == _snapshots(reference)

    record_bench(f"kernel.flat_seconds_e{E}", flat_seconds, quick=QUICK)
    lines.append(f"kernel: flat {flat_seconds * 1000:8.1f} ms")

    record = {
        "schema": "cupid (unrestricted)",
        "quick": QUICK,
        "queries": len(texts),
        "e": E,
        "kernel": {"flat_seconds": flat_seconds},
        "python": platform.python_version(),
    }
    _RESULT_FILE.write_text(json.dumps(record, indent=2) + "\n")
    emit("Flat kernel: cold CUPID workload", "\n".join(lines))
