"""Soak: resident state stays bounded across hundreds of schema edits.

Every ``evolve`` registers a new artifact and a new closure.  The compile
registry and the closure content cache are LRUs bounded by module
constants, so a long editing session keeps at most that many superseded
artifacts alive, and traced memory stops growing once the bounds fill.
The edit stream is the designer-edit benchmark's planner on CUPID.
"""

import gc
import random
import tracemalloc
import weakref

from benchmarks.e2e.workloads import EditPlanner
from repro.core.closure import CLOSURE_CACHE_SIZE, SchemaClosure
from repro.core.compiled import (
    REGISTRY_SIZE,
    CompiledSchema,
    invalidate,
    registry_size,
)
from repro.core.engine import Disambiguator
from repro.schemas.cupid import build_cupid_schema

EDITS = 600
CHECKPOINT = 150
QUERIES = ("scientist ~ name", "leaf ~ area")
#: Allowed growth of traced memory from the 150th to the 600th edit.
#: Unbounded, each edit leaked its artifact (~65 KB): 10.5 MB at 150
#: edits grew to 39.4 MB at 600.  Bounded, the growth measures ~0.2 MB.
GROWTH_BOUND_BYTES = 1_000_000


def answers(engine):
    return [
        [str(path) for path in engine.complete(query).paths]
        for query in QUERIES
    ]


def test_registry_and_closures_stay_at_their_bounds():
    invalidate()
    SchemaClosure.clear_cache()
    gc.collect()
    traced = {}
    evolved = weakref.WeakSet()
    tracemalloc.start()
    try:
        engine = Disambiguator(build_cupid_schema())
        planner = EditPlanner(random.Random(5))
        for edit in range(1, EDITS + 1):
            _, delta = planner.next_delta(engine.schema)
            engine = engine.evolved(delta)
            evolved.add(engine.compiled)
            warm = answers(engine)
            if edit in (CHECKPOINT, EDITS):
                gc.collect()
                traced[edit] = tracemalloc.get_traced_memory()[0]
                cold = Disambiguator(CompiledSchema(engine.schema.copy()))
                assert answers(cold) == warm, f"edit {edit}"
                del cold
    finally:
        tracemalloc.stop()
    try:
        assert registry_size() == REGISTRY_SIZE
        assert len(SchemaClosure._cache) == CLOSURE_CACHE_SIZE
        gc.collect()
        # Superseded artifacts are freed, not just unregistered.
        assert len(evolved) <= REGISTRY_SIZE
        growth = traced[EDITS] - traced[CHECKPOINT]
        assert growth < GROWTH_BOUND_BYTES, (
            f"traced memory grew {growth / 1e6:.2f} MB from edit "
            f"{CHECKPOINT} to {EDITS}"
        )
    finally:
        invalidate()
        SchemaClosure.clear_cache()
