"""The in-process workloads' child: the system process of batch-cold and
designer-edit.

``python -m benchmarks.e2e.inproc --workload W --seed N --seconds S
[--setup-only] [--spans PATH]``

Prints ``READY`` when set-up is done (imports, compile, first-touch
closure tables, the first pass or sweep), then — unless
``--setup-only`` — measures for ``S`` seconds and prints one ``RESULT``
line of JSON: each operation's start and duration, answers for the
parent's checks, failures, and this process's peak RSS.  With ``--spans`` the layer
wrappers are installed before set-up and every span is written to
``PATH`` at the end.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.core.closure import SchemaClosure
from repro.core.compiled import CompiledSchema, invalidate
from repro.core.engine import Disambiguator
from repro.schemas.cupid import build_cupid_schema

from .checks import answer_of, builtin_schema, path_errors
from .system import peak_rss_mb
from .trace import Recorder, install
from .workloads import SWEEP, SWEEP_E, EditPlanner, batch_pool

#: Steps per designer round; each round restarts from plain CUPID
#: with an empty compile registry and closure cache, so memory does not
#: grow with the number of steps a faster build fits into the run.
ROUND_STEPS = 60
#: Every this many steps the evolved artifact is checked against a cold
#: compile of the same schema.
COLD_CHECK_EVERY = 25


class _Ops:
    """The operation number spans are attributed to (None: set-up)."""

    current: int | None = None

    def __call__(self) -> int | None:
        return self.current


class BatchCold:
    """Clear the completion caches, then complete the curated pool."""

    def __init__(self, seed: int, ops: _Ops) -> None:
        self.rng = random.Random(f"batch-cold-{seed}")
        self.ops = ops
        self.pool = batch_pool()

    def setup(self) -> None:
        schemas = {tenant: builtin_schema(tenant) for tenant, _, _ in self.pool}
        self.engines = {
            (tenant, e): Disambiguator(schemas[tenant], e=e)
            for tenant, _, e in self.pool
        }
        self.caches = list(
            {id(engine.compiled.cache): engine.compiled.cache
             for engine in self.engines.values()}.values()
        )
        # The first pass builds every closure table the pool touches.
        self.answers = {
            _key(entry): answer_of(self._engine(entry).complete(entry[1]))
            for entry in self.pool
        }

    def _engine(self, entry):
        tenant, _, e = entry
        return self.engines[(tenant, e)]

    def measure(self, seconds: float) -> dict:
        ops: list[tuple[float, float]] = []
        errors: list[str] = []
        failed = 0
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            for cache in self.caches:
                cache.clear()
            order = list(self.pool)
            self.rng.shuffle(order)
            for entry in order:
                engine = self._engine(entry)
                self.ops.current = len(ops)
                began = time.perf_counter()
                result = engine.complete(entry[1])
                ops.append((began, time.perf_counter() - began))
                self.ops.current = None
                if answer_of(result) != self.answers[_key(entry)]:
                    failed += 1
                    errors.append(f"{_key(entry)}: answer changed between passes")
        return {
            "ops": ops,
            "group": len(self.pool),
            "details": {
                "pass_size": len(self.pool),
                "passes": len(ops) // len(self.pool),
            },
            "attempted": len(ops),
            "failed": failed,
            "errors": errors[:20],
            "answers": self.answers,
        }


class DesignerEdit:
    """Seeded edit steps on CUPID, each followed by the sweep at E=2."""

    def __init__(self, seed: int, ops: _Ops) -> None:
        self.seed = seed
        self.ops = ops

    def setup(self) -> None:
        self.base = build_cupid_schema()
        self.engine = self._round_start()
        self.answers = {
            _key(("cupid", query, SWEEP_E)): answer_of(self.engine.complete(query))
            for query in SWEEP
        }

    def _round_start(self):
        # Drop the previous round's artifacts and the closures its cold
        # checks memoized, so peak memory is one round's.
        invalidate()
        SchemaClosure.clear_cache()
        engine = Disambiguator(self.base, e=SWEEP_E)
        for query in SWEEP:
            engine.complete(query)
        return engine

    def measure(self, seconds: float) -> dict:
        ops: list[tuple[float, float]] = []
        kinds: list[str] = []
        errors: list[str] = []
        failed = checks = step = rounds = 0
        engine = self.engine
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            if rounds:
                engine = self._round_start()
            planner = EditPlanner(random.Random(f"designer-{self.seed}-{rounds}"))
            rounds += 1
            for _ in range(ROUND_STEPS):
                kind, delta = planner.next_delta(engine.schema)
                self.ops.current = step
                began = time.perf_counter()
                engine = engine.evolved(delta)
                results = [engine.complete(query) for query in SWEEP]
                ops.append((began, time.perf_counter() - began))
                self.ops.current = None
                kinds.append(kind)
                step_errors = [
                    message
                    for query, result in zip(SWEEP, results)
                    for message in path_errors(query, answer_of(result)["paths"])
                ]
                if step % COLD_CHECK_EVERY == COLD_CHECK_EVERY - 1:
                    checks += 1
                    cold = Disambiguator(CompiledSchema(engine.schema), e=SWEEP_E)
                    for query, result in zip(SWEEP, results):
                        if answer_of(cold.complete(query)) != answer_of(result):
                            step_errors.append(
                                f"step {step}: {query} differs from a cold compile"
                            )
                if step_errors:
                    failed += 1
                    errors.extend(step_errors)
                step += 1
                if time.perf_counter() - started >= seconds:
                    break
        return {
            "ops": ops,
            # Every cycle has the same mix of module-local and wiring steps.
            "group": EditPlanner.CYCLE,
            "details": {
                "rounds": rounds,
                "cold_checks": checks,
                "wiring_share": kinds.count("wiring") / max(1, len(kinds)),
            },
            "attempted": step,
            "failed": failed,
            "errors": errors[:20],
            "answers": self.answers,
        }


def _key(entry) -> str:
    tenant, expression, e = entry
    return f"{tenant}|{e}|{expression}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.inproc")
    parser.add_argument(
        "--workload", choices=("batch-cold", "designer-edit"), required=True
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    ops = _Ops()
    recorder = None
    missing: list[str] = []
    if args.spans:
        recorder = Recorder(op_of=ops)
        missing, _ = install(recorder)
    workload = (BatchCold if args.workload == "batch-cold" else DesignerEdit)(
        args.seed, ops
    )
    workload.setup()
    if recorder is not None:
        recorder.event("ready")
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = workload.measure(args.seconds)
    result["peak_rss_mb"] = peak_rss_mb()
    if recorder is not None:
        recorder.dump(args.spans)
        Path(args.spans + ".missing").write_text(json.dumps(missing))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
