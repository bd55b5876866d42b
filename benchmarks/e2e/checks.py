"""Answer checks: in-process references, path validity, and goldens.

Three independent checks stand behind every answer the benchmark counts
as correct:

* **reference** — an HTTP answer's ``paths`` and ``labels`` are
  identical to what this commit's in-process
  :class:`~repro.core.engine.Disambiguator` returns for the same query
  (computed off the clock);
* **validity** — every returned path parses as a complete expression
  rooted at the query's root, passes the query's named steps in order,
  and ends at its target;
* **golden** — the set of optimal labels equals the one checked in under
  ``golden/``.  Labels do not depend on which of several tied paths a
  search keeps, so a search that breaks ties differently still passes.

``python -m benchmarks.e2e goldens`` rewrites the golden files; the cold
population's query list is generated there too (see
:func:`build_cold_population`).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.core.compiled import CompiledSchema
from repro.core.engine import Disambiguator
from repro.core.parser import parse_path_expression
from repro.errors import ReproError
from repro.resilience.budget import Budget
from repro.schemas.cupid import build_cupid_schema
from repro.schemas.generator import GeneratorConfig, generate_schema
from repro.schemas.hospital import build_hospital_schema
from repro.schemas.university import build_university_schema

from .workloads import GOLDEN_DIR, SWEEP, SWEEP_E, batch_pool

__all__ = [
    "BUILTINS",
    "COLD_SCHEMAS",
    "GOLDEN_MAX_EXPANSIONS",
    "answer_of",
    "build_goldens",
    "builtin_schema",
    "cold_schemas",
    "curated_golden",
    "golden_errors",
    "path_errors",
]

#: The cold workload's two generated schemas: tenant -> (classes, seed).
COLD_SCHEMAS = {"gen_a": (60, 11), "gen_b": (80, 23)}
#: Distinct candidate queries drawn per schema.
COLD_PER_SCHEMA = 600
#: Expansions within which a candidate's exhaustive answer, and so its
#: golden labels, is computed; 2-3% of candidates need more and are left
#: out.  It is far above the serving cap (``workloads.COLD_MAX_NODES``),
#: so the population keeps the queries the cap cuts short.
GOLDEN_MAX_EXPANSIONS = 200_000


#: The server's builtin tenants the curated entries run on.
_SCHEMA_FACTORIES = {
    "cupid": build_cupid_schema,
    "hospital": build_hospital_schema,
    "university": build_university_schema,
}
BUILTINS = tuple(_SCHEMA_FACTORIES)


def builtin_schema(name: str):
    return _SCHEMA_FACTORIES[name]()


def cold_schemas() -> dict:
    """tenant -> generated :class:`~repro.model.schema.Schema`."""
    return {
        tenant: generate_schema(GeneratorConfig(classes=classes, seed=seed))
        for tenant, (classes, seed) in COLD_SCHEMAS.items()
    }


def answer_of(result) -> dict:
    """The answer fields the serving tier returns for a completion."""
    return {
        "paths": [str(path) for path in result.paths],
        "labels": [str(label) for label in result.labels],
    }


def path_errors(expression: str, paths: list[str]) -> list[str]:
    """Why any of ``paths`` is not a completion of ``expression``."""
    query = parse_path_expression(expression)
    names = [step.name for step in query.steps]
    errors = []
    for text in paths:
        try:
            path = parse_path_expression(text)
        except ReproError as error:
            errors.append(f"{expression}: unparsable path {text!r}: {error}")
            continue
        steps = [step.name for step in path.steps]
        position = 0
        for name in steps:
            if position < len(names) and name == names[position]:
                position += 1
        if not path.is_complete:
            errors.append(f"{expression}: incomplete path {text!r}")
        elif path.root != query.root:
            errors.append(f"{expression}: path {text!r} has another root")
        elif not steps or steps[-1] != query.last_name:
            errors.append(f"{expression}: path {text!r} misses the target")
        elif position != len(names):
            errors.append(f"{expression}: path {text!r} skips a named step")
    return errors


def _golden_key(tenant: str, expression: str, e: int) -> str:
    return f"{tenant}|{e}|{expression}"


def curated_golden() -> dict[str, list[str]]:
    """key -> sorted optimal labels, for the curated entries."""
    document = json.loads((GOLDEN_DIR / "curated.json").read_text())
    return {
        _golden_key(row["tenant"], row["expression"], row["e"]): row["labels"]
        for row in document["entries"]
    }


def golden_errors(
    golden: dict[str, list[str]], tenant: str, expression: str, e: int, labels
) -> list[str]:
    expected = golden.get(_golden_key(tenant, expression, e))
    if expected is None:
        return [f"{tenant} E={e} {expression}: no golden"]
    if sorted(labels) != expected:
        return [
            f"{tenant} E={e} {expression}: labels {sorted(labels)} != "
            f"golden {expected}"
        ]
    return []


def build_cold_population() -> dict:
    """The cold-http population: distinct reachable queries per schema.

    :data:`COLD_PER_SCHEMA` candidates are drawn per schema with a fixed
    RNG — (root class, relationship name reachable from it, E in
    {1, 2}) — whatever their cost.  A candidate is kept when its
    exhaustive answer has at least one completion and takes at most
    :data:`GOLDEN_MAX_EXPANSIONS` expansions to compute; each kept
    query records its expansion count as data, and each schema how many
    candidates were left out and why.
    """
    ceiling = Budget(max_nodes=GOLDEN_MAX_EXPANSIONS, partial_ok=True)
    schemas = cold_schemas()
    population = {"schemas": [], "queries": []}
    for tenant, schema in schemas.items():
        classes, seed = COLD_SCHEMAS[tenant]
        counts = {
            "tenant": tenant,
            "classes": classes,
            "seed": seed,
            "fingerprint": schema.fingerprint(),
            "candidates": COLD_PER_SCHEMA,
            "no_answer": 0,
            "beyond_ceiling": 0,
        }
        population["schemas"].append(counts)
        compiled = CompiledSchema(schema)
        closure = compiled.closure
        engines = {e: Disambiguator(compiled, e=e) for e in (1, 2)}
        roots = sorted(
            cls.name for cls in schema.classes(include_primitives=False)
        )
        rng = random.Random(f"cold-population-{tenant}")
        seen: set[tuple[str, int]] = set()
        while len(seen) < COLD_PER_SCHEMA:
            root = rng.choice(roots)
            row = closure.reach[closure.index[root]]
            reachable = [
                closure.nodes[position]
                for position in range(len(closure.nodes))
                if row >> position & 1
            ]
            names = sorted(
                {
                    rel.name
                    for name in reachable
                    for rel in schema.relationships_from(name)
                }
            )
            if not names:
                continue
            expression = f"{root} ~ {rng.choice(names)}"
            e = rng.choice((1, 2))
            if (expression, e) in seen:
                continue
            seen.add((expression, e))
            result = engines[e].complete(expression, budget=ceiling)
            if not result.exhausted:
                counts["beyond_ceiling"] += 1
                continue
            if not result.paths:
                counts["no_answer"] += 1
                continue
            population["queries"].append(
                {
                    "tenant": tenant,
                    "expression": expression,
                    "e": e,
                    "labels": sorted(answer_of(result)["labels"]),
                    "expansions": result.stats.recursive_calls,
                }
            )
    return population


def build_goldens() -> list[Path]:
    """Recompute every golden file from this commit's engine."""
    entries = []
    keys = set()
    for tenant, expression, e in batch_pool() + [
        ("cupid", text, SWEEP_E) for text in SWEEP
    ]:
        if (tenant, expression, e) in keys:
            continue
        keys.add((tenant, expression, e))
        result = Disambiguator(builtin_schema(tenant), e=e).complete(expression)
        entries.append(
            {
                "tenant": tenant,
                "expression": expression,
                "e": e,
                "labels": sorted(answer_of(result)["labels"]),
            }
        )
    GOLDEN_DIR.mkdir(exist_ok=True)
    curated = GOLDEN_DIR / "curated.json"
    curated.write_text(_one_row_per_line({"entries": entries}))
    cold = GOLDEN_DIR / "cold.json"
    cold.write_text(_one_row_per_line(build_cold_population()))
    return [curated, cold]


def _one_row_per_line(document: dict) -> str:
    """JSON with each list item on its own line, so diffs stay readable."""
    parts = []
    for key, rows in document.items():
        body = ",\n  ".join(json.dumps(row, sort_keys=True) for row in rows)
        parts.append(f' "{key}": [\n  {body}\n ]')
    return "{\n" + ",\n".join(parts) + "\n}\n"
