"""Dependency-free validation of the exported observability formats.

The container has no ``jsonschema`` package, so this module implements
the small JSON-Schema subset the checked-in schemas actually use
(``type``, ``enum``, ``minimum``/``maximum``, ``required``,
``properties``, ``additionalProperties``, ``items``) and ships the two
schemas as package data:

* ``metrics_summary.schema.json`` — the
  :meth:`~repro.obs.metrics.MetricsRegistry.as_dict` summary;
* ``trace_event.schema.json`` — one record of the JSON-lines trace
  log (:meth:`~repro.obs.tracer.RecordingTracer.write_jsonl`).

:func:`validate` returns a list of problem strings (empty = valid);
the ``validate_*`` wrappers add the format-specific cross-field rules a
schema subset without ``oneOf`` cannot express (span records need
``id``/``duration_ms``, event records need ``span``/``at_ms``).  CI
runs ``python -m repro.obs.validate`` over the quick-bench exports so
the formats cannot drift without the schema files changing too.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ReproError

__all__ = [
    "SchemaValidationError",
    "load_builtin_schema",
    "validate",
    "validate_access_records",
    "validate_audit_records",
    "validate_bench_records",
    "validate_kernel_bench",
    "validate_metrics_summary",
    "validate_slo_status",
    "validate_slowlog_entries",
    "validate_trace_events",
]

_SCHEMA_DIR = Path(__file__).parent / "schemas"


class SchemaValidationError(ReproError):
    """An exported artifact does not match its checked-in schema."""

    def __init__(self, problems: list[str]) -> None:
        self.problems = problems
        preview = "; ".join(problems[:5])
        suffix = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        super().__init__(f"schema validation failed: {preview}{suffix}")


def load_builtin_schema(name: str) -> dict:
    """Load a checked-in schema (``metrics_summary`` or ``trace_event``)."""
    path = _SCHEMA_DIR / f"{name}.schema.json"
    if not path.exists():
        raise FileNotFoundError(f"no builtin schema {name!r} at {path}")
    return json.loads(path.read_text())


_TYPE_CHECKS = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "integer": lambda value: isinstance(value, int)
    and not isinstance(value, bool),
    "number": lambda value: isinstance(value, (int, float))
    and not isinstance(value, bool),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
}


def validate(instance: object, schema: dict, path: str = "$") -> list[str]:
    """Check ``instance`` against a schema; returns problem strings."""
    problems: list[str] = []

    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[t](instance) for t in types):
            problems.append(
                f"{path}: expected {' or '.join(types)}, "
                f"got {type(instance).__name__}"
            )
            return problems  # deeper keywords assume the type matched

    if "enum" in schema and instance not in schema["enum"]:
        problems.append(f"{path}: {instance!r} not in {schema['enum']!r}")

    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        if "minimum" in schema and instance < schema["minimum"]:
            problems.append(
                f"{path}: {instance!r} < minimum {schema['minimum']!r}"
            )
        if "maximum" in schema and instance > schema["maximum"]:
            problems.append(
                f"{path}: {instance!r} > maximum {schema['maximum']!r}"
            )

    if isinstance(instance, dict):
        for key in schema.get("required", []):
            if key not in instance:
                problems.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for key, value in instance.items():
            key_path = f"{path}.{key}"
            if key in properties:
                problems.extend(validate(value, properties[key], key_path))
            elif additional is False:
                problems.append(f"{path}: unexpected key {key!r}")
            elif isinstance(additional, dict):
                problems.extend(validate(value, additional, key_path))

    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            problems.extend(
                validate(item, schema["items"], f"{path}[{index}]")
            )

    return problems


def validate_metrics_summary(summary: object) -> None:
    """Raise :class:`SchemaValidationError` unless ``summary`` conforms."""
    problems = validate(summary, load_builtin_schema("metrics_summary"))
    if problems:
        raise SchemaValidationError(problems)


#: Fields each trace-record type must carry beyond the shared schema
#: (a ``oneOf`` in spirit, expressed in code).
_RECORD_REQUIRED = {
    "span": ("id", "parent", "depth", "start_ms", "duration_ms"),
    "event": ("span", "at_ms"),
}


def validate_trace_events(records: list) -> None:
    """Validate a parsed JSON-lines trace log (list of record dicts)."""
    schema = load_builtin_schema("trace_event")
    problems: list[str] = []
    for index, record in enumerate(records):
        problems.extend(validate(record, schema, path=f"$[{index}]"))
        if isinstance(record, dict):
            for key in _RECORD_REQUIRED.get(record.get("type"), ()):
                if key not in record:
                    problems.append(
                        f"$[{index}]: {record.get('type')} record missing {key!r}"
                    )
    if problems:
        raise SchemaValidationError(problems)


def validate_slowlog_entries(records: list) -> None:
    """Validate a parsed JSON-lines slow-query log.

    Every entry must match ``slowlog_entry.schema.json`` and every
    element of its ``spans`` array must itself be a valid trace-event
    record — the slow log *is* a retained trace, so both contracts
    apply.
    """
    entry_schema = load_builtin_schema("slowlog_entry")
    trace_schema = load_builtin_schema("trace_event")
    problems: list[str] = []
    for index, record in enumerate(records):
        problems.extend(validate(record, entry_schema, path=f"$[{index}]"))
        if isinstance(record, dict) and isinstance(record.get("spans"), list):
            for at, span in enumerate(record["spans"]):
                problems.extend(
                    validate(
                        span, trace_schema, path=f"$[{index}].spans[{at}]"
                    )
                )
                if isinstance(span, dict):
                    for key in _RECORD_REQUIRED.get(span.get("type"), ()):
                        if key not in span:
                            problems.append(
                                f"$[{index}].spans[{at}]: "
                                f"{span.get('type')} record missing {key!r}"
                            )
    if problems:
        raise SchemaValidationError(problems)


#: Fields each audit-record kind must carry beyond the shared
#: ``seq``/``kind`` (the schema subset has no ``oneOf``, so the
#: discriminated union lives here, like ``_RECORD_REQUIRED`` above).
_AUDIT_REQUIRED = {
    "search": ("root", "target", "e", "pruning"),
    "expand": ("node", "depth", "edge", "label", "length"),
    "cut": ("rule", "node", "depth", "edge", "child", "caution"),
    "rescue": ("rule", "node", "depth", "edge", "child", "label"),
    "complete": ("node", "depth", "edge", "path", "label", "length", "kept"),
    "cache": (
        "scope",
        "query",
        "outcome",
        "fingerprint",
        "lineage_depth",
        "provenance",
    ),
    "budget_trip": ("reason",),
    "agg_select": ("candidates", "optimal_labels", "survivors", "preempted"),
    "score": ("rank", "path", "label", "total", "steps"),
}

#: Evidence each cut rule must attach so ``audit diff`` can check
#: admissibility from the record alone.
_CUT_EVIDENCE = {
    "label_bound": ("bounds",),
    "best_bound": ("frontier",),
}


def validate_audit_records(records: list) -> None:
    """Validate a parsed JSON-lines search audit log.

    Beyond ``audit_record.schema.json`` this enforces the cross-field
    rules the schema subset cannot express: per-kind required fields,
    the evidence a ``label_bound``/``best_bound`` cut must attach, and
    that every ``score`` record's per-edge deltas telescope to its
    reported total — the decomposition is only a trustworthy bill if it
    re-sums.
    """
    schema = load_builtin_schema("audit_record")
    problems: list[str] = []
    for index, record in enumerate(records):
        problems.extend(validate(record, schema, path=f"$[{index}]"))
        if not isinstance(record, dict):
            continue
        kind = record.get("kind")
        for key in _AUDIT_REQUIRED.get(kind, ()):
            if key not in record:
                problems.append(
                    f"$[{index}]: {kind} record missing {key!r}"
                )
        if kind == "cut":
            for key in _CUT_EVIDENCE.get(record.get("rule"), ()):
                if key not in record:
                    problems.append(
                        f"$[{index}]: {record.get('rule')} cut missing "
                        f"its {key!r} evidence"
                    )
        if kind == "score" and isinstance(record.get("steps"), list):
            deltas = [
                step.get("delta")
                for step in record["steps"]
                if isinstance(step, dict)
            ]
            if all(isinstance(delta, int) for delta in deltas) and sum(
                deltas
            ) != record.get("total"):
                problems.append(
                    f"$[{index}]: score deltas sum to {sum(deltas)}, "
                    f"not the reported total {record.get('total')!r}"
                )
    if problems:
        raise SchemaValidationError(problems)


def validate_access_records(records: list) -> None:
    """Validate a parsed JSON-lines structured access log.

    Beyond ``access_record.schema.json`` this enforces the cross-field
    rules the schema subset cannot express: a shed/drain outcome must
    name its reason, and a ``partial`` outcome must carry the budget's
    ``truncation_reason`` — an access log that says *what* degraded
    without saying *why* cannot anchor an incident walkthrough.
    """
    schema = load_builtin_schema("access_record")
    problems: list[str] = []
    for index, record in enumerate(records):
        problems.extend(validate(record, schema, path=f"$[{index}]"))
        if not isinstance(record, dict):
            continue
        outcome = record.get("outcome")
        if outcome in ("shed", "drain") and not record.get("shed_reason"):
            problems.append(
                f"$[{index}]: {outcome} outcome missing its 'shed_reason'"
            )
        if outcome == "partial" and not record.get("truncation_reason"):
            problems.append(
                f"$[{index}]: partial outcome missing 'truncation_reason'"
            )
    if problems:
        raise SchemaValidationError(problems)


def validate_slo_status(payload: object) -> None:
    """Validate one ``slo_status`` payload (``/healthz``, ``/v1/debug``,
    ``BENCH_slo.json``), including the burn-rate arithmetic the schema
    cannot check: each window's reported ``burn_rate`` must equal its
    ``error_rate`` scaled by the objective's error budget."""
    problems = validate(payload, load_builtin_schema("slo_status"))
    if isinstance(payload, dict):
        for at, objective in enumerate(payload.get("objectives", [])):
            if not isinstance(objective, dict):
                continue
            target = objective.get("target")
            if not isinstance(target, (int, float)) or not 0 < target < 1:
                continue
            budget = 1.0 - target
            for wat, window in enumerate(objective.get("windows", [])):
                if not isinstance(window, dict):
                    continue
                rate = window.get("error_rate")
                burn = window.get("burn_rate")
                if isinstance(rate, (int, float)) and isinstance(
                    burn, (int, float)
                ):
                    if abs(burn - rate / budget) > 0.01 + 0.01 * burn:
                        problems.append(
                            f"$.objectives[{at}].windows[{wat}]: burn_rate "
                            f"{burn!r} is not error_rate/budget "
                            f"({rate / budget:.3f})"
                        )
    if problems:
        raise SchemaValidationError(problems)


def validate_kernel_bench(payload: object) -> None:
    """Validate one ``BENCH_kernel.json`` report."""
    problems = validate(payload, load_builtin_schema("kernel_bench"))
    if problems:
        raise SchemaValidationError(problems)


def validate_bench_records(records: list) -> None:
    """Validate parsed ``BENCH_history.jsonl`` rows."""
    schema = load_builtin_schema("bench_record")
    problems: list[str] = []
    for index, record in enumerate(records):
        problems.extend(validate(record, schema, path=f"$[{index}]"))
    if problems:
        raise SchemaValidationError(problems)
