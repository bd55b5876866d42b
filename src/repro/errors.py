"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  The sub-hierarchy mirrors
the package layout: schema construction problems, path-expression syntax
problems, algebra misuse, and query-evaluation problems each have their
own branch.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SchemaError",
    "DeltaError",
    "DuplicateClassError",
    "UnknownClassError",
    "DuplicateRelationshipError",
    "UnknownRelationshipError",
    "InvalidRelationshipError",
    "InheritanceCycleError",
    "PrimitiveClassError",
    "SerializationError",
    "DslSyntaxError",
    "PathExpressionError",
    "PathSyntaxError",
    "AmbiguityError",
    "NoCompletionError",
    "AlgebraError",
    "UnknownConnectorError",
    "InstanceError",
    "UnknownObjectError",
    "EvaluationError",
    "QuerySyntaxError",
    "ResilienceError",
    "BudgetExceededError",
    "InjectedFaultError",
]


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Schema / data-model errors
# ---------------------------------------------------------------------------


class SchemaError(ReproError):
    """Base class for schema construction and validation errors."""


class DeltaError(SchemaError):
    """A schema delta command cannot be applied to the schema at hand.

    Raised when a command's recorded expectation diverges from the
    schema's actual content — e.g. removing a relationship whose stored
    target or kind no longer matches the command's snapshot.  The
    mismatch check is what keeps deltas invertible: a command that
    applied cleanly can always be undone by its inverse.
    """


class DuplicateClassError(SchemaError):
    """A class with the same name already exists in the schema."""

    def __init__(self, name: str) -> None:
        super().__init__(f"class {name!r} already exists in the schema")
        self.name = name


class UnknownClassError(SchemaError):
    """A class name was referenced that the schema does not define."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown class {name!r}")
        self.name = name


class DuplicateRelationshipError(SchemaError):
    """Two relationships with the same (source, name) pair were declared."""

    def __init__(self, source: str, name: str) -> None:
        super().__init__(
            f"class {source!r} already has a relationship named {name!r}"
        )
        self.source = source
        self.name = name


class UnknownRelationshipError(SchemaError):
    """A relationship was referenced that the schema does not define."""

    def __init__(self, source: str, name: str) -> None:
        super().__init__(f"class {source!r} has no relationship named {name!r}")
        self.source = source
        self.name = name


class InvalidRelationshipError(SchemaError):
    """A relationship declaration violates the data-model rules."""


class InheritanceCycleError(SchemaError):
    """The Isa relationships of a schema form a cycle."""

    def __init__(self, cycle: list[str]) -> None:
        super().__init__("Isa cycle detected: " + " @> ".join(cycle))
        self.cycle = cycle


class PrimitiveClassError(SchemaError):
    """An operation is not allowed on a primitive class."""

    def __init__(self, name: str, operation: str) -> None:
        super().__init__(f"cannot {operation} primitive class {name!r}")
        self.name = name
        self.operation = operation


class SerializationError(SchemaError):
    """A schema document could not be serialized or deserialized."""


class DslSyntaxError(SchemaError):
    """The schema DSL text contains a syntax error."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# Path-expression errors
# ---------------------------------------------------------------------------


class PathExpressionError(ReproError):
    """Base class for path-expression construction/parsing errors."""


class PathSyntaxError(PathExpressionError):
    """A path expression string could not be parsed."""

    def __init__(self, message: str, position: int, text: str) -> None:
        super().__init__(f"{message} at position {position} in {text!r}")
        self.position = position
        self.text = text


class AmbiguityError(PathExpressionError):
    """An operation required a unique completion but several exist."""

    def __init__(self, message: str, candidates: list[object]) -> None:
        super().__init__(message)
        self.candidates = candidates


class NoCompletionError(PathExpressionError):
    """No complete path expression is consistent with the incomplete one."""


# ---------------------------------------------------------------------------
# Algebra errors
# ---------------------------------------------------------------------------


class AlgebraError(ReproError):
    """Base class for path-algebra misuse."""


class UnknownConnectorError(AlgebraError):
    """A connector symbol is not part of the alphabet Sigma."""

    def __init__(self, symbol: str) -> None:
        super().__init__(f"unknown connector symbol {symbol!r}")
        self.symbol = symbol


# ---------------------------------------------------------------------------
# Instance / query errors
# ---------------------------------------------------------------------------


class InstanceError(ReproError):
    """Base class for instance-store problems."""


class UnknownObjectError(InstanceError):
    """An object identifier is not present in the database."""

    def __init__(self, oid: object) -> None:
        super().__init__(f"unknown object {oid!r}")
        self.oid = oid


class EvaluationError(ReproError):
    """A path expression could not be evaluated against a database."""


class QuerySyntaxError(ReproError):
    """A query string in the tiny query language could not be parsed."""

    def __init__(self, message: str, text: str) -> None:
        super().__init__(f"{message} in query {text!r}")
        self.text = text


# ---------------------------------------------------------------------------
# Resilience errors (budgets, fault injection)
# ---------------------------------------------------------------------------


class ResilienceError(ReproError):
    """Base class for resource-governance and fault-injection errors."""


class BudgetExceededError(ResilienceError):
    """A completion search tripped its resource budget.

    ``partial`` carries the best-so-far result — a
    :class:`~repro.core.completion.CompletionResult` (or
    :class:`~repro.core.multi.GeneralCompletionResult`) flagged
    ``exhausted=False``.  Every path in it is a genuinely consistent
    completion; the set is merely possibly non-optimal and incomplete.
    ``reason`` is one of the
    :class:`~repro.resilience.budget.TruncationReason` strings.
    """

    def __init__(self, reason: str, partial: object = None) -> None:
        found = getattr(partial, "paths", None)
        detail = (
            f"; best-so-far carries {len(found)} path(s)"
            if found is not None
            else ""
        )
        super().__init__(f"completion budget exceeded ({reason}){detail}")
        self.reason = reason
        self.partial = partial


class InjectedFaultError(ResilienceError):
    """A deterministic fault injected by the chaos-testing harness.

    Never raised in production code paths — only by
    :mod:`repro.resilience.faults` wrappers — but derives from
    :class:`ReproError` so the same API-boundary handlers that keep a
    session or an experiment runner alive under real failures are
    exercised by the chaos suite.
    """

    def __init__(self, site: str, detail: str = "") -> None:
        super().__init__(
            f"injected fault at {site}" + (f": {detail}" if detail else "")
        )
        self.site = site
