"""A Fox-flavored select query language.

The paper's path expressions live inside the Fox query language of the
Moose data model.  This module provides a small but genuine slice of
such a language over the instance store::

    for s in student where s.take.name contains "cs" select s@>person.name
    for d in department where d$>professor exists select d.name, d.student
    for t in ta select t ~ name

Semantics:

* ``for VAR in CLASS`` iterates the class extent (subclass instances
  included);
* ``where`` filters bindings; a comparison ``<path> <op> <literal>``
  holds when *any* value reached by the path from the bound object
  satisfies the operator (the natural set semantics of path
  expressions), and ``<path> exists`` holds when the path reaches
  anything; ``and`` / ``or`` combine left-associatively with ``and``
  binding tighter;
* ``select`` returns one row per surviving binding, with one value set
  per selection item;
* paths may be *incomplete* (contain ``~``) — they are disambiguated
  against the variable's class first (paper Figure 1, approve-all), and
  the union of all optimal completions' results is used.

Paths inside ``where`` conditions must be written without internal
whitespace (``s.teacher~name``), since spaces separate the operator and
literal.
"""

from __future__ import annotations

import dataclasses
import re
from collections.abc import Callable

from repro.core.ast import PathExpression
from repro.core.compiled import CompiledSchema
from repro.core.engine import Disambiguator
from repro.core.parser import parse_path_expression
from repro.errors import NoCompletionError, QuerySyntaxError
from repro.model.instances import Database, DBObject
from repro.obs.slowlog import get_slowlog
from repro.obs.tracer import get_tracer
from repro.query.evaluator import evaluate_from

__all__ = ["FoxQuery", "FoxRow", "parse_fox", "run_fox"]

_OPERATORS: dict[str, Callable[[object, object], bool]] = {
    "=": lambda value, literal: value == literal,
    "!=": lambda value, literal: value != literal,
    "<": lambda value, literal: value < literal,  # type: ignore[operator]
    "<=": lambda value, literal: value <= literal,  # type: ignore[operator]
    ">": lambda value, literal: value > literal,  # type: ignore[operator]
    ">=": lambda value, literal: value >= literal,  # type: ignore[operator]
    "contains": lambda value, literal: str(literal) in str(value),
}

_HEAD_RE = re.compile(
    r"^\s*for\s+(?P<var>[A-Za-z_][A-Za-z0-9_]*)\s+in\s+"
    r"(?P<cls>[A-Za-z_][A-Za-z0-9_\-]*)\s+"
    r"(?:where\s+(?P<where>.+?)\s+)?"
    r"select\s+(?P<select>.+?)\s*$",
    re.IGNORECASE | re.DOTALL,
)

# one comparison:  <path> <op> <literal>   or   <path> exists
_COMPARISON_RE = re.compile(
    r"^\s*(?P<path>\S+)\s+"
    r"(?:(?P<op>=|!=|<=|>=|<|>|contains)\s+(?P<literal>.+?)|(?P<exists>exists))"
    r"\s*$",
    re.IGNORECASE,
)


@dataclasses.dataclass(frozen=True)
class Comparison:
    """One ``path op literal`` (or ``path exists``) condition."""

    path_text: str
    operator: str | None  # None encodes 'exists'
    literal: object | None

    def holds(self, values: frozenset) -> bool:
        if self.operator is None:
            return bool(values)
        op = _OPERATORS[self.operator]
        for value in values:
            try:
                if op(value, self.literal):
                    return True
            except TypeError:
                continue
        return False


@dataclasses.dataclass(frozen=True)
class Condition:
    """Disjunction of conjunctions of comparisons (where-clause)."""

    clauses: tuple[tuple[Comparison, ...], ...]  # OR of ANDs

    @property
    def comparisons(self) -> list[Comparison]:
        return [cmp for clause in self.clauses for cmp in clause]


@dataclasses.dataclass(frozen=True)
class FoxQuery:
    """A parsed for/where/select query."""

    variable: str
    class_name: str
    condition: Condition | None
    selections: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class FoxRow:
    """One result row: the binding plus one value set per selection."""

    binding: DBObject
    values: tuple[frozenset, ...]


def _parse_literal(text: str) -> object:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in {"'", '"'}:
        return text[1:-1]
    lowered = text.lower()
    if lowered in {"true", "false"}:
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_comparison(text: str, query_text: str) -> Comparison:
    match = _COMPARISON_RE.match(text)
    if not match:
        raise QuerySyntaxError(
            f"malformed condition {text.strip()!r}", query_text
        )
    if match.group("exists"):
        return Comparison(match.group("path"), None, None)
    return Comparison(
        match.group("path"),
        match.group("op").lower(),
        _parse_literal(match.group("literal")),
    )


def _parse_condition(text: str, query_text: str) -> Condition:
    # OR of ANDs, both split on word boundaries, case-insensitive
    or_parts = re.split(r"\s+or\s+", text, flags=re.IGNORECASE)
    clauses = []
    for part in or_parts:
        and_parts = re.split(r"\s+and\s+", part, flags=re.IGNORECASE)
        clauses.append(
            tuple(_parse_comparison(p, query_text) for p in and_parts)
        )
    return Condition(tuple(clauses))


def parse_fox(text: str) -> FoxQuery:
    """Parse a for/where/select query."""
    match = _HEAD_RE.match(text)
    if not match:
        raise QuerySyntaxError(
            "expected: for VAR in CLASS [where ...] select <paths>", text
        )
    condition = (
        _parse_condition(match.group("where"), text)
        if match.group("where")
        else None
    )
    selections = tuple(
        part.strip()
        for part in match.group("select").split(",")
        if part.strip()
    )
    if not selections:
        raise QuerySyntaxError("select clause is empty", text)
    return FoxQuery(
        variable=match.group("var"),
        class_name=match.group("cls"),
        condition=condition,
        selections=selections,
    )


class _PathEvaluator:
    """Resolves a variable-rooted (possibly incomplete) path text to the
    concrete paths to evaluate.

    Resolution goes through the engine's shared, bounded completion
    cache (keyed by the rebased expression text), so repeated references
    to one path — across objects, comparisons, and even other queries or
    sessions over the same compiled schema — are disambiguated once.
    This replaced an unbounded per-evaluator dict that could not be
    shared and never evicted.
    """

    def __init__(
        self, database: Database, query: FoxQuery, engine: Disambiguator
    ) -> None:
        self.database = database
        self.query = query
        self.engine = engine

    def _resolve(self, path_text: str):
        expression = self._substitute_variable(path_text)
        result = self.engine.complete(expression)
        if not result.paths:
            raise NoCompletionError(
                f"no completion for {path_text!r} in the fox query"
            )
        return result.paths

    def _substitute_variable(self, path_text: str) -> PathExpression:
        expression = parse_path_expression(path_text)
        if expression.root != self.query.variable:
            raise QuerySyntaxError(
                f"path {path_text!r} must start with the query variable "
                f"{self.query.variable!r}",
                path_text,
            )
        rebased = PathExpression(self.query.class_name, expression.steps)
        return rebased

    def values_from(self, obj: DBObject, path_text: str) -> frozenset:
        """Union of evaluation results over all resolved paths.

        A bare variable reference (``select s``) yields the object
        itself.
        """
        expression = parse_path_expression(path_text)
        if expression.root == self.query.variable and not expression.steps:
            return frozenset({obj})
        combined: set = set()
        for path in self._resolve(path_text):
            combined |= evaluate_from(self.database, path, [obj])
        return frozenset(combined)


def run_fox(
    database: Database,
    text: str,
    engine: Disambiguator | None = None,
    compiled: "CompiledSchema | None" = None,
) -> list[FoxRow]:
    """Parse and run a fox query against a database.

    Rows are ordered by the binding's object id.  Pass ``compiled`` (a
    :class:`~repro.core.compiled.CompiledSchema`) to share one
    compilation artifact — and one completion cache — across many
    queries; without it the default engine still compiles through the
    memoized registry, so repeated ``run_fox`` calls over an unchanged
    schema share state anyway.
    """
    # The slow-log observation wraps the whole evaluation: a retained
    # fox query keeps its parse/evaluate span tree and row count.
    with get_slowlog().observe("fox", text) as obs:
        rows = _run_fox_observed(database, text, engine, compiled)
        obs.set(rows=len(rows))
        return rows


def _run_fox_observed(
    database: Database,
    text: str,
    engine: Disambiguator | None,
    compiled: "CompiledSchema | None",
) -> list[FoxRow]:
    tracer = get_tracer()
    with tracer.span("fox", query=text) as span:
        with tracer.span("parse"):
            query = parse_fox(text)
        database.schema.get_class(query.class_name)
        if engine is None:
            engine = Disambiguator(
                compiled if compiled is not None else database.schema
            )
        evaluator = _PathEvaluator(database, query, engine)

        rows: list[FoxRow] = []
        bindings = sorted(
            database.extent(query.class_name), key=lambda o: o.oid
        )
        with tracer.span("evaluate", bindings=len(bindings)):
            for obj in bindings:
                if query.condition is not None:
                    satisfied = any(
                        all(
                            comparison.holds(
                                evaluator.values_from(obj, comparison.path_text)
                            )
                            for comparison in clause
                        )
                        for clause in query.condition.clauses
                    )
                    if not satisfied:
                        continue
                rows.append(
                    FoxRow(
                        binding=obj,
                        values=tuple(
                            evaluator.values_from(obj, selection)
                            for selection in query.selections
                        ),
                    )
                )
        span.set(rows=len(rows))
    return rows
