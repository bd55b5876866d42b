"""A tiny Fox-flavored query language over path expressions.

The paper's queries are path expressions at heart; this module wraps
them in just enough syntax to be useful against an instance database::

    get <path-expression>
    get <path-expression> where <op> <literal>

The optional ``where`` clause filters the *result* values (it therefore
only applies when the expression ends in an attribute).  Supported
operators: ``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``, ``contains``.
Incomplete path expressions are allowed — the engine completes them
first and evaluates every returned completion, reporting results per
completion (the Figure 1 loop with an implicit approve-all).
"""

from __future__ import annotations

import dataclasses
import re
from collections.abc import Callable

from repro.core.compiled import CompiledSchema
from repro.core.engine import Disambiguator
from repro.errors import QuerySyntaxError
from repro.model.instances import Database
from repro.obs.tracer import get_tracer
from repro.query.evaluator import evaluate

__all__ = ["Query", "QueryResult", "parse_query", "run_query"]

_OPERATORS: dict[str, Callable[[object, object], bool]] = {
    "=": lambda value, literal: value == literal,
    "!=": lambda value, literal: value != literal,
    "<": lambda value, literal: value < literal,  # type: ignore[operator]
    "<=": lambda value, literal: value <= literal,  # type: ignore[operator]
    ">": lambda value, literal: value > literal,  # type: ignore[operator]
    ">=": lambda value, literal: value >= literal,  # type: ignore[operator]
    "contains": lambda value, literal: str(literal) in str(value),
}

_QUERY_RE = re.compile(
    r"^\s*get\s+(?P<path>.+?)"
    r"(?:\s+where\s+(?P<op>=|!=|<=|>=|<|>|contains)\s+(?P<literal>.+?))?\s*$",
    re.IGNORECASE,
)


@dataclasses.dataclass(frozen=True)
class Query:
    """A parsed query: path text plus an optional value filter."""

    path_text: str
    operator: str | None = None
    literal: object | None = None

    def matches(self, value: object) -> bool:
        """Apply the where-filter to one result value."""
        if self.operator is None:
            return True
        try:
            return _OPERATORS[self.operator](value, self.literal)
        except TypeError:
            return False


@dataclasses.dataclass(frozen=True)
class QueryResult:
    """Results of one query, keyed by the completion that produced them."""

    query: Query
    per_completion: tuple[tuple[str, frozenset], ...]

    @property
    def completions(self) -> list[str]:
        return [expression for expression, _ in self.per_completion]

    @property
    def values(self) -> frozenset:
        """Union of results over all completions."""
        combined: frozenset = frozenset()
        for _, results in self.per_completion:
            combined |= results
        return combined


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


def parse_query(text: str) -> Query:
    """Parse query text into a :class:`Query`."""
    match = _QUERY_RE.match(text)
    if not match:
        raise QuerySyntaxError("expected: get <path> [where <op> <literal>]", text)
    if match.group("op") is None and re.search(
        r"\swhere\s", match.group("path"), re.IGNORECASE
    ):
        # A 'where' was written but its operator did not parse.
        raise QuerySyntaxError(
            "malformed where clause (operator must be one of "
            "= != < <= > >= contains)",
            text,
        )
    operator = match.group("op")
    literal = (
        _parse_literal(match.group("literal"))
        if match.group("literal") is not None
        else None
    )
    return Query(
        path_text=match.group("path").strip(),
        operator=operator.lower() if operator else None,
        literal=literal,
    )


def run_query(
    database: Database,
    text: str,
    engine: Disambiguator | None = None,
    compiled: "CompiledSchema | None" = None,
) -> QueryResult:
    """Parse, complete (if needed), evaluate, and filter a query.

    Pass ``compiled`` to share one compilation artifact (and completion
    cache) across many queries over the same schema.  Completions are
    evaluated in ranking order, which is the per-completion result
    order.
    """
    tracer = get_tracer()
    with tracer.span("query", query=text) as span:
        with tracer.span("parse"):
            query = parse_query(text)
        if engine is None:
            engine = Disambiguator(
                compiled if compiled is not None else database.schema
            )
        completion = engine.complete(query.path_text)

        with tracer.span("evaluate", paths=len(completion.paths)):
            values = [
                frozenset(
                    value
                    for value in evaluate(database, path)
                    if query.matches(value)
                )
                for path in completion.paths
            ]
        per_completion = [
            (str(path), filtered)
            for path, filtered in zip(completion.paths, values)
        ]
        span.set(completions=len(completion.paths))
    return QueryResult(query=query, per_completion=tuple(per_completion))
