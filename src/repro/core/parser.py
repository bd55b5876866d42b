"""Parser for path-expression syntax (paper Sections 2.2.1-2.2.2).

Grammar::

    expression := class-name (connector name)*
    connector  := "@>" | "<@" | "$>" | "<$" | "." | "~"
    name       := [A-Za-z_][A-Za-z0-9_-]*

Whitespace is permitted around connectors (the paper writes both
``ta~name`` and ``ta ~ name``).  Connector tokens are matched longest
first so ``<@`` never parses as ``<`` + ``@``.

A :class:`PathExpression` is frozen, so each distinct short text is
parsed once: :func:`parse_path_expression` keeps the last
:data:`PARSE_MEMO_SIZE` texts of at most :data:`PARSE_MEMO_MAX_CHARS`
characters it parsed, which bounds the memo at a few megabytes.  A
longer text is parsed on every call and freed with its caller, so a
client cannot pin memory with long expressions.  A text that fails to
parse is not kept, and raises again on every call.
"""

from __future__ import annotations

import functools
import re

from repro.algebra.connectors import Connector
from repro.core.ast import PathExpression, Step
from repro.errors import PathSyntaxError

__all__ = [
    "PARSE_MEMO_MAX_CHARS",
    "PARSE_MEMO_SIZE",
    "parse_path_expression",
    "tokenize",
]

#: How many distinct expression texts :func:`parse_path_expression`
#: remembers (least recently used out first).
PARSE_MEMO_SIZE = 1024
#: The longest text the memo keeps.  A full memo of texts this long
#: holds about 7 MB of parsed steps (one-letter names, CPython 3.11).
PARSE_MEMO_MAX_CHARS = 128

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*")

# Longest symbols first so two-character connectors win.
_CONNECTOR_SYMBOLS = ("@>", "<@", "$>", "<$", "..", ".", "~")

_CONNECTOR_FOR_SYMBOL = {
    "@>": Connector.ISA,
    "<@": Connector.MAY_BE,
    "$>": Connector.HAS_PART,
    "<$": Connector.IS_PART_OF,
    ".": Connector.ASSOC,
}


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Split expression text into ``(kind, value, position)`` tokens.

    Kinds are ``"name"`` and ``"connector"``.  Raises
    :class:`~repro.errors.PathSyntaxError` on unexpected characters.
    """
    tokens: list[tuple[str, str, int]] = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char.isspace():
            index += 1
            continue
        match = _NAME_RE.match(text, index)
        if match:
            tokens.append(("name", match.group(), index))
            index = match.end()
            continue
        for symbol in _CONNECTOR_SYMBOLS:
            if text.startswith(symbol, index):
                tokens.append(("connector", symbol, index))
                index += len(symbol)
                break
        else:
            raise PathSyntaxError(
                f"unexpected character {char!r}", index, text
            )
    return tokens


def parse_path_expression(text: str) -> PathExpression:
    """Parse expression text into a :class:`PathExpression`.

    Examples
    --------
    >>> str(parse_path_expression("ta ~ name"))
    'ta~name'
    >>> parse_path_expression("student.take.teacher").is_complete
    True
    """
    if len(text) <= PARSE_MEMO_MAX_CHARS:
        return _parse_memo(text)
    return _parse(text)


def _parse(text: str) -> PathExpression:
    tokens = tokenize(text)
    if not tokens:
        raise PathSyntaxError("empty path expression", 0, text)
    kind, value, position = tokens[0]
    if kind != "name":
        raise PathSyntaxError(
            "expression must start with a class name", position, text
        )
    root = value
    steps: list[Step] = []
    index = 1
    while index < len(tokens):
        kind, symbol, position = tokens[index]
        if kind != "connector":
            raise PathSyntaxError(
                f"expected a connector, got {symbol!r}", position, text
            )
        if symbol == "..":
            raise PathSyntaxError(
                "'..' is a derived connector and cannot be written in "
                "path expressions; use '~' for an arbitrary path",
                position,
                text,
            )
        if index + 1 >= len(tokens):
            raise PathSyntaxError(
                f"connector {symbol!r} has no relationship name",
                position,
                text,
            )
        kind_next, name, position_next = tokens[index + 1]
        if kind_next != "name":
            raise PathSyntaxError(
                f"expected a relationship name, got {name!r}",
                position_next,
                text,
            )
        if symbol == "~":
            steps.append(Step.tilde(name))
        else:
            steps.append(Step(_CONNECTOR_FOR_SYMBOL[symbol], name))
        index += 2
    return PathExpression(root, tuple(steps))


_parse_memo = functools.lru_cache(maxsize=PARSE_MEMO_SIZE)(_parse)
