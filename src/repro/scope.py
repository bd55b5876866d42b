"""The ambient scope: the state instrumented code reads from its context.

Tracer, metrics registry, slow-query log (and whether an observation is
open), search audit log, budget and request live together in one frozen
:class:`Scope` under a single :class:`contextvars.ContextVar`: the
serving tier installs a request's whole state with one ``set``, and an
executor hop carries it in one :func:`contextvars.copy_context`.  Each
owning module's ``get_*`` reads one field, mapping ``None`` to its own
no-op default (so this module imports nothing), and its ``use_*``
installs the current scope with that one field changed.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Any, NamedTuple

__all__ = ["Scope", "current", "enter", "restore", "scoped"]


class Scope(NamedTuple):
    """The ambient state of one unit of work (``None`` = the default)."""

    tracer: Any = None
    metrics: Any = None
    slowlog: Any = None
    observing: bool = False
    audit: Any = None
    budget: Any = None
    request: Any = None


_SCOPE: ContextVar[Scope] = ContextVar("repro_scope", default=Scope())

#: The scope in effect in this context.
current = _SCOPE.get
#: Install a scope; returns the token :func:`restore` takes.
enter = _SCOPE.set
#: Restore the scope a token from :func:`enter` replaced.
restore = _SCOPE.reset


class scoped:
    """Context manager: the current scope with ``changes`` applied.

    The with-block sees ``value`` (what ``use_tracer`` and friends
    yield).  One-shot, like a generator context manager.
    """

    __slots__ = ("_value", "_changes", "_token")

    def __init__(self, value: object, **changes: object) -> None:
        self._value = value
        self._changes = changes

    def __enter__(self):
        self._token = _SCOPE.set(_SCOPE.get()._replace(**self._changes))
        return self._value

    def __exit__(self, *exc_info: object) -> None:
        _SCOPE.reset(self._token)
