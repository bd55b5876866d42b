"""Resource budgets for the completion search.

Algorithm 2 is worst-case exponential in the schema graph (the paper's
Section 5.4 reports multi-second CUPID completions even at E=1), so a
production deployment must be able to bound one search in *time* and in
*work* — and still get something useful back when the bound trips.
This module provides that governor:

* :class:`Budget` — an immutable *specification*: wall-clock deadline,
  node-expansion cap, recorded-paths cap, and search-stack depth cap,
  plus the ``partial_ok`` policy bit deciding whether a tripped search
  raises :class:`~repro.errors.BudgetExceededError` (carrying the
  best-so-far result) or returns the partial result flagged
  ``exhausted=False``.
* :class:`BudgetMeter` — one *armed* instance of a budget: the deadline
  is anchored when the meter starts, and :meth:`BudgetMeter.tripped` is
  the single check the traversal inner loop calls once per node
  expansion.  Deadline reads are sampled on an *adaptive* stride so the
  monotonic-clock call stays off the hot path without blowing small
  deadlines: the stride starts at 1 expansion and doubles up to
  ``check_interval`` only while the measured per-expansion cost says
  the next read will still land comfortably inside the deadline, then
  shrinks again as the deadline approaches (a fixed every-64 stride
  could overshoot a 10 ms deadline by whole milliseconds).
* :func:`get_budget` / :func:`use_budget` — a field of the ambient
  :class:`repro.scope.Scope`, beside the tracer, so a CLI flag or a
  session command can govern every completion in a dynamic scope
  without threading a parameter through each layer.

Anytime semantics rest on a property of the paper's path algebra
(Carré-style label iteration): every complete path recorded before the
trip is a genuinely consistent completion, and the best-so-far label
set is a valid bound — a truncated answer is *meaningful*, merely
possibly non-optimal and non-exhaustive.  The hard invariant enforced
downstream is that such truncated results are **never** cached.

The ``clock`` is injectable (any ``() -> float`` monotonic callable) so
deadline behavior is deterministic under test — see
:class:`repro.resilience.faults.FakeClock`.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections.abc import Callable

from repro.scope import current, scoped

__all__ = [
    "Budget",
    "BudgetMeter",
    "CancelSignal",
    "TruncationReason",
    "get_budget",
    "use_budget",
]

#: How many node expansions pass between deadline (clock) checks.
DEFAULT_CHECK_INTERVAL = 64


class TruncationReason:
    """String constants naming why a search stopped early.

    Plain strings (not an enum) so they serialize into
    ``CompletionResult.truncation_reason``, span attributes, and JSON
    reports without adapters.
    """

    DEADLINE = "deadline"
    NODES = "nodes"
    PATHS = "paths"
    DEPTH = "depth"
    CANCELLED = "cancelled"

    #: Reasons a meter itself can report (degradation adds its own).
    ALL = (DEADLINE, NODES, PATHS, DEPTH, CANCELLED)

    @staticmethod
    def degraded(e: int) -> str:
        """The reason recorded when the engine's degradation ladder
        answered at a lower relaxation than requested."""
        return f"degraded:e={e}"


class CancelSignal:
    """A cooperative, cross-thread cancel flag a :class:`Budget` carries.

    The deadline is a *scheduled* stop; this is an *asynchronous* one —
    the serving tier's drain path fires it so in-flight searches abort
    at the very next expansion instead of waiting for the next clock
    sample to observe the dilated drain clock.  :meth:`BudgetMeter.tripped`
    checks it on every call (one attribute read plus an
    ``Event.is_set`` when armed), and the trip latches like any other
    truncation reason, so ``partial_ok`` semantics apply unchanged: the
    caller still gets the best-so-far anytime answer, flagged with this
    signal's ``reason``.

    One signal may govern many budgets (the drain path shares a single
    signal across all queued requests) — cancelling is idempotent and
    there is no way to un-cancel.
    """

    __slots__ = ("_event", "reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason = TruncationReason.CANCELLED

    def cancel(self, reason: str = TruncationReason.CANCELLED) -> None:
        """Fire the signal; every meter checking it trips from now on."""
        self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:
        state = f"cancelled:{self.reason}" if self.cancelled else "armed"
        return f"CancelSignal({state})"


@dataclasses.dataclass(frozen=True)
class Budget:
    """An immutable resource-budget specification.

    Any field left ``None`` is unlimited.  ``partial_ok`` selects the
    anytime policy: ``False`` (the default) makes a tripped search raise
    :class:`~repro.errors.BudgetExceededError` carrying the best-so-far
    result; ``True`` returns the partial result flagged
    ``exhausted=False`` with a ``truncation_reason``.

    Parameters
    ----------
    max_seconds:
        Wall-clock deadline for one armed meter, measured on ``clock``.
    max_nodes:
        Cap on node expansions (the paper's *recursive calls*).
    max_paths:
        Cap on recorded complete paths.
    max_stack_depth:
        Cap on the iterative traversal's stack depth.
    partial_ok:
        Return flagged partial results instead of raising.
    clock:
        Monotonic time source; injectable for deterministic tests.
    check_interval:
        *Maximum* node expansions between deadline reads.  The armed
        meter adapts the actual stride between 1 and this bound based
        on the observed per-expansion cost (see :class:`BudgetMeter`).
    cancel:
        An optional :class:`CancelSignal` checked on *every* expansion
        (not just at clock samples), so an external event — serving-tier
        drain — aborts a search mid-expansion.
    """

    max_seconds: float | None = None
    max_nodes: int | None = None
    max_paths: int | None = None
    max_stack_depth: int | None = None
    partial_ok: bool = False
    clock: Callable[[], float] = time.monotonic
    check_interval: int = DEFAULT_CHECK_INTERVAL
    cancel: CancelSignal | None = None

    def __post_init__(self) -> None:
        for name in ("max_seconds", "max_nodes", "max_paths", "max_stack_depth"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.check_interval < 1:
            raise ValueError(
                f"check_interval must be >= 1, got {self.check_interval!r}"
            )

    @property
    def is_unlimited(self) -> bool:
        """True when no dimension is bounded (the meter never trips).

        A budget carrying a :class:`CancelSignal` is never unlimited —
        callers gate meter creation on this property, and the signal
        can only trip a meter that exists.
        """
        return (
            self.max_seconds is None
            and self.max_nodes is None
            and self.max_paths is None
            and self.max_stack_depth is None
            and self.cancel is None
        )

    @classmethod
    def from_millis(
        cls,
        deadline_ms: float | None = None,
        max_nodes: int | None = None,
        partial_ok: bool = False,
    ) -> "Budget":
        """The CLI-flag constructor (``--deadline-ms``/``--max-nodes``)."""
        return cls(
            max_seconds=deadline_ms / 1000.0 if deadline_ms is not None else None,
            max_nodes=max_nodes,
            partial_ok=partial_ok,
        )

    def allowing_partial(self) -> "Budget":
        """This budget with the ``partial_ok`` policy forced on.

        The engine's degradation ladder runs every rung under this
        variant so it can capture the best-so-far result and apply the
        caller's policy itself at the final rung.
        """
        if self.partial_ok:
            return self
        return dataclasses.replace(self, partial_ok=True)

    def start(self) -> "BudgetMeter":
        """Arm a meter: the deadline clock starts *now*."""
        return BudgetMeter(self)

    def describe(self) -> str:
        """One-line human rendering (session ``:budget``, CLI verbose)."""
        parts = []
        if self.max_seconds is not None:
            parts.append(f"deadline={self.max_seconds * 1000:g}ms")
        if self.max_nodes is not None:
            parts.append(f"nodes<={self.max_nodes}")
        if self.max_paths is not None:
            parts.append(f"paths<={self.max_paths}")
        if self.max_stack_depth is not None:
            parts.append(f"depth<={self.max_stack_depth}")
        parts.append("partial-ok" if self.partial_ok else "raise-on-trip")
        return " ".join(parts) if parts else "unlimited"


class BudgetMeter:
    """One armed run of a :class:`Budget`.

    The traversal calls :meth:`tripped` once per node expansion; the
    first non-``None`` return is latched in :attr:`reason` (a meter
    stays tripped — shared across the segments of a general expression,
    a later segment cannot "un-trip" it).

    Deadline sampling is adaptive.  A fixed every-``check_interval``
    read amortizes the clock call but lets a search blow a small
    deadline by up to ``check_interval`` expansions — milliseconds on a
    10 ms budget.  Instead the stride between reads starts at 1, and on
    each read the meter re-derives it from the measured per-expansion
    cost: the next read is scheduled no later than *half* the remaining
    time away (rounded down to a power of two, capped at
    ``check_interval``).  While the deadline is comfortably far the
    stride doubles up to the cap and the clock stays off the hot path;
    as the deadline nears, reads converge geometrically onto it, so the
    overshoot is bounded by roughly one expansion of variance rather
    than a whole fixed stride.
    """

    __slots__ = (
        "budget",
        "started_at",
        "deadline",
        "reason",
        "_countdown",
        "_stride",
    )

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.started_at = budget.clock()
        self.deadline = (
            self.started_at + budget.max_seconds
            if budget.max_seconds is not None
            else None
        )
        self.reason: str | None = None
        # First deadline read happens on the very first expansion; the
        # stride then adapts upward while the budget allows.
        self._stride = 1 if self.deadline is not None else budget.check_interval
        self._countdown = self._stride

    def tripped(self, nodes: int, paths: int, depth: int) -> str | None:
        """The inner-loop check: returns a truncation reason or ``None``.

        ``nodes``/``paths``/``depth`` are the traversal's current node
        expansion count, recorded complete paths, and stack depth.
        The cancel signal and caps are checked on every call (an event
        read and integer compares); the deadline is read on the
        adaptive stride described on the class.
        """
        if self.reason is not None:
            return self.reason
        budget = self.budget
        cancel = budget.cancel
        if cancel is not None and cancel.cancelled:
            self.reason = cancel.reason
        elif budget.max_nodes is not None and nodes >= budget.max_nodes:
            self.reason = TruncationReason.NODES
        elif budget.max_paths is not None and paths >= budget.max_paths:
            self.reason = TruncationReason.PATHS
        elif budget.max_stack_depth is not None and depth >= budget.max_stack_depth:
            self.reason = TruncationReason.DEPTH
        elif self.deadline is not None:
            self._countdown -= 1
            if self._countdown <= 0:
                now = budget.clock()
                if now >= self.deadline:
                    self.reason = TruncationReason.DEADLINE
                else:
                    self._retune_stride(now, nodes)
        return self.reason

    def _retune_stride(self, now: float, nodes: int) -> None:
        """Pick the next deadline-read stride after a read at ``now``.

        The stride is the largest power of two that is both within
        ``check_interval`` and — at the observed per-expansion cost —
        projected to consume at most half the remaining time.  With no
        cost signal yet (zero elapsed or zero expansions) it simply
        doubles, preserving the cheap ramp-up on fast hardware.
        """
        cap = self.budget.check_interval
        elapsed = now - self.started_at
        remaining = self.deadline - now  # type: ignore[operator] - read path
        if elapsed > 0.0 and nodes > 0:
            per_call = elapsed / nodes
            projected = remaining / (2.0 * per_call)
            stride = 1
            while stride < cap and stride * 2 <= projected:
                stride *= 2
        else:
            stride = min(self._stride * 2, cap)
        self._stride = stride
        self._countdown = stride

    def check_deadline_now(self) -> str | None:
        """An unsampled deadline read (segment boundaries, retries)."""
        if self.reason is not None:
            return self.reason
        cancel = self.budget.cancel
        if cancel is not None and cancel.cancelled:
            self.reason = cancel.reason
        elif self.deadline is not None and self.budget.clock() >= self.deadline:
            self.reason = TruncationReason.DEADLINE
        return self.reason

    def elapsed_seconds(self) -> float:
        return self.budget.clock() - self.started_at

    def remaining_seconds(self) -> float | None:
        """Seconds until the deadline (None when no deadline is set)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self.budget.clock())

    def __repr__(self) -> str:
        return (
            f"BudgetMeter({self.budget.describe()}, "
            f"tripped={self.reason or 'no'})"
        )


# ----------------------------------------------------------------------
# The ambient budget
# ----------------------------------------------------------------------

def get_budget() -> Budget | None:
    """The budget governing completions in the current dynamic scope."""
    return current().budget


def use_budget(budget: Budget | None) -> scoped:
    """Install ``budget`` as the ambient budget for the with-block.

    ``None`` explicitly clears any outer governor (used by code that
    must run to exhaustion, e.g. cache-warming benchmarks).
    """
    return scoped(budget, budget=budget)
