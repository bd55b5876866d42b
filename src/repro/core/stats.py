"""Traversal statistics (paper Section 5.4).

The paper measures algorithm cost in *recursive calls* (each call is one
class-node exploration; 0.17 ms each on the original DecStation) plus
wall-clock response time.  :class:`TraversalStats` records those and the
pruning breakdown, so the benchmarks can report both the
hardware-independent and the wall-clock views.

Since the observability PR the dataclass is a *carrier*, not the
terminal sink: :meth:`TraversalStats.record_to` folds a run's counters
into a :class:`~repro.obs.metrics.MetricsRegistry`, where they
accumulate across queries as counters and per-query histograms.
"""

from __future__ import annotations

import dataclasses

__all__ = ["TraversalStats"]

#: Fields that describe a *shared* one-off cost rather than per-run
#: work.  :meth:`TraversalStats.add` combines them with ``max`` instead
#: of ``+``: every member of a batch over one compiled artifact carries
#: the same ``compile_seconds``, so summing would multiply the one-off
#: compile cost by the batch size.
_SHARED_FIELDS = frozenset({"compile_seconds"})


@dataclasses.dataclass
class TraversalStats:
    """Counters collected by one run of a completion traversal.

    The ``cache_*`` and ``compile_seconds`` fields belong to the
    compile-once/query-many layer (:mod:`repro.core.compiled`): they
    stay zero on raw :class:`~repro.core.completion.CompletionSearch`
    runs and are filled in by batch entry points such as
    :meth:`repro.core.engine.Disambiguator.complete_batch`, so warm/cold
    benchmark reports can show how much traversal work the shared
    completion cache absorbed.

    ``budget_trips`` counts searches stopped early by a
    :class:`~repro.resilience.budget.Budget`; a nonzero value means the
    run (or some member of an aggregated batch) returned an anytime
    partial result or was answered by the degradation ladder.

    Timing conventions:

    * ``elapsed_seconds`` is the wall-clock of the run that *produced*
      the result.  A cache hit hands back the frozen result of the cold
      run, so aggregating over a warm batch reports the work the cache
      absorbed, not the (near-zero) warm wall-clock — measure batch
      wall-clock around the batch call itself.
    * ``compile_seconds`` is the shared one-off artifact cost; it is
      combined with ``max`` by :meth:`add` (see ``_SHARED_FIELDS``).
    """

    recursive_calls: int = 0
    edges_considered: int = 0
    complete_paths_found: int = 0
    pruned_visited: int = 0
    pruned_target_bound: int = 0
    pruned_best_bound: int = 0
    rescued_by_caution: int = 0
    nodes_pruned_reachability: int = 0
    nodes_pruned_bound: int = 0
    preempted_paths: int = 0
    budget_trips: int = 0
    elapsed_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    compile_seconds: float = 0.0

    def add(self, other: "TraversalStats") -> None:
        """Accumulate another run's counters into this one.

        Per-run counters sum; shared one-off costs (currently
        ``compile_seconds``) take the max, because batch members over
        one artifact all carry the same compile time and summing would
        double-count it.
        """
        for name in _SUMMED_FIELD_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in _SHARED_FIELDS:
            setattr(self, name, max(getattr(self, name), getattr(other, name)))

    @property
    def seconds_per_call(self) -> float:
        """Average cost of one recursive call (the paper's 0.17 ms
        figure, on our hardware).

        Defined as 0.0 when ``recursive_calls == 0`` — a validated
        complete expression or a pure cache hit does no traversal work,
        so a per-call average is meaningless there.  Any wall-clock such
        a run did spend is still reported separately via
        ``elapsed_seconds`` (and in :meth:`as_dict` / ``str()``); never
        infer "free" from ``seconds_per_call == 0.0`` alone.
        """
        if self.recursive_calls == 0:
            return 0.0
        return self.elapsed_seconds / self.recursive_calls

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for reports: every field in declaration
        order, then ``seconds_per_call``.

        Equal to ``dataclasses.asdict(self) | {"seconds_per_call": ...}``
        (every field is a scalar, so there is nothing to deep-copy) at
        a fraction of its cost; the slow log calls this once per
        observed request.
        """
        values = {name: getattr(self, name) for name in _FIELD_NAMES}
        values["seconds_per_call"] = self.seconds_per_call
        return values

    def record_to(self, registry) -> None:
        """Fold this run's counters into a metrics registry.

        ``registry`` is duck-typed (anything with the
        :class:`~repro.obs.metrics.MetricsRegistry` interface); the
        ambient no-op registry makes this free when metrics are off.
        """
        registry.record_completion(self)

    def __str__(self) -> str:
        return (
            f"calls={self.recursive_calls} edges={self.edges_considered} "
            f"complete={self.complete_paths_found} "
            f"pruned(visited/target/best)="
            f"{self.pruned_visited}/{self.pruned_target_bound}/"
            f"{self.pruned_best_bound} "
            f"caution-rescues={self.rescued_by_caution} "
            f"closure(reach/bound)="
            f"{self.nodes_pruned_reachability}/{self.nodes_pruned_bound} "
            f"time={self.elapsed_seconds * 1000:.2f}ms"
        )

#: Precomputed once — ``add`` and ``as_dict`` sit on the warm-cache
#: hot loop, where a per-call ``dataclasses.fields`` walk is measurable.
_FIELD_NAMES = tuple(field.name for field in dataclasses.fields(TraversalStats))
_SUMMED_FIELD_NAMES = tuple(
    name for name in _FIELD_NAMES if name not in _SHARED_FIELDS
)
