"""The ``AGG`` and ``AGG*`` aggregation functions (paper Sections 3.4, 4.4).

Given a set of path labels, AGG keeps the optimal ones:

* primarily by the better-than partial order on connectors
  (Section 3.4.1): a label whose connector is beaten by another label's
  connector is dropped;
* secondarily by semantic length (Section 3.4.2): among labels whose
  connectors are incomparable, shorter semantic length wins.

``AGG*`` (Section 4.4) relaxes the secondary criterion: it keeps every
label whose semantic length is among the ``E`` lowest *distinct* lengths
surviving the connector filter (``E >= 1``; ``E = 1`` recovers AGG).

Labels are compared on their ``(connector, semantic length)`` pairs;
duplicates under that key collapse to one representative, matching the
paper's treatment of AGG as a function on label *sets*.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.algebra.labels import PathLabel
from repro.algebra.order import DEFAULT_ORDER, PartialOrder

__all__ = ["Aggregator", "agg", "agg_star", "dominates"]


def _label_sort_key(label: PathLabel) -> tuple[int, int]:
    return (label.semantic_length, label.connector.sort_rank)


def dominates(
    winner: PathLabel, loser: PathLabel, order: PartialOrder
) -> bool:
    """The pairwise AGG rule: does ``winner`` knock out ``loser``?

    True when winner's connector is strictly better, or the connectors
    are incomparable and winner is strictly semantically shorter.
    """
    if order.better(winner.connector, loser.connector):
        return True
    if order.better(loser.connector, winner.connector):
        return False
    return winner.semantic_length < loser.semantic_length


class Aggregator:
    """AGG/AGG* bound to a partial order and a relaxation parameter E.

    The completion algorithm holds one :class:`Aggregator` and calls it
    everywhere AGG* appears in the paper's Algorithm 2.

    Parameters
    ----------
    order:
        The better-than partial order on connectors.
    e:
        The AGG* relaxation parameter (number of lowest distinct
        semantic lengths retained); must be at least 1.
    """

    def __init__(
        self, order: PartialOrder | None = None, e: int = 1
    ) -> None:
        if e < 1:
            raise ValueError(f"E must be >= 1, got {e}")
        self.order = order if order is not None else DEFAULT_ORDER
        self.e = e
        # Bitmask view of the order: _beaten_by[i] has bit j set when
        # connector j strictly beats connector i.  Lets the inner loop
        # test "is this connector beaten by anything present" with one
        # AND.  Shared per order (PartialOrder.defeat_masks).
        self._beaten_by = list(self.order.defeat_masks())

    @property
    def beaten_by(self) -> list[int]:
        """Per-connector defeat bitmasks: ``beaten_by[i]`` has bit ``j``
        set when connector ``j`` strictly beats connector ``i``.  Shared
        with the closure bound cut, which uses it as a one-AND prefilter
        before the full :meth:`keeps` test."""
        return self._beaten_by

    # ------------------------------------------------------------------
    # Core aggregation
    # ------------------------------------------------------------------

    def aggregate(self, labels: Iterable[PathLabel]) -> list[PathLabel]:
        """AGG* over a label set; deterministic order, deduplicated.

        Theta (``[@>, 0]``) needs no special casing to act as the
        annihilator the paper's property 5 requires: in a schema with
        acyclic Isa, every nonempty cyclic path's label either has a
        connector Theta beats outright or is a taxonomic label with
        semantic length >= 1, so ordinary dominance filtering removes it
        (property-tested in ``tests/algebra/test_properties.py``).
        """
        unique = self._deduplicate(labels)
        if not unique:
            return []
        survivors = self._connector_filter(unique)
        return self._length_filter(survivors)

    def keeps(self, candidate: PathLabel, against: Iterable[PathLabel]) -> bool:
        """True if ``candidate`` survives AGG* over ``{candidate} ∪ against``.

        This is the membership test Algorithm 2 uses in its pruning
        conditions (lines 9-10): ``l_u ∈ AGG*({l_u} ∪ best[...])``.
        Implemented directly (no intermediate aggregate) because it runs
        once or twice per edge on the traversal's innermost loop; the
        semantics are identical to membership of ``candidate.key`` in
        :meth:`aggregate` of the merged set (property-tested).
        """
        beaten_by = self._beaten_by
        merged = [candidate]
        merged.extend(against)
        present = 0
        for label in merged:
            present |= 1 << label.connector.index
        if present & beaten_by[candidate.connector.index]:
            return False
        # Lengths of the connector-filter survivors.
        lengths: set[int] = set()
        for label in merged:
            if not (present & beaten_by[label.connector.index]):
                lengths.add(label.semantic_length)
        if len(lengths) <= self.e:
            return True  # the candidate's own length is always present
        allowed = sorted(lengths)[: self.e]
        return candidate.semantic_length <= allowed[-1]

    def merge(
        self, candidate: PathLabel, existing: list[PathLabel]
    ) -> list[PathLabel]:
        """Exact fast path for ``aggregate([candidate, *existing])``
        when ``existing`` is itself an aggregate output (internally
        deduplicated) — the line-12 ``best[u]`` update of Algorithm 2,
        which runs once per surviving edge on the traversal's innermost
        loop.  Returns the same labels in the same order as
        :meth:`aggregate` (property-tested)."""
        if not existing:
            return [candidate]
        connector = candidate.connector
        length = candidate.semantic_length
        merged = [candidate]
        for label in existing:
            if label.connector is connector and label.semantic_length == length:
                continue  # duplicate key; candidate is the representative
            merged.append(label)
        beaten_by = self._beaten_by
        present = 0
        for label in merged:
            present |= 1 << label.connector.index
        survivors = [
            label
            for label in merged
            if not (present & beaten_by[label.connector.index])
        ]
        if len(survivors) > 1:
            lengths = sorted({label.semantic_length for label in survivors})
            if len(lengths) > self.e:
                allowed = set(lengths[: self.e])
                survivors = [
                    label
                    for label in survivors
                    if label.semantic_length in allowed
                ]
        survivors.sort(key=_label_sort_key)
        return survivors

    def improves(
        self, candidate: PathLabel, existing: Iterable[PathLabel]
    ) -> bool:
        """True if adding ``candidate`` changes AGG* of ``existing``."""
        existing = list(existing)
        before = {label.key for label in self.aggregate(existing)}
        after = {
            label.key for label in self.aggregate([candidate, *existing])
        }
        return before != after

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _deduplicate(labels: Iterable[PathLabel]) -> list[PathLabel]:
        seen: dict[tuple, PathLabel] = {}
        for label in labels:
            seen.setdefault(label.key, label)
        return list(seen.values())

    def _connector_filter(self, labels: list[PathLabel]) -> list[PathLabel]:
        """Drop labels whose connector is beaten by another label's."""
        beaten_by = self._beaten_by
        present = 0
        for label in labels:
            present |= 1 << label.connector.index
        return [
            label
            for label in labels
            if not (present & beaten_by[label.connector.index])
        ]

    def _length_filter(self, labels: list[PathLabel]) -> list[PathLabel]:
        """Keep labels with the E lowest distinct semantic lengths."""
        lengths = sorted({label.semantic_length for label in labels})
        cutoff = lengths[: self.e]
        allowed = set(cutoff)
        kept = [
            label for label in labels if label.semantic_length in allowed
        ]
        kept.sort(key=_label_sort_key)
        return kept

    def with_e(self, e: int) -> "Aggregator":
        """A copy of this aggregator with a different E."""
        return Aggregator(self.order, e=e)

    def __repr__(self) -> str:
        return f"Aggregator(order={self.order.name!r}, e={self.e})"


def agg(
    labels: Iterable[PathLabel], order: PartialOrder | None = None
) -> list[PathLabel]:
    """The paper's plain AGG (equals AGG* with ``E = 1``)."""
    return Aggregator(order, e=1).aggregate(labels)


def agg_star(
    labels: Iterable[PathLabel],
    e: int,
    order: PartialOrder | None = None,
) -> list[PathLabel]:
    """The paper's AGG* with relaxation parameter ``e``."""
    return Aggregator(order, e=e).aggregate(labels)
