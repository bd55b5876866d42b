"""The *better-than* partial order on connectors (paper Figure 3).

``c1 < c2`` (written ``order.better(c1, c2)``) means connector ``c1``
denotes a *stronger, more plausible* relationship than ``c2``; AGG keeps
the better label.  Figure 3 of the paper is an image; the default order
here is reconstructed from the constraints the text states explicitly:

* every connector is incomparable to itself;
* inverse connectors are incomparable;
* every connector is incomparable with its Possibly version;
* ``[@>, 0]`` acts as an annihilator of AGG, so ``@>`` must be at least
  as strong as everything comparable to it;
* the strength ranking follows the cited cognitive-science ordering:
  taxonomic < part-whole < association < sharing < indirect association.

The default order compares *effective ranks* (``2 * strength + 1`` extra
for Possibly variants) and excludes same-base and inverse-base pairs;
this is a genuine strict partial order (irreflexive, antisymmetric,
transitive — machine-checked in the tests).

Because the paper reports trying ~20 AGG alternatives, the order is a
pluggable strategy object; :func:`flat_order` and :func:`total_order`
are the ablation variants benchmarked in ``experiments.ablation``.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterable

from repro.algebra.connectors import ALL_CONNECTORS, Connector

__all__ = [
    "PartialOrder",
    "default_order",
    "flat_order",
    "total_order",
    "rank_order",
    "DEFAULT_ORDER",
]


class PartialOrder:
    """A strict partial order over the connector alphabet.

    Parameters
    ----------
    better_fn:
        Predicate ``(c1, c2) -> bool`` meaning "c1 is strictly better".
        It is evaluated once per ordered pair at construction and cached.
    name:
        Identifier used in ablation reports.
    """

    def __init__(
        self,
        better_fn: Callable[[Connector, Connector], bool],
        name: str = "custom",
    ) -> None:
        self.name = name
        self._better: frozenset[tuple[Connector, Connector]] = frozenset(
            (c1, c2)
            for c1 in ALL_CONNECTORS
            for c2 in ALL_CONNECTORS
            if c1 is not c2 and better_fn(c1, c2)
        )
        self._content_key: str | None = None
        self._defeat_masks: tuple[int, ...] | None = None

    def better(self, c1: Connector, c2: Connector) -> bool:
        """True if ``c1`` is strictly better (stronger) than ``c2``."""
        return (c1, c2) in self._better

    def comparable(self, c1: Connector, c2: Connector) -> bool:
        """True if one of the two connectors is strictly better."""
        return self.better(c1, c2) or self.better(c2, c1)

    def incomparable(self, c1: Connector, c2: Connector) -> bool:
        """True if neither connector is better (includes ``c1 is c2``)."""
        return not self.comparable(c1, c2)

    def minimal(self, connectors: Iterable[Connector]) -> set[Connector]:
        """The connectors of the set not beaten by another member."""
        items = set(connectors)
        return {
            c
            for c in items
            if not any(self.better(other, c) for other in items if other is not c)
        }

    def pairs(self) -> frozenset[tuple[Connector, Connector]]:
        """All strictly-better pairs (for introspection and tests)."""
        return self._better

    def content_key(self) -> str:
        """A stable digest of the order's *content* (its better-pairs).

        Two orders with identical pairs share the key regardless of how
        or when they were constructed; the caution-set cache and the
        :mod:`repro.core.compiled` registry key on this instead of
        ``id()``, which is unsound once an order is garbage-collected.
        """
        if self._content_key is None:
            pairs = sorted(
                (winner.symbol, loser.symbol) for winner, loser in self._better
            )
            blob = ";".join(f"{w}<{l}" for w, l in pairs)
            self._content_key = hashlib.sha256(blob.encode()).hexdigest()
        return self._content_key

    def beats_map(self) -> dict[Connector, frozenset[Connector]]:
        """``map[c]`` = the connectors ``c`` strictly beats.

        Precomputed view for hot loops (one set-membership test instead
        of a tuple construction per comparison).
        """
        result: dict[Connector, set[Connector]] = {c: set() for c in ALL_CONNECTORS}
        for winner, loser in self._better:
            result[winner].add(loser)
        return {c: frozenset(losers) for c, losers in result.items()}

    def defeat_masks(self) -> tuple[int, ...]:
        """``masks[i]`` has bit ``j`` set when connector ``j`` strictly
        beats connector ``i`` (by connector index).

        Memoized like :meth:`content_key`: every
        :class:`~repro.algebra.agg.Aggregator` over this order shares
        one table, so a new search instance does not re-derive it.
        """
        if self._defeat_masks is None:
            masks = [0] * len(ALL_CONNECTORS)
            for winner, loser in self._better:
                masks[loser.index] |= 1 << winner.index
            self._defeat_masks = tuple(masks)
        return self._defeat_masks

    def __repr__(self) -> str:
        return f"PartialOrder({self.name!r}, pairs={len(self._better)})"


def _excluded(c1: Connector, c2: Connector) -> bool:
    """Pairs the paper declares incomparable regardless of strength."""
    if c1.base is c2.base:
        return True  # same connector, or a connector vs. its Possibly twin
    if c1.inverse_base is c2.base:
        return True  # inverse connectors (and their Possibly versions)
    return False


def default_order() -> PartialOrder:
    """The reconstructed Figure 3 order (see module docstring)."""

    def better(c1: Connector, c2: Connector) -> bool:
        if _excluded(c1, c2):
            return False
        return c1.sort_rank < c2.sort_rank

    return PartialOrder(better, name="default")


def rank_order(strict_possibly: bool = False) -> PartialOrder:
    """Variant comparing base strength ranks only.

    With ``strict_possibly`` False (the default), a Possibly connector is
    a peer of its base rank, making e.g. ``$>`` and ``.*`` compare only
    by rank; with True, any plain connector beats any Possibly connector
    of equal or weaker rank.  Ablation variants for ``AGG``.
    """

    def better(c1: Connector, c2: Connector) -> bool:
        if _excluded(c1, c2):
            return False
        if c1.strength_rank != c2.strength_rank:
            return c1.strength_rank < c2.strength_rank
        if strict_possibly:
            return not c1.is_possibly and c2.is_possibly
        return False

    name = "rank-strict" if strict_possibly else "rank"
    return PartialOrder(better, name=name)


def flat_order() -> PartialOrder:
    """No connector beats any other — AGG degenerates to shortest-path.

    The ablation baseline: ranking by semantic length alone.
    """
    return PartialOrder(lambda c1, c2: False, name="flat")


def total_order() -> PartialOrder:
    """Every pair comparable (ties broken by alphabet position).

    Deliberately violates the paper's incomparability constraints; used
    in the ablation to show why forced totality loses plausible answers
    (AGG can never return the multiple completions the user must choose
    among).
    """
    position = {c: i for i, c in enumerate(ALL_CONNECTORS)}

    def better(c1: Connector, c2: Connector) -> bool:
        key1 = (c1.sort_rank, position[c1])
        key2 = (c2.sort_rank, position[c2])
        return key1 < key2

    return PartialOrder(better, name="total")


#: The order used everywhere by default.
DEFAULT_ORDER = default_order()
