"""Tests for the better-than partial order (Figure 3 reconstruction)."""

import pytest

from repro.algebra.connectors import ALL_CONNECTORS, Connector
from repro.algebra.order import (
    DEFAULT_ORDER,
    default_order,
    flat_order,
    rank_order,
    total_order,
)
from repro.algebra.properties import (
    check_paper_incomparability_constraints,
    check_partial_order_axioms,
)

ISA = Connector.ISA
MAY = Connector.MAY_BE
HP = Connector.HAS_PART
PO = Connector.IS_PART_OF
AS = Connector.ASSOC
SB = Connector.SHARES_SUBPARTS
SP = Connector.SHARES_SUPERPARTS
IN = Connector.INDIRECT_ASSOC


class TestDefaultOrderAxioms:
    def test_is_a_strict_partial_order(self):
        assert check_partial_order_axioms(DEFAULT_ORDER) == []

    def test_satisfies_the_papers_incomparability_constraints(self):
        assert check_paper_incomparability_constraints(DEFAULT_ORDER) == []


class TestDefaultOrderShape:
    def test_isa_beats_every_non_taxonomic_connector(self):
        for connector in ALL_CONNECTORS:
            if connector.is_taxonomic:
                continue
            assert DEFAULT_ORDER.better(ISA, connector), connector.symbol

    def test_isa_and_maybe_are_incomparable(self):
        assert DEFAULT_ORDER.incomparable(ISA, MAY)

    def test_part_whole_beats_association(self):
        assert DEFAULT_ORDER.better(HP, AS)
        assert DEFAULT_ORDER.better(PO, AS)

    def test_association_beats_sharing(self):
        assert DEFAULT_ORDER.better(AS, SB)
        assert DEFAULT_ORDER.better(AS, SP)

    def test_sharing_beats_indirect(self):
        assert DEFAULT_ORDER.better(SB, IN)
        assert DEFAULT_ORDER.better(SP, IN)

    def test_inverses_are_incomparable(self):
        assert DEFAULT_ORDER.incomparable(HP, PO)
        assert DEFAULT_ORDER.incomparable(SB, SP)

    def test_plain_vs_its_possibly_incomparable(self):
        assert DEFAULT_ORDER.incomparable(HP, HP.possibly)
        assert DEFAULT_ORDER.incomparable(AS, AS.possibly)

    def test_possibly_sits_between_its_base_level_and_the_next(self):
        # plain has-part beats possibly-assoc; possibly-has-part beats assoc
        assert DEFAULT_ORDER.better(HP, AS.possibly)
        assert DEFAULT_ORDER.better(HP.possibly, AS)

    def test_possibly_inverse_pairs_are_incomparable(self):
        assert DEFAULT_ORDER.incomparable(HP, PO.possibly)
        assert DEFAULT_ORDER.incomparable(HP.possibly, PO.possibly)

    def test_minimal_picks_unbeaten_connectors(self):
        assert DEFAULT_ORDER.minimal({ISA, HP, IN}) == {ISA}
        assert DEFAULT_ORDER.minimal({HP, PO}) == {HP, PO}
        assert DEFAULT_ORDER.minimal(set()) == set()


class TestVariants:
    def test_flat_order_compares_nothing(self):
        order = flat_order()
        for first in ALL_CONNECTORS:
            for second in ALL_CONNECTORS:
                assert not order.better(first, second)

    def test_flat_order_is_a_valid_partial_order(self):
        assert check_partial_order_axioms(flat_order()) == []

    def test_rank_order_is_a_valid_partial_order(self):
        assert check_partial_order_axioms(rank_order()) == []
        assert check_partial_order_axioms(rank_order(strict_possibly=True)) == []

    def test_total_order_compares_almost_everything(self):
        order = total_order()
        comparable_pairs = sum(
            1
            for first in ALL_CONNECTORS
            for second in ALL_CONNECTORS
            if first is not second and order.comparable(first, second)
        )
        assert comparable_pairs == 14 * 13

    def test_total_order_violates_paper_constraints(self):
        # the point of the ablation: forcing totality breaks Figure 3
        assert check_paper_incomparability_constraints(total_order()) != []

    def test_default_order_factory_matches_module_default(self):
        assert default_order().pairs() == DEFAULT_ORDER.pairs()


class TestBeatsMap:
    def test_beats_map_mirrors_better(self):
        beats = DEFAULT_ORDER.beats_map()
        for first in ALL_CONNECTORS:
            for second in ALL_CONNECTORS:
                assert (second in beats[first]) == DEFAULT_ORDER.better(
                    first, second
                )

    def test_defeat_masks_mirror_better_and_are_shared(self):
        masks = DEFAULT_ORDER.defeat_masks()
        for winner in ALL_CONNECTORS:
            for loser in ALL_CONNECTORS:
                assert bool(masks[loser.index] >> winner.index & 1) == (
                    DEFAULT_ORDER.better(winner, loser)
                )
        # Memoized: every aggregator over the order reads one table.
        assert DEFAULT_ORDER.defeat_masks() is masks

    def test_repr_mentions_name(self):
        assert "default" in repr(DEFAULT_ORDER)
