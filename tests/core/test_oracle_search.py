"""``pruning="none"`` is the paper's Algorithm 2, call for call.

Production has one search loop, :func:`repro.core.kernel.run_flat`;
``pruning="none"`` runs it over uncut tables.  These tests hold it to
the verbatim rendering of the published ``traverse`` routine kept in
``tests/reference_search.py``: the same ranked paths, labels and
anytime flags, the same support footprint, and the same value in every
:class:`~repro.core.stats.TraversalStats` counter — including on
budget trips, where the two loops must stop at the same expansion
having counted the same edges.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.completion import CompletionSearch
from repro.core.target import ClassTarget, RelationshipTarget
from repro.errors import BudgetExceededError
from repro.model.graph import SchemaGraph
from repro.resilience.budget import Budget
from repro.schemas import build_hospital_schema, build_university_schema
from repro.schemas.generator import GeneratorConfig, generate_schema
from tests.reference_search import ReferenceSearch

#: Wall-clock fields; every other TraversalStats field is a counter.
_TIMINGS = ("elapsed_seconds", "compile_seconds")

_BUILTINS = {
    "university": build_university_schema(),
    "hospital": build_hospital_schema(),
}


def _observed(result):
    """Everything a caller can observe, counters included."""
    counters = {
        name: value
        for name, value in dataclasses.asdict(result.stats).items()
        if name not in _TIMINGS
    }
    return (
        tuple(str(path) for path in result.paths),
        tuple(str(label) for label in result.labels),
        result.exhausted,
        result.truncation_reason,
        result.support,
        counters,
    )


def _run(search_type, graph, root, target, budget, **kwargs):
    try:
        result = search_type(graph, **kwargs).run(root, target, budget=budget)
    except BudgetExceededError as error:  # pragma: no cover - partial_ok
        result = error.partial
    return _observed(result)


def _assert_same(graph, root, target, budget=None, **kwargs):
    got = _run(
        CompletionSearch, graph, root, target, budget, pruning="none", **kwargs
    )
    want = _run(ReferenceSearch, graph, root, target, budget, **kwargs)
    assert got == want, (root, target.describe(), budget, kwargs)


@st.composite
def _cases(draw):
    source = draw(st.sampled_from(("generated", "university", "hospital")))
    if source == "generated":
        schema = generate_schema(
            GeneratorConfig(
                classes=draw(st.integers(min_value=4, max_value=20)),
                seed=draw(st.integers(min_value=0, max_value=5_000)),
                association_factor=1.2,
            )
        )
    else:
        schema = _BUILTINS[source]
    graph = SchemaGraph(schema)
    nodes = sorted(graph.nodes())
    root = draw(st.sampled_from(nodes))
    if draw(st.booleans()):
        names = sorted({rel.name for rel in schema.relationships()})
        target = RelationshipTarget(draw(st.sampled_from(names)))
    else:
        target = ClassTarget(draw(st.sampled_from(nodes)))
    return graph, root, target


class TestOracleEquivalence:
    @given(
        case=_cases(),
        e=st.integers(min_value=1, max_value=3),
        caution=st.booleans(),
        max_depth=st.sampled_from((None, 2, 3, 5)),
        max_nodes=st.sampled_from((None, 1, 2, 5, 25, 80)),
    )
    @settings(max_examples=150, deadline=None)
    def test_uncut_kernel_equals_the_verbatim_loop(
        self, case, e, caution, max_depth, max_nodes
    ):
        graph, root, target = case
        budget = (
            Budget(max_nodes=max_nodes, partial_ok=True)
            if max_nodes is not None
            else None
        )
        _assert_same(
            graph,
            root,
            target,
            budget,
            e=e,
            use_caution_sets=caution,
            max_depth=max_depth,
        )

    @pytest.mark.parametrize("e", (1, 2))
    def test_section5_workload_call_for_call(self, cupid_graph, e):
        """The ten Section-5 CUPID queries: Figure 7's recursive-call
        counts, and every other counter, come out of the uncut kernel
        exactly as the paper's loop produces them."""
        from repro.experiments.workload import build_cupid_workload

        for query in build_cupid_workload():
            root, name = (part.strip() for part in query.text.split("~"))
            _assert_same(cupid_graph, root, RelationshipTarget(name), e=e)

    @pytest.mark.parametrize("max_nodes", (1, 3, 40, 200))
    def test_budget_trips_stop_at_the_same_expansion(
        self, cupid_graph, max_nodes
    ):
        _assert_same(
            cupid_graph,
            "experiment",
            RelationshipTarget("conductance"),
            Budget(max_nodes=max_nodes, partial_ok=True),
            e=2,
        )
