"""The per-target closure tables against a reference builder.

:meth:`SchemaClosure._build_tables` folds each node's raw state
distances through the memoized :func:`repro.core.closure._fold` and
runs one shared relaxation, :func:`repro.core.closure._relax`.  The
builder it replaced — a backward 0/1-BFS plus a per-node Python fold —
is kept here, unchanged, as the oracle: over generated schemas and both
target kinds, reachable or not, ``tables_for`` must equal it field by
field.  The memoized fold is also checked alone against a direct
per-seam-class minimum over arbitrary 84-byte blocks.  (Repaired tables
are checked against fresh builds by ``test_delta_fuzz``.)
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.algebra.connectors import ALL_CONNECTORS
from repro.core.closure import (
    _CAP,
    _CON_ROWS,
    _INF,
    _N_CONNECTORS,
    _N_LAST_CLASSES,
    _N_PRIMARY,
    _PREPEND_WEIGHT,
    _PRIMARY_INDEX,
    _SEAM_BY_CLASS,
    _SORT_RANK,
    SchemaClosure,
    TargetTables,
    _fold,
)
from repro.core.target import ClassTarget, RelationshipTarget
from repro.model.graph import SchemaGraph
from repro.schemas.generator import GeneratorConfig, generate_schema

TABLE_FIELDS = (
    "reach_mask",
    "rows",
    "conns",
    "dist",
    "completing",
    "interior",
    "reach_pruned",
    "reach_dropped",
)

# ----------------------------------------------------------------------
# The reference builder: the table build before the memoized fold and
# the shared relaxation, kept verbatim (``self`` is the closure).
# ----------------------------------------------------------------------


def reference_build_tables(self, target):
    """Backward 0/1-BFS over (node, composed connector, first) states."""
    n = len(self.nodes)
    index = self.index
    stride = _N_CONNECTORS * _N_PRIMARY  # states per node
    dist = bytearray([_INF]) * (n * stride)
    queue: deque[tuple[int, int]] = deque()
    reach_mask = 0
    # In-edges along interior (non-completing) edges, as
    # (source index, primary index, weight row, CON row) tuples.
    in_edges: list[list] = [[] for _ in range(n)]
    for position, name in enumerate(self.nodes):
        for edge in self.graph.edges_from(name):
            connector = edge.connector
            primary = _PRIMARY_INDEX[connector]
            if target.is_completing_edge(edge):
                reach_mask |= 1 << position
                base = 0 if connector.is_taxonomic else 1
                state = (
                    position * _N_CONNECTORS + connector.index
                ) * _N_PRIMARY + primary
                if base < dist[state]:
                    dist[state] = base
                    queue.appendleft((state, base))
            else:
                in_edges[index[edge.target]].append(
                    (
                        position,
                        primary,
                        _PREPEND_WEIGHT[primary],
                        _CON_ROWS[connector.index],
                    )
                )
    while queue:
        state, d = queue.popleft()
        if d > dist[state]:
            continue  # stale queue entry
        node, rest = divmod(state, stride)
        composed, first = divmod(rest, _N_PRIMARY)
        for source, primary, weights, con_row in in_edges[node]:
            weight = weights[first]
            nd = d + weight
            if nd > _CAP:
                continue
            next_state = (
                source * _N_CONNECTORS + con_row[composed].index
            ) * _N_PRIMARY + primary
            if nd < dist[next_state]:
                dist[next_state] = nd
                if weight:
                    queue.append((next_state, nd))
                else:
                    queue.appendleft((next_state, nd))
    tables = reference_collapse_tables(self, dist, reach_mask)
    self._attach_edge_lists(tables, target)
    return tables


def reference_collapse_node(dist, node):
    """One node's collapsed row: fold the (first connector) axis
    into per-seam-class minima."""
    stride = _N_CONNECTORS * _N_PRIMARY
    base = node * stride
    row = bytearray([_INF]) * (_N_LAST_CLASSES * _N_CONNECTORS)
    achievable: list[int] = []
    for composed in range(_N_CONNECTORS):
        offset = base + composed * _N_PRIMARY
        segment = dist[offset : offset + _N_PRIMARY]
        if min(segment) >= _INF:
            continue
        achievable.append(composed)
        for last_class in range(_N_LAST_CLASSES):
            seam = _SEAM_BY_CLASS[last_class]
            best = _INF
            for first in range(_N_PRIMARY):
                d = segment[first]
                if d >= _INF:
                    continue
                value = d + seam[first]
                if value < best:
                    best = value
            if best < 0:
                best = 0
            elif best > _CAP:
                best = _CAP
            row[last_class * _N_CONNECTORS + composed] = best
    achievable.sort(key=lambda ci: ALL_CONNECTORS[ci].sort_rank)
    return bytes(row), tuple(achievable)


def reference_collapse_tables(self, dist, reach_mask):
    """Fold the (first connector) axis into per-seam-class minima."""
    rows: list[bytes] = []
    conns: list[tuple[int, ...]] = []
    for node in range(len(self.nodes)):
        row, achievable = reference_collapse_node(dist, node)
        rows.append(row)
        conns.append(achievable)
    return TargetTables(
        reach_mask=reach_mask,
        rows=rows,
        conns=conns,
        completing=[],
        interior=[],
        reach_pruned=[],
        dist=dist,
    )


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------

schemas = st.builds(
    GeneratorConfig,
    classes=st.integers(min_value=2, max_value=24),
    seed=st.integers(min_value=0, max_value=10_000),
    association_factor=st.sampled_from((0.0, 0.5, 1.2, 2.0)),
    isa_fraction=st.sampled_from((0.0, 0.25, 0.6)),
).map(generate_schema)

#: Distances the fold must handle: zero, the cap, the "no suffix"
#: sentinel, and anything in between.
distances = st.one_of(
    st.sampled_from((0, 1, _CAP, _INF)), st.integers(min_value=0, max_value=255)
)
blocks = st.lists(
    distances,
    min_size=_N_CONNECTORS * _N_PRIMARY,
    max_size=_N_CONNECTORS * _N_PRIMARY,
).map(bytes)


def _targets(graph: SchemaGraph, data) -> list:
    """Drawn targets of both kinds, plus a name nothing completes."""
    edges = [edge for name in graph.nodes() for edge in graph.edges_from(name)]
    targets = [
        RelationshipTarget("no_such_relationship"),
        ClassTarget("no_such_class"),
    ]
    if edges:
        relationship = data.draw(st.sampled_from(edges)).name
        targets.append(RelationshipTarget(relationship))
    targets.append(ClassTarget(data.draw(st.sampled_from(graph.nodes()))))
    return targets


class TestTablesMatchTheReferenceBuilder:
    @given(schema=schemas, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tables_for_equals_reference(self, schema, data):
        graph = SchemaGraph(schema)
        closure = SchemaClosure(graph)
        oracle = SchemaClosure(graph)
        for target in _targets(graph, data):
            got = closure.tables_for(target)
            want = reference_build_tables(oracle, target)
            for field in TABLE_FIELDS:
                assert getattr(got, field) == getattr(want, field), (
                    target.describe(),
                    field,
                )

    def test_unreachable_target_has_empty_tables(self, cupid_graph):
        tables = SchemaClosure(cupid_graph).tables_for(
            RelationshipTarget("no_such_relationship")
        )
        assert tables.reach_mask == 0
        assert not any(tables.conns)
        assert not any(tables.interior)
        assert set(tables.dist) == {_INF}


class TestMemoizedFold:
    @given(block=blocks)
    @settings(max_examples=300, deadline=None)
    def test_fold_is_the_per_seam_class_minimum(self, block):
        row, achievable = _fold(block)
        expected_row = bytearray([_INF]) * (_N_LAST_CLASSES * _N_CONNECTORS)
        expected_conns = []
        for composed in range(_N_CONNECTORS):
            segment = block[composed * _N_PRIMARY : (composed + 1) * _N_PRIMARY]
            finite = [
                (first, d) for first, d in enumerate(segment) if d != _INF
            ]
            if not finite:
                continue
            expected_conns.append(composed)
            for last_class in range(_N_LAST_CLASSES):
                minimum = min(
                    d + _SEAM_BY_CLASS[last_class][first] for first, d in finite
                )
                expected_row[last_class * _N_CONNECTORS + composed] = min(
                    max(minimum, 0), _CAP
                )
        assert row == bytes(expected_row)
        assert achievable == tuple(
            sorted(expected_conns, key=lambda ci: _SORT_RANK[ci])
        )
