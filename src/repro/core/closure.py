"""The compile-time label closure (Carré's algebra as a precompute).

The paper frames disambiguation as an optimal-path computation in
Carré's path algebra, yet Algorithm 2 explores the schema graph blind:
it discovers only while traversing that a region can never complete, or
that every completion from a node composes to a label hopelessly worse
than the answers already in hand.  Both facts are properties of the
*schema*, not the query — so, following the algebra's own
transitive-closure formulation, this module computes them once per
compiled artifact:

* **reachability** — an all-pairs reachability matrix over the frozen
  adjacency (bitset rows, iterative Warshall over big-int masks);
* **label bounds** — for each (node, target) pair and each composed
  connector ``c`` achievable by a suffix from the node to a completing
  edge, the minimum semantic length of such a suffix, per seam class of
  the prefix it will be appended to.

:class:`~repro.core.completion.CompletionSearch` uses them as two new
cut rules (see ``pruning="closure"``):

* *reachability pruning* — never expand a node from which no completing
  edge is reachable;
* *label-bound pruning* — prune a node when every optimistic composed
  label from it (best-achievable connector under ``CON``, lower-bounded
  semantic length) is strictly worse than the current ``best[T]``
  frontier under AGG* at the requested E.  Caution-set membership is
  explicitly exempted so non-distributivity stays sound.

Admissibility
-------------
The bound tables are built by a backward 0/1-BFS over states
``(node, composed connector, first collapsed connector)``.  The state
is exact: prepending an edge ``e`` to a suffix whose first collapsed
connector is ``f`` changes the composed connector via ``CON_c`` and the
semantic length by ``base(e) + adj(e, f)`` — the same seam arithmetic
:meth:`~repro.algebra.semantic_length.SemanticLengthState.join` uses —
and every such increment is 0 or 1 (taxonomic edges are free, equal
part-whole connectors merge, everything else costs one).  The only
relaxation is dropping the acyclicity constraint, which *enlarges* the
suffix set and can therefore only lower the minimum: every bound is a
true lower bound on the semantic length of any completion suffix, and a
candidate built from it dominates (or ties) every real completion
through the node.

Costs are amortized like the artifact itself: closures are cached by
the traversal graph's content fingerprint (the
:class:`~repro.algebra.caution.CautionSets` precedent), so only the
first compile of a given schema content pays the build, and the
per-target tables are built lazily on first use and memoized.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque

from repro.algebra.con_table import con_c
from repro.algebra.connectors import ALL_CONNECTORS, Connector, PRIMARY_CONNECTORS
from repro.algebra.semantic_length import COLLAPSIBLE, _TAXONOMIC
from repro.core.target import ClassTarget, RelationshipTarget, Target
from repro.model.graph import SchemaGraph

__all__ = [
    "PRUNING_MODES",
    "SchemaClosure",
    "TargetTables",
    "has_static_adjacency",
    "resolve_pruning",
]

#: Accepted values of the ``pruning`` knob.
PRUNING_MODES = ("closure", "none")

#: Environment override consulted when no explicit mode is given — CI's
#: unpruned matrix leg runs the whole suite with ``REPRO_PRUNING=none``.
PRUNING_ENV_VAR = "REPRO_PRUNING"

#: Sentinel for "no suffix with this state exists" in the distance maps.
_INF = 255
#: Distances are capped below the sentinel; capping down is admissible.
_CAP = 254

_N_CONNECTORS = len(ALL_CONNECTORS)
_N_PRIMARY = len(PRIMARY_CONNECTORS)

#: Full-table connector composition by index: ``_CON_ROWS[a][b]`` is the
#: connector of ``CON_c(connector a, connector b)``.  The search uses it
#: to build optimistic complete labels without enum dictionary hops.
_CON_ROWS: tuple[tuple[Connector, ...], ...] = tuple(
    tuple(con_c(first, second) for second in ALL_CONNECTORS)
    for first in ALL_CONNECTORS
)

#: Index-only twin of ``_CON_ROWS`` for pure-integer inner loops.
_CONI: tuple[tuple[int, ...], ...] = tuple(
    tuple(connector.index for connector in row) for row in _CON_ROWS
)

#: ``sort_rank`` by connector index (the AGG tie-break order).
_SORT_RANK: tuple[int, ...] = tuple(
    connector.sort_rank for connector in ALL_CONNECTORS
)

_PRIMARY_INDEX: dict[Connector, int] = {
    connector: position for position, connector in enumerate(PRIMARY_CONNECTORS)
}


def _seam_adjustment(left: Connector, right: Connector) -> int:
    """The seam term of :meth:`SemanticLengthState.join` for one pair."""
    if left is right and left in COLLAPSIBLE:
        return 0 if left in _TAXONOMIC else -1
    if left in _TAXONOMIC and right in _TAXONOMIC:
        return 1
    return 0


#: ``_PREPEND_WEIGHT[p][f]`` — semantic-length increment of prepending an
#: edge with primary connector ``p`` to a suffix whose first collapsed
#: connector is ``f``: ``base(p) + adj(p, f)``, always 0 or 1.
_PREPEND_WEIGHT: tuple[tuple[int, ...], ...] = tuple(
    tuple(
        (0 if edge_conn in _TAXONOMIC else 1)
        + _seam_adjustment(edge_conn, first_conn)
        for first_conn in PRIMARY_CONNECTORS
    )
    for edge_conn in PRIMARY_CONNECTORS
)

#: Seam classes of a prefix's last collapsed connector.  Only the four
#: collapsible connectors interact with the suffix seam; everything else
#: (``.``, and the impossible non-primary cases) adjusts by zero.
_LAST_OTHER = 4
_LAST_CLASS_BY_INDEX: tuple[int, ...] = tuple(
    _PRIMARY_INDEX[connector]
    if connector in COLLAPSIBLE
    else _LAST_OTHER
    for connector in ALL_CONNECTORS
)
_N_LAST_CLASSES = 5

#: ``_SEAM_BY_CLASS[lc][f]`` — seam adjustment between a prefix whose
#: last collapsed connector falls in class ``lc`` and a suffix starting
#: with primary connector ``f``.
_SEAM_BY_CLASS: tuple[tuple[int, ...], ...] = tuple(
    tuple(
        _seam_adjustment(PRIMARY_CONNECTORS[lc], first_conn)
        if lc != _LAST_OTHER
        else 0
        for first_conn in PRIMARY_CONNECTORS
    )
    for lc in (*range(_N_PRIMARY), _LAST_OTHER)
)


def has_static_adjacency(graph: SchemaGraph) -> bool:
    """True when ``graph.edges_from`` is the plain frozen adjacency read.

    The closure tables snapshot the adjacency at build time and the
    closure traversal walks those snapshots instead of calling
    ``edges_from`` per node.  That is only sound — and only honest —
    when the adjacency is static: a proxied or monkeypatched
    ``edges_from`` (fault injection's :class:`FaultyGraph`, virtual-
    latency clocks) is a deliberate interception seam, so such graphs
    fall back to the reference loop, where every adjacency read goes
    through the override.
    """
    return (
        getattr(type(graph), "edges_from", None) is SchemaGraph.edges_from
        and "edges_from" not in getattr(graph, "__dict__", {})
    )


def resolve_pruning(pruning: str | None) -> str:
    """Resolve the ``pruning`` knob: explicit value, else the
    ``REPRO_PRUNING`` environment override, else ``"closure"``."""
    if pruning is None:
        pruning = os.environ.get(PRUNING_ENV_VAR) or "closure"
    if pruning not in PRUNING_MODES:
        raise ValueError(
            f"pruning must be one of {PRUNING_MODES}, got {pruning!r}"
        )
    return pruning


class _Bound:
    """A synthetic optimistic label: just the two attributes the AGG*
    membership test (:meth:`~repro.algebra.agg.Aggregator.keeps`) and
    the caution intersection read."""

    __slots__ = ("connector", "semantic_length")

    def __init__(self, connector: Connector, semantic_length: int) -> None:
        self.connector = connector
        self.semantic_length = semantic_length

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"_Bound({self.connector.symbol}, {self.semantic_length})"


class TargetTables:
    """The closure restricted to one completion target.

    ``reach_mask``
        Bitmask of node indices from which a completing edge departs.
    ``rows``
        Per node, a ``bytes`` table of shape (seam class × connector):
        ``rows[u][lc * 14 + c]`` lower-bounds the semantic length that a
        suffix from node ``u`` with composed connector ``c`` adds to a
        prefix whose last collapsed connector has seam class ``lc``
        (the prefix/suffix seam adjustment is already folded in).
    ``conns``
        Per node, the achievable composed-connector indices, strongest
        (lowest sort rank) first — an empty tuple means no completing
        edge is reachable along interior edges.
    ``completing``
        Per node, the completing edges as ``(target index, connector
        index, edge)`` tuples — what the search scans on entering the
        node instead of the full adjacency list.
    ``interior``
        Per node, the traversable edges as ``(child index, connector
        index, edge)`` tuples, with reachability pruning already
        applied: edges to children with an empty ``conns`` row are
        dropped at build time.
    ``reach_pruned``
        Per node, how many interior edges reachability pruning removed;
        charged to ``TraversalStats.nodes_pruned_reachability`` once per
        node entry (each entry would have considered each of them once).
    ``reach_dropped``
        Per node, those removed edges — the search audit log
        (:mod:`repro.core.audit`) emits one ``reachability`` cut record
        per entry for each, so the cross-mode diff can account for
        every edge the closure search never even considered.  Always
        ``len(reach_dropped[u]) == reach_pruned[u]``.
    ``dist``
        The raw pre-collapse state distances (node × composed connector
        × first connector).  Kept so :meth:`SchemaClosure.evolved` can
        repair the table in place after an edge insertion — distances
        only ever decrease under insertions, so a localized relaxation
        seeded from the new edges converges on exactly the from-scratch
        fixpoint.
    """

    __slots__ = (
        "reach_mask",
        "rows",
        "conns",
        "completing",
        "interior",
        "reach_pruned",
        "reach_dropped",
        "dist",
    )

    def __init__(
        self,
        reach_mask: int,
        rows: list[bytes],
        conns: list[tuple[int, ...]],
        completing: list[tuple],
        interior: list[tuple],
        reach_pruned: list[int],
        dist: bytearray,
        reach_dropped: list[tuple] | None = None,
    ) -> None:
        self.reach_mask = reach_mask
        self.rows = rows
        self.conns = conns
        self.completing = completing
        self.interior = interior
        self.reach_pruned = reach_pruned
        self.reach_dropped = [] if reach_dropped is None else reach_dropped
        self.dist = dist


def _target_cache_key(target: Target) -> tuple[str, str] | None:
    """A stable content key for the two concrete target types.

    Exotic :class:`~repro.core.target.Target` subclasses have no stable
    content key, so their tables are not memoized (the search falls back
    to unpruned traversal for them).
    """
    if isinstance(target, RelationshipTarget):
        return ("rel", target.relationship_name)
    if isinstance(target, ClassTarget):
        return ("class", target.class_name)
    return None


def _target_from_cache_key(key: tuple[str, str]) -> Target:
    """Reconstruct the concrete target from its memoization key."""
    kind, name = key
    return RelationshipTarget(name) if kind == "rel" else ClassTarget(name)


class SchemaClosure:
    """All-pairs reachability plus per-target label-bound tables.

    Construct via :meth:`for_graph`, which memoizes by the traversal
    graph's content fingerprint — the same compile-once discipline as
    :class:`~repro.algebra.caution.CautionSets`, so recompiling an
    unchanged schema never pays the closure again.
    """

    _cache: dict[str, "SchemaClosure"] = {}
    _cache_lock = threading.Lock()

    def __init__(self, graph: SchemaGraph) -> None:
        started = time.perf_counter()
        self.graph = graph
        self.nodes: tuple[str, ...] = tuple(graph.nodes())
        self.index: dict[str, int] = {
            name: position for position, name in enumerate(self.nodes)
        }
        self._reach: list[int] | None = None
        self._tables: dict[tuple[str, str], TargetTables] = {}
        self._lock = threading.Lock()
        self.build_seconds = time.perf_counter() - started

    @property
    def reach(self) -> list[int]:
        """Reachability bitset rows, built lazily on first traversal so
        registering the closure never inflates ``compile_seconds``."""
        rows = self._reach
        if rows is None:
            with self._lock:
                rows = self._reach
                if rows is None:
                    started = time.perf_counter()
                    rows = self._build_reachability()
                    self._reach = rows
                    self.build_seconds += time.perf_counter() - started
        return rows

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def for_graph(cls, graph: SchemaGraph) -> "SchemaClosure":
        """The closure for ``graph``, shared by content fingerprint."""
        key = graph.fingerprint()
        with cls._cache_lock:
            closure = cls._cache.get(key)
        if closure is not None:
            return closure
        closure = cls(graph)
        with cls._cache_lock:
            return cls._cache.setdefault(key, closure)

    @classmethod
    def clear_cache(cls) -> None:
        """Drop all cached closures (for tests and benchmarks)."""
        with cls._cache_lock:
            cls._cache.clear()

    # ------------------------------------------------------------------
    # Incremental maintenance under schema deltas
    # ------------------------------------------------------------------

    def evolved(self, new_graph: SchemaGraph) -> "SchemaClosure":
        """The closure for ``new_graph``, patched from this one.

        The incremental path of the delta layer: instead of re-running
        all-pairs Warshall and rebuilding every per-target table, the
        old closure is repaired along the diff between the two traversal
        views —

        * **reachability** is maintained per edge: a deletion recomputes
          only the *affected region* (rows that reached a deleted edge's
          source; every other row provably still holds and is used as a
          shortcut), an insertion ``u -> v`` unions ``reach[v]`` into
          every row that reaches ``u``;
        * **label-bound tables** are repaired by a localized relaxation
          seeded from the inserted edges (distances only decrease under
          insertion, so re-running the 0/1-BFS from the new frontier
          over the kept ``dist`` array converges on exactly the
          from-scratch fixpoint); a table a *deleted* edge participated
          in is dropped and lazily rebuilt — deletions can raise bounds,
          which seeded relaxation cannot express.

        Falls back to a full rebuild when the node-order assumption
        (survivors keep their relative order, new classes appended) does
        not hold.  Either way the result is registered in the shared
        content cache, so a later :meth:`for_graph` on equal content
        finds it.
        """
        key = new_graph.fingerprint()
        with self._cache_lock:
            cached = self._cache.get(key)
        if cached is not None:
            return cached
        closure = self._evolve(new_graph)
        with self._cache_lock:
            return self._cache.setdefault(key, closure)

    def _evolve(self, new_graph: SchemaGraph) -> "SchemaClosure":
        from repro.obs.metrics import get_metrics

        started = time.perf_counter()
        new_nodes = tuple(new_graph.nodes())
        new_set = set(new_nodes)
        removed_classes = {name for name in self.nodes if name not in new_set}
        survivors = [name for name in self.nodes if name in new_set]
        appended = [name for name in new_nodes if name not in self.index]
        if list(new_nodes) != survivors + appended:
            # Node order drifted (e.g. a schema rebuilt from scratch
            # rather than edited in place): positions are meaningless
            # across the two views, so patching would be wrong.
            return SchemaClosure(new_graph)

        removed_edges, added_edges = self._edge_diff(new_graph, new_nodes)

        clone = SchemaClosure.__new__(SchemaClosure)
        clone.graph = new_graph
        clone.nodes = new_nodes
        clone.index = {name: pos for pos, name in enumerate(new_nodes)}
        clone._lock = threading.Lock()
        repairs = 0

        old_reach = self._reach
        if old_reach is None:
            clone._reach = None  # never built — nothing to save
        else:
            clone._reach = self._patched_reach(
                old_reach,
                clone,
                removed_edges,
                added_edges,
                removed_classes,
            )
            repairs += 1

        clone._tables = {}
        with self._lock:
            old_tables = dict(self._tables)
        if not removed_classes:
            # Class removals reorder every node index the tables are
            # built around; cheaper to rebuild lazily than to remap.
            for table_key, tables in old_tables.items():
                target = _target_from_cache_key(table_key)
                if self._table_survives_removals(
                    tables, target, removed_edges
                ):
                    clone._tables[table_key] = clone._repair_tables(
                        tables, target, added_edges
                    )
                    repairs += 1

        clone.build_seconds = time.perf_counter() - started
        if repairs:
            get_metrics().counter("closure.incremental_repairs").inc(repairs)
        return clone

    def _edge_diff(
        self, new_graph: SchemaGraph, new_nodes: tuple[str, ...]
    ) -> tuple[list, list]:
        """Removed/added edges between the two traversal views.

        Edges are keyed by relationship identity ``(source, name)``; a
        retargeted or re-kinded key counts as remove + add, mirroring
        :meth:`SchemaDelta.diff <repro.model.delta.SchemaDelta.diff>`.
        """

        def edge_map(graph: SchemaGraph, nodes: tuple[str, ...]) -> dict:
            return {
                (edge.source, edge.name): edge
                for name in nodes
                for edge in graph.edges_from(name)
            }

        old_edges = edge_map(self.graph, self.nodes)
        new_edges = edge_map(new_graph, new_nodes)

        def differs(a, b) -> bool:
            return a.target != b.target or a.connector is not b.connector

        removed = [
            edge
            for key, edge in old_edges.items()
            if key not in new_edges or differs(edge, new_edges[key])
        ]
        added = [
            edge
            for key, edge in new_edges.items()
            if key not in old_edges or differs(edge, old_edges[key])
        ]
        return removed, added

    def _patched_reach(
        self,
        old_reach: list[int],
        clone: "SchemaClosure",
        removed_edges: list,
        added_edges: list,
        removed_classes: set[str],
    ) -> list[int]:
        """Maintain the reachability rows across the edge diff.

        Deletions first (on the old index space), then column/row
        compression for removed classes, then appended rows for new
        classes, then insertions one by one (on the new index space).
        """
        old_index = self.index
        reach = list(old_reach)

        if removed_edges or removed_classes:
            removed_keys = {
                (edge.source, edge.name) for edge in removed_edges
            }
            removed_src_mask = 0
            for edge in removed_edges:
                removed_src_mask |= 1 << old_index[edge.source]
            # Adjacency of the mid graph: old view minus deleted edges.
            mid_adjacency = [
                [
                    old_index[edge.target]
                    for edge in self.graph.edges_from(name)
                    if (edge.source, edge.name) not in removed_keys
                ]
                for name in self.nodes
            ]
            # A row is affected only if it reached a deleted edge's
            # source: any lost path must cross a deleted edge, and the
            # row reaches that edge's source along the path's prefix.
            affected = [
                position
                for position in range(len(self.nodes))
                if reach[position] & removed_src_mask
            ]
            affected_mask = 0
            for position in affected:
                affected_mask |= 1 << position
            for position in affected:
                # DFS over the mid graph, shortcutting through
                # unaffected rows: their old rows are still exact (no
                # path from them crosses a deleted edge), and anything
                # they reach is itself unaffected, so absorbed bits
                # need no further expansion.
                visited = 1 << position
                stack = [position]
                while stack:
                    current = stack.pop()
                    for child in mid_adjacency[current]:
                        bit = 1 << child
                        if visited & bit:
                            continue
                        if affected_mask & bit:
                            visited |= bit
                            stack.append(child)
                        else:
                            visited |= reach[child]
                reach[position] = visited

        if removed_classes:
            # Surviving rows hold no removed-class bits (every in-edge
            # of a removed class was deleted, so reaching one would
            # have required crossing a deleted edge — an affected row,
            # just recomputed over the mid graph where the class is
            # unreachable).  Compress the columns out and splice the
            # rows.
            removed_positions = sorted(
                (old_index[name] for name in removed_classes), reverse=True
            )
            compressed = []
            for position, name in enumerate(self.nodes):
                if name in removed_classes:
                    continue
                row = reach[position]
                for cut in removed_positions:
                    row = ((row >> (cut + 1)) << cut) | (row & ((1 << cut) - 1))
                compressed.append(row)
            reach = compressed

        for position in range(len(reach), len(clone.nodes)):
            reach.append(1 << position)  # new classes: reflexive only

        new_index = clone.index
        for edge in added_edges:
            # Single-edge closure: every row that reaches u now also
            # reaches everything v reaches.  The snapshot of reach[v]
            # is taken before the row sweep; the result is transitively
            # closed, so edges may be folded in sequentially.
            u_bit = 1 << new_index[edge.source]
            v_row = reach[new_index[edge.target]]
            for position in range(len(reach)):
                if reach[position] & u_bit:
                    reach[position] |= v_row
        return reach

    def _table_survives_removals(
        self, tables: TargetTables, target: Target, removed_edges: list
    ) -> bool:
        """True when no deleted edge participated in this table.

        A deleted *completing* edge shrinks the completion set and can
        raise bounds everywhere.  A deleted interior edge ``u -> v``
        contributed transitions only if ``v`` had any achievable
        completion (non-empty ``conns`` row); if it never contributed,
        the table is untouched by the deletion.
        """
        for edge in removed_edges:
            if target.is_completing_edge(edge):
                return False
            child = self.index.get(edge.target)
            if child is not None and tables.conns[child]:
                return False
        return True

    def _repair_tables(
        self, tables: TargetTables, target: Target, added_edges: list
    ) -> TargetTables:
        """Repair a surviving table for inserted edges (``self`` here is
        the *evolved* closure; ``tables`` comes from its predecessor).

        Distances only decrease under insertion, so seeding the standard
        relaxation worklist from the new edges over the kept ``dist``
        array reaches exactly the fixpoint a from-scratch build would.
        The worklist is order-insensitive (strict-decrease updates over
        bounded non-negative integers), so mixed-distance seeds are
        fine.  Only nodes whose states actually improved are
        re-collapsed; the per-node edge lists are re-derived from the
        new adjacency, which re-admits edges that reachability pruning
        dropped when their child's ``conns`` row was empty.
        """
        n = len(self.nodes)
        stride = _N_CONNECTORS * _N_PRIMARY
        dist = bytearray(tables.dist)
        if len(dist) < n * stride:
            dist.extend(bytearray([_INF]) * (n * stride - len(dist)))
        reach_mask = tables.reach_mask
        index = self.index
        queue: deque[tuple[int, int]] = deque()
        changed: set[int] = set()

        for edge in added_edges:
            position = index[edge.source]
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
                    changed.add(position)
                    queue.appendleft((state, base))
            else:
                # Relax the new interior edge once from every finite
                # state of its child; the worklist carries it on.
                child_base = index[edge.target] * stride
                weights = _PREPEND_WEIGHT[primary]
                con_row = _CON_ROWS[connector.index]
                for composed in range(_N_CONNECTORS):
                    offset = child_base + composed * _N_PRIMARY
                    for first in range(_N_PRIMARY):
                        d = dist[offset + first]
                        if d >= _INF:
                            continue
                        nd = d + weights[first]
                        if nd > _CAP:
                            continue
                        state = (
                            position * _N_CONNECTORS + con_row[composed].index
                        ) * _N_PRIMARY + primary
                        if nd < dist[state]:
                            dist[state] = nd
                            changed.add(position)
                            if weights[first]:
                                queue.append((state, nd))
                            else:
                                queue.appendleft((state, nd))

        if queue:
            in_edges: list[list] = [[] for _ in range(n)]
            for position, name in enumerate(self.nodes):
                for edge in self.graph.edges_from(name):
                    if target.is_completing_edge(edge):
                        continue
                    in_edges[index[edge.target]].append(
                        (
                            position,
                            _PRIMARY_INDEX[edge.connector],
                            _PREPEND_WEIGHT[_PRIMARY_INDEX[edge.connector]],
                            _CON_ROWS[edge.connector.index],
                        )
                    )
            while queue:
                state, d = queue.popleft()
                if d > dist[state]:
                    continue
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
                        changed.add(source)
                        if weight:
                            queue.append((next_state, nd))
                        else:
                            queue.appendleft((next_state, nd))

        rows = list(tables.rows)
        conns = list(tables.conns)
        while len(rows) < n:
            rows.append(b"")
            conns.append(())
        for node in sorted(changed | set(range(len(tables.rows), n))):
            rows[node], conns[node] = self._collapse_node(dist, node)

        repaired = TargetTables(
            reach_mask=reach_mask,
            rows=rows,
            conns=conns,
            completing=[],
            interior=[],
            reach_pruned=[],
            dist=dist,
        )
        self._attach_edge_lists(repaired, target)
        return repaired

    def _build_reachability(self) -> list[int]:
        """Reflexive-transitive reachability as big-int bitset rows."""
        n = len(self.nodes)
        index = self.index
        reach = [0] * n
        for position, name in enumerate(self.nodes):
            mask = 1 << position  # reflexive: a node reaches itself
            for edge in self.graph.edges_from(name):
                mask |= 1 << index[edge.target]
            reach[position] = mask
        # Warshall over bitset rows: when i reaches k, fold in k's row.
        for k in range(n):
            bit = 1 << k
            row_k = reach[k]
            for i in range(n):
                row_i = reach[i]
                if row_i & bit and row_i | row_k != row_i:
                    reach[i] = row_i | row_k
        return reach

    # ------------------------------------------------------------------
    # Per-target tables
    # ------------------------------------------------------------------

    def tables_for(self, target: Target) -> TargetTables | None:
        """The bound tables for ``target`` (memoized by content key).

        Returns ``None`` for target types without a stable content key;
        the search then runs without closure pruning for that query.
        """
        key = _target_cache_key(target)
        if key is None:
            return None
        tables = self._tables.get(key)
        if tables is not None:
            return tables
        tables = self._build_tables(target)
        with self._lock:
            return self._tables.setdefault(key, tables)

    def _build_tables(self, target: Target) -> TargetTables:
        """Backward 0/1-BFS over (node, composed connector, first) states."""
        n = len(self.nodes)
        index = self.index
        stride = _N_CONNECTORS * _N_PRIMARY  # states per node
        dist = bytearray([_INF]) * (n * stride)
        queue: deque[tuple[int, int]] = deque()
        reach_mask = 0
        # In-edges along interior (non-completing) edges, as
        # (source index, primary index, weight row, CON row) tuples.
        in_edges: list[list[tuple[int, int, tuple[int, ...], tuple[Connector, ...]]]] = [
            [] for _ in range(n)
        ]
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
        tables = self._collapse_tables(dist, reach_mask)
        self._attach_edge_lists(tables, target)
        return tables

    def _attach_edge_lists(
        self, tables: TargetTables, target: Target
    ) -> None:
        """Precompute per-node completing/interior edge views.

        Reachability pruning happens here, once: interior edges whose
        child has no achievable completion (empty ``conns`` — tighter
        than raw reachability, since it ignores paths that would cross a
        completing edge) never make it into the traversal's edge list.
        """
        index = self.index
        conns = tables.conns
        is_completing = target.is_completing_edge
        for name in self.nodes:
            comp: list[tuple] = []
            inter: list[tuple] = []
            dropped: list = []
            for edge in self.graph.edges_from(name):
                child_i = index[edge.target]
                if is_completing(edge):
                    comp.append((child_i, edge.connector.index, edge))
                elif conns[child_i]:
                    inter.append((child_i, edge.connector.index, edge))
                else:
                    dropped.append(edge)
            tables.completing.append(tuple(comp))
            tables.interior.append(tuple(inter))
            tables.reach_pruned.append(len(dropped))
            tables.reach_dropped.append(tuple(dropped))

    @staticmethod
    def _collapse_node(
        dist: bytearray, node: int
    ) -> tuple[bytes, tuple[int, ...]]:
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

    def _collapse_tables(
        self, dist: bytearray, reach_mask: int
    ) -> TargetTables:
        """Fold the (first connector) axis into per-seam-class minima."""
        rows: list[bytes] = []
        conns: list[tuple[int, ...]] = []
        for node in range(len(self.nodes)):
            row, achievable = self._collapse_node(dist, node)
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

    def __repr__(self) -> str:
        return (
            f"SchemaClosure(nodes={len(self.nodes)}, "
            f"targets={len(self._tables)}, "
            f"build={self.build_seconds * 1000:.1f}ms)"
        )
