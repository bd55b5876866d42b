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

``pruning="none"`` runs the same search loop over *uncut* tables
(:meth:`SchemaClosure.uncut_tables_for`), which keep every edge the
paper's Algorithm 2 considers.

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

import functools
import threading
import time
from collections import OrderedDict, deque

from repro.algebra.con_table import con_c
from repro.algebra.connectors import ALL_CONNECTORS, Connector, PRIMARY_CONNECTORS
from repro.algebra.semantic_length import COLLAPSIBLE, _TAXONOMIC
from repro.core.target import ClassTarget, RelationshipTarget, Target
from repro.model.graph import SchemaGraph

__all__ = [
    "CLOSURE_CACHE_SIZE",
    "PRUNING_MODES",
    "SchemaClosure",
    "TargetTables",
    "resolve_pruning",
]

#: Accepted values of the ``pruning`` argument: the closure cuts on, or
#: the same search loop with them off (the paper's Algorithm 2).
PRUNING_MODES = ("closure", "none")

#: Bound on the closures :meth:`SchemaClosure.for_graph` and
#: :meth:`SchemaClosure.evolved` keep by content, least recently used
#: dropped first: every schema edit registers one, and an artifact keeps
#: its own closure alive regardless.
CLOSURE_CACHE_SIZE = 32

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

#: States per node in the distance array: (composed connector, first
#: primary connector).
_STRIDE = _N_CONNECTORS * _N_PRIMARY

#: ``_NEXT_OFFSET[p][composed]`` — where, within the source node's
#: block of :data:`_STRIDE` states, prepending an edge with primary
#: connector index ``p`` to a suffix with composed connector
#: ``composed`` lands: ``CON_c(p, composed) * 6 + p``.
_NEXT_OFFSET: tuple[tuple[int, ...], ...] = tuple(
    tuple(
        _CONI[edge_conn.index][composed] * _N_PRIMARY + primary
        for composed in range(_N_CONNECTORS)
    )
    for primary, edge_conn in enumerate(PRIMARY_CONNECTORS)
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


@functools.lru_cache(maxsize=4096)
def _fold(block: bytes) -> tuple[bytes, tuple[int, ...]]:
    """One node's collapsed row and achievable connectors.

    ``block`` is the node's :data:`_STRIDE` raw state distances.  The
    (first connector) axis folds into per-seam-class minima, clamped to
    ``[0, _CAP]``; the achievable composed connectors come strongest
    (lowest sort rank) first.  Memoized on the block's bytes: nodes
    across tables and schemas repeat a small set of blocks, and the
    results are immutable, so sharing them is safe.
    """
    row = bytearray([_INF]) * (_N_LAST_CLASSES * _N_CONNECTORS)
    achievable: list[int] = []
    for composed in range(_N_CONNECTORS):
        offset = composed * _N_PRIMARY
        finite = [
            (first, d)
            for first, d in enumerate(block[offset : offset + _N_PRIMARY])
            if d < _INF
        ]
        if not finite:
            continue
        achievable.append(composed)
        for last_class in range(_N_LAST_CLASSES):
            seam = _SEAM_BY_CLASS[last_class]
            best = min(d + seam[first] for first, d in finite)
            row[last_class * _N_CONNECTORS + composed] = min(max(best, 0), _CAP)
    achievable.sort(key=_SORT_RANK.__getitem__)
    return bytes(row), tuple(achievable)


def _relax(
    dist: bytearray, queue: deque, in_edges: list[list], changed: set[int]
) -> None:
    """Run the backward 0/1-BFS worklist to its fixpoint.

    ``queue`` holds ``(state, distance)`` entries; ``in_edges[v]`` lists
    the interior edges into node ``v`` as ``(source, source *
    _STRIDE, _NEXT_OFFSET row, _PREPEND_WEIGHT row)``.  Updates are
    strict decreases over bounded non-negative integers, so the
    fixpoint does not depend on the order or distances of the seeds.
    Every node whose state improves is added to ``changed``.
    """
    popleft = queue.popleft
    append = queue.append
    appendleft = queue.appendleft
    while queue:
        state, d = popleft()
        if d > dist[state]:
            continue  # stale queue entry
        node, rest = divmod(state, _STRIDE)
        composed, first = divmod(rest, _N_PRIMARY)
        for source, source_base, offsets, weights in in_edges[node]:
            weight = weights[first]
            nd = d + weight
            if nd > _CAP:
                continue
            next_state = source_base + offsets[composed]
            if nd < dist[next_state]:
                dist[next_state] = nd
                changed.add(source)
                if weight:
                    append((next_state, nd))
                else:
                    appendleft((next_state, nd))


def resolve_pruning(pruning: str | None) -> str:
    """The ``pruning`` mode: the explicit value, else ``"closure"``."""
    if pruning is None:
        return "closure"
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
    ``cut``
        ``True`` for closure tables.  ``False`` for the *uncut* tables
        of :meth:`SchemaClosure.uncut_tables_for` (``pruning="none"``):
        no label bounds (``rows``/``conns``/``dist`` are empty), and
        ``reach_dropped`` holds only the dead ends — edges into classes
        with no out-edges, which the paper's loop never enters.
    ``drops_after``
        Uncut tables only: per node, ``drops_after[u][j]`` counts the
        dead ends that follow the ``j``-th interior edge in adjacency
        order (``j = 0``: all of them), so a budget trip can charge
        exactly the dead ends the paper's loop had reached.
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
        "cut",
        "drops_after",
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
        cut: bool = True,
        drops_after: list[tuple] | None = None,
    ) -> None:
        self.reach_mask = reach_mask
        self.rows = rows
        self.conns = conns
        self.completing = completing
        self.interior = interior
        self.reach_pruned = reach_pruned
        self.reach_dropped = [] if reach_dropped is None else reach_dropped
        self.dist = dist
        self.cut = cut
        self.drops_after = drops_after


def _differs(old, new) -> bool:
    """True when two edges of one ``(source, name)`` key are distinct
    edges for the closure (retargeted or re-kinded)."""
    return old.target != new.target or old.connector is not new.connector


def _target_cache_key(target: Target) -> tuple[str, str] | None:
    """A stable content key for the two concrete target types.

    Exotic :class:`~repro.core.target.Target` subclasses have no stable
    content key, so they get no closure tables; the search runs them on
    uncut tables built per search.
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

    #: Content cache, least recently used first (see CLOSURE_CACHE_SIZE).
    _cache: OrderedDict[str, "SchemaClosure"] = OrderedDict()
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
        self._uncut: dict[tuple[str, str], TargetTables] = {}
        # Table repairs inherited from an ancestor closure and not yet
        # asked for: key -> (ancestor table, chain of inserted edges).
        # See evolved() and tables_for().
        self._pending: dict[tuple[str, str], tuple[TargetTables, tuple]] = {}
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
        closure = cls._cached(key)
        if closure is not None:
            return closure
        return cls._publish(key, cls(graph))

    @classmethod
    def _cached(cls, key: str) -> "SchemaClosure | None":
        """The cached closure for ``key`` (marked recently used), or None."""
        with cls._cache_lock:
            closure = cls._cache.get(key)
            if closure is not None:
                cls._cache.move_to_end(key)
            return closure

    @classmethod
    def _publish(cls, key: str, closure: "SchemaClosure") -> "SchemaClosure":
        """Cache ``closure`` unless a concurrent build won; evict LRU."""
        with cls._cache_lock:
            closure = cls._cache.setdefault(key, closure)
            while len(cls._cache) > CLOSURE_CACHE_SIZE:
                cls._cache.popitem(last=False)
            return closure

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
        views.  The diff reads only the adjacency rows ``new_graph``
        rebuilt (:meth:`SchemaGraph.evolved
        <repro.model.graph.SchemaGraph.evolved>` shares every other row
        by identity), plus the rows of added and removed classes.

        * **reachability** is maintained per edge: a deletion recomputes
          only the *affected region* (rows that reached a deleted edge's
          source; every other row provably still holds and is used as a
          shortcut), an insertion ``u -> v`` unions ``reach[v]`` into
          every row that reaches ``u``;
        * **label-bound tables** are repaired by a localized relaxation
          seeded from the inserted edges (distances only decrease under
          insertion, so re-running the 0/1-BFS from the new frontier
          over the kept ``dist`` array converges on exactly the
          from-scratch fixpoint).  The repair waits for the first
          search that asks for the table (:meth:`tables_for`); until
          then the new closure holds only the ancestor table and a
          chain of the inserted edges, which further insertion-only
          edits extend by one link each — seeding once from every edge
          inserted since the ancestor reaches the same fixpoint.  A
          table a *deleted* edge participated in is dropped and lazily
          rebuilt — deletions can raise bounds, which seeded relaxation
          cannot express; deciding that reads the table's ``conns``, so
          a deletion first brings a pending table up to date.

        Falls back to a full rebuild when the node-order assumption
        (survivors keep their relative order, new classes appended) does
        not hold.  Either way the result is registered in the shared
        content cache, so a later :meth:`for_graph` on equal content
        finds it.
        """
        key = new_graph.fingerprint()
        cached = self._cached(key)
        if cached is not None:
            return cached
        return self._publish(key, self._evolve(new_graph))

    def _evolve(self, new_graph: SchemaGraph) -> "SchemaClosure":
        from repro.obs.metrics import get_metrics

        started = time.perf_counter()
        old_nodes = self.nodes
        new_nodes = tuple(new_graph.nodes())
        if new_nodes[: len(old_nodes)] == old_nodes:
            removed_classes: set[str] = set()
            if len(new_nodes) == len(old_nodes):
                index = self.index
            else:
                index = dict(self.index)
                for position in range(len(old_nodes), len(new_nodes)):
                    index[new_nodes[position]] = position
        else:
            new_set = set(new_nodes)
            removed_classes = {name for name in old_nodes if name not in new_set}
            survivors = [name for name in old_nodes if name in new_set]
            appended = [name for name in new_nodes if name not in self.index]
            if list(new_nodes) != survivors + appended:
                # Node order drifted (e.g. a schema rebuilt from scratch
                # rather than edited in place): positions are meaningless
                # across the two views, so patching would be wrong.
                return SchemaClosure(new_graph)
            index = {name: pos for pos, name in enumerate(new_nodes)}

        removed_edges, added_edges = self._edge_diff(new_graph)

        clone = SchemaClosure.__new__(SchemaClosure)
        clone.graph = new_graph
        clone.nodes = new_nodes
        clone.index = index
        clone._lock = threading.Lock()
        clone._tables = {}
        clone._uncut = {}
        clone._pending = {}

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
            get_metrics().counter("closure.incremental_repairs").inc()

        if not removed_classes:
            # Class removals reorder every node index the tables are
            # built around; cheaper to rebuild lazily than to remap.
            with self._lock:
                tables = dict(self._tables)
                pending = {
                    key: entry
                    for key, entry in self._pending.items()
                    if key not in tables
                }
            if removed_edges:
                for table_key in pending:
                    target = _target_from_cache_key(table_key)
                    tables[table_key] = self.tables_for(target)
                pending = {}
                tables = {
                    table_key: table
                    for table_key, table in tables.items()
                    if self._table_survives_removals(
                        table, _target_from_cache_key(table_key), removed_edges
                    )
                }
            # One link per edit and parent chain, shared by every table
            # it extends: a pending repair holds O(delta), not a copy.
            edges = tuple(added_edges)
            fresh = (edges, None)
            extended: dict[int, tuple] = {}
            for table_key, table in tables.items():
                clone._pending[table_key] = (table, fresh)
            for table_key, (base, chain) in pending.items():
                link = extended.get(id(chain))
                if link is None:
                    link = extended[id(chain)] = (edges, chain)
                clone._pending[table_key] = (base, link)

        clone.build_seconds = time.perf_counter() - started
        return clone

    def _edge_diff(self, new_graph: SchemaGraph) -> tuple[list, list]:
        """Removed/added edges between the two traversal views.

        Only rows that differ by identity are compared
        (:meth:`SchemaGraph.rows_changed_from
        <repro.model.graph.SchemaGraph.rows_changed_from>`): a row shared
        with this closure's graph holds the very same edges.  Edges are
        keyed by relationship identity ``(source, name)``; a retargeted
        or re-kinded key counts as remove + add, mirroring
        :meth:`SchemaDelta.diff <repro.model.delta.SchemaDelta.diff>`.
        """
        old_graph = self.graph
        removed: list = []
        added: list = []
        for name in new_graph.rows_changed_from(old_graph):
            old_edges = {edge.name: edge for edge in old_graph.edges_from(name)}
            new_edges = {edge.name: edge for edge in new_graph.edges_from(name)}
            for edge_name, edge in old_edges.items():
                other = new_edges.get(edge_name)
                if other is None or _differs(edge, other):
                    removed.append(edge)
            for edge_name, edge in new_edges.items():
                other = old_edges.get(edge_name)
                if other is None or _differs(edge, other):
                    added.append(edge)
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
            # Adjacency of the mid graph (old view minus deleted edges),
            # derived only for the affected rows the DFS below enters.
            mid_adjacency: dict[int, list[int]] = {}

            def mid_children(position: int) -> list[int]:
                children = mid_adjacency.get(position)
                if children is None:
                    children = mid_adjacency[position] = [
                        old_index[edge.target]
                        for edge in self.graph.edges_from(self.nodes[position])
                        if (edge.source, edge.name) not in removed_keys
                    ]
                return children

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
                    for child in mid_children(current):
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
        the *evolved* closure; ``tables`` comes from an ancestor).

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
        dist = bytearray(tables.dist)
        if len(dist) < n * _STRIDE:
            dist.extend(bytearray([_INF]) * (n * _STRIDE - len(dist)))
        reach_mask = tables.reach_mask
        index = self.index
        queue: deque[tuple[int, int]] = deque()
        changed: set[int] = set()

        for edge in added_edges:
            position = index[edge.source]
            connector = edge.connector
            if target.is_completing_edge(edge):
                reach_mask |= 1 << position
                base = 0 if connector.is_taxonomic else 1
                state = (
                    position * _STRIDE
                    + connector.index * _N_PRIMARY
                    + _PRIMARY_INDEX[connector]
                )
                if base < dist[state]:
                    dist[state] = base
                    changed.add(position)
                    queue.appendleft((state, base))
            else:
                # Re-seed every finite state of the new edge's child;
                # the relaxation carries them across the new edge (and
                # finds nothing new across the child's old in-edges,
                # which are already at the fixpoint).
                child_base = index[edge.target] * _STRIDE
                for state in range(child_base, child_base + _STRIDE):
                    if dist[state] < _INF:
                        queue.append((state, dist[state]))

        if queue:
            in_edges: list[list] = [[] for _ in range(n)]
            for position, name in enumerate(self.nodes):
                for edge in self.graph.edges_from(name):
                    if target.is_completing_edge(edge):
                        continue
                    primary = _PRIMARY_INDEX[edge.connector]
                    in_edges[index[edge.target]].append(
                        (
                            position,
                            position * _STRIDE,
                            _NEXT_OFFSET[primary],
                            _PREPEND_WEIGHT[primary],
                        )
                    )
            _relax(dist, queue, in_edges, changed)

        rows = list(tables.rows)
        conns = list(tables.conns)
        while len(rows) < n:
            rows.append(b"")
            conns.append(())
        raw = bytes(dist)
        for node in sorted(changed | set(range(len(tables.rows), n))):
            base = node * _STRIDE
            rows[node], conns[node] = _fold(raw[base : base + _STRIDE])

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

        A table inherited from an ancestor closure (see :meth:`evolved`)
        is repaired here, when a search first asks for it.  Concurrent
        first uses may both compute it; the first result published wins
        and every caller gets that one.

        Returns ``None`` for target types without a stable content key;
        the search then runs on :meth:`uncut_tables_for` for that query.
        """
        key = _target_cache_key(target)
        if key is None:
            return None
        tables = self._tables.get(key)
        if tables is not None:
            return tables
        pending = self._pending.get(key)
        if pending is None:
            tables = self._build_tables(target)
        else:
            tables = self._materialize(target, *pending)
        with self._lock:
            tables = self._tables.setdefault(key, tables)
            self._pending.pop(key, None)
        return tables

    def uncut_tables_for(self, target: Target) -> TargetTables:
        """The tables ``pruning="none"`` runs on: the paper's search.

        Only the edges into dead ends (classes with no out-edges, which
        the paper's loop skips without entering) are dropped, and the
        label-bound cut is off.  Memoized by content key; targets
        without one get fresh tables per call.
        """
        key = _target_cache_key(target)
        tables = self._uncut.get(key) if key is not None else None
        if tables is not None:
            return tables
        index = self.index
        edges_from = self.graph.edges_from
        is_completing = target.is_completing_edge
        tables = TargetTables(
            reach_mask=0,
            rows=[],
            conns=[],
            completing=[],
            interior=[],
            reach_pruned=[],
            dist=bytearray(),
            cut=False,
            drops_after=[],
        )
        for name in self.nodes:
            comp: list[tuple] = []
            inter: list[tuple] = []
            dropped: list = []
            # Per interior edge: the dead ends met before it.
            dead_before: list[int] = []
            for edge in edges_from(name):
                entry = (index[edge.target], edge.connector.index, edge)
                if is_completing(edge):
                    comp.append(entry)
                elif edges_from(edge.target):
                    inter.append(entry)
                    dead_before.append(len(dropped))
                else:
                    dropped.append(edge)
            tables.completing.append(tuple(comp))
            tables.interior.append(tuple(inter))
            tables.reach_pruned.append(len(dropped))
            tables.reach_dropped.append(tuple(dropped))
            tables.drops_after.append(
                (len(dropped), *(len(dropped) - d for d in dead_before))
            )
        if key is not None:
            with self._lock:
                tables = self._uncut.setdefault(key, tables)
        return tables

    def _materialize(
        self, target: Target, base: TargetTables, chain: tuple
    ) -> TargetTables:
        """Repair an ancestor's table for every edge inserted since.

        ``chain`` links one tuple of inserted edges per edit back to the
        ancestor.  Seeding the relaxation from all of them at once
        reaches the same fixpoint as repairing edit by edit (updates are
        order-insensitive strict decreases).
        """
        from repro.obs.metrics import get_metrics

        added: list = []
        while chain is not None:
            edges, chain = chain
            added.extend(edges)
        tables = self._repair_tables(base, target, added)
        get_metrics().counter("closure.incremental_repairs").inc()
        return tables

    def _build_tables(self, target: Target) -> TargetTables:
        """Backward 0/1-BFS over (node, composed connector, first) states."""
        n = len(self.nodes)
        index = self.index
        dist = bytearray([_INF]) * (n * _STRIDE)
        queue: deque[tuple[int, int]] = deque()
        reach_mask = 0
        # In-edges along interior (non-completing) edges, in the form
        # _relax reads.
        in_edges: list[list] = [[] for _ in range(n)]
        for position, name in enumerate(self.nodes):
            position_base = position * _STRIDE
            for edge in self.graph.edges_from(name):
                connector = edge.connector
                primary = _PRIMARY_INDEX[connector]
                if target.is_completing_edge(edge):
                    reach_mask |= 1 << position
                    base = 0 if connector.is_taxonomic else 1
                    state = (
                        position_base + connector.index * _N_PRIMARY + primary
                    )
                    if base < dist[state]:
                        dist[state] = base
                        queue.appendleft((state, base))
                else:
                    in_edges[index[edge.target]].append(
                        (
                            position,
                            position_base,
                            _NEXT_OFFSET[primary],
                            _PREPEND_WEIGHT[primary],
                        )
                    )
        _relax(dist, queue, in_edges, set())
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

    def _collapse_tables(
        self, dist: bytearray, reach_mask: int
    ) -> TargetTables:
        """Fold the (first connector) axis into per-seam-class minima."""
        raw = bytes(dist)
        rows: list[bytes] = []
        conns: list[tuple[int, ...]] = []
        for base in range(0, len(raw), _STRIDE):
            row, achievable = _fold(raw[base : base + _STRIDE])
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
