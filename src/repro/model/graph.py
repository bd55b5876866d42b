"""The schema graph used by the path computation (paper Sections 2.1, 3.2).

A schema *is* a directed graph — classes are nodes, relationships are
edges — but the completion algorithm needs a view optimized for
traversal: adjacency lists of labeled edges, cheap child ordering, and
an export to :mod:`networkx` for analyses (connectivity, diameter,
candidate-path counting cross-checks).

Each edge carries the label of paper Section 3.2: the connector of its
relationship kind and its semantic length (0 for Isa/May-Be, 1
otherwise).
"""

from __future__ import annotations

import dataclasses
import hashlib

import networkx as nx

from repro.algebra.connectors import Connector, connector_for_kind
from repro.model.kinds import RelationshipKind
from repro.model.relationships import Relationship
from repro.model.schema import Schema

__all__ = ["SchemaEdge", "SchemaGraph"]


@dataclasses.dataclass(frozen=True)
class SchemaEdge:
    """A traversable edge of the schema graph.

    Wraps a :class:`~repro.model.relationships.Relationship` together
    with its path-algebra label components.  The label components are
    materialized at construction (``compare=False`` keeps equality and
    hashing on the relationship alone): the traversal reads
    ``edge.target`` / ``edge.connector`` on its innermost loop, where
    per-access property dispatch is measurable.
    """

    relationship: Relationship
    source: str = dataclasses.field(init=False, compare=False, repr=False)
    target: str = dataclasses.field(init=False, compare=False, repr=False)
    name: str = dataclasses.field(init=False, compare=False, repr=False)
    connector: Connector = dataclasses.field(
        init=False, compare=False, repr=False
    )
    semantic_length: int = dataclasses.field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        rel = self.relationship
        object.__setattr__(self, "source", rel.source)
        object.__setattr__(self, "target", rel.target)
        object.__setattr__(self, "name", rel.name)
        object.__setattr__(self, "connector", connector_for_kind(rel.kind))
        object.__setattr__(self, "semantic_length", rel.kind.semantic_length)

    @property
    def kind(self) -> RelationshipKind:
        return self.relationship.kind

    def __str__(self) -> str:
        return f"{self.source}{self.kind.symbol}{self.name}"


class SchemaGraph:
    """Adjacency view of a schema for path computations.

    Parameters
    ----------
    schema:
        The schema to wrap.  The graph snapshots the schema's
        relationships at construction time; rebuild it after schema
        edits.
    exclude_classes:
        Optional set of class names whose nodes are removed from the
        traversal view.  This implements the paper's Section 5.2 domain
        knowledge ("certain classes should never be part of any
        completion"): edges into or out of excluded classes are dropped.
    exclude_relationships:
        Optional set of ``(source, name)`` pairs to drop individually.
    """

    def __init__(
        self,
        schema: Schema,
        exclude_classes: frozenset[str] | set[str] = frozenset(),
        exclude_relationships: (
            frozenset[tuple[str, str]] | set[tuple[str, str]]
        ) = frozenset(),
    ) -> None:
        self.schema = schema
        self.exclude_classes = frozenset(exclude_classes)
        self.exclude_relationships = frozenset(exclude_relationships)
        self._adjacency: dict[str, list[SchemaEdge]] = {
            cls.name: [] for cls in schema
        }
        for rel in schema.relationships():
            if rel.source in self.exclude_classes:
                continue
            if rel.target in self.exclude_classes:
                continue
            if rel.key in self.exclude_relationships:
                continue
            self._adjacency[rel.source].append(SchemaEdge(rel))
        # Sort children best-connector-first to aid branch-and-bound
        # (paper: "children[v] ... sorted in the order of best-to-worst
        # label of the edge").
        for edges in self._adjacency.values():
            edges.sort(key=lambda e: (e.connector.sort_rank, e.semantic_length))

    def nodes(self) -> list[str]:
        """All node (class) names, excluded ones removed."""
        return [
            name
            for name in self._adjacency
            if name not in self.exclude_classes
        ]

    def edges_from(self, node: str) -> list[SchemaEdge]:
        """Outgoing edges of ``node``, best label first."""
        return self._adjacency.get(node, [])

    def edges(self) -> list[SchemaEdge]:
        """All edges in the traversal view."""
        return [edge for edges in self._adjacency.values() for edge in edges]

    def edges_named(self, name: str) -> list[SchemaEdge]:
        """All edges whose relationship name is ``name``."""
        return [edge for edge in self.edges() if edge.name == name]

    def out_degree(self, node: str) -> int:
        """Number of outgoing edges of ``node``."""
        return len(self.edges_from(node))

    def fingerprint(self) -> str:
        """Content hash of the *traversal view*: the schema fingerprint
        combined with the applied exclusions.

        Two graphs over content-equal schemas with the same exclusions
        share the fingerprint; note the hash reflects the schema's
        *current* content, not the snapshot taken at construction — a
        mismatch with a stored fingerprint is how staleness is detected.
        """
        hasher = hashlib.sha256()
        hasher.update(self.schema.fingerprint().encode())
        for name in sorted(self.exclude_classes):
            hasher.update(f"XC|{name}\n".encode())
        for source, rel_name in sorted(self.exclude_relationships):
            hasher.update(f"XR|{source}|{rel_name}\n".encode())
        return hasher.hexdigest()

    def evolved(
        self, schema: Schema, touched: frozenset[str] | set[str]
    ) -> "SchemaGraph":
        """A graph over ``schema`` reusing rows untouched by a delta.

        ``touched`` is the delta's class frontier
        (:meth:`~repro.model.delta.SchemaDelta.touched_classes`): only
        those adjacency rows (plus rows for brand-new classes) are
        rebuilt from the schema; every other row — already-constructed
        ``SchemaEdge`` objects included — is shared with this graph.
        Rows of removed classes drop out naturally because the new
        adjacency iterates the *new* schema's class set.  Exclusions
        carry over unchanged.
        """
        clone = SchemaGraph.__new__(SchemaGraph)
        clone.schema = schema
        clone.exclude_classes = self.exclude_classes
        clone.exclude_relationships = self.exclude_relationships
        adjacency: dict[str, list[SchemaEdge]] = {}
        for cls in schema:
            name = cls.name
            if name not in touched and name in self._adjacency:
                adjacency[name] = self._adjacency[name]
                continue
            edges = [
                SchemaEdge(rel)
                for rel in schema.relationships_from(name)
                if rel.source not in self.exclude_classes
                and rel.target not in self.exclude_classes
                and rel.key not in self.exclude_relationships
            ]
            edges.sort(key=lambda e: (e.connector.sort_rank, e.semantic_length))
            adjacency[name] = edges
        clone._adjacency = adjacency
        return clone

    def rows_changed_from(self, other: "SchemaGraph") -> list[str]:
        """Names whose adjacency row differs from ``other``'s by identity.

        Against the graph it was :meth:`evolved` from, that is exactly
        the rebuilt rows plus the rows of removed classes: every other
        row is the very same list, holding the very same edges.
        """
        mine = self._adjacency
        theirs = other._adjacency
        changed = [
            name for name, row in mine.items() if theirs.get(name) is not row
        ]
        changed.extend(name for name in theirs if name not in mine)
        return changed

    def restricted(
        self,
        exclude_classes: frozenset[str] | set[str] = frozenset(),
        exclude_relationships: (
            frozenset[tuple[str, str]] | set[tuple[str, str]]
        ) = frozenset(),
    ) -> "SchemaGraph":
        """A new graph with additional exclusions applied."""
        return SchemaGraph(
            self.schema,
            exclude_classes=self.exclude_classes | frozenset(exclude_classes),
            exclude_relationships=(
                self.exclude_relationships | frozenset(exclude_relationships)
            ),
        )

    # ------------------------------------------------------------------
    # networkx interop
    # ------------------------------------------------------------------

    def to_networkx(self) -> nx.MultiDiGraph:
        """Export the traversal view as a :class:`networkx.MultiDiGraph`.

        Edge attributes: ``name``, ``kind`` (the symbol string),
        ``semantic_length``.  Useful for structural analyses; the
        completion algorithm itself runs on the native adjacency.
        """
        graph = nx.MultiDiGraph(name=self.schema.name)
        graph.add_nodes_from(self.nodes())
        for edge in self.edges():
            graph.add_edge(
                edge.source,
                edge.target,
                key=edge.name,
                name=edge.name,
                kind=edge.kind.symbol,
                semantic_length=edge.semantic_length,
            )
        return graph

    def structural_stats(self) -> dict[str, float]:
        """Size and shape statistics used in experiment reports."""
        graph = self.to_networkx()
        degrees = [graph.out_degree(node) for node in graph.nodes]
        return {
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "max_out_degree": max(degrees) if degrees else 0,
            "mean_out_degree": (
                sum(degrees) / len(degrees) if degrees else 0.0
            ),
            "weakly_connected_components": (
                nx.number_weakly_connected_components(graph)
            ),
        }

    def __repr__(self) -> str:
        return (
            f"SchemaGraph({self.schema.name!r}, nodes={len(self.nodes())}, "
            f"edges={len(self.edges())})"
        )
