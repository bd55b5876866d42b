"""Schema deltas as first-class commands.

The paper's machinery assumes a fixed schema, but its motivating
workload — a designer interactively shaping a conceptual schema while
probing it with incomplete path expressions — edits and queries in the
same session.  This module reifies the edits: a :class:`SchemaDelta` is
a sequence of primitive, invertible commands over the class set and the
relationship set, and every layer above the model (the compiled
artifact, the label closure, the completion cache) consumes deltas
instead of rebuilding from the fingerprint.

Commands are deliberately *single-edge* primitives: adding a
relationship adds exactly one directed edge (the paper's auto-installed
inverse is a second command — :func:`relationship_pair` builds the
conventional pair).  Single-edge granularity is what makes the closure's
incremental maintenance (:meth:`repro.core.closure.SchemaClosure.evolved`)
a per-edge row/column propagation rather than a batch recompute.

Three properties every command guarantees:

* **applicable** — ``apply_to(schema)`` either performs the edit or
  raises (:class:`~repro.errors.DeltaError` on a content mismatch, the
  usual schema errors otherwise) leaving the schema untouched;
* **invertible** — ``invert()`` returns the command that exactly undoes
  it; for removals this works because the command snapshots what it
  removes (a :class:`RemoveRelationship` carries the full
  :class:`~repro.model.relationships.Relationship`);
* **footprinted** — ``touched`` names every class the edit involves,
  the frontier that drives surgical cache invalidation and localized
  closure repair.

:meth:`SchemaDelta.diff` constructs the delta between two schemas, so
"edit a scratch copy, diff, apply" is always available when composing
commands by hand is awkward.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.errors import DeltaError
from repro.model.kinds import RelationshipKind
from repro.model.relationships import Relationship

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.model.schema import Schema

__all__ = [
    "AddClass",
    "AddInheritanceEdge",
    "AddRelationship",
    "DeltaCommand",
    "RemoveClass",
    "RemoveInheritanceEdge",
    "RemoveRelationship",
    "SchemaDelta",
    "relationship_pair",
]


class DeltaCommand:
    """Base class of the primitive schema-edit commands.

    Subclasses are frozen dataclasses implementing ``apply_to``,
    ``invert``, and the ``touched`` footprint.
    """

    def apply_to(self, schema: "Schema") -> None:
        raise NotImplementedError

    def invert(self) -> "DeltaCommand":
        raise NotImplementedError

    @property
    def touched(self) -> frozenset[str]:
        """The class names this edit involves (the delta's frontier)."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human rendering (sessions echo it after ``:edit``)."""
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class AddClass(DeltaCommand):
    """Add a user-defined class."""

    name: str
    doc: str = ""

    def apply_to(self, schema: "Schema") -> None:
        schema.add_class(self.name, doc=self.doc)

    def invert(self) -> "RemoveClass":
        return RemoveClass(self.name, doc=self.doc)

    @property
    def touched(self) -> frozenset[str]:
        return frozenset((self.name,))

    def describe(self) -> str:
        return f"add class {self.name}"


@dataclasses.dataclass(frozen=True)
class RemoveClass(DeltaCommand):
    """Remove a user-defined class.

    The class must be isolated when the command runs — a well-formed
    delta removes the class's relationships first (``diff`` orders its
    commands that way), which is exactly what keeps the command
    invertible without snapshotting edges.  ``doc`` is carried only so
    ``invert`` restores the definition verbatim.
    """

    name: str
    doc: str = ""

    def apply_to(self, schema: "Schema") -> None:
        schema.remove_class(self.name)

    def invert(self) -> "AddClass":
        return AddClass(self.name, doc=self.doc)

    @property
    def touched(self) -> frozenset[str]:
        return frozenset((self.name,))

    def describe(self) -> str:
        return f"remove class {self.name}"


@dataclasses.dataclass(frozen=True)
class AddRelationship(DeltaCommand):
    """Add exactly one directed relationship (no automatic inverse)."""

    relationship: Relationship

    def apply_to(self, schema: "Schema") -> None:
        rel = self.relationship
        schema.add_relationship(
            rel.source,
            rel.target,
            rel.kind,
            name=rel.name,
            add_inverse=False,
            doc=rel.doc,
        )

    def invert(self) -> "RemoveRelationship":
        return RemoveRelationship(self.relationship)

    @property
    def touched(self) -> frozenset[str]:
        return frozenset((self.relationship.source, self.relationship.target))

    def describe(self) -> str:
        rel = self.relationship
        return f"add {rel.source} {rel.kind.symbol}{rel.name} -> {rel.target}"


@dataclasses.dataclass(frozen=True)
class RemoveRelationship(DeltaCommand):
    """Remove one directed relationship.

    Carries the full :class:`~repro.model.relationships.Relationship`
    snapshot and refuses to apply when the schema's stored edge has
    drifted from it (different target or kind) — silently removing a
    different edge would make ``invert`` restore the wrong one.
    """

    relationship: Relationship

    def apply_to(self, schema: "Schema") -> None:
        expected = self.relationship
        stored = schema.get_relationship(expected.source, expected.name)
        if stored.target != expected.target or stored.kind is not expected.kind:
            raise DeltaError(
                f"cannot remove {expected.source}.{expected.name}: schema "
                f"holds {stored.kind.symbol}{stored.name} -> {stored.target}, "
                f"command expects {expected.kind.symbol}{expected.name} -> "
                f"{expected.target}"
            )
        schema.remove_relationship(expected.source, expected.name)

    def invert(self) -> "AddRelationship":
        return AddRelationship(self.relationship)

    @property
    def touched(self) -> frozenset[str]:
        return frozenset((self.relationship.source, self.relationship.target))

    def describe(self) -> str:
        rel = self.relationship
        return (
            f"remove {rel.source} {rel.kind.symbol}{rel.name} -> {rel.target}"
        )


@dataclasses.dataclass(frozen=True)
class AddInheritanceEdge(DeltaCommand):
    """Add an Isa edge ``subclass @> superclass`` (default-named)."""

    subclass: str
    superclass: str

    @property
    def relationship(self) -> Relationship:
        return Relationship.isa(self.subclass, self.superclass)

    def apply_to(self, schema: "Schema") -> None:
        AddRelationship(self.relationship).apply_to(schema)

    def invert(self) -> "RemoveInheritanceEdge":
        return RemoveInheritanceEdge(self.subclass, self.superclass)

    @property
    def touched(self) -> frozenset[str]:
        return frozenset((self.subclass, self.superclass))

    def describe(self) -> str:
        return f"add isa {self.subclass} @> {self.superclass}"


@dataclasses.dataclass(frozen=True)
class RemoveInheritanceEdge(DeltaCommand):
    """Remove the default-named Isa edge ``subclass @> superclass``."""

    subclass: str
    superclass: str

    @property
    def relationship(self) -> Relationship:
        return Relationship.isa(self.subclass, self.superclass)

    def apply_to(self, schema: "Schema") -> None:
        RemoveRelationship(self.relationship).apply_to(schema)

    def invert(self) -> "AddInheritanceEdge":
        return AddInheritanceEdge(self.subclass, self.superclass)

    @property
    def touched(self) -> frozenset[str]:
        return frozenset((self.subclass, self.superclass))

    def describe(self) -> str:
        return f"remove isa {self.subclass} @> {self.superclass}"


@dataclasses.dataclass(frozen=True)
class SchemaDelta:
    """A composable, invertible sequence of schema-edit commands."""

    commands: tuple[DeltaCommand, ...] = ()

    @classmethod
    def of(cls, *parts: "DeltaCommand | SchemaDelta") -> "SchemaDelta":
        """Build a delta from commands and/or other deltas (flattened)."""
        commands: list[DeltaCommand] = []
        for part in parts:
            if isinstance(part, SchemaDelta):
                commands.extend(part.commands)
            elif isinstance(part, DeltaCommand):
                commands.append(part)
            else:
                raise TypeError(
                    f"expected DeltaCommand or SchemaDelta, got {part!r}"
                )
        return cls(tuple(commands))

    @classmethod
    def diff(cls, old: "Schema", new: "Schema") -> "SchemaDelta":
        """The delta that edits ``old``'s content into ``new``'s.

        Commands come out in a safe application order: relationship
        removals first, then class removals (so classes are isolated
        when removed), then class additions, then relationship
        additions.  A relationship whose ``(source, name)`` key survives
        but whose target or kind changed becomes a remove + add pair.
        Declaration *order* is not reproduced — the paper's semantics
        (and the fingerprint) are declaration-order independent.
        Default-named Isa edges are rendered as inheritance-edge
        commands so edit logs read like the modeling operation they are.
        """
        commands: list[DeltaCommand] = []
        old_rels = {rel.key: rel for rel in old.relationships()}
        new_rels = {rel.key: rel for rel in new.relationships()}
        old_classes = {cls_.name: cls_ for cls_ in old.classes(False)}
        new_classes = {cls_.name: cls_ for cls_ in new.classes(False)}

        def changed(key: tuple[str, str]) -> bool:
            before, after = old_rels[key], new_rels[key]
            return before.target != after.target or before.kind is not after.kind

        for key in sorted(old_rels):
            if key not in new_rels or changed(key):
                commands.append(_remove_relationship_command(old_rels[key]))
        for name in sorted(old_classes):
            if name not in new_classes:
                commands.append(
                    RemoveClass(name, doc=old_classes[name].doc)
                )
        for name in sorted(new_classes):
            if name not in old_classes:
                commands.append(AddClass(name, doc=new_classes[name].doc))
        for key in sorted(new_rels):
            if key not in old_rels or changed(key):
                commands.append(_add_relationship_command(new_rels[key]))
        return cls(tuple(commands))

    def then(self, other: "SchemaDelta | DeltaCommand") -> "SchemaDelta":
        """Sequential composition: this delta followed by ``other``."""
        return SchemaDelta.of(self, other)

    def invert(self) -> "SchemaDelta":
        """The delta that exactly undoes this one (commands reversed)."""
        return SchemaDelta(
            tuple(command.invert() for command in reversed(self.commands))
        )

    def apply_to(self, schema: "Schema") -> None:
        """Apply every command to ``schema``, in order."""
        for command in self.commands:
            command.apply_to(schema)

    def touched_classes(self) -> frozenset[str]:
        """Union of the per-command footprints — the delta's frontier.

        The structural-patch set: the graph layer rebuilds exactly these
        adjacency rows, and the closure repair seeds its localized BFS
        from edges incident to them.
        """
        touched: set[str] = set()
        for command in self.commands:
            touched |= command.touched
        return frozenset(touched)

    def eviction_frontier(self) -> frozenset[str]:
        """Source classes of every relationship-level command.

        The *sound eviction test* for completion results: a completed
        path's result can change only if some consistent path from its
        root crosses an added or removed edge, and such a path's prefix
        up to the first changed edge lies entirely in the pre-delta
        graph — so that edge's **source** was reachable from the root
        before the edit.  Targets don't matter (a path crosses an edge
        by standing at its source), and bare class additions/removals
        involve no edges at all (a removed class must already be
        isolated).  Cache entries whose recorded support set is disjoint
        from this frontier are therefore carried verbatim.
        """
        frontier: set[str] = set()
        for command in self.commands:
            relationship = getattr(command, "relationship", None)
            if relationship is not None:
                frontier.add(relationship.source)
        return frozenset(frontier)

    def added_isa_edges(self) -> tuple[Relationship, ...]:
        """The Isa edges this delta adds — the only edits that can close
        an inheritance cycle (see :meth:`Schema.check_isa_additions
        <repro.model.schema.Schema.check_isa_additions>`)."""
        return tuple(
            command.relationship
            for command in self.commands
            if isinstance(command, (AddRelationship, AddInheritanceEdge))
            and command.relationship.kind is RelationshipKind.ISA
        )

    @property
    def is_empty(self) -> bool:
        return not self.commands

    def describe(self) -> str:
        """Semicolon-joined one-line rendering of the command sequence."""
        if not self.commands:
            return "(empty delta)"
        return "; ".join(command.describe() for command in self.commands)

    def __len__(self) -> int:
        return len(self.commands)

    def __iter__(self) -> Iterator[DeltaCommand]:
        return iter(self.commands)

    def __bool__(self) -> bool:
        return bool(self.commands)


def _add_relationship_command(rel: Relationship) -> DeltaCommand:
    if rel.kind is RelationshipKind.ISA and rel.has_default_name:
        return AddInheritanceEdge(rel.source, rel.target)
    return AddRelationship(rel)


def _remove_relationship_command(rel: Relationship) -> DeltaCommand:
    if rel.kind is RelationshipKind.ISA and rel.has_default_name:
        return RemoveInheritanceEdge(rel.source, rel.target)
    return RemoveRelationship(rel)


def relationship_pair(
    source: str,
    target: str,
    kind: RelationshipKind,
    name: str = "",
    inverse_name: str = "",
) -> SchemaDelta:
    """The conventional relationship-plus-inverse pair as a delta.

    Mirrors :meth:`~repro.model.schema.Schema.add_relationship`'s
    default behavior (the paper assumes every relationship's inverse is
    present) at delta granularity: two single-edge commands.
    """
    rel = Relationship(source, target, kind, name=name)
    return SchemaDelta.of(
        AddRelationship(rel),
        AddRelationship(rel.make_inverse(inverse_name)),
    )
