"""The schema container (paper Section 2.1).

A :class:`Schema` is a set of classes plus a set of directed, named,
kinded relationships between them — exactly the directed graph the paper
draws (rectangles for user classes, circles for primitives).  The four
primitive classes are always present.

Relationships are identified by ``(source class, name)``.  Following the
paper, :meth:`Schema.add_relationship` installs the inverse relationship
automatically unless told otherwise, and names default to the target
class name.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections.abc import Iterable, Iterator

from repro.errors import (
    DuplicateClassError,
    DuplicateRelationshipError,
    InheritanceCycleError,
    InvalidRelationshipError,
    PrimitiveClassError,
    SchemaError,
    UnknownClassError,
    UnknownRelationshipError,
)
from repro.model.classes import ClassDef, PRIMITIVE_CLASS_NAMES, primitive_classes
from repro.model.kinds import RelationshipKind
from repro.model.relationships import Relationship

__all__ = ["Schema"]


def _class_line(cls: ClassDef) -> bytes:
    return f"C|{cls.name}|{int(cls.primitive)}\n".encode()


def _relationship_line(rel: Relationship) -> bytes:
    return (
        f"R|{rel.source}|{rel.name}|{rel.target}|{rel.kind.symbol}\n".encode()
    )


class _SortedLines:
    """One kind's fingerprint lines in digest order, patchable in place:
    sort keys and lines in two aligned lists, so an insert or a removal
    is one bisection plus two list shifts."""

    __slots__ = ("keys", "lines")

    def __init__(self, keys: list, lines: list[bytes]) -> None:
        self.keys = keys
        self.lines = lines

    def insert(self, key: object, line: bytes) -> None:
        at = bisect_left(self.keys, key)
        self.keys.insert(at, key)
        self.lines.insert(at, line)

    def remove(self, key: object) -> None:
        at = bisect_left(self.keys, key)
        del self.keys[at]
        del self.lines[at]

    def copy(self) -> "_SortedLines":
        return _SortedLines(list(self.keys), list(self.lines))


class Schema:
    """A database schema: classes and the relationships between them.

    Parameters
    ----------
    name:
        Optional schema name, used in reports and serialization.

    Examples
    --------
    >>> schema = Schema("tiny")
    >>> _ = schema.add_class("person")
    >>> _ = schema.add_class("student")
    >>> _ = schema.add_relationship(
    ...     "student", "person", RelationshipKind.ISA)
    >>> sorted(r.name for r in schema.relationships_from("student"))
    ['person']
    """

    def __init__(self, name: str = "schema") -> None:
        self.name = name
        self._classes: dict[str, ClassDef] = {}
        self._relationships: dict[tuple[str, str], Relationship] = {}
        # Outgoing relationship keys per source class, in insertion order.
        self._outgoing: dict[str, list[tuple[str, str]]] = {}
        # Memo of fingerprint(); every mutator clears it.
        self._fingerprint: str | None = None
        # The fingerprint's sorted (class, relationship) lines, kept
        # only on copies so an edited copy's digest is re-hashed from
        # patched lines instead of re-sorting every record (see copy).
        self._records: tuple[_SortedLines, _SortedLines] | None = None
        for cls in primitive_classes():
            self._install_class(cls)

    # ------------------------------------------------------------------
    # Classes
    # ------------------------------------------------------------------

    def _install_class(self, cls: ClassDef) -> None:
        self._classes[cls.name] = cls
        self._outgoing.setdefault(cls.name, [])
        self._fingerprint = None
        if self._records is not None:
            self._records[0].insert(cls.name, _class_line(cls))

    def add_class(self, name: str, doc: str = "") -> ClassDef:
        """Add a user-defined class and return its definition.

        Raises :class:`~repro.errors.DuplicateClassError` if a class with
        this name already exists (including the primitives).
        """
        if name in self._classes:
            raise DuplicateClassError(name)
        cls = ClassDef(name, primitive=False, doc=doc)
        self._install_class(cls)
        return cls

    def add_classes(self, names: Iterable[str]) -> list[ClassDef]:
        """Add several user-defined classes at once."""
        return [self.add_class(name) for name in names]

    def has_class(self, name: str) -> bool:
        """True if a class with this name exists."""
        return name in self._classes

    def get_class(self, name: str) -> ClassDef:
        """Return the class definition, raising on unknown names."""
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownClassError(name) from None

    def classes(self, include_primitives: bool = True) -> list[ClassDef]:
        """All classes, optionally excluding the four primitives."""
        values = self._classes.values()
        if include_primitives:
            return list(values)
        return [cls for cls in values if not cls.primitive]

    @property
    def class_names(self) -> list[str]:
        """Names of all classes, primitives included."""
        return list(self._classes)

    @property
    def user_class_count(self) -> int:
        """Number of user-defined (non-primitive) classes."""
        return len(self._classes) - len(PRIMITIVE_CLASS_NAMES)

    # ------------------------------------------------------------------
    # Relationships
    # ------------------------------------------------------------------

    def add_relationship(
        self,
        source: str,
        target: str,
        kind: RelationshipKind,
        name: str = "",
        inverse_name: str = "",
        add_inverse: bool = True,
        doc: str = "",
    ) -> Relationship:
        """Declare a relationship (and, by default, its inverse).

        Parameters
        ----------
        source, target:
            Names of existing classes.
        kind:
            Relationship kind; the inverse gets the inverse kind.
        name:
            Relationship name; defaults to the target class name.
        inverse_name:
            Name for the auto-installed inverse; defaults to the source
            class name.
        add_inverse:
            The paper assumes every relationship's inverse is present;
            pass False to opt out (e.g. for attribute-like edges into
            primitive classes, whose inverses are rarely meaningful).
        """
        source_cls = self.get_class(source)
        self.get_class(target)
        if source_cls.primitive:
            raise PrimitiveClassError(source, "add a relationship from")
        rel = Relationship(source, target, kind, name=name, doc=doc)
        self._install_relationship(rel)
        if add_inverse:
            if self.get_class(target).primitive:
                raise PrimitiveClassError(
                    target, "add an (inverse) relationship from"
                )
            self._install_relationship(rel.make_inverse(inverse_name))
        return rel

    def refine_relationship(
        self,
        subclass: str,
        name: str,
        new_target: str,
        add_inverse: bool = True,
        inverse_name: str = "",
    ) -> Relationship:
        """Refine an inherited relationship on a subclass (Section 2.1).

        The paper: "The subclass may refine (redefine) these
        relationships."  Refinement is covariant: the new target must be
        the inherited target or one of its subclasses, and the kind is
        inherited unchanged.  The refining declaration then shadows the
        inherited one (see :mod:`repro.model.inheritance`).
        """
        from repro.model.inheritance import is_subclass_of, resolve_inherited

        inherited = resolve_inherited(self, subclass, name)
        if inherited is None:
            raise UnknownRelationshipError(subclass, name)
        if inherited.source == subclass:
            raise InvalidRelationshipError(
                f"{subclass}.{name} is declared on the class itself; "
                "nothing to refine"
            )
        if not is_subclass_of(self, new_target, inherited.target):
            raise InvalidRelationshipError(
                f"refinement of {inherited.source}.{name} must target "
                f"{inherited.target!r} or a subclass of it, "
                f"got {new_target!r}"
            )
        target_is_primitive = self.get_class(new_target).primitive
        return self.add_relationship(
            subclass,
            new_target,
            inherited.kind,
            name=name,
            inverse_name=inverse_name,
            add_inverse=add_inverse and not target_is_primitive,
            doc=f"refines {inherited.source}.{name}",
        )

    def add_attribute(
        self, source: str, name: str, primitive: str = "C"
    ) -> Relationship:
        """Shorthand for an association into a primitive class.

        Attributes (e.g. ``person.name`` into strings) are plain
        Is-Associated-With relationships whose target is a primitive class
        and which have no inverse.
        """
        if primitive not in PRIMITIVE_CLASS_NAMES:
            raise SchemaError(
                f"attribute target must be a primitive class, got {primitive!r}"
            )
        return self.add_relationship(
            source,
            primitive,
            RelationshipKind.IS_ASSOCIATED_WITH,
            name=name,
            add_inverse=False,
        )

    def _install_relationship(self, rel: Relationship) -> None:
        if rel.key in self._relationships:
            raise DuplicateRelationshipError(*rel.key)
        self._relationships[rel.key] = rel
        self._outgoing[rel.source].append(rel.key)
        self._fingerprint = None
        if self._records is not None:
            self._records[1].insert(rel.key, _relationship_line(rel))

    def remove_relationship(self, source: str, name: str) -> Relationship:
        """Remove the relationship ``(source, name)`` and return it.

        Removes exactly one directed edge — the inverse, if one was
        installed, stays and must be removed separately (mirroring the
        single-edge granularity of :mod:`repro.model.delta` commands).
        Raises :class:`~repro.errors.UnknownRelationshipError` if absent.
        """
        rel = self.get_relationship(source, name)
        del self._relationships[rel.key]
        self._outgoing[source].remove(rel.key)
        self._fingerprint = None
        if self._records is not None:
            self._records[1].remove(rel.key)
        return rel

    def remove_attribute(self, source: str, name: str) -> Relationship:
        """Remove an attribute (an association into a primitive class).

        The counterpart of :meth:`add_attribute`: refuses to remove a
        relationship whose target is not primitive, so callers reaching
        for the attribute shorthand cannot silently drop a class-level
        relationship with the same name.
        """
        rel = self.get_relationship(source, name)
        if not self.get_class(rel.target).primitive:
            raise SchemaError(
                f"{source}.{name} targets class {rel.target!r}, not a "
                "primitive; use remove_relationship"
            )
        return self.remove_relationship(source, name)

    def remove_class(self, name: str, cascade: bool = False) -> ClassDef:
        """Remove a user-defined class and return its definition.

        By default the class must be isolated: any relationship still
        touching it (outgoing or incoming) is a dangling reference and
        raises :class:`~repro.errors.SchemaError`.  With ``cascade=True``
        every such relationship is removed first.  Primitive classes can
        never be removed.
        """
        cls = self.get_class(name)
        if cls.primitive:
            raise PrimitiveClassError(name, "remove")
        dangling = [
            rel
            for rel in self._relationships.values()
            if rel.source == name or rel.target == name
        ]
        if dangling and not cascade:
            listing = ", ".join(str(rel) for rel in sorted(
                dangling, key=lambda rel: rel.key
            ))
            raise SchemaError(
                f"cannot remove class {name!r}: still referenced by "
                f"{listing}"
            )
        for rel in dangling:
            self.remove_relationship(rel.source, rel.name)
        del self._classes[name]
        del self._outgoing[name]
        self._fingerprint = None
        if self._records is not None:
            self._records[0].remove(name)
        return cls

    # ------------------------------------------------------------------
    # Deltas / copying
    # ------------------------------------------------------------------

    def apply(self, delta: object) -> "Schema":
        """Apply a :class:`~repro.model.delta.SchemaDelta` in place.

        Duck-typed on ``apply_to`` so the model layer does not import
        the delta module (which imports this one).  Returns ``self`` for
        chaining.
        """
        delta.apply_to(self)  # type: ignore[attr-defined]
        return self

    def copy(self, name: str | None = None) -> "Schema":
        """An independent, mutable copy of this schema.

        Classes and relationships are frozen values, so the copy shares
        them and only duplicates the containers — editing the copy never
        disturbs the original.  This is what :meth:`CompiledSchema.evolve
        <repro.core.compiled.CompiledSchema.evolve>` edits, keeping the
        source artifact's schema immutable in practice.

        The copy carries the fingerprint memo and the sorted fingerprint
        records (sorted here from this schema if it has none), which its
        mutators then patch in O(log n) each: an edited copy re-hashes
        its records without re-sorting or re-formatting them.
        """
        clone = Schema.__new__(Schema)
        clone.name = self.name if name is None else name
        clone._classes = dict(self._classes)
        clone._relationships = dict(self._relationships)
        clone._outgoing = {
            source: list(keys) for source, keys in self._outgoing.items()
        }
        clone._fingerprint = self._fingerprint
        records = self._records
        clone._records = (
            (records[0].copy(), records[1].copy())
            if records is not None
            else self._sorted_lines()
        )
        return clone

    def has_relationship(self, source: str, name: str) -> bool:
        """True if ``source`` declares a relationship named ``name``."""
        return (source, name) in self._relationships

    def get_relationship(self, source: str, name: str) -> Relationship:
        """Return the relationship identified by ``(source, name)``."""
        try:
            return self._relationships[(source, name)]
        except KeyError:
            raise UnknownRelationshipError(source, name) from None

    def relationships(self) -> list[Relationship]:
        """All declared relationships (inverses included)."""
        return list(self._relationships.values())

    def relationships_from(self, source: str) -> list[Relationship]:
        """Outgoing relationships of ``source``, in declaration order."""
        self.get_class(source)
        return [self._relationships[key] for key in self._outgoing[source]]

    def relationships_named(self, name: str) -> list[Relationship]:
        """Every relationship in the schema with the given name."""
        return [r for r in self._relationships.values() if r.name == name]

    def relationships_into(self, target: str) -> list[Relationship]:
        """All relationships whose target class is ``target``."""
        return [r for r in self._relationships.values() if r.target == target]

    @property
    def relationship_count(self) -> int:
        """Total number of declared relationships (inverses included)."""
        return len(self._relationships)

    def relationship_names(self) -> set[str]:
        """The set of all relationship names in the schema."""
        return {r.name for r in self._relationships.values()}

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """A stable content hash of the schema (hex digest).

        Covers everything the completion semantics depend on: the class
        set and each relationship's ``(source, name, target, kind)`` —
        Isa edges included, so the inheritance structure is covered too.
        Documentation strings, the schema's display name, and
        declaration order are deliberately excluded: two schemas with
        the same classes and relationships disambiguate identically and
        therefore share a fingerprint.  Any mutation that adds, removes,
        or retargets a class or relationship changes the digest, which
        is what lets :mod:`repro.core.compiled` detect staleness.

        The digest is memoized on the schema and cleared by every
        mutator, so repeated calls on an unchanged schema (staleness
        checks, registry lookups, graph fingerprints) cost nothing.
        """
        digest = self._fingerprint
        if digest is None:
            hasher = hashlib.sha256()
            if self._records is not None:
                for records in self._records:
                    hasher.update(b"".join(records.lines))
            else:
                # Streamed, so a schema that is never copied holds no
                # records (and builds no list of them) at all.
                for name in sorted(self._classes):
                    hasher.update(_class_line(self._classes[name]))
                for key in sorted(self._relationships):
                    hasher.update(_relationship_line(self._relationships[key]))
            digest = self._fingerprint = hasher.hexdigest()
        return digest

    def _sorted_lines(self) -> tuple[_SortedLines, _SortedLines]:
        """The fingerprint's (class, relationship) lines, sorted from
        scratch (see :meth:`copy`)."""
        names = sorted(self._classes)
        keys = sorted(self._relationships)
        return (
            _SortedLines(names, [_class_line(self._classes[n]) for n in names]),
            _SortedLines(
                keys,
                [_relationship_line(self._relationships[k]) for k in keys],
            ),
        )

    # ------------------------------------------------------------------
    # Inheritance helpers (thin wrappers; full logic in model.inheritance)
    # ------------------------------------------------------------------

    def isa_parents(self, name: str) -> list[str]:
        """Direct superclasses of ``name`` (targets of its Isa edges)."""
        return [
            r.target
            for r in self.relationships_from(name)
            if r.kind is RelationshipKind.ISA
        ]

    def isa_children(self, name: str) -> list[str]:
        """Direct subclasses of ``name`` (sources of Isa edges into it)."""
        self.get_class(name)
        return [
            r.source
            for r in self._relationships.values()
            if r.kind is RelationshipKind.ISA and r.target == name
        ]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self, require_inverses: bool = False) -> list[str]:
        """Check structural invariants; return a list of problem strings.

        Raises nothing — callers decide whether warnings are fatal.  The
        Isa-acyclicity check *does* raise
        :class:`~repro.errors.InheritanceCycleError` because a cyclic
        inheritance graph breaks every downstream algorithm.
        """
        problems: list[str] = []
        self._check_isa_acyclic()
        if require_inverses:
            for rel in self._relationships.values():
                if self.get_class(rel.target).primitive:
                    continue
                if not any(
                    other.is_inverse_of(rel)
                    for other in self.relationships_from(rel.target)
                ):
                    problems.append(f"missing inverse for {rel}")
        return problems

    def _check_isa_acyclic(self) -> None:
        """Raise if Isa edges form a cycle (three-color DFS)."""
        state: dict[str, int] = {}  # 0 absent, 1 on stack, 2 done

        def visit(node: str, stack: list[str]) -> None:
            state[node] = 1
            stack.append(node)
            for parent in self.isa_parents(node):
                mark = state.get(parent, 0)
                if mark == 1:
                    cycle = stack[stack.index(parent):] + [parent]
                    raise InheritanceCycleError(cycle)
                if mark == 0:
                    visit(parent, stack)
            stack.pop()
            state[node] = 2

        for name in self._classes:
            if state.get(name, 0) == 0:
                visit(name, [])

    def check_isa_additions(self, added: Iterable[Relationship]) -> None:
        """Raise if one of the ``added`` Isa edges closes a cycle.

        The delta-scoped twin of the full check in :meth:`validate`, for
        a schema known to be acyclic without these edges: any cycle must
        then run through an added edge, and ``sub @> sup`` closes one
        exactly when ``sup`` reaches ``sub`` along Isa edges.  Only the
        superclass's ancestors are visited.  Edges that are no longer
        Isa edges of this schema (added, then removed again) are skipped.
        """
        for rel in added:
            stored = self._relationships.get(rel.key)
            if stored is None or stored.kind is not RelationshipKind.ISA:
                continue
            path = self._isa_path(stored.target, stored.source)
            if path is not None:
                raise InheritanceCycleError([stored.source, *path])

    def _isa_path(self, start: str, goal: str) -> list[str] | None:
        """An Isa path ``start @> ... @> goal``, or None (depth-first)."""
        parent_of: dict[str, str | None] = {start: None}
        stack = [start]
        while stack:
            node = stack.pop()
            if node == goal:
                path = [node]
                while parent_of[node] is not None:
                    node = parent_of[node]
                    path.append(node)
                return path[::-1]
            for parent in self.isa_parents(node):
                if parent not in parent_of:
                    parent_of[parent] = node
                    stack.append(parent)
        return None

    # ------------------------------------------------------------------
    # Dunder / display
    # ------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def __iter__(self) -> Iterator[ClassDef]:
        return iter(self._classes.values())

    def __len__(self) -> int:
        return len(self._classes)

    def __repr__(self) -> str:
        return (
            f"Schema({self.name!r}, classes={self.user_class_count}, "
            f"relationships={self.relationship_count})"
        )

    def summary(self) -> str:
        """One-line size summary in the paper's reporting style."""
        return (
            f"{self.name}: {self.user_class_count} user-defined classes, "
            f"{self.relationship_count} relationships"
        )
