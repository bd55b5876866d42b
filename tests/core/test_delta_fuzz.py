"""Property tests: incremental maintenance equals from-scratch rebuilds.

Random edit scripts over generated schemas (seeds 0-3) drive the two
contracts of the delta layer:

* the incrementally maintained :class:`SchemaClosure` (reach matrix and
  every warm per-target table) is field-for-field equal to a closure
  built from scratch over the evolved graph after every step;
* completions served by an evolved :class:`CompiledSchema` — including
  entries carried across the delta by the support-set test — are
  byte-identical to a cold compile of the final schema, at E=1..3, in
  both pruning modes.

The from-scratch builds (``SchemaClosure(graph)``, ``CompiledSchema``
over a copy of the final schema) are the oracle; evolving is the only
runtime path.
"""

import random

import pytest

from repro.core.closure import SchemaClosure, _target_from_cache_key
from repro.core.compiled import CompiledSchema, invalidate
from repro.core.target import RelationshipTarget
from repro.model.delta import (
    AddClass,
    AddInheritanceEdge,
    AddRelationship,
    RemoveClass,
    RemoveRelationship,
    SchemaDelta,
)
from repro.model.graph import SchemaGraph
from repro.model.kinds import RelationshipKind
from repro.model.relationships import Relationship
from repro.schemas.generator import GeneratorConfig, generate_schema

SEEDS = (0, 1, 2, 3)
STEPS = 8
E_VALUES = (1, 2, 3)


@pytest.fixture(autouse=True)
def clean_global_caches():
    invalidate()
    yield
    invalidate()
    SchemaClosure.clear_cache()


class EditScript:
    """Generates applicable random deltas against a live schema."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.counter = 0

    def fresh_name(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}_{self.counter:03d}"

    def random_delta(self, schema) -> SchemaDelta:
        """One delta of 1-3 commands, each applicable in sequence."""
        work = schema.copy()
        commands = []
        for _ in range(self.rng.randint(1, 3)):
            command = self._random_command(work)
            if command is None:
                continue
            try:
                command.apply_to(work)
                work.validate()
            except Exception:
                continue  # e.g. an Isa edge that would close a cycle
            commands.append(command)
        if not commands:
            commands = [AddClass(self.fresh_name("fz"))]
            commands[0].apply_to(work)
        return SchemaDelta.of(*commands)

    def _random_command(self, schema):
        user_classes = [c.name for c in schema.classes(False)]
        kind = self.rng.choice(
            ("add_class", "add_edge", "add_attr", "add_isa",
             "remove_rel", "remove_class")
        )
        if kind == "add_class":
            return AddClass(self.fresh_name("fz"))
        if kind == "add_edge":
            source, target = self.rng.choices(user_classes, k=2)
            return AddRelationship(
                Relationship(
                    source,
                    target,
                    self.rng.choice(
                        (
                            RelationshipKind.IS_ASSOCIATED_WITH,
                            RelationshipKind.HAS_PART,
                            RelationshipKind.IS_PART_OF,
                        )
                    ),
                    name=self.fresh_name("edge"),
                )
            )
        if kind == "add_attr":
            return AddRelationship(
                Relationship(
                    self.rng.choice(user_classes),
                    self.rng.choice(("I", "R", "C", "B")),
                    RelationshipKind.IS_ASSOCIATED_WITH,
                    name=self.fresh_name("attr"),
                )
            )
        if kind == "add_isa":
            sub, sup = self.rng.sample(user_classes, 2)
            return AddInheritanceEdge(sub, sup)
        if kind == "remove_rel":
            rels = schema.relationships()
            if not rels:
                return None
            return RemoveRelationship(self.rng.choice(rels))
        # remove_class: only isolated classes are removable.
        isolated = [
            name
            for name in user_classes
            if not schema.relationships_from(name)
            and not schema.relationships_into(name)
        ]
        if not isolated:
            return None
        return RemoveClass(self.rng.choice(isolated))


def small_schema(seed: int):
    return generate_schema(GeneratorConfig(classes=14, seed=seed))


def assert_closures_equal(evolved: SchemaClosure, scratch: SchemaClosure) -> int:
    """Field-for-field equality; returns how many tables were compared.

    Every table the evolved closure carries is compared: the ones
    already repaired and the ones whose repair still waits for first use
    (``tables_for`` materializes those).
    """
    assert evolved.nodes == scratch.nodes
    assert evolved.index == scratch.index
    assert list(evolved.reach) == list(scratch.reach)
    keys = sorted(set(evolved._tables) | set(evolved._pending))
    for key in keys:
        target = _target_from_cache_key(key)
        tables = evolved.tables_for(target)
        expected = scratch.tables_for(target)
        if tables is None or expected is None:
            assert tables == expected
            continue
        assert tables.reach_mask == expected.reach_mask, key
        assert tables.rows == expected.rows, key
        assert tables.conns == expected.conns, key
        assert tables.completing == expected.completing, key
        assert tables.interior == expected.interior, key
        assert tables.reach_pruned == expected.reach_pruned, key
        assert tables.reach_dropped == expected.reach_dropped, key
    return len(keys)


@pytest.mark.parametrize("seed", SEEDS)
def test_incremental_closure_matches_scratch(seed):
    rng = random.Random(seed)
    script = EditScript(rng)
    schema = small_schema(seed)
    graph = SchemaGraph(schema)
    closure = SchemaClosure(graph)
    _ = closure.reach
    compared = 0
    for step in range(STEPS):
        # Keep a couple of target tables warm so table repair is always
        # exercised (relationship names drift as edits accumulate).
        names = sorted({rel.name for rel in schema.relationships()})
        for name in rng.sample(names, min(3, len(names))):
            closure.tables_for(RelationshipTarget(name))
        delta = script.random_delta(schema)
        evolved_schema = schema.copy()
        evolved_schema.apply(delta)
        new_graph = graph.evolved(evolved_schema, delta.touched_classes())
        evolved = closure.evolved(new_graph)
        SchemaClosure.clear_cache()  # cold rebuild must not see the evolved one
        scratch = SchemaClosure(new_graph)
        compared += assert_closures_equal(evolved, scratch)
        schema, graph, closure = evolved_schema, new_graph, evolved
    assert compared  # repaired tables were actually checked


def snapshot(result):
    return (
        tuple(str(path) for path in result.paths),
        tuple(str(label) for label in result.labels),
        result.exhausted,
    )


@pytest.mark.parametrize("pruning", ("none", "closure"))
@pytest.mark.parametrize("seed", SEEDS)
def test_evolved_completions_match_cold_compile(seed, pruning):
    rng = random.Random(1000 + seed)
    script = EditScript(rng)
    compiled = CompiledSchema(small_schema(seed))
    for step in range(4):
        # Warm the cache on the current artifact so carried entries are
        # part of what the next step serves.
        roots = [c.name for c in compiled.schema.classes(False)]
        names = sorted({rel.name for rel in compiled.schema.relationships()})
        queries = [
            (rng.choice(roots), rng.choice(names)) for _ in range(4)
        ]
        for root, name in queries:
            compiled.complete_simple(root, name, e=1, pruning=pruning)
        delta = script.random_delta(compiled.schema)
        compiled = compiled.evolve(delta)
        SchemaClosure.clear_cache()
        cold = CompiledSchema(compiled.schema.copy())
        for e in E_VALUES:
            for root, name in queries:
                if not compiled.schema.has_class(root):
                    continue
                warm = compiled.complete_simple(root, name, e=e, pruning=pruning)
                reference = cold.complete_simple(root, name, e=e, pruning=pruning)
                assert snapshot(warm) == snapshot(reference), (
                    f"seed={seed} step={step} {root}~{name} e={e}"
                )


def insertion_delta(rng: random.Random, script: EditScript, schema) -> SchemaDelta:
    """1-3 edge insertions (sometimes into a brand-new class)."""
    users = [c.name for c in schema.classes(False)]
    commands = []
    if rng.random() < 0.4:
        fresh = script.fresh_name("fz")
        commands.append(AddClass(fresh))
        users = users + [fresh]
    for _ in range(rng.randint(1, 3)):
        source, target = rng.choices(users, k=2)
        if rng.random() < 0.3:
            target = rng.choice(("I", "R", "C", "B"))
        commands.append(
            AddRelationship(
                Relationship(
                    source,
                    target,
                    rng.choice(
                        (
                            RelationshipKind.IS_ASSOCIATED_WITH,
                            RelationshipKind.HAS_PART,
                            RelationshipKind.IS_PART_OF,
                        )
                    ),
                    # Reuse live names so new edges complete warm targets.
                    name=rng.choice(
                        sorted({rel.name for rel in schema.relationships()})
                        + [script.fresh_name("edge")]
                    ),
                )
            )
        )
    work = schema.copy()
    kept = []
    for command in commands:
        try:
            command.apply_to(work)
        except Exception:
            continue  # e.g. the drawn name is already declared there
        kept.append(command)
    return SchemaDelta.of(*kept)


def deletion_delta(rng: random.Random, schema) -> SchemaDelta:
    """Remove one attribute: an edge into a primitive class completes only
    its own name's target and reaches nothing else, so every other
    warm table survives the deletion and stays pending."""
    attributes = [
        rel
        for rel in schema.relationships()
        if schema.get_class(rel.target).primitive
    ]
    return SchemaDelta.of(RemoveRelationship(rng.choice(attributes)))


@pytest.mark.parametrize("steps", (("insert", "insert"), ("insert", "insert", "delete")))
@pytest.mark.parametrize("seed", SEEDS)
def test_deferred_repairs_match_scratch_builds(seed, steps):
    """Table repairs wait for first use across an edit chain, hold one
    shared link per edit, and then equal a from-scratch build."""
    rng = random.Random(2000 + seed)
    script = EditScript(rng)
    schema = small_schema(seed)
    graph = SchemaGraph(schema)
    closure = SchemaClosure(graph)
    _ = closure.reach
    for name in sorted({rel.name for rel in schema.relationships()}):
        closure.tables_for(RelationshipTarget(name))
    warmed = set(closure._tables)
    for kind in steps:
        if kind == "insert":
            delta = insertion_delta(rng, script, schema)
        else:
            delta = deletion_delta(rng, schema)
        evolved_schema = schema.copy()
        evolved_schema.apply(delta)
        new_graph = graph.evolved(evolved_schema, delta.touched_classes())
        evolved = closure.evolved(new_graph)
        assert not evolved._tables  # nothing repaired before first use
        if kind == "insert":
            assert set(evolved._pending) == warmed
            # O(delta) per closure: every pending table shares this
            # edit's one link, which points at the parent's chain.
            links = {id(chain) for _, chain in evolved._pending.values()}
            assert len(links) == 1
            for key, (base, chain) in evolved._pending.items():
                if key in closure._pending:
                    parent_base, parent_chain = closure._pending[key]
                    assert base is parent_base
                    assert chain[1] is parent_chain
        else:
            # The deletion brought the parent's pending tables up to date
            # before reading their conns.
            assert not closure._pending
            assert set(closure._tables) == warmed
        schema, graph, closure = evolved_schema, new_graph, evolved
        warmed = set(closure._pending)
    SchemaClosure.clear_cache()
    scratch = SchemaClosure(graph)
    assert warmed
    for key in sorted(warmed):
        target = _target_from_cache_key(key)
        tables = closure.tables_for(target)
        expected = scratch._build_tables(target)
        assert tables.reach_mask == expected.reach_mask, key
        assert tables.rows == expected.rows, key
        assert tables.conns == expected.conns, key
        assert tables.completing == expected.completing, key
        assert tables.interior == expected.interior, key
        assert tables.reach_pruned == expected.reach_pruned, key
        assert tables.reach_dropped == expected.reach_dropped, key
        assert bytes(tables.dist) == bytes(expected.dist), key
    assert not closure._pending  # materialized once, then memoized
