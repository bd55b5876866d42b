"""Tests for CompiledSchema.evolve and the surgical completion cache.

The byte-identity contract over random edit scripts lives in
``test_delta_fuzz.py``; these are the targeted semantics: cache
adoption along the eviction frontier, lineage, registry registration,
and the evolve counters/spans.
"""

import pytest

from repro.core.closure import SchemaClosure
from repro.core.compiled import (
    CompiledSchema,
    compile_schema,
    invalidate,
)
from repro.core.engine import Disambiguator
from repro.experiments.designer import rebuild_engine
from repro.model.delta import (
    AddClass,
    AddRelationship,
    RemoveClass,
    SchemaDelta,
    relationship_pair,
)
from repro.model.kinds import RelationshipKind
from repro.model.relationships import Relationship
from repro.model.schema import Schema
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import RecordingTracer, use_tracer
from repro.schemas.university import build_university_schema


@pytest.fixture(autouse=True)
def clean_registry():
    invalidate()
    yield
    invalidate()


def build_schema():
    """Two disconnected islands: person<->company and city (isolated)."""
    s = Schema("evolve-test")
    s.add_classes(["person", "company", "city"])
    s.add_relationship(
        "person", "company", RelationshipKind.IS_ASSOCIATED_WITH, name="employer"
    )
    s.add_attribute("person", "name")
    s.add_attribute("city", "population", "I")
    return s


def module_delta():
    """A module-local delta: new class wired only to itself/new edges."""
    return SchemaDelta.of(
        AddClass("lab"),
        AddClass("lab_bench"),
        relationship_pair(
            "lab", "lab_bench", RelationshipKind.HAS_PART, name="benches"
        ),
    )


class TestEvolveSemantics:
    def test_original_artifact_untouched(self):
        compiled = compile_schema(build_schema())
        before = compiled.fingerprint
        evolved = compiled.evolve(SchemaDelta.of(AddClass("annex")))
        assert compiled.fingerprint == before
        assert not compiled.is_stale()
        assert evolved is not compiled
        assert evolved.schema.has_class("annex")
        assert not compiled.schema.has_class("annex")

    def test_lineage_chains(self):
        compiled = compile_schema(build_schema())
        first = compiled.evolve(SchemaDelta.of(AddClass("a")))
        second = first.evolve(SchemaDelta.of(AddClass("b")))
        assert first.lineage == (compiled.fingerprint,)
        assert second.lineage == (compiled.fingerprint, first.fingerprint)

    def test_evolved_registers_in_registry(self):
        compiled = compile_schema(build_schema())
        evolved = compiled.evolve(SchemaDelta.of(AddClass("annex")))
        assert compile_schema(evolved.schema.copy()) is evolved

    def test_invalid_delta_leaves_no_trace(self):
        compiled = compile_schema(build_schema())
        # Removing a referenced class fails during apply; the artifact
        # and registry are unchanged.
        with pytest.raises(Exception):
            compiled.evolve(SchemaDelta.of(RemoveClass("company")))
        assert not compiled.is_stale()

    def test_incremental_reuses_unchanged_pieces(self):
        compiled = compile_schema(build_schema())
        evolved = compiled.evolve(module_delta())
        assert evolved.order is compiled.order
        assert evolved.caution_sets is compiled.caution_sets
        assert evolved.order_key == compiled.order_key
        assert evolved.knowledge_key == compiled.knowledge_key

    def test_stale_parent_compiles_the_edited_copy_cold(self):
        # The parent's schema gains an attribute after compiling; evolve
        # must not patch the old graph snapshot, nor publish its closure
        # under the edited schema's fingerprint for later compiles.
        schema = build_university_schema()
        compiled = compile_schema(schema)
        schema.add_attribute("person", "zz_nick")
        assert compiled.is_stale()
        evolved = compiled.evolve(SchemaDelta.of(AddClass("x")))
        expected = [
            "ta@>grad@>student@>person.zz_nick",
            "ta@>instructor@>teacher@>employee@>person.zz_nick",
        ]
        answer = Disambiguator(evolved).complete("ta ~ zz_nick")
        assert [str(path) for path in answer.paths] == expected
        assert evolved.lineage == (compiled.fingerprint,)
        later = CompiledSchema(evolved.schema.copy())
        answer = Disambiguator(later).complete("ta ~ zz_nick")
        assert [str(path) for path in answer.paths] == expected

    def test_isa_cycle_rejected_before_compiling(self):
        schema = Schema("cycle")
        schema.add_classes(["a", "b"])
        schema.add_relationship("a", "b", RelationshipKind.ISA, add_inverse=False)
        compiled = compile_schema(schema)
        from repro.model.delta import AddInheritanceEdge

        with pytest.raises(Exception):
            compiled.evolve(SchemaDelta.of(AddInheritanceEdge("b", "a")))


class TestSurgicalCacheAdoption:
    def warm(self, compiled):
        """Prime the cache with one completion per island root."""
        engine = Disambiguator(compiled)
        engine.complete("person ~ name")
        engine.complete("city ~ population")
        return engine

    def test_module_local_delta_carries_everything(self):
        compiled = compile_schema(build_schema())
        self.warm(compiled)
        baseline_hits = compiled.cache.hits
        evolved = compiled.evolve(module_delta())
        engine = Disambiguator(evolved)
        warm_person = engine.complete("person ~ name")
        warm_city = engine.complete("city ~ population")
        assert evolved.cache.hits == 2  # both served from the carried cache
        cold = compile_schema(
            evolved.schema.copy(), cache_size=evolved.cache.maxsize
        )
        cold_engine = Disambiguator(cold)
        assert [str(p) for p in warm_person.paths] == [
            str(p) for p in cold_engine.complete("person ~ name").paths
        ]
        assert [str(p) for p in warm_city.paths] == [
            str(p) for p in cold_engine.complete("city ~ population").paths
        ]
        assert compiled.cache.hits == baseline_hits  # old artifact untouched

    def test_frontier_evicts_only_supported_roots(self):
        compiled = compile_schema(build_schema())
        self.warm(compiled)
        # Wire a new class into the person<->company island: the
        # frontier is {lab, person}, which meets person's support but
        # not city's.
        delta = SchemaDelta.of(
            AddClass("lab"),
            relationship_pair(
                "lab", "person", RelationshipKind.IS_ASSOCIATED_WITH,
                name="members",
            ),
        )
        evolved = compiled.evolve(delta)
        engine = Disambiguator(evolved)
        engine.complete("city ~ population")
        assert evolved.cache.hits == 1  # city carried
        engine.complete("person ~ name")
        assert evolved.cache.misses >= 1  # person was evicted, re-searched

    def test_eviction_counter_increments(self):
        compiled = compile_schema(build_schema())
        self.warm(compiled)
        delta = SchemaDelta.of(
            AddRelationship(
                Relationship(
                    "person", "city", RelationshipKind.IS_ASSOCIATED_WITH,
                    name="home",
                )
            )
        )
        registry = MetricsRegistry()
        with use_metrics(registry):
            compiled.evolve(delta)
        summary = registry.as_dict()["counters"]
        assert summary["delta.applied"] == 1.0
        assert summary["cache.selective_evictions"] >= 1.0

    def test_rebuild_mode_starts_cold(self):
        # The designer benchmark's rebuild baseline compiles the edited
        # schema cold: nothing carries over.
        compiled = compile_schema(build_schema())
        engine = self.warm(compiled)
        rebuilt = rebuild_engine(engine, module_delta())
        assert len(rebuilt.compiled.cache) == 0
        assert rebuilt.compiled.lineage == ()
        assert not compiled.schema.has_class("lab")

    def test_adopt_rekeys_fingerprint_prefix(self):
        compiled = compile_schema(build_schema())
        self.warm(compiled)
        evolved = compiled.evolve(module_delta())
        for key in evolved.cache._data:
            assert key[0] == evolved.fingerprint


class TestObservability:
    def test_delta_apply_span_recorded(self):
        compiled = compile_schema(build_schema())
        tracer = RecordingTracer()
        with use_tracer(tracer):
            compiled.evolve(SchemaDelta.of(AddClass("annex")))
        rendered = tracer.render()
        assert "delta_apply" in rendered

    def test_incremental_repairs_counter(self):
        compiled = compile_schema(build_schema())
        # Force a reach matrix and a target table so the evolve has
        # something to repair.
        _ = compiled.closure.reach
        from repro.core.target import RelationshipTarget

        assert compiled.closure.tables_for(RelationshipTarget("name"))
        registry = MetricsRegistry()
        with use_metrics(registry):
            compiled.evolve(module_delta())
        counters = registry.as_dict()["counters"]
        assert counters.get("closure.incremental_repairs", 0) >= 1.0


@pytest.fixture(autouse=True)
def clean_closure_cache():
    yield
    SchemaClosure.clear_cache()


class TestScopedIsaCheck:
    def chain_schema(self):
        """a @> b @> c: a three-class Isa chain."""
        schema = Schema("chain")
        schema.add_classes(["a", "b", "c"])
        schema.add_relationship("a", "b", RelationshipKind.ISA, add_inverse=False)
        schema.add_relationship("b", "c", RelationshipKind.ISA, add_inverse=False)
        return schema

    def test_cycle_through_a_chain_is_rejected_by_the_scoped_check(
        self, monkeypatch
    ):
        from repro.errors import InheritanceCycleError
        from repro.model.delta import AddInheritanceEdge

        compiled = compile_schema(self.chain_schema())
        proven = compiled.evolve(SchemaDelta.of(AddClass("annex")))
        # With the proof carried, the full DFS must not run again.
        def full_check(self):
            raise AssertionError("full Isa check ran on a proven lineage")

        monkeypatch.setattr(Schema, "_check_isa_acyclic", full_check)
        with pytest.raises(InheritanceCycleError) as caught:
            proven.evolve(SchemaDelta.of(AddInheritanceEdge("c", "a")))
        assert caught.value.cycle == ["c", "a", "b", "c"]
        # An acyclic addition passes the scoped check.
        evolved = proven.evolve(SchemaDelta.of(AddInheritanceEdge("annex", "a")))
        assert evolved.schema.isa_parents("annex") == ["a"]

    def test_first_evolve_of_a_cold_artifact_runs_the_full_check_once(
        self, monkeypatch
    ):
        calls = []
        original = Schema._check_isa_acyclic

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Schema, "_check_isa_acyclic", counting)
        compiled = compile_schema(self.chain_schema())
        first = compiled.evolve(SchemaDelta.of(AddClass("x")))
        first.evolve(SchemaDelta.of(AddClass("y")))
        assert len(calls) == 1

    def test_cyclic_cold_parent_is_rejected_as_before(self):
        from repro.errors import InheritanceCycleError

        schema = self.chain_schema()
        # Compiling never validates acyclicity, so a cyclic schema
        # compiles cold; its first evolve must still refuse it.
        schema.add_relationship("c", "a", RelationshipKind.ISA, add_inverse=False)
        compiled = CompiledSchema(schema)
        with pytest.raises(InheritanceCycleError):
            compiled.evolve(SchemaDelta.of(AddClass("x")))

    def test_cycle_added_and_removed_in_one_delta_is_accepted(self):
        from repro.model.delta import AddInheritanceEdge, RemoveInheritanceEdge

        compiled = compile_schema(self.chain_schema())
        proven = compiled.evolve(SchemaDelta.of(AddClass("x")))
        evolved = proven.evolve(
            SchemaDelta.of(
                RemoveInheritanceEdge("a", "b"), AddInheritanceEdge("c", "a")
            )
        )
        assert evolved.schema.isa_parents("c") == ["a"]


class TestBoundedRegistry:
    def test_registry_keeps_the_most_recent_artifacts(self, monkeypatch):
        from repro.core import compiled as compiled_module

        monkeypatch.setattr(compiled_module, "REGISTRY_SIZE", 3)
        compiled = compile_schema(build_schema())
        artifacts = [compiled]
        for name in ("a", "b", "c", "d"):
            artifacts.append(artifacts[-1].evolve(SchemaDelta.of(AddClass(name))))
        assert compiled_module.registry_size() == 3
        assert set(compiled_module._REGISTRY.values()) == set(artifacts[-3:])
        assert set(compiled_module._REGISTRY_BY_FP) == {
            artifact.fingerprint for artifact in artifacts[-3:]
        }
        # An evicted artifact still works and still evolves.
        assert not artifacts[0].is_stale()
        again = artifacts[0].evolve(SchemaDelta.of(AddClass("a")))
        assert again.fingerprint == artifacts[1].fingerprint
        assert again.lineage == (compiled.fingerprint,)

    def test_lookup_refreshes_recency(self, monkeypatch):
        from repro.core import compiled as compiled_module

        monkeypatch.setattr(compiled_module, "REGISTRY_SIZE", 2)
        first = compile_schema(build_schema())
        second = first.evolve(SchemaDelta.of(AddClass("a")))
        assert compile_schema(first.schema.copy()) is first  # touch
        second.evolve(SchemaDelta.of(AddClass("b")))
        assert first in compiled_module._REGISTRY.values()
        assert second not in compiled_module._REGISTRY.values()

    def test_closure_cache_is_bounded(self, monkeypatch):
        from repro.core import closure as closure_module

        monkeypatch.setattr(closure_module, "CLOSURE_CACHE_SIZE", 2)
        SchemaClosure.clear_cache()
        compiled = compile_schema(build_schema())
        for name in ("a", "b", "c"):
            compiled = compiled.evolve(SchemaDelta.of(AddClass(name)))
        assert len(SchemaClosure._cache) == 2
        assert compiled.closure in SchemaClosure._cache.values()


class TestCarriedEntryBytes:
    def test_carried_entries_keep_the_parent_estimate(self, monkeypatch):
        from repro.core import compiled as compiled_module

        compiled = compile_schema(build_schema())
        TestSurgicalCacheAdoption().warm(compiled)

        def no_estimates(value):
            raise AssertionError("carried entry re-estimated")

        monkeypatch.setattr(compiled_module, "estimate_result_bytes", no_estimates)
        evolved = compiled.evolve(module_delta())
        assert len(evolved.cache) == len(compiled.cache) == 2
        assert evolved.cache.estimated_bytes() == compiled.cache.estimated_bytes()
