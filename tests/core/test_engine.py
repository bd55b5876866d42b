"""Tests for the Disambiguator facade."""

import contextvars
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.audit import SearchAuditLog, use_audit
from repro.core.compiled import CompiledSchema
from repro.core.engine import Disambiguator, PendingCompletion
from repro.core.parser import parse_path_expression
from repro.errors import NoCompletionError, PathSyntaxError
from repro.obs.tracer import RecordingTracer, use_tracer


class TestComplete:
    def test_accepts_text_and_ast(self, university_engine):
        from_text = university_engine.complete("ta ~ name")
        from_ast = university_engine.complete(
            parse_path_expression("ta~name")
        )
        assert from_text.expressions == from_ast.expressions

    def test_flagship_query(self, university_engine):
        result = university_engine.complete("ta ~ name")
        assert result.expressions == [
            "ta@>grad@>student@>person.name",
            "ta@>instructor@>teacher@>employee@>person.name",
        ]

    def test_complete_input_validates_and_passes_through(
        self, university_engine
    ):
        result = university_engine.complete("student.take.teacher")
        assert result.expressions == ["student.take.teacher"]
        assert result.is_unique

    def test_complete_input_with_unknown_relationship(self, university_engine):
        with pytest.raises(NoCompletionError):
            university_engine.complete("student.ghost")

    def test_complete_input_with_wrong_connector(self, university_engine):
        with pytest.raises(NoCompletionError):
            university_engine.complete("student$>take")

    def test_general_incomplete_expression_dispatches(self, university_engine):
        result = university_engine.complete("ta~take.name")
        assert result.expressions == ["ta@>grad@>student.take.name"]

    def test_unknown_root_raises(self, university_engine):
        from repro.errors import UnknownClassError

        with pytest.raises(UnknownClassError):
            university_engine.complete("ghost ~ name")


class TestTargets:
    def test_complete_between_classes(self, university_engine):
        result = university_engine.complete_between("ta", "course")
        assert result.paths
        assert all(p.edges[-1].target == "course" for p in result.paths)

    def test_complete_to_target(self, university_engine):
        from repro.core.target import RelationshipTarget

        result = university_engine.complete_to_target(
            "ta", RelationshipTarget("ssn")
        )
        assert result.paths


class TestConfiguration:
    def test_with_e_returns_new_engine(self, university):
        engine = Disambiguator(university, e=1)
        wider = engine.with_e(3)
        assert wider.e == 3
        assert engine.e == 1

    def test_e_expands_answers(self, university):
        target = "department ~ ssn"
        narrow = Disambiguator(university, e=1).complete(target)
        wide = Disambiguator(university, e=3).complete(target)
        assert set(narrow.expressions) <= set(wide.expressions)
        assert len(wide.paths) > len(narrow.paths)

    def test_repr_mentions_schema(self, university_engine):
        assert "university" in repr(university_engine)


class TestThreeSteps:
    """``lookup``, the search, ``finish``: the split the serving tier runs
    across its event loop and a worker thread."""

    @staticmethod
    def _run(university, steps):
        engine = Disambiguator(CompiledSchema(university))
        tracer, audit = RecordingTracer(), SearchAuditLog()
        with use_tracer(tracer), use_audit(audit):
            result = steps(engine)
        tree = [
            (depth, span.name)
            for root in tracer.roots
            for span, depth in root.walk()
        ]
        return engine, result, tree, audit.of_kind("cache")

    def test_steps_across_threads_equal_one_inline_call(self, university):
        def split(engine):
            pending = engine.lookup("ta ~ name")
            assert isinstance(pending, PendingCompletion)
            with pending:
                with ThreadPoolExecutor(max_workers=1) as pool:
                    searched = pool.submit(
                        contextvars.copy_context().run, engine.complete, pending
                    ).result()
                return engine.finish(pending, searched)

        engine, result, tree, cache_records = self._run(university, split)
        _, expected, inline_tree, inline_records = self._run(
            university, lambda engine: engine.complete("ta ~ name")
        )
        assert result.expressions == expected.expressions
        assert tree == inline_tree
        assert tree[:3] == [(0, "complete"), (1, "parse"), (1, "cache_lookup")]
        assert len(tree) > 3  # the worker's search spans nest under it
        assert [record["outcome"] for record in cache_records] == ["miss"]
        assert len(inline_records) == 1
        cache = engine.compiled.cache
        assert (cache.hits, cache.misses) == (0, 1)
        assert engine.lookup("ta ~ name") is result
        assert (cache.hits, cache.misses) == (1, 1)

    def test_a_failed_step_still_closes_the_span(self, university):
        def parse_error(engine):
            with pytest.raises(PathSyntaxError):
                engine.lookup("ta ~~ name")

        def search_error(engine):
            pending = engine.lookup("student.ghost")
            with pytest.raises(NoCompletionError):
                with pending:
                    engine.complete(pending)

        for steps in (parse_error, search_error):
            engine, _, tree, _ = self._run(university, steps)
            assert tree[0] == (0, "complete")
            assert [name for depth, name in tree if depth == 0] == ["complete"]
