"""Tests for the span tracer (repro.obs.tracer)."""

import io
import json
import threading
import time

from repro.obs.schema import validate_trace_events
from repro.obs.tracer import (
    NullTracer,
    RecordingTracer,
    get_tracer,
    use_tracer,
)


class TestNullTracer:
    def test_default_tracer_is_noop(self):
        tracer = get_tracer()
        assert isinstance(tracer, NullTracer)
        assert not tracer.enabled

    def test_null_span_supports_full_interface(self):
        with get_tracer().span("anything", key="value") as span:
            span.set(more=1)
            span.event("point", detail="x")

    def test_null_spans_are_one_shared_object(self):
        tracer = NullTracer()
        assert tracer.span("a") is tracer.span("b")


class TestRecordingTracer:
    def test_nesting_builds_a_tree(self):
        tracer = RecordingTracer()
        with tracer.span("root"):
            with tracer.span("child_a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child_b"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert [child.name for child in root.children] == ["child_a", "child_b"]
        assert root.children[0].children[0].name == "grandchild"
        assert tracer.span_count == 4

    def test_durations_are_positive_and_nested(self):
        tracer = RecordingTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.002)
        outer, inner = tracer.roots[0], tracer.roots[0].children[0]
        assert inner.duration >= 0.002
        assert outer.duration >= inner.duration

    def test_attrs_and_events(self):
        tracer = RecordingTracer()
        with tracer.span("work", e=3) as span:
            span.set(calls=10)
            span.event("cache", hit=True)
        span = tracer.roots[0]
        assert span.attrs == {"e": 3, "calls": 10}
        assert span.events[0][1] == "cache"
        assert span.events[0][2] == {"hit": True}

    def test_multiple_roots(self):
        tracer = RecordingTracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [root.name for root in tracer.roots] == ["first", "second"]

    def test_find_by_name(self):
        tracer = RecordingTracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("b"):
                pass
        assert len(tracer.find("b")) == 2
        assert tracer.find("missing") == []

    def test_use_tracer_scopes_installation(self):
        tracer = RecordingTracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert isinstance(get_tracer(), NullTracer)

    def test_summary_aggregates_self_time(self):
        tracer = RecordingTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.002)
        summary = tracer.summary()
        assert summary["inner"]["count"] == 1
        assert summary["outer"]["self_seconds"] < summary["outer"]["total_seconds"]

    def test_thread_safety_separate_stacks(self):
        tracer = RecordingTracer()

        def worker(name):
            with tracer.span(name):
                with tracer.span(f"{name}.child"):
                    time.sleep(0.001)

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Each thread produced its own root with exactly one child.
        assert len(tracer.roots) == 4
        for root in tracer.roots:
            assert len(root.children) == 1
            assert root.children[0].name == f"{root.name}.child"


class TestAdoption:
    """A span opened on one thread and adopted on another: the serving
    tier opens ``complete`` on its event loop and searches on a worker."""

    @staticmethod
    def _on_thread(target) -> None:
        errors = []

        def run():
            try:
                target()
            except BaseException as error:  # surfaced on the test thread
                errors.append(error)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert errors == []

    def test_worker_spans_nest_under_the_adopted_span(self):
        tracer = RecordingTracer()

        def search():
            with tracer.adopt(complete) as adopted:
                assert adopted is complete
                with tracer.span("traverse"):
                    with tracer.span("expand"):
                        pass
                with tracer.span("rank"):
                    pass
            assert tracer._stack() == []

        with tracer.span("request") as request:
            with tracer.span("complete") as complete:
                self._on_thread(search)
                # Nothing became a root, and the adopted span is still
                # open: adoption neither closes nor attaches it.
                assert tracer.roots == []
                assert complete.end == 0.0
                assert request.children == []
                assert [child.name for child in complete.children] == [
                    "traverse",
                    "rank",
                ]
                assert complete.children[0].children[0].name == "expand"
        # Closing on the opening thread attaches it to its parent.
        assert tracer.roots == [request]
        assert request.children == [complete]
        assert complete.end >= complete.children[-1].end
        assert _tree(tracer) == [
            (0, "request"),
            (1, "complete"),
            (2, "traverse"),
            (3, "expand"),
            (2, "rank"),
        ]

    def test_adopted_span_closed_before_the_worker_lets_go(self):
        tracer = RecordingTracer()
        opened = threading.Event()
        closed = threading.Event()
        spans = {}

        def loop_side():
            with tracer.span("request"):
                with tracer.span("complete") as complete:
                    spans["complete"] = complete
                    opened.set()
                    assert closed.wait(10.0)

        def worker_side():
            assert opened.wait(10.0)
            with tracer.adopt(spans["complete"]):
                with tracer.span("traverse"):
                    pass
                closed.set()
                time.sleep(0.01)
                with tracer.span("late"):
                    pass
            assert tracer._stack() == []

        worker = threading.Thread(target=worker_side)
        worker.start()
        self._on_thread(loop_side)
        worker.join(timeout=10.0)
        assert [root.name for root in tracer.roots] == ["request"]
        names = [child.name for child in spans["complete"].children]
        assert names[0] == "traverse" and set(names) <= {"traverse", "late"}

    def test_out_of_order_exits_are_still_tolerated(self):
        tracer = RecordingTracer()
        outer = tracer.span("outer").__enter__()
        inner = tracer.span("inner").__enter__()
        outer.__exit__(None, None, None)
        inner.__exit__(None, None, None)
        assert tracer._stack() == []
        assert tracer.span_count == 2

    def test_null_tracer_adoption_is_a_no_op(self):
        tracer = NullTracer()
        span = tracer.span("complete")
        with tracer.adopt(span) as adopted:
            assert adopted is span
            with tracer.span("traverse"):
                pass


def _tree(tracer):
    return [
        (depth, span.name) for root in tracer.roots for span, depth in root.walk()
    ]


class TestExporters:
    def _sample(self):
        tracer = RecordingTracer()
        with tracer.span("complete", expression="ta ~ name") as span:
            with tracer.span("parse"):
                pass
            with tracer.span("traverse", root="ta") as traverse:
                traverse.event("prune", reason="visited")
            span.set(paths=2)
        return tracer

    def test_render_tree_shows_names_attrs_and_times(self):
        rendered = self._sample().render()
        lines = rendered.splitlines()
        assert lines[0].startswith("complete")
        assert "ms" in lines[0]
        assert "expression='ta ~ name'" in lines[0]
        assert any(line.strip().startswith("parse") for line in lines)
        assert any("* prune" in line for line in lines)

    def test_jsonl_round_trip(self):
        tracer = self._sample()
        buffer = io.StringIO()
        count = tracer.write_jsonl(buffer)
        records = [
            json.loads(line) for line in buffer.getvalue().splitlines()
        ]
        assert len(records) == count == 4  # 3 spans + 1 event
        spans = [r for r in records if r["type"] == "span"]
        events = [r for r in records if r["type"] == "event"]
        assert [span["name"] for span in spans] == [
            "complete",
            "parse",
            "traverse",
        ]
        root = spans[0]
        assert root["parent"] is None and root["depth"] == 0
        for child in spans[1:]:
            assert child["parent"] == root["id"]
            assert child["depth"] == 1
        assert events[0]["span"] == spans[2]["id"]

    def test_jsonl_records_revalidate_against_schema(self):
        # Round-trip: every exported event must re-validate against the
        # checked-in trace_event schema after a JSON round-trip.
        tracer = self._sample()
        buffer = io.StringIO()
        tracer.write_jsonl(buffer)
        records = [
            json.loads(line) for line in buffer.getvalue().splitlines()
        ]
        validate_trace_events(records)

    def test_jsonl_nesting_matches_walk_order(self):
        # Parent/child structure reconstructed from the event log must
        # match the in-memory Span.walk() traversal exactly.
        tracer = RecordingTracer()
        with tracer.span("complete") as outer:
            with tracer.span("parse"):
                pass
            with tracer.span("traverse"):
                with tracer.span("agg_select"):
                    pass
                with tracer.span("rank"):
                    pass
            outer.set(paths=1)
        records = tracer.to_events()
        spans = [r for r in records if r["type"] == "span"]

        walk = [
            (span.name, depth)
            for root in tracer.roots
            for span, depth in root.walk()
        ]
        assert [(r["name"], r["depth"]) for r in spans] == walk

        # Rebuild the tree from parent pointers and compare child lists
        # (in order) with the recorded Span objects.
        children: dict = {}
        for record in spans:
            children.setdefault(record["parent"], []).append(record["name"])
        root = tracer.roots[0]
        assert children[None] == [root.name]
        by_name = {r["name"]: r["id"] for r in spans}
        for span, _ in root.walk():
            expected = [child.name for child in span.children]
            assert children.get(by_name[span.name], []) == expected

    def test_to_events_roots_subset(self):
        tracer = RecordingTracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        subset = tracer.to_events(roots=[tracer.roots[1]])
        assert [r["name"] for r in subset] == ["second"]
        assert len(tracer.to_events()) == 2

    def test_jsonl_attrs_are_json_safe(self):
        tracer = RecordingTracer()
        with tracer.span("s", obj=object(), ok=1):
            pass
        record = tracer.to_events()[0]
        json.dumps(record)  # must not raise
        assert record["attrs"]["ok"] == 1
        assert isinstance(record["attrs"]["obj"], str)
