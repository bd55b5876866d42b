"""What a warm hit does not pay for, counted rather than timed.

A warm ``POST /v1/complete`` keeps its span tree in the slow log and
exports it only when the log is read; it does not tokenize a text the
process has parsed before; and the trees it leaves behind are acyclic,
so the private tracer and every entry the ring evicts are freed by
reference counting, with the cycle collector off.  The export on read
is the export the log used to make on every request.  The request read
keeps its timeout: a client that never finishes its request gets 408.
"""

import gc
import socket
import weakref

import pytest

from repro.core import parser as parser_module
from repro.obs import slowlog as slowlog_module
from repro.obs.schema import validate_slowlog_entries
from repro.obs.slowlog import SlowLogEntry, SlowQueryLog
from repro.obs.tracer import RecordingTracer, span_events
from repro.serve import ServeConfig

from tests.serve.conftest import make_tier, raw_client


@pytest.fixture
def tier(university):
    tier = make_tier({"university": university})
    yield tier
    tier.stop(drain=False)


def _count_exports(monkeypatch) -> list:
    calls = []
    original_to_events = RecordingTracer.to_events

    def to_events(self, roots=None):
        calls.append("to_events")
        return original_to_events(self, roots)

    def exported(roots):
        calls.append("span_events")
        return span_events(roots)

    monkeypatch.setattr(RecordingTracer, "to_events", to_events)
    monkeypatch.setattr(slowlog_module, "span_events", exported)
    return calls


class TestExportOnRead:
    def test_a_hit_exports_no_spans_until_the_log_is_read(
        self, tier, monkeypatch
    ):
        calls = _count_exports(monkeypatch)
        client = raw_client(tier)
        for _ in range(4):
            assert client.complete("ta ~ name").status == 200
        assert calls == []
        entries = tier.slowlog.entries()
        assert len(entries) == 4  # the default 0 ms threshold keeps all
        records = tier.slowlog.to_records()
        assert calls == ["span_events"] * 4
        assert tier.slowlog.to_records() == records
        assert calls == ["span_events"] * 4  # exported once per entry

    def test_the_read_export_equals_an_eager_export(self, tier, monkeypatch):
        """Hits, a miss, a truncated answer and a parse error: each
        record read later equals the one exported when it was kept."""
        eager: dict[int, tuple] = {}
        original = SlowQueryLog._consider

        def consider(self, observation, elapsed_ms, roots):
            stats = observation.stats
            seq = self._seq
            eager[seq] = (
                span_events(roots),
                stats.as_dict() if stats is not None else None,
            )
            original(self, observation, elapsed_ms, roots)

        monkeypatch.setattr(SlowQueryLog, "_consider", consider)
        client = raw_client(tier)
        assert client.complete("ta ~ name").status == 200
        assert client.complete("ta ~ name").status == 200
        assert client.complete("student ~ name", max_nodes=2).status == 206
        assert client.complete("ta ~~ name").status == 400
        records = tier.slowlog.to_records()
        assert len(records) == 4
        validate_slowlog_entries(records)
        for record in records:
            spans, stats = eager[record["seq"]]
            assert record["spans"] == spans
            assert record["stats"] == stats


class TestParseOnce:
    def test_a_seen_text_is_tokenized_zero_times(self, tier, monkeypatch):
        client = raw_client(tier)
        assert client.complete("professor ~ name").status == 200
        calls = []
        original = parser_module.tokenize

        def counting(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(parser_module, "tokenize", counting)
        for _ in range(3):
            assert client.complete("professor ~ name").status == 200
        assert calls == []
        # A syntax error is never remembered: it is tokenized each time.
        for _ in range(2):
            assert client.complete("ta ~~ name").status == 400
        assert calls == ["ta ~~ name", "ta ~~ name"]


class TestAcyclicTrees:
    def test_tracers_and_evicted_entries_are_freed_without_the_collector(
        self, university, monkeypatch
    ):
        tracers: list[weakref.ref] = []
        entries: list[weakref.ref] = []

        class TrackedTracer(RecordingTracer):
            def __init__(self) -> None:
                super().__init__()
                tracers.append(weakref.ref(self))

        class TrackedEntry(SlowLogEntry):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                entries.append(weakref.ref(self))

        monkeypatch.setattr(slowlog_module, "RecordingTracer", TrackedTracer)
        monkeypatch.setattr(slowlog_module, "SlowLogEntry", TrackedEntry)
        slowlog = SlowQueryLog(threshold_ms=0.0, top_k=0, capacity=1)
        tier = make_tier({"university": university}, slowlog=slowlog)
        gc.disable()
        try:
            client = raw_client(tier)
            for _ in range(4):
                assert client.complete("ta ~ name").status == 200
            assert len(tracers) == len(entries) == 4
            # Every request's private tracer is gone once it answered,
            # and the ring of one keeps only the newest entry.
            assert [ref() is None for ref in tracers] == [True] * 4
            assert [ref() is None for ref in entries] == [True] * 3 + [False]
            assert slowlog.entries()[0].spans  # the kept tree exports
        finally:
            gc.enable()
            tier.stop(drain=False)


class TestReadTimeout:
    def test_a_request_that_never_ends_gets_408(self, university):
        tier = make_tier(
            {"university": university}, ServeConfig(request_timeout_s=0.2)
        )
        try:
            with socket.create_connection(tier.address, timeout=10) as sock:
                sock.sendall(b"POST /v1/complete HTTP/1.1\r\nHost: x\r\n")
                reply = b""
                while b"\r\n\r\n" not in reply:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    reply += chunk
            assert reply.startswith(b"HTTP/1.1 408 ")
        finally:
            tier.stop(drain=False)
