"""Spans from wrapped entry points, self times, and layer attribution."""

import sys
import types

import pytest

from benchmarks.e2e.layers import aggregate, serve_decomposition
from benchmarks.e2e.trace import Layer, Recorder, install, self_times


def _span(sid, layer, start, end, parent=None, op=0, info=None):
    return {
        "id": sid,
        "layer": layer,
        "start": start,
        "end": end,
        "parent": parent,
        "op": op,
        "info": info,
    }


def test_self_time_subtracts_the_children_only():
    spans = [
        _span("0:0", "engine", 0.0, 10.0),
        _span("0:1", "parser", 1.0, 4.0, "0:0"),
        _span("0:2", "search.run", 5.0, 9.0, "0:0"),
        _span("0:3", "search.traverse", 6.0, 8.0, "0:2"),
    ]
    selfs = self_times(spans)
    assert selfs == {"0:0": 3.0, "0:1": 3.0, "0:2": 2.0, "0:3": 2.0}
    assert sum(selfs.values()) == 10.0  # self times tile the root


def test_layer_metrics_are_per_op_and_tile_the_engine():
    spans = [
        _span("0:0", "engine", 0.0, 0.010, info=[0, 0]),
        _span("0:1", "parser", 0.000, 0.001, "0:0"),
        _span("0:2", "search.run", 0.001, 0.010, "0:0", info=[100, 300, 4, 1]),
        _span("0:3", "search.traverse", 0.002, 0.009, "0:2"),
        _span("0:4", "engine", 0.020, 0.022, op=1, info=[1, 1]),
        _span("0:5", "cache.lookup", 0.020, 0.021, "0:4", op=1, info=1),
        _span("0:6", "compile", -1.0, -0.5, op=None),
    ]
    result = aggregate(spans, ops={0, 1}, n_ops=2)
    metrics = result["metrics"]
    assert metrics["engine.complete_ms"] == pytest.approx(6.0)
    assert metrics["search.run_ms"] == pytest.approx(4.5)
    assert metrics["search.traverse_self_ms"] == pytest.approx(3.5)
    assert metrics["search.expansions"] == 50
    assert result["ratios"]["search.prune_ratio"] == {"value": 0.75, "base": 400}
    assert result["ratios"]["search.useful_ratio"] == {"value": 0.25, "base": 4}
    assert result["ratios"]["cache.hit_ratio"] == {"value": 1.0, "base": 1}
    assert metrics["engine.trips"] == 0.5 and metrics["engine.degrades"] == 0.5
    # Set-up compiles are outside the window but are what compile_ms reports.
    assert metrics["compile.compile_ms"] == pytest.approx(500.0)
    tiling = result["tiling"]
    assert tiling["engine_ms"] == pytest.approx(12.0)
    assert tiling["search_agg_closure_ms"] == pytest.approx(9.0)


def test_serve_decomposition_tiles_each_request():
    events = [
        {"layer": "http.read", "at": 1.000, "op": "a"},
        {"layer": "serve.worker", "at": 1.002, "op": "a"},
        {"layer": "serve.worker", "at": 1.003, "op": "a"},  # nested: ignored
    ]
    spans = [
        _span("1:0", "engine", 1.003, 1.005, op="a"),
        _span("0:0", "http.render", 1.007, 1.008, op="a"),
    ]
    result = serve_decomposition(spans, events, {"a": 0.010})
    means = result["mean_ms"]
    assert means["server"] == pytest.approx(8.0)
    assert means["network"] == pytest.approx(2.0)
    assert means["queue_wait"] == pytest.approx(2.0)
    assert means["engine"] == pytest.approx(2.0)
    assert means["render"] == pytest.approx(1.0)
    assert means["overhead"] == pytest.approx(3.0)
    median = result["median_request"]
    assert median["sum_ms"] == pytest.approx(10.0)
    assert median["sum_over_p50"] == pytest.approx(1.0)


@pytest.fixture()
def fake_layers():
    module = types.ModuleType("fake_layers_for_trace_test")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_installed_wrappers_nest_spans_and_restore_cleanly(fake_layers):
    original = fake_layers.outer
    recorder = Recorder(op_of=lambda: "op-1")
    missing, restore = install(
        recorder,
        [
            Layer(fake_layers.__name__, None, "outer", "outer"),
            Layer(fake_layers.__name__, None, "inner", "inner"),
            Layer(fake_layers.__name__, None, "gone", "gone"),
        ],
    )
    try:
        assert fake_layers.outer(1) == 4
    finally:
        restore()
    assert fake_layers.outer is original
    assert missing == [f"{fake_layers.__name__}..gone"]
    records = list(recorder.records())
    assert [r["layer"] for r in records] == ["outer", "inner"]
    assert records[1]["parent"] == records[0]["id"]
    assert all(r["op"] == "op-1" for r in records)
    selfs = self_times(records)
    assert sum(selfs.values()) == pytest.approx(records[0]["end"] - records[0]["start"])


def test_unowned_spans_are_claimed_by_the_next_owned_one():
    recorder = Recorder()
    local, span = recorder.begin("obs")
    recorder.end(local, span)
    recorder.hold_unowned(local, span)
    recorder.claim("rid-7")
    assert span[4] == "rid-7"
    local, stray = recorder.begin("obs")
    recorder.end(local, stray)
    recorder.hold_unowned(local, stray)
    recorder.drop_unowned()
    recorder.claim("rid-8")
    assert stray[4] is None
