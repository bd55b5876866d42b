"""Edge cases of the rule that compares a change's runs with its parent's."""

import pytest

from benchmarks.e2e.compare import compare_documents, compare_metric

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


def _shifted(values, factor):
    return [value * factor for value in values]


def test_worse_by_more_than_the_bound_is_a_regression():
    row = compare_metric(STEADY, _shifted(STEADY, 1.2), 0.1, "lower")
    assert row["verdict"] == "regression"


def test_worse_within_the_bound_is_no_change():
    row = compare_metric(STEADY, _shifted(STEADY, 1.05), 0.1, "lower")
    assert row["verdict"] == "no change"


def test_direction_follows_better():
    assert compare_metric(STEADY, _shifted(STEADY, 0.8), 0.1, "higher")["verdict"] == "regression"
    assert compare_metric(STEADY, _shifted(STEADY, 0.8), 0.1, "lower")["verdict"] == "gain"


def test_a_gain_needs_nine_tenths_of_the_pairs():
    better = _shifted(STEADY, 0.9)
    eight_wins = better[:8] + [STEADY[8] * 1.01, STEADY[9] * 1.01]
    assert compare_metric(STEADY, better, 0.1, "lower")["verdict"] == "gain"
    row = compare_metric(STEADY, eight_wins, 0.1, "lower")
    assert row["wins"] == "8/10"
    assert row["verdict"] == "no change"


def test_ties_count_for_neither_side():
    row = compare_metric(STEADY, list(STEADY), 0.1, "lower")
    assert row["wins"] == "0/10"
    assert row["verdict"] == "no change"


def test_a_gain_must_clear_the_parents_own_spread():
    noisy = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0]
    slightly = [value - 1.0 for value in noisy]
    row = compare_metric(noisy, slightly, 0.5, "lower")
    assert row["wins"] == "10/10"
    assert row["verdict"] == "no change"


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0]
    row = compare_metric(noisy, _shifted(noisy, 1.02), 0.1, "lower")
    assert row["parent_spread"] > 0.1
    assert row["verdict"] == "unresolved"


def test_every_change_run_better_than_every_parent_run_resolves_it():
    noisy = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0]
    far_better = [value / 3 for value in noisy]
    assert compare_metric(noisy, far_better, 0.1, "lower")["verdict"] == "gain"


def test_every_run_better_is_no_worse_but_no_gain_within_the_parents_spread():
    # A right-skewed parent: the medians differ by far less than the
    # parent's interquartile distance, so the gain rule fails even though
    # every change run beats every parent run.
    skewed = [95.0, 96.0, 97.0, 98.0, 99.0, 130.0, 140.0, 150.0, 160.0]
    row = compare_metric(skewed, [94.0] * 9, 0.1, "lower")
    assert row["parent_spread"] > 0.1
    assert row["wins"] == "9/9"
    assert row["verdict"] == "no change"


def test_error_rate_is_compared_as_a_share():
    zero = [0.0] * 10
    assert compare_metric(zero, zero, 0.0, "lower", share=True)["verdict"] == "no change"
    some = [0.0] * 4 + [0.001] * 6
    assert compare_metric(zero, some, 0.0, "lower", share=True)["verdict"] == "regression"


def test_unknown_direction_is_rejected():
    with pytest.raises(ValueError):
        compare_metric(STEADY, STEADY, 0.1, "sideways")


def _run(workload, seed, value, failed=0, trace=False, valid=True):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "valid": valid,
        "failed": failed,
        "attempted": 1000,
        "end_to_end": {"latency_p50_ms": {"value": value}},
    }


SPEC = {"end_to_end": [{"name": "latency_p50_ms", "better": "lower", "bound": 0.1}]}


def test_more_failures_void_a_gain_and_show_in_error_rate():
    parent = [_run("w", seed, value) for seed, value in enumerate(STEADY)]
    change = [_run("w", seed, value * 0.5, failed=1) for seed, value in enumerate(STEADY)]
    rows = {row["metric"]: row for row in compare_documents(parent, change, SPEC)}
    assert rows["latency_p50_ms"]["verdict"] == "no gain (more failures)"
    assert rows["error_rate"]["verdict"] == "regression"


def test_traced_runs_are_left_out_and_invalid_ones_counted():
    parent = [_run("w", seed, value) for seed, value in enumerate(STEADY)]
    change = [_run("w", seed, value, valid=seed != 3) for seed, value in enumerate(STEADY)]
    change.append(_run("w", 99, 1000.0, trace=True))
    rows = compare_documents(parent, change, SPEC)
    assert rows[0]["verdict"] == "no change"
    assert rows[0]["wins"] == "0/10"
    assert rows[0]["invalid"] == "0/10 vs 1/10"
