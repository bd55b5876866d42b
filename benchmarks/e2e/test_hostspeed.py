"""Time rescaled by the host-speed meters' probe records."""

import os
import time

import pytest

from benchmarks.e2e.hostspeed import (
    ELASTICITY,
    REFERENCE_SLICE_S,
    TICK_S,
    WINDOW_S,
    Meter,
    SpeedTimeline,
    window_factor,
)
from benchmarks.e2e.system import ROOT, child_env


def _records(slowdowns, busy_per_window=10, per_window=10):
    """One meter's records: evenly spaced probes whose slices make each
    window's factor its ``slowdowns`` entry, and the CPU busy for
    ``busy_per_window`` ticks in every window."""
    step = WINDOW_S / per_window
    return [
        (
            window * WINDOW_S + index * step,
            slowdown ** (1 / ELASTICITY) * REFERENCE_SLICE_S,
            window * busy_per_window + (index + 1) * busy_per_window // per_window,
        )
        for window, slowdown in enumerate(slowdowns)
        for index in range(per_window)
    ]


def test_time_at_reference_speed_reads_as_wall_time():
    timeline = SpeedTimeline([_records([1.0, 1.0, 1.0])])
    assert timeline.scaled(0.1, 1.2) == pytest.approx(1.1)


def test_a_slow_window_counts_for_less_reference_time():
    timeline = SpeedTimeline([_records([1.0, 2.0, 1.0])])
    # Half a second at full speed, half a second at half speed.
    assert timeline.scaled(0.0, 1.0) == pytest.approx(0.5 + 0.25)
    assert timeline.scaled(0.6, 0.8) == pytest.approx(0.1)
    assert timeline.median_factor() == pytest.approx(1.0)


def test_work_feels_the_probes_slowdown_to_the_elasticity():
    probe_twice_as_slow = [2 * REFERENCE_SLICE_S] * 10
    assert window_factor(probe_twice_as_slow) == pytest.approx(2**ELASTICITY)


def test_the_slowest_tenth_of_probes_does_not_count():
    records = _records([1.0])
    started, _, busy = records[3]
    records[3] = (started, 50 * REFERENCE_SLICE_S, busy)  # one preempted probe
    assert SpeedTimeline([records]).scaled(0.0, 0.5) == pytest.approx(0.5)


def test_windows_without_probes_take_the_nearest_factor():
    records = [r for r in _records([2.0, 9.0, 9.0, 9.0, 1.0]) if not 0.5 <= r[0] < 2.0]
    timeline = SpeedTimeline([records])
    assert timeline.factors == pytest.approx([2.0, 2.0, 2.0, 1.0, 1.0])
    # Before the first probe and after the last one, the edge factors hold.
    assert timeline.scaled(-1.0, 0.0) == pytest.approx(0.5)
    assert timeline.scaled(2.5, 4.0) == pytest.approx(1.5)


def test_cpus_count_by_how_busy_they_were():
    busy_slow = _records([2.0, 2.0], busy_per_window=30)
    idle_fast = _records([1.0, 1.0], busy_per_window=0)
    assert SpeedTimeline([busy_slow, idle_fast]).factors == pytest.approx([2.0, 2.0])
    busy_fast = _records([1.0, 1.0], busy_per_window=10)
    assert SpeedTimeline([busy_slow, busy_fast]).factors == pytest.approx([1.75, 1.75])
    # No CPU busy at all: a plain average.
    idle_slow = _records([2.0, 2.0], busy_per_window=0)
    assert SpeedTimeline([idle_slow, idle_fast]).factors == pytest.approx([1.5, 1.5])


def test_busy_time_counts_the_system_cpus_busy_ticks_at_its_own_speed():
    half = round(WINDOW_S / TICK_S) // 2
    client = _records([3.0, 3.0, 3.0], busy_per_window=2 * half)
    system = _records([1.0, 2.0, 1.0], busy_per_window=half)
    timeline = SpeedTimeline([client, system], system=1)
    # Busy half of each window: a quarter second at full speed, then an
    # eighth at half speed.  The client's CPU does not count.
    assert timeline.busy(0.0, 0.5) == pytest.approx(0.25)
    assert timeline.busy(0.5, 1.0) == pytest.approx(0.125)
    assert timeline.busy(0.0, 0.25) == pytest.approx(0.125, rel=0.1)
    idle = _records([1.0, 1.0], busy_per_window=0)
    assert SpeedTimeline([client, idle], system=1).busy(0.0, 1.0) == 0.0


def test_reference_clock_readings_difference_to_scaled_intervals():
    timeline = SpeedTimeline([_records([1.5, 1.0, 3.0, 1.2])])
    points = [0.05, 0.4, 0.77, 1.3, 1.9]
    readings = [timeline.reference_time(at) for at in points]
    assert readings == sorted(readings)
    for (start, first), (end, second) in zip(
        zip(points, readings), zip(points[1:], readings[1:])
    ):
        assert second - first == pytest.approx(timeline.scaled(start, end))


def test_meters_that_recorded_nothing_are_an_error():
    with pytest.raises(ValueError):
        SpeedTimeline([[], []])


def test_a_running_meter_reports_its_speed_as_it_goes():
    env = child_env()
    meter = Meter(min(os.sched_getaffinity(0)), env, str(ROOT))
    try:
        deadline = time.monotonic() + 30
        while len(meter.records) < 5 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(meter.records) >= 5
        assert meter.slowdown() == window_factor([s for _, s, _ in meter.records[-50:]])
        records = meter.stop()
    finally:
        meter.kill()
    assert len(records) >= 5
    assert [r[0] for r in records] == sorted(r[0] for r in records)
