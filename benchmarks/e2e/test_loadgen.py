"""Open- and closed-loop accounting under virtual time."""

import asyncio
import random

from benchmarks.e2e import loadgen


def _fixed_service(clock, seconds):
    """A fake server connection answering after ``seconds`` of virtual time."""

    async def send(key, rid):
        await clock.sleep_until(clock.now() + seconds)
        return 200, b""

    return send


def _open_loop(schedule, senders, clock):
    keys = list(range(len(schedule)))
    rids = [f"r{i}" for i in keys]
    return asyncio.run(
        clock.run(loadgen.run_open_loop(schedule, keys, rids, senders, clock))
    )


def test_latency_counts_from_the_due_time_not_the_send_time():
    clock = loadgen.VirtualClock()
    # One connection, 10 s per answer, a request due every second: each
    # request waits for the ones before it, and that wait is latency.
    result = _open_loop([0.0, 1.0, 2.0, 3.0], [_fixed_service(clock, 10.0)], clock)
    assert [s.latency for s in result.samples] == [10.0, 19.0, 28.0, 37.0]
    assert [s.sent - s.due for s in result.samples] == [0.0, 9.0, 18.0, 27.0]
    assert [s.lateness for s in result.samples] == [0.0] * 4


def test_a_slow_host_stretches_the_schedule_as_it_goes():
    clock = loadgen.VirtualClock()
    factors = iter([1.0, 2.0, 2.0, 0.5])
    keys = [0, 1, 2, 3]
    result = asyncio.run(
        clock.run(
            loadgen.run_open_loop(
                [0.0, 1.0, 2.0, 3.0],
                keys,
                [f"r{i}" for i in keys],
                [_fixed_service(clock, 0.1)],
                clock,
                slowdown=lambda: next(factors),
            )
        )
    )
    # Each gap is stretched by the factor read as it starts.
    assert [s.due for s in result.samples] == [0.0, 2.0, 4.0, 4.5]
    assert [s.lateness for s in result.samples] == [0.0] * 4


def test_a_second_connection_takes_the_next_due_request():
    clock = loadgen.VirtualClock()
    senders = [_fixed_service(clock, 10.0), _fixed_service(clock, 10.0)]
    result = _open_loop([0.0, 1.0, 2.0, 3.0], senders, clock)
    assert [s.latency for s in result.samples] == [10.0, 10.0, 18.0, 18.0]


def test_backlog_at_end_counts_requests_released_but_not_sent():
    clock = loadgen.VirtualClock()
    result = _open_loop([0.0, 0.1, 0.2, 0.3], [_fixed_service(clock, 10.0)], clock)
    assert result.backlog_at_end == 3
    assert all(s.status == 200 for s in result.samples)


def test_a_failing_connection_marks_the_sample_and_keeps_serving():
    clock = loadgen.VirtualClock()
    calls = []

    async def flaky(key, rid):
        calls.append(key)
        if key == 1:
            raise ConnectionResetError("peer went away")
        return 200, b"ok"

    result = _open_loop([0.0, 1.0, 2.0], [flaky], clock)
    assert calls == [0, 1, 2]
    assert [s.error is None for s in result.samples] == [True, False, True]


def test_poisson_schedule_is_seeded_and_sends_rate_times_duration():
    first = loadgen.poisson_schedule(100.0, 2.0, random.Random(7))
    again = loadgen.poisson_schedule(100.0, 2.0, random.Random(7))
    assert first == again
    assert len(first) == 200
    assert first == sorted(first) and 0.0 <= first[0] and first[-1] < 2.0


def test_closed_loop_sends_the_next_request_on_each_answer():
    clock = loadgen.VirtualClock()
    # Two connections, 1/1024 s per answer: 2048 answers in a second.
    senders = [_fixed_service(clock, 1 / 1024) for _ in range(2)]
    keys = [0, 1, 2] * 1000
    result = asyncio.run(
        clock.run(loadgen.run_closed_loop(keys, senders, clock, duration=1.0))
    )
    assert len(result.samples) == 2048
    assert [s.key for s in result.samples[:4]] == [0, 1, 2, 0]
    assert all(s.latency == 1 / 1024 for s in result.samples)
    assert max(s.done for s in result.samples) == 1.0


def test_closed_loop_without_a_duration_sends_each_key_once():
    clock = loadgen.VirtualClock()
    senders = [_fixed_service(clock, 0.5) for _ in range(2)]
    result = asyncio.run(clock.run(loadgen.run_closed_loop([4, 5, 6], senders, clock)))
    assert sorted(s.key for s in result.samples) == [4, 5, 6]
    assert max(s.done for s in result.samples) == 1.0
