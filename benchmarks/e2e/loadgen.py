"""The HTTP load generator: open loop for latency, closed loop for capacity.

One asyncio task releases requests on a seeded schedule; each of at
most ``connections`` keep-alive connections takes the next released
request as soon as it is free.  A request that is due while every
connection is busy waits in the client queue, and its latency is
counted from its *due* time, so a stall is charged to every request it
delays (the coordinated-omission rule).  Schedules are in seconds at
reference host speed and are stretched as the host slows down, so the
server's load, and with it the queueing in the latencies, does not
change with the host's speed.

Two delays are kept apart:

* **lateness** — how far behind schedule the generator released a
  request (its own scheduling slack; a run whose p99 lateness exceeds
  :data:`MAX_LATENESS_S` at a nominal rate is marked invalid);
* **client backlog** — requests released but not yet sent because both
  connections were busy, which is what a server that cannot keep up
  builds.

Time comes from a :class:`RealClock`; tests substitute
:class:`VirtualClock` so latency accounting can be checked without
sleeping.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import heapq
import random
import selectors
import time
from collections.abc import Awaitable, Callable, Sequence

__all__ = [
    "Connection",
    "MAX_LATENESS_S",
    "OpenLoopResult",
    "RealClock",
    "Sample",
    "VirtualClock",
    "poisson_schedule",
    "run_async",
    "run_closed_loop",
    "run_open_loop",
]

#: Generator lateness (p99) above which a nominal-rate run is invalid.
MAX_LATENESS_S = 0.001


def run_async(coro):
    """Run ``coro`` on an event loop whose timers wake on time.

    The default epoll loop rounds every timeout up to a whole
    millisecond, so it would release requests up to a millisecond late;
    ``select`` takes microseconds.  Spinning instead would take a core
    away from the server under test.  The garbage collector is paused
    meanwhile: this process also holds the reference answers, and a full
    collection over them stalls the generator for milliseconds.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        with asyncio.Runner(
            loop_factory=lambda: asyncio.SelectorEventLoop(
                selectors.SelectSelector()
            )
        ) as runner:
            return runner.run(coro)
    finally:
        gc.enable()
        gc.unfreeze()


class RealClock:
    """Monotonic wall time."""

    def now(self) -> float:
        return time.perf_counter()

    async def sleep_until(self, deadline: float) -> None:
        await asyncio.sleep(max(0.0, deadline - time.perf_counter()))


class VirtualClock:
    """Discrete-event time for tests: nothing sleeps, time jumps.

    Every waiter parks on a future; :meth:`run` lets all runnable tasks
    settle, then advances ``now`` to the earliest deadline and wakes
    that waiter, until the awaited coroutine finishes.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self._waiters: list[tuple[float, int, asyncio.Future]] = []
        self._seq = 0

    def now(self) -> float:
        return self._now

    async def sleep_until(self, deadline: float) -> None:
        if deadline <= self._now:
            await asyncio.sleep(0)
            return
        future = asyncio.get_running_loop().create_future()
        self._seq += 1
        heapq.heappush(self._waiters, (deadline, self._seq, future))
        await future

    async def run(self, coro: Awaitable):
        task = asyncio.ensure_future(coro)
        while not task.done():
            for _ in range(50):  # let every runnable task reach a wait
                await asyncio.sleep(0)
            if task.done() or not self._waiters:
                continue
            deadline, _, future = heapq.heappop(self._waiters)
            self._now = max(self._now, deadline)
            future.set_result(None)
        return task.result()


def poisson_schedule(
    rate: float, duration: float, rng: random.Random
) -> list[float]:
    """Due offsets (seconds from start) of Poisson arrivals.

    The count is fixed at ``rate * duration`` and the times are sorted
    uniform draws — a Poisson process conditioned on its count — so
    every seed sends the same number of requests and percentile support
    does not depend on the draw.
    """
    return sorted(rng.uniform(0.0, duration) for _ in range(round(rate * duration)))


@dataclasses.dataclass(slots=True)
class Sample:
    """One request's timeline (absolute clock readings) and outcome."""

    key: int
    request_id: str
    due: float
    released: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str | None = None

    @property
    def latency(self) -> float:
        """Seconds from due time to the full response."""
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.released - self.due


@dataclasses.dataclass
class OpenLoopResult:
    samples: list[Sample]
    started: float
    #: Requests due by the end of the schedule but not yet sent then.
    backlog_at_end: int


class Connection:
    """One keep-alive HTTP/1.1 connection to the server under test."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def open(self) -> "Connection":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def request(self, data: bytes) -> tuple[int, bytes]:
        """Send one request; return (status, body)."""
        assert self._reader is not None and self._writer is not None
        self._writer.write(data)
        head = await self._reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        marker = head.find(b"Content-Length:")
        if marker < 0:
            raise ValueError("response without Content-Length")
        end = head.find(b"\r\n", marker)
        length = int(head[marker + 15 : end])
        body = await self._reader.readexactly(length)
        return status, body

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
            self._writer = None


def render_post(path: str, body: bytes, headers: dict[str, str]) -> bytes:
    """A keep-alive POST with a JSON body."""
    lines = [
        f"POST {path} HTTP/1.1",
        "Host: localhost",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
    ]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def run_open_loop(
    schedule: Sequence[float],
    keys: Sequence[int],
    request_ids: Sequence[str],
    senders: Sequence[Callable[[int, str], Awaitable[tuple[int, bytes]]]],
    clock: RealClock | VirtualClock,
    slowdown: Callable[[], float] = lambda: 1.0,
) -> OpenLoopResult:
    """Release ``keys[i]`` when it is due; one worker per sender.

    ``schedule`` holds due offsets in seconds at reference host speed.
    Each gap between two due times is stretched by ``slowdown()``, the
    host's slowdown as the gap starts, so on a host running at half
    speed requests arrive at half the rate and keep the server as busy
    as at reference speed.  ``senders`` are the connections, as
    coroutines ``send(key, rid)`` returning ``(status, body)``.  A
    sender that raises marks that sample failed and keeps serving.
    """
    if not (len(schedule) == len(keys) == len(request_ids)):
        raise ValueError("schedule, keys and request_ids differ in length")
    queue: asyncio.Queue[Sample | None] = asyncio.Queue()
    started = clock.now()
    samples = [
        Sample(key=key, request_id=rid, due=started)
        for key, rid in zip(keys, request_ids)
    ]
    backlog_at_end = 0

    async def release() -> None:
        nonlocal backlog_at_end
        due, at = started, 0.0
        for offset, sample in zip(schedule, samples):
            due += (offset - at) * slowdown()
            at = offset
            sample.due = due
            await clock.sleep_until(due)
            sample.released = clock.now()
            queue.put_nowait(sample)
        backlog_at_end = queue.qsize()
        for _ in senders:
            queue.put_nowait(None)

    async def work(send) -> None:
        while True:
            sample = await queue.get()
            if sample is None:
                return
            sample.sent = clock.now()
            try:
                status, body = await send(sample.key, sample.request_id)
            except (OSError, ValueError, asyncio.IncompleteReadError) as error:
                sample.done = clock.now()
                sample.error = f"{type(error).__name__}: {error}"
                continue
            sample.done = clock.now()
            sample.status = status
            sample.body = body

    await asyncio.gather(release(), *(work(send) for send in senders))
    return OpenLoopResult(
        samples=samples, started=started, backlog_at_end=backlog_at_end
    )


async def run_closed_loop(
    keys: Sequence[int],
    senders: Sequence[Callable[[int, str], Awaitable[tuple[int, bytes]]]],
    clock: RealClock | VirtualClock,
    duration: float | None = None,
    prefix: str = "k",
) -> OpenLoopResult:
    """Each sender sends its next request as soon as it has an answer.

    Keys are sent in order, each once, stopping early when ``duration``
    (if given) has passed; the samples' due time is their send time.
    This measures how many requests the system answers per second when
    it is never idle.
    """
    started = clock.now()
    samples: list[Sample] = []
    position = 0

    async def work(send) -> None:
        nonlocal position
        while position < len(keys) and (
            duration is None or clock.now() - started < duration
        ):
            key = keys[position]
            sample = Sample(key=key, request_id=f"{prefix}-{position}", due=clock.now())
            position += 1
            sample.released = sample.sent = sample.due
            samples.append(sample)
            try:
                sample.status, sample.body = await send(key, sample.request_id)
            except (OSError, ValueError, asyncio.IncompleteReadError) as error:
                sample.error = f"{type(error).__name__}: {error}"
            sample.done = clock.now()

    await asyncio.gather(*(work(send) for send in senders))
    return OpenLoopResult(samples=samples, started=started, backlog_at_end=0)
