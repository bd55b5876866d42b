"""How fast the CPUs doing the work run, moment by moment, and time rescaled by it.

On a shared host a vCPU's speed is not constant: a fixed pure-Python
loop takes 1.0x, 1.2x or 1.6x its best time, switching every fraction
of a second to minutes, depending on what other tenants run on the
same cores.  Wall-clock timings carry those swings straight into the
benchmark's metrics, run to run.

A meter is a small child process pinned to one CPU.  Every
:data:`PERIOD_S` it times one slice of a fixed loop (:func:`probe_slice`,
about 20 us, after one untimed slice) and records ``(start, seconds,
busy)``, ``busy`` being the CPU's busy time so far in clock ticks; at
normal priority it takes under 1% of that CPU.  A run meters the system's
CPU and the load generator's.  :class:`SpeedTimeline` turns the records
into one slowdown factor per :data:`WINDOW_S` window: per CPU the mean
time of its fastest slices over :data:`REFERENCE_SLICE_S`, averaged
over the CPUs weighted by how busy each was in that window.
:meth:`SpeedTimeline.scaled` rescales any interval by it: the time the
same work would have taken with the loop at its reference speed.  A
change that makes the system do less work lowers scaled time exactly as
it lowers wall time; a host that slows down does not raise it.
:meth:`SpeedTimeline.busy` reads, from the system CPU's busy ticks and
its factor alone, how long that CPU was busy in an interval at reference
speed: what a throughput is measured against, so that moments the
system waits on the load generator, or on the hypervisor, do not count.
:meth:`Meter.slowdown` reads the same factor over the last window while
the run goes on, which is what the load generator paces arrivals by.

Run a meter by hand with ``python -m benchmarks.e2e.hostspeed CPU``; it
prints one record per line until its stdin closes.
"""

from __future__ import annotations

import bisect
import os
import select
import subprocess
import sys
import threading
import time

__all__ = [
    "ELASTICITY",
    "PERIOD_S",
    "REFERENCE_SLICE_S",
    "TICK_S",
    "WINDOW_S",
    "Meter",
    "SpeedTimeline",
    "probe_slice",
    "window_factor",
]

#: Time between two probe slices.
PERIOD_S = 0.01
#: Width of the windows the slowdown factor is taken over.
WINDOW_S = 0.5
#: Share of a window's slices, the fastest, whose mean time sets the
#: window's factor; the slowest tenth are mostly slices preempted
#: mid-way.  Timed beside real search work and cache-hit serving work on
#: a shared 2-vCPU host for several minutes, the work's median time per
#: 20 s block moved 1.3% (CV) once each piece was rescaled this way, 2.4%
#: and 1.6% with the median slice, 4.0% and 4.8% with the 20th percentile,
#: and 8-14% unscaled.
KEEP = 0.9
#: That mean at reference speed: about its value on a calm server-class
#: vCPU, so scaled times read close to wall times there.
REFERENCE_SLICE_S = 25e-6
#: How much of the probe's slowdown the system's work feels: a window's
#: factor is the probe's slowdown to this power.  With the plain
#: slowdown, the benchmark's rescaled metrics still moved with the host
#: over 90 runs of 16 s at run slowdowns of 1.1-2.0: their log-log slopes
#: against it were -0.11 to -0.21 for times and +0.13 to +0.32 for rates,
#: so the probe overstates how much real work slows.
ELASTICITY = 0.9
#: One clock tick of ``/proc/stat``'s busy counts.
TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
_WINDOW_PROBES = round(WINDOW_S / PERIOD_S)

Record = tuple[float, float, int]


def probe_slice() -> int:
    """A fixed slice of interpreter work: small-dict updates and calls."""
    table: dict[int, int] = {}
    total = 0
    for value in range(200):
        table[value & 31] = table.get(value & 31, 0) + value
        total += len(table)
    return total


def window_factor(slice_seconds: list[float]) -> float:
    """A window's slowdown: the mean of its fastest :data:`KEEP` of slice
    times over :data:`REFERENCE_SLICE_S`, to the power :data:`ELASTICITY`."""
    fastest = sorted(slice_seconds)[: max(1, int(KEEP * len(slice_seconds)))]
    return (sum(fastest) / len(fastest) / REFERENCE_SLICE_S) ** ELASTICITY


def busy_ticks(cpu: int) -> int:
    """Clock ticks ``cpu`` has spent busy since boot (``/proc/stat``)."""
    prefix = f"cpu{cpu} "
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            if line.startswith(prefix):
                fields = line.split()
                # user, nice, system, irq, softirq
                return sum(int(fields[index]) for index in (1, 2, 3, 6, 7))
    raise RuntimeError(f"no {prefix.strip()} line in /proc/stat")


def _run_meter(cpu: int) -> None:
    """The meter child: print one record per probe until stdin closes."""
    os.sched_setaffinity(0, {cpu})
    clock = time.perf_counter
    out = sys.stdout
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        # The first slice after a sleep runs slower on a CPU that was idle
        # than on a busy one; the second runs alike on both.
        probe_slice()
        started = clock()
        probe_slice()
        out.write(f"{started!r} {clock() - started!r} {busy_ticks(cpu)}\n")
        out.flush()


class Meter:
    """A running meter child on one CPU.

    Its records arrive as it takes them, so :meth:`slowdown` reads the
    CPU's speed while the run goes on; :meth:`stop` returns them all.
    """

    def __init__(self, cpu: int, env: dict[str, str], cwd: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.hostspeed", str(cpu)],
            cwd=cwd,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.records: list[Record] = []
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            started, seconds, busy = line.split()
            self.records.append((float(started), float(seconds), int(busy)))

    def slowdown(self) -> float:
        """The CPU's slowdown over its last window of probes (1.0 before any)."""
        recent = [seconds for _, seconds, _ in self.records[-_WINDOW_PROBES:]]
        return window_factor(recent) if recent else 1.0

    def stop(self) -> list[Record]:
        assert self.proc.stdin is not None
        self.proc.stdin.close()
        code = self.proc.wait(timeout=60)
        self._reader.join(timeout=60)
        if code != 0:
            raise RuntimeError(f"host-speed meter exited with {code}")
        return list(self.records)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=60)


def _per_window(
    records: list[Record], origin: float, count: int
) -> tuple[list[float], list[int]]:
    """One meter's (slowdown, busy ticks) in each of ``count`` windows.

    A window without probes takes the slowdown of the nearest one with
    probes (the earlier on a tie) and counts no busy ticks.
    """
    slices: list[list[float]] = [[] for _ in range(count)]
    busy_at_end: list[int | None] = [None] * count
    for started, seconds, busy in records:
        window = int((started - origin) // WINDOW_S)
        slices[window].append(seconds)
        busy_at_end[window] = busy
    probed = [window for window in range(count) if slices[window]]
    factors = []
    for window in range(count):
        nearest = min(probed, key=lambda other: (abs(other - window), other))
        factors.append(window_factor(slices[nearest]))
    busy = []
    previous = records[0][2]
    for end in busy_at_end:
        busy.append(0 if end is None else end - previous)
        previous = previous if end is None else end
    return factors, busy


class SpeedTimeline:
    """Slowdown factors per window, from the records of one or more meters.

    Each window's factor is the meters' factors weighted by the busy
    ticks of their CPUs in that window (plainly averaged when no CPU was
    busy).  Time before the first window or after the last one takes the
    edge window's factor.  ``meters[system]`` watches the system's CPU;
    :meth:`busy` reads that CPU's busy time alone.
    """

    def __init__(self, meters: list[list[Record]], system: int = -1) -> None:
        if not meters[system]:
            raise ValueError("the system CPU's host-speed meter recorded nothing")
        system_records = meters[system]
        meters = [records for records in meters if records]
        self.origin = min(records[0][0] for records in meters)
        count = 1 + max(
            int((records[-1][0] - self.origin) // WINDOW_S) for records in meters
        )
        per_meter = [_per_window(records, self.origin, count) for records in meters]
        #: Factor of every window from the first to the last one probed.
        self.factors = []
        for window in range(count):
            weights = [busy[window] for _, busy in per_meter]
            factors = [factors[window] for factors, _ in per_meter]
            if sum(weights) > 0:
                factor = sum(f * w for f, w in zip(factors, weights)) / sum(weights)
            else:
                factor = sum(factors) / len(factors)
            self.factors.append(factor)
        # Reference seconds from the origin to the start of each window.
        self._cumulative = [0.0]
        for factor in self.factors:
            self._cumulative.append(self._cumulative[-1] + WINDOW_S / factor)
        # The system CPU's busy time at reference speed, cumulative at each
        # of its probes: each probe-to-probe step of the busy counter over
        # the system CPU's own factor in the step's window.
        system_factors, _ = _per_window(system_records, self.origin, count)
        self._busy_at = [started for started, _, _ in system_records]
        self._busy_reference = [0.0]
        for (started, _, busy), (_, _, later) in zip(system_records, system_records[1:]):
            window = int((started - self.origin) // WINDOW_S)
            self._busy_reference.append(
                self._busy_reference[-1] + (later - busy) * TICK_S / system_factors[window]
            )

    def reference_time(self, at: float) -> float:
        """Clock reading ``at`` on a clock that runs at reference speed.

        Differences of two readings are :meth:`scaled` intervals, so any
        timestamps (spans, events) can be moved onto this clock once.
        """
        window = int((at - self.origin) // WINDOW_S)
        window = min(max(window, 0), len(self.factors) - 1)
        into = at - (self.origin + window * WINDOW_S)
        return self._cumulative[window] + into / self.factors[window]

    def scaled(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would have taken at reference speed."""
        return self.reference_time(end) - self.reference_time(start)

    def _busy_until(self, at: float) -> float:
        """The system CPU's reference busy seconds up to ``at``, taken as
        linear between its probes and flat outside them."""
        after = bisect.bisect_right(self._busy_at, at)
        if after == 0:
            return 0.0
        if after == len(self._busy_at):
            return self._busy_reference[-1]
        before_at, next_at = self._busy_at[after - 1], self._busy_at[after]
        before, following = self._busy_reference[after - 1], self._busy_reference[after]
        return before + (following - before) * (at - before_at) / (next_at - before_at)

    def busy(self, start: float, end: float) -> float:
        """Seconds the system's CPU was busy in ``[start, end]``, at
        reference speed.

        Time the CPU sat idle, or was taken by the hypervisor (steal),
        does not count; a system that saturates its CPU reads as
        :meth:`scaled`.
        """
        return self._busy_until(end) - self._busy_until(start)

    def median_factor(self) -> float:
        return sorted(self.factors)[len(self.factors) // 2]


if __name__ == "__main__":
    _run_meter(int(sys.argv[1]))
