"""Child processes of the system under test: spawn, readiness, memory, stop.

Every child gets the parent's environment minus each ``REPRO_*``
variable, so every run measures the default configuration, with
``PYTHONPATH`` pointing at the checkout's ``src`` (and the checkout
root, for the benchmark's own bootstrap modules).

The system process runs pinned to one CPU and the load generator to
another (:func:`pinned_client`), so the two never take turns on one CPU
and the host-speed meters know which CPUs to watch.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

__all__ = [
    "Child",
    "ROOT",
    "child_env",
    "peak_rss_mb",
    "pinned_client",
    "prepare",
    "source_digest",
]

ROOT = Path(__file__).resolve().parents[2]
OUT = Path(__file__).resolve().parent / "out"


def source_digest() -> str:
    """SHA-256 over the paths and bytes of every ``src/**/*.py``."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of process ``pid``, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


@contextlib.contextmanager
def pinned_client():
    """Run the calling thread on the client's CPU; yields (client, system) CPUs.

    The system's CPU is the last one this thread may use and the
    client's the first (the same one on a one-CPU host).  Threads the
    calling thread starts meanwhile inherit its CPU.
    """
    allowed = os.sched_getaffinity(0)
    client, system = min(allowed), max(allowed)
    os.sched_setaffinity(0, {client})
    try:
        yield client, system
    finally:
        os.sched_setaffinity(0, allowed)


def prepare() -> None:
    """Make this process import the checkout's ``repro`` in its defaults.

    Exits with status 2 when the checkout has no ``src/repro`` to build
    the system from.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no system to run: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        raise SystemExit(2)
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(ROOT / "src"))


def child_env() -> dict[str, str]:
    env = {
        name: value
        for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    return env


class Child:
    """One spawned process, pinned to ``cpu``, whose stdout is read line by line."""

    def __init__(self, args: list[str], log_name: str, cpu: int) -> None:
        OUT.mkdir(exist_ok=True)
        self._log = open(OUT / f"{log_name}.stderr.log", "wb")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *args],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            bufsize=1,
        )
        # Before the interpreter starts any thread, so all of them inherit it.
        try:
            os.sched_setaffinity(self.proc.pid, {cpu})
        except ProcessLookupError:
            pass  # already gone; wait_line reports how it exited
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def wait_line(self, prefix: str, timeout: float) -> str:
        """The first stdout line starting with ``prefix`` (else raise)."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no {prefix!r} line within {timeout}s")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(
                    f"child exited with {self.proc.wait()} before {prefix!r}"
                )
            if line.startswith(prefix):
                return line

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (the server drains), wait, SIGKILL as a last resort."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout)
        self._log.close()
        return code

    def wait(self, timeout: float) -> int:
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        finally:
            self._reader.join(timeout)
            self._log.close()
        return code
