"""Child processes of the benchmark and what is read about them.

The object server (``python -m repro.tools.servectl serve``) and the echo
floor (``perfbench/echo.py``) each run in a process of their own, so the
single-threaded client, the server and the echo process fit a 2-core
host.  CPU time and peak memory are read from ``/proc/<pid>``, from
outside the server, so reading them costs the server nothing.
"""

from __future__ import annotations

import os
import re
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


class StealClock:
    """The host's steal time: CPU time the hypervisor gave other guests.

    On a shared virtual machine the hypervisor now and then runs other
    guests on this guest's cores; an operation in flight meanwhile takes
    several times as long, whatever the program does.  The benchmark
    reads this clock around every timed operation and leaves the ones it
    moved out of the timed figures (they are still checked and counted).
    The clock is the ``steal`` column of ``/proc/stat``'s ``cpu`` line,
    in clock ticks; it reads 0 where the host does not report it.
    """

    def __init__(self) -> None:
        try:
            self._file = open("/proc/stat", "rb")
        except OSError:
            self._file = None

    def ticks(self) -> int:
        if self._file is None:
            return 0
        self._file.seek(0)
        fields = self._file.readline().split()
        return int(fields[8]) if len(fields) > 8 else 0

    def close(self) -> None:
        if self._file is not None:
            self._file.close()


def cpu_probe_ns() -> int:
    """Time a fixed piece of interpreter work (dict, tuple, str, list).

    Its duration tracks how fast this host runs Python right now, so the
    server's CPU per operation can be given in units of it.
    """
    t0 = time.perf_counter_ns()
    table: dict = {}
    for i in range(3000):
        table[i & 255] = (i, str(i))
        [j for j in range(8)]
    return time.perf_counter_ns() - t0


class Child:
    """A child process that prints ``... <host>:<port> ...`` once ready."""

    def __init__(self, argv: list[str], *, env: dict | None = None,
                 log: Path, cwd: Path, cpus: set[int] | None = None) -> None:
        self.argv = argv
        # A fixed hash seed: string hashing, and with it every dict's
        # layout, is the same in every run.
        self.env = dict(env if env is not None else os.environ,
                        PYTHONHASHSEED="0")
        self.cpus = cpus
        self.log = log
        self.cwd = cwd
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> "Child":
        self.log.parent.mkdir(parents=True, exist_ok=True)
        with open(self.log, "ab") as err:
            self.proc = subprocess.Popen(
                self.argv, stdout=subprocess.PIPE, stderr=err,
                stdin=subprocess.DEVNULL, env=self.env, cwd=self.cwd,
            )
        if self.cpus:
            os.sched_setaffinity(self.proc.pid, self.cpus)
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode("utf-8", "replace") if ready else ""
        match = re.search(r"127\.0\.0\.1:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(
                f"{self.argv[1:4]} did not start (said {line.strip()!r}; "
                f"see {self.log})"
            )
        self.port = int(match.group(1))
        return self

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def cpu_s(self) -> float:
        """User plus system CPU seconds the process has used."""
        with open(f"/proc/{self.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) * _TICK_S

    def peak_rss_mib(self) -> float:
        """Peak resident set size (``VmHWM``) in MiB."""
        with open(f"/proc/{self.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, timeout: float = 20.0) -> None:
        """Interrupt the process and wait until it has ended."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout)
        if proc.stdout is not None:
            proc.stdout.close()


def placement() -> tuple[set[int] | None, set[int] | None]:
    """CPUs for (the client and echo process, the server), if pinnable.

    On two or more CPUs the server gets a CPU of its own and the client
    and the echo process share another, so no run depends on where the
    scheduler happened to put them.  The single client keeps at most one
    request in flight, so the server's threads never need two CPUs.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:
        return None, None
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


def server(root: Path, out: Path, *, pages: int, retain: int) -> Child:
    """The object server, one shard, on a fresh in-memory volume.

    Health monitor, compactor, trace file and metrics sidecar are off:
    all of them are timer-driven and would make runs differ.
    """
    argv = [sys.executable, "-m", "repro.tools.servectl", "serve",
            "--host", "127.0.0.1", "--port", "0", "--pages", str(pages),
            "--flight-dir", str(out / "flight")]
    if retain:
        argv += ["--versioning", "--version-retain", str(retain)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return Child(argv, env=env, log=out / "server.log", cwd=root,
                 cpus=placement()[1])


def echo(root: Path, out: Path) -> Child:
    """The raw asyncio echo process (the round-trip floor)."""
    argv = [sys.executable, str(root / "perfbench" / "echo.py")]
    return Child(argv, log=out / "echo.log", cwd=root, cpus=placement()[0])


class EchoClient:
    """Blocking client of :mod:`echo`, framed like the object client."""

    def __init__(self, port: int, message_bytes: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.message = os.urandom(message_bytes)
        self.buf = bytearray(message_bytes)

    def round_trip_ns(self) -> int:
        view = memoryview(self.buf)
        t0 = time.perf_counter_ns()
        self.sock.sendall(self.message)
        got = 0
        while got < len(view):
            n = self.sock.recv_into(view[got:])
            if not n:
                raise ConnectionError("echo process closed the connection")
            got += n
        t1 = time.perf_counter_ns()
        if self.buf != self.message:
            raise ConnectionError("echo process returned different bytes")
        return t1 - t0

    def close(self) -> None:
        self.sock.close()


def host_fingerprint() -> dict:
    """Enough about the host to tell two machines' figures apart."""
    import platform

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
