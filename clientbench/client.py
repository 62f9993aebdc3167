"""The server process, the keep-alive client, and the number helpers.

The server is ``python -m repro serve`` from the checkout's ``src/``,
started as its own process with default flags (plus ``--port 0``).  The client speaks
HTTP/1.1 over persistent, default-option ``http.client`` connections:
no socket options are set, so whatever a keep-alive client sees today
(including the Nagle/delayed-ACK stall) is what gets measured.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import platform
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

#: Seconds a server gets to print its banner.
START_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile with linear interpolation (numpy's default)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    rank = (len(data) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------


def host_speed_ms() -> float:
    """Median time of a fixed pure-Python loop: a host-speed reference.

    Recorded with every result so run-to-run spread can be read against
    host drift; no metric is ever scaled by it.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return median(times)


def provenance(root: Path) -> dict[str, Any]:
    import numpy

    sha = "unknown"  # a checkout exported without its history
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "host_speed_ms": round(host_speed_ms(), 3),
    }


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------


class Server:
    """One ``repro serve`` process bound to an ephemeral port."""

    def __init__(self, src: Path, db: Path, log: Path) -> None:
        # The server writes no bytecode caches: its storage writes are
        # measured, and only the store's may count (see compile_sources).
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1",
                   PYTHONDONTWRITEBYTECODE="1")
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--db", str(db), "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log, env=env,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], deadline - time.monotonic())
            if not ready:
                break
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            if line.startswith("serving ") and "http://" in line:
                return int(line.rsplit(":", 1)[1].strip())
        self.kill()
        raise RuntimeError(f"server did not start (exit code {self.proc.returncode})")

    def written_bytes(self) -> int:
        """Bytes the server has passed to ``write`` calls (``/proc`` ``wchar``).

        Socket sends are not counted, so this is what it wrote to files.
        ``write_bytes`` would count the page-cache folios it dirtied
        instead, whose size depends on the kernel's memory state: the
        same ingest then counted 92 to 112 KB from run to run, where
        ``wchar`` repeats to the byte.
        """
        with open(f"/proc/{self.proc.pid}/io") as fh:
            for line in fh:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
        raise RuntimeError("no wchar in /proc/<pid>/io")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc/<pid>/status")

    def kill(self) -> None:
        """Crash-stop: SIGKILL, then reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


# ----------------------------------------------------------------------
# the keep-alive client
# ----------------------------------------------------------------------


class Conn:
    """One persistent HTTP/1.1 connection with default options."""

    def __init__(self, port: int, trace_prefix: str | None = None) -> None:
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.trace_prefix = trace_prefix
        self._n = 0

    def call(
        self, method: str, path: str, body: Any = None, traced: bool = False
    ) -> tuple[int, dict[str, Any], float, int]:
        """``(status, payload, seconds, response bytes)`` of one request."""
        headers = {}
        data = None
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        if traced and self.trace_prefix is not None:
            self._n += 1
            headers["X-Trace-Id"] = f"{self.trace_prefix}-{self._n}"
        start = time.perf_counter()
        self.http.request(method, path, body=data, headers=headers)
        response = self.http.getresponse()
        raw = response.read()
        elapsed = time.perf_counter() - start
        return response.status, json.loads(raw), elapsed, len(raw)

    def close(self) -> None:
        self.http.close()


def compile_sources(src: Path) -> None:
    """Byte-compile the program once per checkout, before any timing.

    Otherwise the first server to import a module would compile it on
    the clock (inflating ``setup_s``) and, had it written the cache,
    into the storage-write count of whichever run came first.
    """
    import compileall

    if not compileall.compile_dir(str(src), quiet=1):
        raise RuntimeError(f"the program under {src} does not compile")


def store_bytes(root: Path) -> int:
    """On-disk bytes of every regular file under ``root``."""
    total = 0
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            if not os.path.islink(path):
                total += os.path.getsize(path)
    return total
