"""Starting, timing and stopping the program's processes."""

from __future__ import annotations

import http.client
import os
import re
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
_PORT_LINE = re.compile(rb"http://([^\s:]+):(\d+)")


def child_env(workdir: Path, **extra: str) -> dict:
    """Environment for every child: the program from ``src/``, temporary
    files inside the run's work directory, a fixed hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(workdir)
    env["PYTHONHASHSEED"] = "0"
    env.update(extra)
    return env


def cpu_times() -> list[int]:
    """System-wide ``/proc/stat`` CPU jiffies (user ... steal)."""
    with open("/proc/stat") as handle:
        return [int(x) for x in handle.readline().split()[1:9]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor took from this host between two
    :func:`cpu_times` readings: a slow run on a shared host shows here."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def vm_hwm_mb(pid: int) -> float:
    """High-water resident memory of ``pid`` in MB (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def read_line(proc: subprocess.Popen, timeout_s: float) -> bytes:
    """One stdout line of ``proc``, or an error on EOF or timeout."""
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    line = b""
    deadline = time.monotonic() + timeout_s
    fd = proc.stdout.fileno()
    try:
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not sel.select(left):
                raise TimeoutError(f"no output line from {proc.args[:4]}")
            chunk = os.read(fd, 1)
            if not chunk:
                raise RuntimeError(
                    f"{proc.args[:4]} exited early with code {proc.wait()}"
                )
            line += chunk
    finally:
        sel.close()
    return line


def stop(proc: subprocess.Popen) -> int:
    """SIGTERM, then wait; SIGKILL if the process does not exit in time."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    return proc.returncode


class Server:
    """One ``repro serve`` process (optionally under the trace launcher)."""

    def __init__(self, serve_args: list[str], workdir: Path, name: str, *, trace_dir: Path | None = None) -> None:
        if trace_dir is None:
            head = [sys.executable, "-m", "repro.cli", "serve"]
            env = child_env(workdir)
        else:
            head = [sys.executable, str(HERE / "tracing.py"), "serve"]
            env = child_env(workdir, PERFBENCH_TRACE_DIR=str(trace_dir))
        self.argv = head + ["--port", "0"] + serve_args
        self.env = env
        self.log = workdir / f"{name}.log"
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> float:
        """Launch and wait for the first 200 from ``GET /healthz``;
        returns seconds from launch to ready."""
        t0 = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                self.argv, stdout=subprocess.PIPE, stderr=log, env=self.env, cwd=ROOT
            )
        try:
            match = _PORT_LINE.search(read_line(self.proc, BOOT_TIMEOUT_S))
            if match is None:
                raise RuntimeError("serve printed no port line")
            self.host, self.port = match.group(1).decode(), int(match.group(2))
            deadline = time.monotonic() + BOOT_TIMEOUT_S
            while True:
                conn = http.client.HTTPConnection(self.host, self.port, timeout=BOOT_TIMEOUT_S)
                try:
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        break
                except ConnectionError:
                    pass
                finally:
                    conn.close()
                if time.monotonic() > deadline:
                    raise TimeoutError("server never reported healthy")
                time.sleep(0.001)
        except BaseException:
            self.stop()
            raise
        return time.perf_counter() - t0

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> int:
        if self.proc is None:
            return 0
        code = stop(self.proc)
        self.proc = None
        return code
