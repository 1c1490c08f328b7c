"""The load generator: one process, a few keep-alive connections, a closed loop.

Run as ``python3 perfbench/loadgen.py SPEC RESULT``. ``SPEC`` is a pickle
written by ``run.py`` holding the pre-encoded requests and the sequences
to replay; ``RESULT`` receives latencies, responses and counters. Each
connection sends its next request only after the previous answer has
arrived. The loop runs on one thread with ``selectors`` so that the
generator's own CPU time stays small next to the server's; its CPU share
is reported so a run in which the generator could cap throughput is
marked invalid.

Phases: warm-up (untimed), ``/stats`` before, timed closed loop for
``seconds``, ``/stats`` after, and in traced runs a short keep-alive
``GET /healthz`` phase that times the HTTP floor. In traced runs the
server is asked for a layer snapshot (``SIGUSR1``) right before and right
after the timed phase.
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal
import socket
import sys
import time
from pathlib import Path

from httpraw import connect, parse_response
from inputs import request_bytes

REQUEST_TIMEOUT_NS = 30 * 10**9
now = time.perf_counter_ns


class Conn:
    __slots__ = ("index", "sock", "buf", "req", "sent_ns", "lane", "pos", "done", "last_ns", "ops")

    def __init__(self, index: int) -> None:
        self.index = index
        self.sock = None
        self.buf = bytearray()
        self.req = None
        self.sent_ns = 0
        self.lane = 0
        self.pos = 0
        self.done = False
        self.last_ns = 0
        self.ops = 0


class LoadGen:
    def __init__(self, spec: dict) -> None:
        self.spec = spec
        self.requests = spec["requests"]
        self.addr = (spec["host"], spec["port"])
        self.sel = selectors.DefaultSelector()
        self.conns = [Conn(i) for i in range(spec["connections"])]
        self.opened = 0
        self.failures = {"status": 0, "socket": 0, "timeout": 0}
        self.responses: dict[int, bytes] = {}
        self.mismatched: set[int] = set()
        for conn in self.conns:
            self._open(conn)

    def _open(self, conn: Conn) -> None:
        if conn.sock is not None:
            self.sel.unregister(conn.sock)
            conn.sock.close()
        conn.sock = connect(*self.addr)
        conn.buf = bytearray()
        self.opened += 1
        self.sel.register(conn.sock, selectors.EVENT_READ, conn)

    # -- one phase ------------------------------------------------------
    def run(self, lanes, deadline_ns, record) -> bool:
        """Drive ``lanes`` (one shared lane, or one per connection) until
        they end or ``deadline_ns`` passes. Returns False if a lane ran
        out before the deadline."""
        shared = len(lanes) == 1
        positions = [0] * len(lanes)
        exhausted = False
        active = 0

        def start(conn: Conn) -> bool:
            nonlocal exhausted
            lane = 0 if shared else conn.index
            pos = positions[lane]
            if pos >= len(lanes[lane]):
                if deadline_ns is not None:
                    exhausted = True
                return False
            if deadline_ns is not None and now() >= deadline_ns:
                return False
            positions[lane] = pos + 1
            conn.lane, conn.pos, conn.req = lane, pos, lanes[lane][pos]
            conn.sent_ns = now()
            try:
                conn.sock.sendall(self.requests[conn.req])
            except OSError:
                self._fail(conn, "socket", record)
                return start(conn)
            return True

        for conn in self.conns:
            conn.done = not start(conn)
            active += not conn.done
        while active:
            events = self.sel.select(1.0)
            t = now()
            for key, _ in events:
                conn = key.data
                if conn.done or conn.req is None:
                    continue
                try:
                    chunk = conn.sock.recv(1 << 18)
                except OSError:
                    chunk = b""
                if not chunk:
                    self._fail(conn, "socket", record)
                else:
                    conn.buf += chunk
                    parsed = parse_response(conn.buf)
                    if parsed is None:
                        continue
                    status, body, must_close, end = parsed
                    done_ns = now()
                    del conn.buf[:end]
                    self._finish(conn, status, body, done_ns, record)
                    if must_close:
                        self._open(conn)
                if not start(conn):
                    conn.done, conn.req = True, None
                    active -= 1
            for conn in self.conns:
                if not conn.done and conn.req is not None and t - conn.sent_ns > REQUEST_TIMEOUT_NS:
                    self._fail(conn, "timeout", record)
                    if not start(conn):
                        conn.done, conn.req = True, None
                        active -= 1
        return not exhausted

    def _finish(self, conn: Conn, status: int, body: bytes, done_ns: int, record) -> None:
        req = conn.req
        ok = 200 <= status < 300
        if not ok:
            self.failures["status"] += 1
        if record is not None:
            record.append((conn.lane, conn.pos, req, done_ns - conn.sent_ns, status, done_ns))
        first = self.responses.get(req)
        if first is None:
            self.responses[req] = body
        elif first != body:
            self.mismatched.add(req)
        conn.last_ns = done_ns
        conn.ops += 1

    def _fail(self, conn: Conn, kind: str, record) -> None:
        self.failures[kind] += 1
        if record is not None:
            record.append((conn.lane, conn.pos, conn.req, now() - conn.sent_ns, -1, now()))
        conn.last_ns = now()
        conn.ops += 1
        self._open(conn)

    # -- helpers --------------------------------------------------------
    def get(self, path: str) -> tuple[int, bytes]:
        conn = self.conns[0]
        conn.sock.sendall(request_bytes("GET", path))
        while True:
            parsed = parse_response(conn.buf)
            if parsed is not None:
                status, body, _close, end = parsed
                del conn.buf[:end]
                return status, body
            chunk = conn.sock.recv(1 << 18)
            if not chunk:
                raise ConnectionError("server closed the connection")
            conn.buf += chunk

    def snapshot(self, index: int) -> None:
        """Ask a traced server for layer snapshot ``index`` and wait for it."""
        target = Path(self.spec["trace_dir"]) / f"snap-{index}.json"
        os.kill(self.spec["server_pid"], signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not target.exists():
            if time.monotonic() > deadline:
                raise TimeoutError(f"no trace snapshot {target}")
            time.sleep(0.002)


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, "rb") as handle:
        spec = pickle.load(handle)
    gen = LoadGen(spec)
    gen.run(spec["warmup"], None, None)
    warmup_failures = dict(gen.failures)
    gen.failures = dict.fromkeys(gen.failures, 0)
    stats_before = gen.get("/stats")[1]
    if spec["trace_dir"]:
        gen.snapshot(1)
    for conn in gen.conns:
        conn.ops = 0
    record: list = []
    cpu0 = time.process_time()
    t0 = now()
    for conn in gen.conns:
        conn.last_ns = t0
    seconds = spec["seconds"]  # None: replay every lane to its end
    deadline = None if seconds is None else t0 + int(seconds * 1e9)
    complete = gen.run(spec["lanes"], deadline, record)
    t1 = now()
    cpu1 = time.process_time()
    per_conn = [(conn.ops, conn.last_ns - t0) for conn in gen.conns]
    if spec["trace_dir"]:
        gen.snapshot(2)
    stats_after = gen.get("/stats")[1]
    healthz_ns = []
    for _ in range(spec["healthz_floor"]):
        start = now()
        status, _body = gen.get("/healthz")
        healthz_ns.append(now() - start)
        if status != 200:
            gen.failures["status"] += 1
    result = {
        "t0_ns": t0,
        "record": record,
        "responses": gen.responses,
        "mismatched": sorted(gen.mismatched),
        "failures": gen.failures,
        "warmup_failures": warmup_failures,
        "complete": complete,
        "wall_ns": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "per_conn": per_conn,
        "connections": len(gen.conns),
        "connections_opened": gen.opened,
        "stats_before": stats_before,
        "stats_after": stats_after,
        "healthz_ns": healthz_ns,
    }
    tmp = result_path + ".tmp"
    with open(tmp, "wb") as handle:
        pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, result_path)
    for conn in gen.conns:
        try:
            conn.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        conn.sock.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
