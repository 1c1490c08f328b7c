"""The connection loop both serving tiers share (:class:`JsonHttpServer`).

Each wire case runs against a single :class:`BackgroundService` and a
:class:`BackgroundRouter` front (in-process shards), both with a short
``request_timeout``, over raw sockets so the exact bytes the server sends
(or does not send) are visible:

- a connection with no complete request line (idle, or a half-sent line)
  closes with no bytes written;
- a request that stalls after its request line gets a 400 and a close;
- pipelined requests are answered in order, HTTP/1.0 closes unless the
  client opts in to keep-alive, and bare-LF line endings are accepted.

The structural test counts what the serving loop schedules: the read
deadline is one per connection, so a keep-alive request creates no Task
and no timer of its own.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from collections import Counter

import pytest

from repro.bucketization import Bucketization
from repro.engine import DisclosureEngine
from repro.service import BackgroundRouter, BackgroundService

#: Seconds a connection may wait on a read before the server drops it.
TIMEOUT = 0.3


@pytest.fixture(scope="module", params=["service", "router"])
def tier(request):
    """Both tiers behind the same short read timeout."""
    if request.param == "service":
        host = BackgroundService(request_timeout=TIMEOUT)
    else:
        host = BackgroundRouter(shards=2, request_timeout=TIMEOUT)
    with host as bg:
        yield bg


def _connect(host) -> socket.socket:
    return socket.create_connection((host.host, host.port), timeout=10)


def _read_response(stream) -> tuple[int, dict[str, str], dict]:
    """One response from a buffered socket file: status, headers, JSON."""
    status_line = stream.readline()
    assert status_line, "connection closed before a response"
    headers: dict[str, str] = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, json.loads(body)


def _read_to_close(sock: socket.socket) -> tuple[bytes, float]:
    """Everything the server sends until it closes, and the seconds taken
    (a socket timeout here means the server never closed)."""
    started = time.monotonic()
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    return data, time.monotonic() - started


class TestReadDeadline:
    def test_idle_connection_closes_with_no_bytes(self, tier):
        with _connect(tier) as sock:
            data, waited = _read_to_close(sock)
        assert data == b""
        assert waited >= TIMEOUT * 0.9

    def test_half_sent_request_line_closes_with_no_bytes(self, tier):
        with _connect(tier) as sock:
            sock.sendall(b"GET /heal")
            data, waited = _read_to_close(sock)
        assert data == b""
        assert waited >= TIMEOUT * 0.9

    @pytest.mark.parametrize(
        "partial",
        [
            b"GET /healthz HTTP/1.1\r\n",
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n",
            b'POST /disclosure HTTP/1.1\r\nContent-Length: 40\r\n\r\n{"bu',
        ],
        ids=["after-request-line", "mid-headers", "mid-body"],
    )
    def test_stall_after_request_line_is_400_and_close(self, tier, partial):
        with _connect(tier) as sock:
            sock.sendall(partial)
            stream = sock.makefile("rb")
            status, headers, payload = _read_response(stream)
            assert stream.read() == b""  # and then the server closed
        assert status == 400
        assert headers["connection"] == "close"
        assert payload == {"error": "request read timed out"}

    def test_each_request_gets_a_fresh_deadline(self, tier):
        """A keep-alive connection that keeps sending within the timeout
        outlives it many times over."""
        with _connect(tier) as sock:
            stream = sock.makefile("rb")
            for _ in range(4):
                time.sleep(TIMEOUT / 3)
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")
                time.sleep(TIMEOUT / 3)
                sock.sendall(b"Host: t\r\n\r\n")
                status, headers, _ = _read_response(stream)
                assert (status, headers["connection"]) == (200, "keep-alive")

    def test_rest_of_request_gets_its_own_timeout(self, tier):
        """The request line and the rest of the request each get the full
        timeout: together they may take longer than one."""
        with _connect(tier) as sock:
            time.sleep(TIMEOUT * 2 / 3)
            sock.sendall(b"GET /healthz HTTP/1.1\r\n")
            time.sleep(TIMEOUT * 2 / 3)
            sock.sendall(b"Connection: close\r\n\r\n")
            status, _, _ = _read_response(sock.makefile("rb"))
        assert status == 200


def test_deadline_stops_while_the_handler_runs():
    """A handler slower than the read timeout still answers, and the
    connection stays usable."""
    cold = json.dumps({"buckets": [["p", "p", "q"]], "k": 2}).encode()
    with BackgroundService(request_timeout=TIMEOUT) as bg:
        gate = threading.Event()
        bg.service._executor.submit(gate.wait)  # hold the engine thread
        try:
            with _connect(bg) as sock:
                sock.sendall(
                    b"POST /disclosure HTTP/1.1\r\nContent-Length: "
                    + str(len(cold)).encode()
                    + b"\r\n\r\n"
                    + cold
                )
                time.sleep(TIMEOUT * 2)
                gate.set()
                stream = sock.makefile("rb")
                status, headers, _ = _read_response(stream)
                assert (status, headers["connection"]) == (200, "keep-alive")
                sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                assert _read_response(stream)[0] == 200
        finally:
            gate.set()


class TestFraming:
    def test_pipelined_requests_answered_in_order(self, tier):
        with _connect(tier) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                b"GET /first HTTP/1.1\r\nHost: t\r\n\r\n"
                b"GET /second HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            stream = sock.makefile("rb")
            replies = [_read_response(stream) for _ in range(3)]
            assert stream.read() == b""
        assert [status for status, _, _ in replies] == [200, 404, 404]
        assert replies[0][2]["ok"] is True
        assert [payload for _, _, payload in replies[1:]] == [
            {"error": "unknown path '/first'"},
            {"error": "unknown path '/second'"},
        ]
        assert [h["connection"] for _, h, _ in replies] == [
            "keep-alive",
            "keep-alive",
            "close",
        ]

    def test_http10_closes_unless_keep_alive_requested(self, tier):
        with _connect(tier) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            stream = sock.makefile("rb")
            status, headers, _ = _read_response(stream)
            assert stream.read() == b""
        assert (status, headers["connection"]) == (200, "close")

        with _connect(tier) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            stream = sock.makefile("rb")
            status, headers, _ = _read_response(stream)
            assert (status, headers["connection"]) == (200, "keep-alive")
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            status, headers, _ = _read_response(stream)
            assert stream.read() == b""
        assert (status, headers["connection"]) == (200, "close")

    def test_bare_lf_line_endings_accepted(self, tier):
        buckets = [["flu", "flu", "cold", "mumps"]]
        body = json.dumps({"buckets": buckets, "k": 1}).encode()
        with _connect(tier) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\nHost: t\n\n"
                b"POST /disclosure HTTP/1.1\nContent-Length: "
                + str(len(body)).encode()
                + b"\nConnection: close\n\n"
                + body
            )
            stream = sock.makefile("rb")
            health = _read_response(stream)
            status, _, payload = _read_response(stream)
            assert stream.read() == b""
        assert health[0] == 200
        assert status == 200
        expect = DisclosureEngine().evaluate(
            Bucketization.from_value_lists(buckets), 1
        )
        assert payload["value"] == expect


def test_nothing_is_scheduled_per_keepalive_request():
    """Fifty keep-alive requests on one connection create no Task and no
    timer beyond the first request's: the connection task and its one
    read deadline serve them all."""
    requests = 50
    with BackgroundService() as bg:
        loop = bg._loop
        counts: Counter[str] = Counter()
        installed = threading.Event()

        def install() -> None:
            call_at = loop.call_at

            def counting_call_at(*args, **kwargs):
                counts["timers"] += 1
                return call_at(*args, **kwargs)

            def counting_task_factory(loop, coro, **kwargs):
                counts["tasks"] += 1
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop.call_at = counting_call_at
            loop.set_task_factory(counting_task_factory)
            installed.set()

        loop.call_soon_threadsafe(install)
        assert installed.wait(10)
        snapshots = []
        with _connect(bg) as sock:
            stream = sock.makefile("rb")
            for _ in range(requests):
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                status, headers, _ = _read_response(stream)
                assert (status, headers["connection"]) == (200, "keep-alive")
                snapshots.append(dict(counts))
        assert snapshots[0]["tasks"] >= 1  # the counters are live
        assert snapshots[-1] == snapshots[0], (
            f"{requests} requests on one connection: {snapshots[-1]}, "
            f"after the first: {snapshots[0]}"
        )
