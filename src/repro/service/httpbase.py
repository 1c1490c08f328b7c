"""Shared HTTP plumbing for the service tier: keep-alive, caps, lifecycle.

Both serving processes in this package — the single-engine
:class:`~repro.service.server.DisclosureService` and the
:class:`~repro.service.router.ShardRouter` front — speak the same
deliberately minimal JSON-over-HTTP/1.1 dialect. :class:`JsonHttpServer`
is that dialect, factored out once:

- **keep-alive**: HTTP/1.1 connections serve a loop of requests until the
  client sends ``Connection: close`` (HTTP/1.0 clients must opt *in* with
  ``Connection: keep-alive``). This is the serving tier's main throughput
  lever — the PR-4 protocol paid a TCP handshake per request and
  documented that as its cap.
- **one read deadline per connection**: an idle keep-alive connection
  (or one with a half-sent request line) is closed without a response
  after ``request_timeout`` seconds; a request that stalls after its
  request line gets a 400 and a close (slow-loris guard). The deadline is
  one timer per connection, re-armed by each read and disarmed while the
  handler runs, so a keep-alive request schedules no Task and no timer of
  its own. A request or header line over :data:`MAX_LINE_BYTES` is a 400
  and a close.
- **connection caps**: ``max_connections`` bounds concurrently open
  connections; excess connections receive an immediate 503 and a close.
  :class:`ConnectionStats` counts open/total/peak/keep-alive reuse for
  ``/stats``.

Both tiers also serve one endpoint table, :data:`ROUTES` and
:data:`PREFIX_ROUTES`: :meth:`JsonHttpServer._route` dispatches from it to
the subclass's handler methods of the listed names, and every handled
request is counted once in the subclass's :class:`RequestStats`. The
service drains concurrent singles through a :class:`Coalescer` (a router
reaches it through each shard's service). :class:`BackgroundHost` runs
any such server on a daemon thread for tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import threading
import time
from collections import Counter
from collections.abc import Awaitable, Callable, Hashable
from typing import Any

from repro.errors import ReproError

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_LINE_BYTES",
    "ROUTES",
    "PREFIX_ROUTES",
    "COALESCE_WAIT",
    "BadRequest",
    "Unavailable",
    "PayloadTooLarge",
    "require",
    "require_ks",
    "guarded",
    "set_nodelay",
    "ConnectionStats",
    "RequestStats",
    "Coalescer",
    "JsonHttpServer",
    "BackgroundHost",
]

#: Largest accepted request body (a bucketization of ~a million values).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Longest accepted request line or header line (asyncio's stream limit).
MAX_LINE_BYTES = 64 * 1024

_LINE_TOO_LONG = "request line or header too long"

#: The exact-match endpoint table: ``path -> (verb, handler attribute)``.
#: This is the single source of truth for what both tiers serve —
#: :meth:`JsonHttpServer._route` dispatches from it, in the service and in
#: the shard router alike, and ``scripts/check_docs.py`` asserts
#: ``docs/wire-protocol.md`` matches it.
ROUTES: dict[str, tuple[str, str]] = {
    "/disclosure": ("POST", "_ep_lookup"),
    "/safety": ("POST", "_ep_lookup"),
    "/compare": ("POST", "_ep_lookup"),
    "/publish": ("POST", "_ep_publish"),
    "/models": ("GET", "_ep_models"),
    "/releases": ("GET", "_ep_releases"),
    "/stats": ("GET", "_ep_stats"),
    "/healthz": ("GET", "_ep_healthz"),
}

#: Parameterized endpoints, matched by path prefix. The handler receives
#: the raw path and parses its trailing segments.
PREFIX_ROUTES: dict[str, tuple[str, str]] = {
    "/releases/": ("GET", "_ep_release"),
}

#: Seconds a :class:`Coalescer` waits after the first queued single before
#: it drains, so singles that arrive together leave as one group. It is a
#: constant, not a knob: an A/B of this 2 ms against no wait (4 alternating
#: 10 s pairs per workload, 2-core host) found that dropping it lowers the
#: ``lookup`` p99 (4.61 -> 3.43 ms) but raises its p50 by 24% (0.340 ->
#: 0.423 ms) and lowers its throughput in 3 of 4 pairs.
COALESCE_WAIT = 0.002

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class BadRequest(Exception):
    """Request validation failed (the message becomes the 400 body)."""


class Unavailable(Exception):
    """The service is shutting down or a dependency is gone (a 503 body)."""


class PayloadTooLarge(Exception):
    """A declared body over :data:`MAX_BODY_BYTES` (a 413; the body is
    never read, so the connection closes)."""


def require(payload: dict, field: str, kind, *, optional=False, default=None):
    """One field of a JSON body, type-checked (bool is not an int here)."""
    if field not in payload:
        if optional:
            return default
        raise BadRequest(f"missing required field {field!r}")
    value = payload[field]
    if kind is int and isinstance(value, bool):
        raise BadRequest(f"field {field!r} must be an integer")
    if not isinstance(value, kind):
        raise BadRequest(
            f"field {field!r} must be {getattr(kind, '__name__', kind)}"
        )
    return value


def require_ks(payload: dict) -> list[int]:
    """The ``"ks"`` field as a non-empty list of real ints (no bools)."""
    ks = require(payload, "ks", list)
    if not ks or not all(
        isinstance(k, int) and not isinstance(k, bool) for k in ks
    ):
        raise BadRequest("'ks' must be a non-empty list of integers")
    return ks


async def guarded(call: Awaitable[tuple[int, dict]]) -> tuple[int, dict, bool]:
    """Await one handler under the dialect's exception mapping.

    Returns ``(status, payload, must_close)``: a :class:`BadRequest`,
    :class:`ValueError` or library error is a 400, :class:`Unavailable` a
    503 after which the connection must not be reused, anything else a 500
    without a traceback.
    """
    try:
        status, payload = await call
        return status, payload, False
    except BadRequest as exc:
        return 400, {"error": str(exc)}, False
    except Unavailable as exc:
        return 503, {"error": str(exc)}, True
    except (ReproError, ValueError) as exc:
        return 400, {"error": str(exc)}, False
    except Exception as exc:  # never leak a traceback to the caller
        return 500, {"error": f"{type(exc).__name__}: {exc}"}, False


def set_nodelay(sock: Any) -> None:
    """Set ``TCP_NODELAY`` on a socket, tolerating non-TCP transports.

    Every socket in the serving tier carries small keep-alive JSON
    requests — exactly the traffic pattern Nagle's algorithm delays by up
    to an RTT while it waits for more payload to batch. The tier calls
    this on every accepted connection and every client connection; Unix
    sockets and mocks (no ``IPPROTO_TCP``) are silently left alone.
    """
    if sock is None:
        return
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except (OSError, AttributeError):
        pass


class RequestStats:
    """The per-request counters every serving tier keeps: requests by
    endpoint and by status, and the uptime (the ``/stats`` section's
    first four keys). Each tier's stats class extends it."""

    def __init__(self) -> None:
        self.started = time.monotonic()
        self.requests_total = 0
        self.by_endpoint: Counter[str] = Counter()
        self.by_status: Counter[int] = Counter()

    def as_dict(self) -> dict[str, Any]:
        """The request counters as JSON-ready entries."""
        return {
            "uptime_s": round(time.monotonic() - self.started, 3),
            "requests_total": self.requests_total,
            "by_endpoint": dict(self.by_endpoint),
            "by_status": {str(k): v for k, v in self.by_status.items()},
        }


class Coalescer:
    """Drains concurrent single requests into one call per group.

    :meth:`submit` queues one item under its group key and waits for its
    result. The drain task wakes on the first queued item, waits
    :data:`COALESCE_WAIT`, then takes every queued group and runs them
    concurrently, each as one ``await run_group(key, items)`` that returns
    one result per item, in submission order. Items queued while a pass
    runs leave together in the next pass, so batches also form whenever
    the callback is slow. A callback that raises fails only its own
    group's items.

    :meth:`stop` fails every queued and in-flight item with
    :class:`Unavailable`, and a :meth:`submit` after :meth:`stop` fails at
    once.
    """

    def __init__(
        self,
        run_group: Callable[[Any, list], Awaitable[list]],
        *,
        name: str,
    ) -> None:
        self._run_group = run_group
        self._name = name
        self._pending: dict[Hashable, list[tuple[Any, asyncio.Future]]] = {}
        self._kick: asyncio.Event | None = None
        self._task: asyncio.Task | None = None

    def start(self) -> None:
        """Start the drain task on the running event loop."""
        self._kick = asyncio.Event()
        self._task = asyncio.create_task(self._drain(), name=self._name)

    async def stop(self) -> None:
        """Stop the drain task and fail every queued and in-flight item."""
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        pending, self._pending = self._pending, {}
        _fail_unavailable(pending)

    async def submit(self, key: Hashable, item: Any) -> Any:
        """Queue ``item`` under group ``key`` and await its result."""
        if self._task is None:
            raise Unavailable("service is shutting down")
        future = asyncio.get_running_loop().create_future()
        self._pending.setdefault(key, []).append((item, future))
        assert self._kick is not None
        self._kick.set()
        return await future

    async def _drain(self) -> None:
        assert self._kick is not None
        while True:
            await self._kick.wait()
            self._kick.clear()
            await asyncio.sleep(COALESCE_WAIT)
            while self._pending:
                groups, self._pending = self._pending, {}
                try:
                    await asyncio.gather(
                        *(self._run(key, entries) for key, entries in groups.items())
                    )
                except asyncio.CancelledError:
                    # stop() cancelled a pass: its groups are no longer
                    # queued, so fail them here or their waiters would hang.
                    _fail_unavailable(groups)
                    raise

    async def _run(
        self, key: Hashable, entries: list[tuple[Any, asyncio.Future]]
    ) -> None:
        try:
            results = await self._run_group(key, [item for item, _ in entries])
        except Exception as exc:
            for _, future in entries:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_, future), result in zip(entries, results):
            if not future.done():
                future.set_result(result)


def _fail_unavailable(groups: dict) -> None:
    for entries in groups.values():
        for _, future in entries:
            if not future.done():
                future.set_exception(Unavailable("service is shutting down"))


class ConnectionStats:
    """Connection-level counters shared by every :class:`JsonHttpServer`."""

    __slots__ = (
        "total",
        "open",
        "max_open",
        "keepalive_requests",
        "rejected_over_cap",
    )

    def __init__(self) -> None:
        self.total = 0
        self.open = 0
        self.max_open = 0
        self.keepalive_requests = 0
        self.rejected_over_cap = 0

    def as_dict(self) -> dict[str, int]:
        """The connection counters as the ``/stats`` JSON section."""
        return {
            "total": self.total,
            "open": self.open,
            "max_open": self.max_open,
            "keepalive_requests": self.keepalive_requests,
            "rejected_over_cap": self.rejected_over_cap,
        }


class _ReadDeadline:
    """The one read deadline of a connection.

    :meth:`arm` only stores ``now + timeout``; the single timer behind it
    is created on the first :meth:`arm` and, when it fires early because
    a later :meth:`arm` moved the deadline, reschedules itself for the
    stored time. When it fires while disarmed it lapses, and the next
    :meth:`arm` starts it again. So the timers a connection schedules are
    bounded by its lifetime over the timeout, not by its request count
    (``asyncio.wait_for`` costs a timer per read, and before Python 3.12 a
    Task too).

    Expiry sets :class:`asyncio.TimeoutError` on the stream reader, which
    raises it from the pending read, and from every later read and
    ``drain()`` (the connection closes after a timeout). The connection
    task is never cancelled, so a cancellation it sees is always a
    shutdown. With ``timeout=None`` it never expires.
    """

    __slots__ = ("_loop", "_reader", "_timeout", "_expires", "_timer")

    def __init__(
        self, reader: asyncio.StreamReader, timeout: float | None
    ) -> None:
        self._loop = asyncio.get_running_loop()
        self._reader = reader
        self._timeout = timeout
        self._expires: float | None = None
        self._timer: asyncio.TimerHandle | None = None

    def arm(self) -> None:
        """Give the reads from now on ``timeout`` seconds to finish."""
        if self._timeout is None:
            return
        self._expires = expires = self._loop.time() + self._timeout
        if self._timer is None:
            self._timer = self._loop.call_at(expires, self._expire)

    def disarm(self) -> None:
        """Stop the clock (while the handler runs and the response goes out)."""
        self._expires = None

    def cancel(self) -> None:
        """Drop the timer (the connection is closing)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _expire(self) -> None:
        expires = self._expires
        if expires is None:
            self._timer = None
        elif self._loop.time() < expires:
            self._timer = self._loop.call_at(expires, self._expire)
        else:
            self._timer = None
            self._reader.set_exception(asyncio.TimeoutError())


class JsonHttpServer:
    """An asyncio socket server speaking keep-alive JSON-over-HTTP/1.1.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back from
        :attr:`port` after :meth:`start_http`).
    request_timeout:
        Seconds a connection may sit idle between requests, or take to
        deliver one complete request, before it is dropped (``None``
        disables — only for trusted loopback use).
    max_connections:
        Cap on concurrently open connections; connections beyond it get an
        immediate 503 (``None`` = unbounded).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: float | None = 30.0,
        max_connections: int | None = None,
    ) -> None:
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be positive or None, got "
                f"{request_timeout}"
            )
        if max_connections is not None and max_connections <= 0:
            raise ValueError(
                f"max_connections must be positive or None, got "
                f"{max_connections}"
            )
        self.host = host
        self._requested_port = port
        self.request_timeout = request_timeout
        self.max_connections = max_connections
        self.connections = ConnectionStats()
        #: The tier's counters; subclasses install their own extension.
        self.stats: RequestStats = RequestStats()
        self._server: asyncio.AbstractServer | None = None
        self._open_writers: set = set()
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The actually bound port (valid after :meth:`start_http`)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def start_http(self) -> None:
        """Bind the listening socket and start accepting connections."""
        # asyncio reads each socket into a fresh 256 KiB buffer. glibc
        # gives every block above its mmap threshold (128 KiB until a freed
        # mapped block raises it) a mapping of its own, so until the
        # threshold rises each read maps, faults in and unmaps its buffer,
        # and throughput depends on whether some earlier allocation
        # happened to raise it. Freeing one 1 MiB block raises it past the
        # buffer for the life of the process.
        bytes(1 << 20)
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self._requested_port,
            limit=MAX_LINE_BYTES,
        )

    async def stop_http(self) -> None:
        """Stop accepting and wake every parked keep-alive connection."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
        # Keep-alive connections park on a read between requests; close
        # their transports so the handlers wake and exit now, not when the
        # idle timeout expires — on Python >= 3.12 wait_closed() waits for
        # every connection handler, so shutdown would otherwise stall for
        # up to request_timeout (forever with request_timeout=None).
        for writer in list(self._open_writers):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    # Routing and accounting
    # ------------------------------------------------------------------
    async def _route(self, method: str, path: str, body: bytes):
        """Answer one request from :data:`ROUTES` / :data:`PREFIX_ROUTES`:
        ``(status, payload-dict)`` from the handler method named there
        (404 unknown path, 405 wrong verb, 503 while stopping)."""
        route = ROUTES.get(path)
        prefixed = False
        if route is None:
            for prefix, entry in PREFIX_ROUTES.items():
                if path.startswith(prefix):
                    route, prefixed = entry, True
                    break
        if route is None:
            return 404, {"error": f"unknown path {path!r}"}
        verb, attr = route
        if method != verb:
            return 405, {"error": f"{path} only accepts {verb}"}
        if self._stopping:
            return 503, {"error": "service is shutting down"}
        handler = getattr(self, attr)
        if prefixed:
            return await handler(path)
        if verb == "POST":
            return await handler(path, body)
        return await handler()

    def note_request(self, endpoint: str | None, status: int) -> None:
        """Count one handled request (``endpoint`` is None before parsing)."""
        stats = self.stats
        stats.requests_total += 1
        if endpoint is not None and status != 404:
            # Unknown paths are counted by status only: a public socket
            # must not let probes grow the by-endpoint counter unboundedly.
            stats.by_endpoint[endpoint] += 1
        stats.by_status[status] += 1

    async def dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict, bool]:
        """:meth:`_route` wrapped in the dialect's exception mapping.

        Returns ``(status, payload, must_close)`` — ``must_close`` marks
        responses after which a keep-alive connection must not be reused.
        This is the full request semantics minus the socket, which is what
        lets a shard answer through the same code path as a real
        connection (see :mod:`repro.service.router`).
        """
        return await guarded(self._route(method, path, body))

    # ------------------------------------------------------------------
    # The connection loop
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        stats = self.connections
        if (
            self.max_connections is not None
            and stats.open >= self.max_connections
        ):
            stats.rejected_over_cap += 1
            await self._write_response(
                writer,
                503,
                {"error": "connection limit reached"},
                keep_alive=False,
            )
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
            return
        stats.total += 1
        stats.open += 1
        stats.max_open = max(stats.max_open, stats.open)
        set_nodelay(writer.get_extra_info("socket"))
        self._open_writers.add(writer)
        deadline = _ReadDeadline(reader, self.request_timeout)
        served = 0
        try:
            while not self._stopping:
                if not await self._serve_one(reader, writer, deadline, served):
                    break
                served += 1
        except asyncio.CancelledError:
            # Event-loop shutdown cancels connection tasks parked on an
            # idle keep-alive read; that is connection teardown, not an
            # error to propagate (a cancelled task would make asyncio's
            # stream machinery log a spurious traceback).
            pass
        finally:
            deadline.cancel()
            stats.open -= 1
            self._open_writers.discard(writer)
            writer.close()
            with contextlib.suppress(
                ConnectionError, OSError, asyncio.CancelledError
            ):
                await writer.wait_closed()

    async def _serve_one(
        self, reader, writer, deadline: _ReadDeadline, served: int
    ) -> bool:
        """One request/response exchange; True iff the connection lives on.

        ``served`` is the number of requests already answered on this
        connection (so ``served > 0`` marks a keep-alive reuse).
        """
        status, payload = 500, {"error": "internal error"}
        endpoint: str | None = None
        keep_alive = False
        try:
            request = await self._read_request(reader, deadline)
            if request is None:  # EOF or timeout before a request line
                return False
            if served > 0:  # this request rode a reused connection
                self.connections.keepalive_requests += 1
            method, path, body, keep_alive = request
            endpoint = path
            status, payload, must_close = await self.dispatch(
                method, path, body
            )
            if must_close:
                keep_alive = False
        except BadRequest as exc:
            status, payload = 400, {"error": str(exc)}
        except PayloadTooLarge as exc:
            status, payload = 413, {"error": str(exc)}
        except asyncio.TimeoutError:
            # The connection stalled mid-request: answer and drop it.
            status, payload = 400, {"error": "request read timed out"}
            keep_alive = False
        except (ConnectionError, asyncio.IncompleteReadError):
            return False
        except Exception as exc:  # never leak a traceback to the socket
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        if self._stopping:
            keep_alive = False
        self.note_request(endpoint, status)
        wrote = await self._write_response(
            writer, status, payload, keep_alive=keep_alive
        )
        return keep_alive and wrote

    async def _read_request(self, reader, deadline: _ReadDeadline):
        """Minimal HTTP/1.1: request line, headers, ``Content-Length`` body.

        Returns ``(method, path, body, keep_alive)``, or ``None`` for a
        connection that closed or timed out before a complete request
        line. The request line, and then the rest of the request, each get
        ``request_timeout`` seconds; a timeout after the request line
        raises :class:`asyncio.TimeoutError` (a 400). A line longer than
        :data:`MAX_LINE_BYTES` is a :class:`BadRequest`.
        """
        deadline.arm()
        try:
            request_line = await reader.readline()
        except (asyncio.TimeoutError, ConnectionError):
            return None
        except ValueError:  # readline's form of asyncio.LimitOverrunError
            raise BadRequest(_LINE_TOO_LONG) from None
        if not request_line:
            return None
        deadline.arm()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise BadRequest("malformed request line")
        method, path = parts[0].upper(), parts[1].split("?", 1)[0]
        version = parts[2].upper() if len(parts) > 2 else "HTTP/1.0"
        headers: dict[str, str] = {}
        try:
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
        except ValueError:
            raise BadRequest(_LINE_TOO_LONG) from None
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise BadRequest("invalid Content-Length") from None
        if length < 0:
            raise BadRequest("invalid Content-Length")
        if length > MAX_BODY_BYTES:
            raise PayloadTooLarge(
                f"body too large (limit {MAX_BODY_BYTES} bytes)"
            )
        body = await reader.readexactly(length) if length else b""
        deadline.disarm()
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.1":
            keep_alive = connection != "close"
        else:  # HTTP/1.0 (and anything older) must opt in
            keep_alive = connection == "keep-alive"
        return method, path, body, keep_alive

    async def _write_response(
        self, writer, status: int, payload, *, keep_alive: bool
    ) -> bool:
        try:
            body = json.dumps(payload, allow_nan=False).encode()
        except ValueError:  # defense in depth; wire.encode_value rejects first
            status = 500
            body = b'{"error": "non-finite number in response"}'
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError, asyncio.TimeoutError):
            # drain() re-raises an expired read deadline (an OSError only
            # from Python 3.11); the bytes are written, the connection ends.
            return False
        return True


class BackgroundHost:
    """Run a :class:`JsonHttpServer` subclass on a daemon thread.

    Subclasses implement :meth:`_make_service` returning an unstarted
    server object with ``async start()`` / ``async stop()`` methods and
    ``host`` / ``port`` attributes. Entering the context manager starts
    the loop thread and blocks until the server is bound (surfacing any
    startup error); exiting requests a graceful stop and joins the thread.
    """

    def __init__(self, **service_kwargs: Any) -> None:
        service_kwargs.setdefault("port", 0)
        self._kwargs = service_kwargs
        self.service: Any = None
        self.host: str | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._started = threading.Event()
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None

    def _make_service(self):
        raise NotImplementedError

    def __enter__(self):
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=120):
            raise RuntimeError("service failed to start within 120s")
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=120)

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by __enter__ or swallowed
            self._error = exc
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.service = self._make_service()
        await self.service.start()
        self.host, self.port = self.service.host, self.service.port
        self._started.set()
        await self._stop_event.wait()
        await self.service.stop()

    def client(self):
        """A :class:`~repro.service.client.ServiceClient` bound to this
        server (import deferred to keep server/client import-independent)."""
        from repro.service.client import ServiceClient

        assert self.host is not None and self.port is not None
        return ServiceClient(self.host, self.port)
