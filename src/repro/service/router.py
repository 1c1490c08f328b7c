"""Horizontal sharding: N disclosure services behind a plane-key hash router.

One :class:`~repro.service.server.DisclosureService` process is capped by
its single engine thread and by the fact that its plane-keyed cache lives
in one address space. :class:`ShardRouter` is the scale-out tier the
ROADMAP names: it supervises ``N`` child services and routes every request
by its **plane key** — ``(mode, model, k, signature-multiset)``, exactly
the engine's cache key — so repeated and same-shaped questions always land
on the shard that already has them cached. Cache locality is not
best-effort here; it is the routing invariant.

Shards come in two **modes** (``shard_mode``):

- ``"process"`` — each shard is a plain ``repro serve`` subprocess with
  its own engines, coalescer and persisted cache file, supervised over
  asyncio subprocess pipes. This is the multi-core topology: N engine
  threads in N address spaces.
- ``"inproc"`` — each shard is a :class:`DisclosureService` embedded in
  the router process itself (booted via ``start_local``: engines,
  coalescer, stats and per-shard cache persistence exactly as a
  subprocess shard, minus the socket). Requests reach it through the
  shared :meth:`~repro.service.httpbase.JsonHttpServer.dispatch` code
  path, so answers are bit-identical — but a hop costs a method call,
  not a socket round trip. This is the low-core topology: on a box with
  fewer cores than shards, process shards only add context switches and
  serialization.
- ``"auto"`` (the default) picks per host: ``process`` when the machine
  has more cores than shards, ``inproc`` otherwise
  (:func:`resolve_shard_mode`).

The routing hot path never re-parses what it has already seen. Lookup
bodies (``/disclosure``, ``/safety``, ``/compare``) go through the same
:class:`~repro.service.server.RequestResolver` the shards use: one
validation pass (so the router answers a bad body with exactly the 400 a
shard would) derives the request identity, signature multisets included,
straight from the raw JSON — no
:class:`~repro.bucketization.bucketization.Bucketization` object graph.
The router owns the process's one request memo, a bounded LRU from the
**raw request bytes** to that identity (``route_memo_hits`` /
``reparse_avoided`` in ``/stats``); the owning shard of each
bucketization is hashed once and kept on the identity. In-process shards
are handed the identity itself and never parse or memoize the body again:
when every value the request needs is in the owning shard's cache, the
answer is encoded on the router's event loop (``fast_hits``, for singles,
``/safety``, batches and ``/compare`` alike); otherwise the shard's engine
path runs it. Process shards receive the original bytes untouched;
concurrent singles bound for the same process shard are drained by the
tier's one :class:`~repro.service.httpbase.Coalescer` (the class each
shard's service also drains its engine groups with) into one upstream
batch (``coalesced_batches`` / ``coalesced_singles``), whose value lists
are re-read from the stored bodies, so N pending questions cost one
socket round trip; in-process shards rely on their own service's
coalescer, which already lives on the same loop.

What the router guarantees:

- **bit-identical answers**: the router forwards the original request
  bytes (or, for split batches, a lossless re-encoding) and returns the
  shard's JSON untouched; its fast paths only ever answer from the exact
  engine cache entry the shard itself would have hit. A 3-shard
  deployment answers exactly like one engine, in both arithmetic modes
  and all shard modes.
- **lossless batch split/merge**: a ``/disclosure`` batch is partitioned
  by each bucketization's plane key, the sub-batches run on their shards
  concurrently, and the per-bucketization series are reassembled in the
  original order.
- **supervision**: process shards are health-checked; a dead shard is
  restarted and the in-flight request **replayed** on the fresh process
  (counted in ``restarts`` / ``replays``). Shutdown SIGTERMs every shard
  so each persists its own cache under the shared prefix
  (``<prefix>.shard<i>.<mode>.pkl``); in-process shards persist the same
  files from the router's own shutdown.
- **aggregated observability**: ``/stats`` merges router counters with
  every shard's ``/stats``; ``/healthz`` reports per-shard liveness.

The router speaks the same keep-alive HTTP dialect as the shards and
serves the same endpoint table (both subclass
:class:`~repro.service.httpbase.JsonHttpServer`, which dispatches from
:data:`~repro.service.httpbase.ROUTES`), and keeps a small keep-alive
connection pool **per process shard**, so a request costs one hop, not
one handshake. Start one with
``repro serve --shards N [--shard-mode MODE]`` or embed
:class:`BackgroundRouter` in tests.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import re
import sys
import tempfile
import time
from collections import Counter
from collections.abc import Callable, Mapping
from pathlib import Path
from typing import Any

from repro.service.httpbase import (
    BackgroundHost,
    BadRequest,
    Coalescer,
    JsonHttpServer,
    RequestStats,
    Unavailable,
    guarded,
    require,
    set_nodelay,
)
from repro.service.server import (
    DisclosureService,
    RequestIdentity,
    RequestResolver,
    load_tenants,
    parse_json_body,
)

# Looked up by name in this module by perfbench's tracer (the router's own
# lookups resolve through ``repro.service.server``).
from repro.service.wire import signature_items_from_lists  # noqa: F401

__all__ = [
    "RouterStats",
    "Shard",
    "ProcessShard",
    "InprocShard",
    "resolve_shard_mode",
    "shard_key",
    "table_shard_key",
    "ShardRouter",
    "BackgroundRouter",
]

#: How long a shard subprocess may take to print its port line.
_BOOT_TIMEOUT = 60.0
#: Idle keep-alive connections the router retains per shard.
_POOL_PER_SHARD = 8

_PORT_LINE = re.compile(r"http://([^\s:]+):(\d+)")

#: The shard modes ``repro serve --shard-mode`` accepts.
SHARD_MODES = ("auto", "process", "inproc")


def resolve_shard_mode(shard_mode: str, shards: int) -> str:
    """``"auto"`` resolved against this host: ``"process"`` only when the
    machine has more cores than shards — otherwise the extra processes
    cannot run in parallel anyway and every hop still pays serialization
    plus a socket round trip, so ``"inproc"`` is strictly better."""
    if shard_mode not in SHARD_MODES:
        raise ValueError(
            f"shard_mode must be one of {SHARD_MODES}, got {shard_mode!r}"
        )
    if shard_mode != "auto":
        return shard_mode
    return "process" if (os.cpu_count() or 1) > shards else "inproc"


def shard_key(
    mode: str,
    model: Any,
    ks: tuple[int, ...],
    signature_items,
    params: tuple = (),
    tenant: str | None = None,
) -> int:
    """Stable hash of the plane key ``(mode, model, ks, signature-multiset,
    canonical params, tenant)``.

    Uses SHA-256 over the ``repr`` (not :func:`hash`, which is randomized
    per process) so every router process — and a restarted one — routes a
    given question to the same shard, which is what keeps the per-shard
    caches hot and the persisted cache files meaningful across restarts.
    ``params`` must be the **canonical** tuple from
    :func:`~repro.engine.base.canonical_params` — never an instance repr,
    whose ``object at 0x..`` addresses would scatter identical requests
    across shards between restarts.
    """
    payload = repr((mode, model, ks, signature_items, params, tenant)).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def table_shard_key(table: str, tenant: str | None) -> int:
    """Stable hash of a ledger identity ``(tenant, table)``.

    Publish traffic routes by **table affinity**, not plane key: every
    version of one table must land on the shard that owns its slice of
    the release ledger (each subprocess shard keeps its own
    ``<prefix>.shard<i>.sqlite``), or the incremental re-check would never
    see its own prior release. Same SHA-256-over-``repr`` construction as
    :func:`shard_key`, for the same restart-stability reasons.
    """
    payload = repr(("publish", tenant or "", table)).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


class RouterStats(RequestStats):
    """The routing-layer counters behind the aggregated ``/stats``.

    ``coalesced_batches`` counts upstream batches the router's coalescer
    rebuilt from more than one single, and ``coalesced_singles`` the
    singles they carried.
    """

    def __init__(self) -> None:
        super().__init__()
        self.proxied = 0
        self.split_batches = 0
        self.whole_batches = 0
        self.restarts = 0
        self.replays = 0
        self.route_memo_hits = 0
        self.reparse_avoided = 0
        self.fast_hits = 0
        self.coalesced_batches = 0
        self.coalesced_singles = 0
        self.by_shard: Counter[int] = Counter()

    def as_dict(self) -> dict[str, Any]:
        """The router counters as the ``/stats -> router`` JSON section."""
        return {
            **super().as_dict(),
            "proxied": self.proxied,
            "split_batches": self.split_batches,
            "whole_batches": self.whole_batches,
            "restarts": self.restarts,
            "replays": self.replays,
            "route_memo_hits": self.route_memo_hits,
            "reparse_avoided": self.reparse_avoided,
            "fast_hits": self.fast_hits,
            "coalesced_batches": self.coalesced_batches,
            "coalesced_singles": self.coalesced_singles,
            "by_shard": {str(k): v for k, v in self.by_shard.items()},
        }


class ProcessShard:
    """One supervised child service process plus its connection pool."""

    mode = "process"

    __slots__ = ("index", "process", "host", "port", "pool", "lock", "boots")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: asyncio.subprocess.Process | None = None
        self.host: str = "127.0.0.1"
        self.port: int = 0
        #: Idle keep-alive connections: ``(reader, writer)`` pairs.
        self.pool: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        #: Serializes restarts (request path vs. health loop).
        self.lock: asyncio.Lock = asyncio.Lock()
        self.boots = 0

    def alive(self) -> bool:
        """Whether the shard subprocess is running."""
        return self.process is not None and self.process.returncode is None

    def drop_connections(self) -> None:
        """Close every pooled upstream connection (e.g. after a restart)."""
        pool, self.pool = self.pool, []
        for _, writer in pool:
            writer.close()


#: Legacy alias: ``Shard`` predates the in-process mode.
Shard = ProcessShard


class InprocShard:
    """One embedded :class:`DisclosureService` shard (no process, no socket).

    It cannot die independently of the router, so ``alive()`` is simply
    "started" and there is nothing to supervise; its engines, coalescer,
    stats and per-shard cache files behave exactly as a subprocess
    shard's because it *is* a :class:`DisclosureService`, reached through
    the same dispatch path a socket would reach.
    """

    mode = "inproc"

    __slots__ = ("index", "service", "host", "port", "lock", "boots")

    def __init__(self, index: int) -> None:
        self.index = index
        self.service: DisclosureService | None = None
        self.host: str = "inproc"
        self.port: int = 0
        self.lock: asyncio.Lock = asyncio.Lock()
        self.boots = 0

    def alive(self) -> bool:
        """Whether the in-process shard service is built."""
        return self.service is not None

    def drop_connections(self) -> None:
        """No-op: an in-process shard holds no upstream sockets."""


async def _drain_stream(stream: asyncio.StreamReader) -> None:
    """Consume a shard's stdout after boot so the pipe never fills (a full
    pipe would eventually block the child's prints)."""
    try:
        while await stream.read(65536):
            pass
    except Exception:
        pass


class ShardRouter(JsonHttpServer):
    """A front router over ``shards`` child disclosure services.

    Parameters
    ----------
    shards:
        Number of child services (>= 1).
    shard_mode:
        ``"process"`` (subprocess shards), ``"inproc"`` (embedded shards)
        or ``"auto"`` (default; see :func:`resolve_shard_mode`). The
        resolved value is readable back from :attr:`shard_mode`.
    workers, kernel, cache_limit:
        Passed through to every shard as its engine knobs.
    cache_path:
        Shared persistence *prefix*: shard ``i`` persists to
        ``<prefix>.shard<i>.float.pkl`` / ``.exact.pkl`` (each shard owns
        its slice of the keyspace, so the files never contend).
    health_interval:
        Seconds between liveness sweeps over the shard processes (dead
        ones are restarted); 0 disables the background sweep — dead shards
        are then only restarted on demand by the request path. Meaningless
        for in-process shards (they cannot die independently).
    forward_timeout:
        Seconds the router waits for a shard's answer before treating the
        shard as failed (restart-and-replay, then 503).
    tenants:
        Optional multi-tenant topology — a JSON file path or its parsed
        mapping, validated at boot by
        :func:`~repro.service.server.load_tenants` and handed to every
        shard (``--tenants`` for subprocesses, the constructor for
        embedded services), so each shard carries per-tenant engines and
        cache files. The tenant id joins the shard key: two tenants'
        identical questions may land on different shards, and never on
        the same cache entry.
    ledger_file:
        Optional release-ledger persistence *prefix*: shard ``i`` keeps
        its slice of the publish ledger in ``<prefix>.shard<i>.sqlite``.
        ``/publish`` and ``/releases/{table}/{version}`` route by table
        affinity (:func:`table_shard_key`), so one table's whole release
        history lives on one shard. ``None`` = in-memory ledgers.
    host, port, request_timeout, max_connections:
        The router's own listening socket, as in
        :class:`~repro.service.httpbase.JsonHttpServer`.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        shards: int = 2,
        shard_mode: str = "auto",
        workers: int = 1,
        kernel: str = "auto",
        cache_limit: int | None = None,
        cache_path: str | Path | None = None,
        health_interval: float = 2.0,
        forward_timeout: float = 120.0,
        request_timeout: float | None = 30.0,
        max_connections: int | None = None,
        tenants: str | Path | Mapping[str, Any] | None = None,
        ledger_file: str | Path | None = None,
    ) -> None:
        super().__init__(
            host=host,
            port=port,
            request_timeout=request_timeout,
            max_connections=max_connections,
        )
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if forward_timeout <= 0:
            raise ValueError(
                f"forward_timeout must be positive, got {forward_timeout}"
            )
        if health_interval < 0:
            raise ValueError(
                f"health_interval must be >= 0, got {health_interval}"
            )
        self.shard_mode = resolve_shard_mode(shard_mode, shards)
        self.workers = workers
        self.kernel = kernel
        self.cache_limit = cache_limit
        self.cache_path = Path(cache_path) if cache_path is not None else None
        #: Ledger persistence *prefix*: shard ``i`` keeps its slice of the
        #: release ledger in ``<prefix>.shard<i>.sqlite`` (publish traffic
        #: routes by table affinity, so one table's history lives whole on
        #: one shard). ``None`` leaves every shard on an in-memory ledger.
        self.ledger_path = (
            Path(ledger_file) if ledger_file is not None else None
        )
        self.health_interval = health_interval
        self.forward_timeout = forward_timeout
        #: The tenant topology: validated now (a bad file fails the boot,
        #: not the first request), while the original source is kept so
        #: shards can re-validate the same JSON themselves.
        self.tenants: dict[str, dict] = (
            load_tenants(tenants) if tenants is not None else {}
        )
        self.tenants_path: Path | None = (
            Path(tenants) if isinstance(tenants, (str, Path)) else None
        )
        self._tenants_raw: Mapping[str, Any] | None = (
            tenants if isinstance(tenants, Mapping) else None
        )
        self._tenants_tmp: Path | None = None
        shard_class = (
            InprocShard if self.shard_mode == "inproc" else ProcessShard
        )
        self.shards = [shard_class(index) for index in range(shards)]
        self.stats = RouterStats()
        self._health_task: asyncio.Task | None = None
        #: The process's one request memo: lookup bodies -> identities.
        #: In-process shards are handed these identities and never
        #: resolve (or store) a lookup body themselves.
        self.resolver = RequestResolver(self.tenants)
        #: The upstream coalescer for process shards, keyed like a shard's
        #: own coalescer plus the owning shard:
        #: ``(shard, (tenant, mode, model, canonical params, k))``.
        self._coalescer = Coalescer(
            self._run_group, name="repro-router-coalescer"
        )
        self._drain_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Shard supervision
    # ------------------------------------------------------------------
    def _shard_cache_prefix(self, shard) -> Path | None:
        if self.cache_path is None:
            return None
        return self.cache_path.with_name(
            f"{self.cache_path.name}.shard{shard.index}"
        )

    def _shard_ledger_file(self, shard) -> Path | None:
        if self.ledger_path is None:
            return None
        return self.ledger_path.with_name(
            f"{self.ledger_path.name}.shard{shard.index}.sqlite"
        )

    def _tenants_file(self) -> Path | None:
        """The tenants topology as a file path for ``--tenants`` — the
        user's own file when one was given, otherwise a lazily written
        tempfile of the mapping (removed in :meth:`stop`)."""
        if not self.tenants:
            return None
        if self.tenants_path is not None:
            return self.tenants_path
        if self._tenants_tmp is None:
            fd, name = tempfile.mkstemp(
                prefix="repro-tenants-", suffix=".json"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(self._tenants_raw, handle)
            self._tenants_tmp = Path(name)
        return self._tenants_tmp

    def _shard_argv(self, shard: ProcessShard) -> list[str]:
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--workers",
            str(self.workers),
            "--kernel",
            self.kernel,
        ]
        if self.cache_limit is not None:
            argv += ["--cache-limit", str(self.cache_limit)]
        if self.cache_path is not None:
            argv += ["--cache-file", str(self._shard_cache_prefix(shard))]
        if self.ledger_path is not None:
            argv += ["--ledger-file", str(self._shard_ledger_file(shard))]
        tenants_file = self._tenants_file()
        if tenants_file is not None:
            argv += ["--tenants", str(tenants_file)]
        return argv

    @staticmethod
    def _shard_env() -> dict[str, str]:
        """The child's environment, with this package importable."""
        import repro

        env = dict(os.environ)
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
        return env

    async def _spawn_shard(self, shard) -> None:
        """Boot one shard: a child process (reading its bound port off the
        subprocess pipe) or an embedded socketless service."""
        if shard.mode == "inproc":
            service = DisclosureService(
                workers=self.workers,
                kernel=self.kernel,
                cache_limit=self.cache_limit,
                cache_path=self._shard_cache_prefix(shard),
                ledger_file=self._shard_ledger_file(shard),
                tenants=(
                    self.tenants_path
                    if self.tenants_path is not None
                    else self._tenants_raw
                ),
            )
            await service.start_local()
            shard.service = service
            shard.boots += 1
            return
        process = await asyncio.create_subprocess_exec(
            *self._shard_argv(shard),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=self._shard_env(),
        )
        shard.process = process
        assert process.stdout is not None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + _BOOT_TIMEOUT
        lines: list[str] = []
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                process.kill()
                raise RuntimeError(
                    f"shard {shard.index} did not print a port within "
                    f"{_BOOT_TIMEOUT}s; output so far: {lines!r}"
                )
            try:
                raw = await asyncio.wait_for(
                    process.stdout.readline(), timeout=remaining
                )
            except asyncio.TimeoutError:
                continue
            if not raw:  # child exited before binding
                await process.wait()
                raise RuntimeError(
                    f"shard {shard.index} exited with code "
                    f"{process.returncode} before binding; output: {lines!r}"
                )
            line = raw.decode(errors="replace").rstrip()
            lines.append(line)
            match = _PORT_LINE.search(line)
            if match:
                shard.host = match.group(1)
                shard.port = int(match.group(2))
                shard.boots += 1
                # From here on nobody reads the pipe on the request path;
                # a background drain keeps it from filling up.
                task = asyncio.create_task(
                    _drain_stream(process.stdout),
                    name=f"repro-shard{shard.index}-drain",
                )
                self._drain_tasks.add(task)
                task.add_done_callback(self._drain_tasks.discard)
                return
            if len(lines) > 50:
                process.kill()
                raise RuntimeError(
                    f"shard {shard.index} never printed a port; "
                    f"output: {lines[:5]!r}..."
                )

    async def _restart_shard(self, shard) -> None:
        """Replace a dead (or wedged) shard process with a fresh one."""
        if shard.mode == "inproc":  # shares our fate; nothing to revive
            return
        process = shard.process
        if process is not None and process.returncode is None:
            process.kill()
            await process.wait()
        shard.drop_connections()
        await self._spawn_shard(shard)
        self.stats.restarts += 1

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval)
            for shard in self.shards:
                if not shard.alive():
                    async with shard.lock:
                        if not shard.alive():
                            try:
                                await self._restart_shard(shard)
                            except RuntimeError:
                                # Leave it dead; the request path (or the
                                # next sweep) will try again.
                                pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Boot every shard, start the health sweep, the upstream
        coalescer and the front socket."""
        try:
            await asyncio.gather(
                *(self._spawn_shard(shard) for shard in self.shards)
            )
        except BaseException:
            self._terminate_shards()
            raise
        if self.health_interval > 0 and self.shard_mode == "process":
            self._health_task = asyncio.create_task(
                self._health_loop(), name="repro-shard-health"
            )
        self._coalescer.start()
        await self.start_http()

    def _terminate_shards(self) -> None:
        for shard in self.shards:
            shard.drop_connections()
            if (
                shard.mode == "process"
                and shard.process is not None
                and shard.process.returncode is None
            ):
                shard.process.terminate()  # SIGTERM: each shard saves cache

    async def stop(self) -> None:
        """Stop accepting, fail queued singles, then stop every shard
        (SIGTERM for processes, ``stop_local`` for embedded services) and
        wait for each to persist its cache."""
        await self.stop_http()
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
        await self._coalescer.stop()
        self._terminate_shards()

        async def _reap(shard) -> None:
            if shard.mode == "inproc":
                if shard.service is not None:
                    await shard.service.stop_local()
                return
            process = shard.process
            if process is None:
                return
            try:
                await asyncio.wait_for(process.wait(), timeout=60)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()

        await asyncio.gather(*(_reap(shard) for shard in self.shards))
        if self._tenants_tmp is not None:
            self._tenants_tmp.unlink(missing_ok=True)
            self._tenants_tmp = None

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    async def _exchange(
        self, shard, reader, writer, method: str, path: str, body: bytes
    ) -> tuple[int, dict]:
        """One keep-alive HTTP exchange on an open shard connection."""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {shard.host}:{shard.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        status_line = await reader.readline()
        parts = status_line.decode("latin-1").split()
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(f"bad status line from shard: {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise ConnectionError("shard closed mid-headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        payload = await reader.readexactly(length) if length else b"{}"
        if (
            headers.get("connection", "").lower() == "close"
            or len(shard.pool) >= _POOL_PER_SHARD
        ):
            writer.close()
        else:
            shard.pool.append((reader, writer))
        try:
            return status, json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ConnectionError(f"non-JSON shard response: {exc}") from None

    async def _forward_inproc(
        self, shard: InprocShard, method: str, path: str, body: bytes
    ) -> tuple[int, dict]:
        """A hop to an embedded shard: the same request semantics as a
        socket exchange, via the shared dispatch path."""
        service = self._service(shard)
        status, payload, _ = await service.dispatch(method, path, body)
        service.note_request(path, status)
        return status, payload

    @staticmethod
    def _service(shard: InprocShard) -> DisclosureService:
        if shard.service is None:
            raise Unavailable(f"shard {shard.index} is unavailable")
        return shard.service

    async def _answer_inproc(
        self,
        shard: InprocShard,
        path: str,
        ident: RequestIdentity,
        request: Callable[[], tuple[bytes | None, dict | None]],
    ) -> tuple[int, dict]:
        """Answer a resolved lookup on an embedded shard by identity, so the
        shard never parses or memoizes the body: from its cache on this
        event loop when fully cached (``fast_hits``), through its engine
        otherwise. ``request()`` gives the engine path's ``(body,
        payload)``, and is only called when that path runs."""
        service = self._service(shard)
        self.stats.by_shard[shard.index] += 1
        answer = service.answer_from_cache(ident)
        if answer is not None:
            self.stats.fast_hits += 1
            service.note_request(path, 200)
            return 200, answer
        self.stats.proxied += 1
        status, answer, _ = await guarded(
            service.answer_from_engine(ident, *request())
        )
        service.note_request(path, status)
        return status, answer

    async def _forward_once(
        self, shard, method: str, path: str, body: bytes
    ) -> tuple[int, dict]:
        """Try a pooled connection first; fall back to a fresh one."""
        if shard.mode == "inproc":
            return await self._forward_inproc(shard, method, path, body)
        if shard.pool:
            reader, writer = shard.pool.pop()
            try:
                return await self._exchange(
                    shard, reader, writer, method, path, body
                )
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                writer.close()
                shard.drop_connections()  # siblings are as stale as this one
            except BaseException:  # timeout/cancel: half-read, unusable
                writer.close()
                raise
        reader, writer = await asyncio.open_connection(shard.host, shard.port)
        set_nodelay(writer.get_extra_info("socket"))
        try:
            return await self._exchange(
                shard, reader, writer, method, path, body
            )
        except BaseException:
            writer.close()
            raise

    async def _forward(
        self, shard, method: str, path: str, body: bytes
    ) -> tuple[int, dict]:
        """Forward with restart-and-replay.

        A failed exchange is replayed after either reconnecting (shard
        alive, connection stale) or restarting the shard process — the
        latter when the process is visibly dead *or* actively refusing
        connections (a freshly killed process can refuse before it is
        reapable, so liveness alone would under-diagnose). At most one
        restart and two replays per request; the boot counter guards
        against stacking restarts when concurrent requests fail together.
        In-process shards cannot lose a connection or die on their own,
        so their hop is a single local dispatch.
        """
        self.stats.proxied += 1
        self.stats.by_shard[shard.index] += 1
        if shard.mode == "inproc":
            return await self._forward_inproc(shard, method, path, body)
        restarted = False
        for attempt in range(3):
            boots_seen = shard.boots
            try:
                return await asyncio.wait_for(
                    self._forward_once(shard, method, path, body),
                    timeout=self.forward_timeout,
                )
            except (
                ConnectionError,
                OSError,
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
            ) as exc:
                if attempt == 2 or self._stopping:
                    break
                async with shard.lock:
                    if shard.boots != boots_seen:
                        pass  # a concurrent request already revived it
                    elif not shard.alive() or isinstance(
                        exc, ConnectionRefusedError
                    ):
                        if restarted:
                            break
                        try:
                            await self._restart_shard(shard)
                        except RuntimeError:
                            break
                        restarted = True
                    else:
                        shard.drop_connections()
                self.stats.replays += 1
        raise Unavailable(f"shard {shard.index} is unavailable")

    # ------------------------------------------------------------------
    # The upstream coalescer's group callback (process shards)
    # ------------------------------------------------------------------
    async def _run_group(self, key: tuple[int, tuple], items: list) -> list:
        """One coalescer group of ``(body, params_wire)`` singles bound for
        one process shard: forward a lone body untouched, or rebuild one
        upstream batch (the value lists re-read from each stored body).
        Returns one ``(status, answer)`` per single."""
        shard_index, (tenant, mode, model, _cparams, k) = key
        shard = self.shards[shard_index]
        if len(items) == 1:
            return [await self._forward(shard, "POST", "/disclosure", items[0][0])]
        batch = {
            "bucketizations": [
                parse_json_body(body)["buckets"] for body, _ in items
            ],
            "ks": [k],
            "model": model,
            "exact": mode == "exact",
        }
        # The rebuilt batch names the model explicitly, which at the shard
        # suppresses tenant *defaults* — so the group's effective params
        # ride along explicitly too (every member shares them: params are
        # part of the group key).
        params_wire = items[0][1]
        if params_wire is not None:
            batch["params"] = params_wire
        if tenant is not None:
            batch["tenant"] = tenant
        status, answer = await self._forward(
            shard, "POST", "/disclosure", json.dumps(batch).encode()
        )
        if status != 200:
            return [(status, answer)] * len(items)
        self.stats.coalesced_batches += 1
        self.stats.coalesced_singles += len(items)
        return [
            (
                200,
                {
                    "model": model,
                    "k": k,
                    "exact": mode == "exact",
                    "value": series[str(k)],
                },
            )
            for series in answer["series"]
        ]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _owners(self, ident: RequestIdentity) -> tuple[int, ...]:
        """The owning shard of each of ``ident``'s bucketizations, keyed
        without building a ``Bucketization`` and cached on the identity
        (so a memoized body is hashed once)."""
        owners = ident.route
        if owners is None:
            if ident.kind == "compare":
                model, ks = ident.names, ident.ks
            else:
                model = ident.model
                ks = ident.ks if ident.kind == "batch" else (ident.k,)
            owners = ident.route = tuple(
                shard_key(
                    ident.mode, model, ks, items, ident.cparams, ident.tenant
                )
                % len(self.shards)
                for items in ident.items
            )
        return owners

    async def _ep_lookup(self, path: str, body: bytes):
        """``/disclosure``, ``/safety`` and ``/compare``: resolve the body
        through the request memo, then answer it on the owning shard.

        In-process shards are answered by identity (from their cache on
        this loop when possible); a plain ``/disclosure`` single bound for
        a process shard goes through the upstream coalescer; everything
        else forwards the original bytes. A batch whose bucketizations
        hash to several shards is split and merged (``split_batches``).
        """
        ident, payload = self.resolver.resolve(path, body)
        if payload is None:
            # Byte-identical body seen before: no JSON touched at all.
            self.stats.route_memo_hits += 1
            self.stats.reparse_avoided += 1
        owners = self._owners(ident)
        if len(set(owners)) > 1:
            return await self._split_batch(path, ident, body, payload)
        if ident.kind == "batch":
            self.stats.whole_batches += 1
        shard = self.shards[owners[0]]
        if shard.mode == "inproc":
            return await self._answer_inproc(
                shard, path, ident, lambda: (body, payload)
            )
        if ident.kind == "single" and not ident.witness:
            return await self._coalescer.submit(
                (shard.index, ident.group), (body, ident.params_wire)
            )
        return await self._forward(shard, "POST", path, body)

    async def _split_batch(
        self, path: str, ident: RequestIdentity, body: bytes, payload
    ):
        """Split a batch by per-bucketization plane key, merge losslessly.

        Embedded shards answer their sub-batch by sub-identity; process
        shards receive a re-encoded sub-batch, whose value lists are
        re-read from the body only when one is needed.
        """
        self.stats.split_batches += 1
        groups: dict[int, list[int]] = {}
        for position, index in enumerate(self._owners(ident)):
            groups.setdefault(index, []).append(position)
        parsed = [payload]

        def sub_payload(positions: list[int]) -> dict:
            if parsed[0] is None:
                parsed[0] = parse_json_body(body)
            raw = parsed[0]["bucketizations"]
            sub = {
                "bucketizations": [raw[p] for p in positions],
                "ks": list(ident.ks),
                "model": ident.model,
                "exact": ident.mode == "exact",
            }
            # An explicit model suppresses tenant defaults at the shard, so
            # the effective params ride along explicitly too.
            if ident.params_wire is not None:
                sub["params"] = ident.params_wire
            if ident.tenant is not None:
                sub["tenant"] = ident.tenant
            return sub

        async def _sub(shard_index: int, positions: list[int]):
            shard = self.shards[shard_index]
            if shard.mode != "inproc":
                return await self._forward(
                    shard,
                    "POST",
                    path,
                    json.dumps(sub_payload(positions)).encode(),
                )
            return await self._answer_inproc(
                shard,
                path,
                ident.subset(positions),
                lambda: (None, sub_payload(positions)),
            )

        answers = await asyncio.gather(
            *(_sub(index, positions) for index, positions in groups.items())
        )
        merged: list[Any] = [None] * len(ident.items)
        for (status, answer), positions in zip(answers, groups.values()):
            if status != 200:
                return status, answer
            for position, series in zip(positions, answer["series"]):
                merged[position] = series
        return 200, {
            "model": ident.model,
            "ks": list(ident.ks),
            "exact": ident.mode == "exact",
            "series": merged,
        }

    async def _ep_publish(self, path: str, body: bytes):
        """``/publish`` routes by **table affinity** (see
        :func:`table_shard_key`): every version of one table reaches the
        shard owning that table's ledger slice, whatever its buckets hash
        to. The original bytes are forwarded untouched."""
        payload = parse_json_body(body)
        tenant = self.resolver.tenant(payload)
        table = require(payload, "table", str)
        shard = self.shards[
            table_shard_key(table, tenant) % len(self.shards)
        ]
        return await self._forward(shard, "POST", path, body)

    async def _ep_releases(self):
        """``GET /releases`` fans out to every shard and merges: each shard
        only knows the tables affinity-routed to it."""
        answers = await asyncio.gather(
            *(
                self._forward(shard, "GET", "/releases", b"")
                for shard in self.shards
            )
        )
        releases: list[dict[str, Any]] = []
        counters: Counter[str] = Counter()
        for status, answer in answers:
            if status != 200:
                return status, answer
            releases.extend(answer.get("releases", []))
            ledger = answer.get("ledger")
            if isinstance(ledger, dict):
                for key, value in ledger.items():
                    if isinstance(value, int):
                        counters[key] += value
        releases.sort(
            key=lambda entry: (
                entry.get("tenant") or "",
                entry.get("table", ""),
                entry.get("version", 0),
            )
        )
        return 200, {"releases": releases, "ledger": dict(counters)}

    async def _ep_release(self, path: str):
        """``GET /releases/{table}/{version}`` follows the same table
        affinity as ``/publish`` (the release record lives on exactly one
        shard)."""
        parts = path.split("/")
        if len(parts) != 4 or not parts[2] or not parts[3]:
            raise BadRequest(
                "release path must be /releases/{table}/{version}"
            )
        tenant, _, table = parts[2].rpartition(":")
        shard = self.shards[
            table_shard_key(table, tenant or None) % len(self.shards)
        ]
        return await self._forward(shard, "GET", path, b"")

    async def _ep_models(self):
        """Registry introspection is shard-independent: ask shard 0."""
        return await self._forward(self.shards[0], "GET", "/models", b"")

    async def _ep_healthz(self):
        async def _probe(shard) -> dict[str, Any]:
            entry: dict[str, Any] = {
                "shard": shard.index,
                "mode": shard.mode,
                "alive": shard.alive(),
                "port": shard.port,
                "boots": shard.boots,
            }
            try:
                status, answer = await asyncio.wait_for(
                    self._forward_once(shard, "GET", "/healthz", b""),
                    timeout=min(self.forward_timeout, 10.0),
                )
                entry["ok"] = status == 200 and answer.get("ok", False)
            except (
                Unavailable,
                ConnectionError,
                OSError,
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
            ):
                entry["ok"] = False
            return entry

        shards = await asyncio.gather(*(_probe(s) for s in self.shards))
        ok = all(entry["ok"] for entry in shards)
        return (200 if ok else 503), {
            "ok": ok,
            "shards": shards,
            "uptime_s": round(time.monotonic() - self.stats.started, 3),
        }

    async def _ep_stats(self):
        async def _shard_stats(shard) -> dict[str, Any]:
            try:
                status, answer = await self._forward(
                    shard, "GET", "/stats", b""
                )
            except Unavailable:
                return {"shard": shard.index, "unreachable": True}
            if status != 200:
                return {"shard": shard.index, "unreachable": True}
            answer["shard"] = shard.index
            return answer

        shard_stats = await asyncio.gather(
            *(_shard_stats(shard) for shard in self.shards)
        )
        totals: Counter[str] = Counter()
        tenant_requests: Counter[str] = Counter()
        ledger_totals: Counter[str] = Counter()
        for entry in shard_stats:
            ledger = entry.get("ledger")
            if isinstance(ledger, dict):
                for field, value in ledger.items():
                    if isinstance(value, int):
                        ledger_totals[field] += value
            service = entry.get("service")
            if not isinstance(service, dict):
                continue
            for field in (
                "requests_total",
                "single_requests",
                "batch_requests",
                "cache_fast_hits",
                "series_fast_hits",
                "memo_hits",
                "coalesced_batches",
                "coalesced_singles",
                "publishes_total",
                "publishes_accepted",
                "publishes_rejected",
                "publish_multisets_evaluated",
                "publish_multisets_reused",
                "cache_files_quarantined",
            ):
                value = service.get(field)
                if isinstance(value, int):
                    totals[field] += value
            by_tenant = service.get("by_tenant")
            if isinstance(by_tenant, dict):
                for tenant, count in by_tenant.items():
                    if isinstance(count, int):
                        tenant_requests[tenant] += count
        router = self.stats.as_dict()
        router["shards"] = len(self.shards)
        router["shard_mode"] = self.shard_mode
        router["connections"] = self.connections.as_dict()
        router["max_connections"] = self.max_connections
        answer = {
            "router": router,
            "totals": dict(totals),
            "ledger": dict(ledger_totals),
            "shards": shard_stats,
        }
        if self.tenants:
            answer["tenants"] = {
                tenant: {"requests": tenant_requests.get(tenant, 0)}
                for tenant in self.tenants
            }
        return 200, answer


class BackgroundRouter(BackgroundHost):
    """Run a :class:`ShardRouter` on a daemon thread (tests, benchmarks).

    Usage::

        with BackgroundRouter(shards=3) as bg:
            value = bg.client().disclosure(bucketization, k=3)
    """

    def _make_service(self) -> ShardRouter:
        return ShardRouter(**self._kwargs)
