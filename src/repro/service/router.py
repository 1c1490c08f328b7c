"""Horizontal sharding: N disclosure services behind a plane-key hash router.

:class:`ShardRouter` splits the engine cache into ``N`` shards and routes
every request by its **plane key** — ``(mode, model, k,
signature-multiset)``, exactly the engine's cache key — so repeated and
same-shaped questions always land on the shard that already has them
cached. Cache locality is not best-effort here; it is the routing
invariant.

Each shard is a :class:`~repro.service.server.DisclosureService` embedded
in the router process (:class:`InprocShard`, booted via ``start_local``):
its own engines, coalescer, stats and per-shard cache files, minus the
socket. A hop to a shard is a method call on the router's event loop, not
a socket round trip, and the shards' engine threads share the router's
interpreter.

The routing hot path never re-parses what it has already seen. Lookup
bodies (``/disclosure``, ``/safety``, ``/compare``) go through the same
:class:`~repro.service.server.RequestResolver` a single service uses: one
validation pass (so the router answers a bad body with exactly the 400 a
service would) derives the request identity, signature multisets
included, straight from the raw JSON — no
:class:`~repro.bucketization.bucketization.Bucketization` object graph.
The router owns the process's one request memo, a bounded LRU from the
**raw request bytes** to that identity (``route_memo_hits`` /
``reparse_avoided`` in ``/stats``); the owning shard of each
bucketization is hashed once and kept on the identity. Shards are handed
the identity itself and never parse or memoize the body again: when every
value the request needs is in the owning shard's cache, the answer is
encoded on the event loop (``fast_hits``, for singles, ``/safety``,
batches and ``/compare`` alike); otherwise the shard's engine path runs
it, and cache-missing singles drain through that shard's own coalescer.

What the router guarantees:

- **bit-identical answers**: every answer comes from the owning shard's
  engine cache or engine, exactly as a single service would answer it. A
  3-shard deployment answers exactly like one engine, in both arithmetic
  modes.
- **lossless batch split/merge**: a ``/disclosure`` batch is partitioned
  by each bucketization's plane key, the sub-batches run on their shards
  concurrently, and the per-bucketization series are reassembled in the
  original order.
- **per-shard persistence**: shutdown stops every shard, and each
  persists its own cache under the shared prefix
  (``<prefix>.shard<i>.<mode>.pkl``).
- **aggregated observability**: ``/stats`` merges router counters with
  every shard's ``/stats``; ``/healthz`` reports per-shard liveness.

The router speaks the same keep-alive HTTP dialect as a single service
and serves the same endpoint table (both subclass
:class:`~repro.service.httpbase.JsonHttpServer`, which dispatches from
:data:`~repro.service.httpbase.ROUTES`). Start one with
``repro serve --shards N`` or embed :class:`BackgroundRouter` in tests.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from collections import Counter
from collections.abc import Callable, Mapping
from pathlib import Path
from typing import Any

from repro.service.httpbase import (
    BackgroundHost,
    BadRequest,
    JsonHttpServer,
    RequestStats,
    guarded,
    require,
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
    "InprocShard",
    "shard_key",
    "table_shard_key",
    "ShardRouter",
    "BackgroundRouter",
]


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
    the release ledger (each shard keeps its own
    ``<prefix>.shard<i>.sqlite``), or the incremental re-check would never
    see its own prior release. Same SHA-256-over-``repr`` construction as
    :func:`shard_key`, for the same restart-stability reasons.
    """
    payload = repr(("publish", tenant or "", table)).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


class RouterStats(RequestStats):
    """The routing-layer counters behind the aggregated ``/stats``."""

    def __init__(self) -> None:
        super().__init__()
        self.proxied = 0
        self.split_batches = 0
        self.whole_batches = 0
        self.route_memo_hits = 0
        self.reparse_avoided = 0
        self.fast_hits = 0
        self.by_shard: Counter[int] = Counter()

    def as_dict(self) -> dict[str, Any]:
        """The router counters as the ``/stats -> router`` JSON section."""
        return {
            **super().as_dict(),
            "proxied": self.proxied,
            "split_batches": self.split_batches,
            "whole_batches": self.whole_batches,
            "route_memo_hits": self.route_memo_hits,
            "reparse_avoided": self.reparse_avoided,
            "fast_hits": self.fast_hits,
            # The router coalesces nothing (each shard's service does, and
            # those counts sum under ``/stats -> totals``); the key stays
            # because perfbench's ``stat_counters`` reads it.
            "coalesced_batches": 0,
            "by_shard": {str(k): v for k, v in self.by_shard.items()},
        }


class InprocShard:
    """One embedded :class:`DisclosureService` shard (no process, no socket).

    It cannot die independently of the router, so ``alive()`` is simply
    "started"; it is reached through the same dispatch path a socket
    would reach.
    """

    mode = "inproc"

    __slots__ = ("index", "service")

    def __init__(self, index: int) -> None:
        self.index = index
        self.service: DisclosureService | None = None

    def alive(self) -> bool:
        """Whether the in-process shard service is built."""
        return self.service is not None


class ShardRouter(JsonHttpServer):
    """A front router over ``shards`` embedded disclosure services.

    Parameters
    ----------
    shards:
        Number of shard services (>= 1).
    workers, kernel, cache_limit:
        Passed through to every shard as its engine knobs.
    cache_path:
        Shared persistence *prefix*: shard ``i`` persists to
        ``<prefix>.shard<i>.float.pkl`` / ``.exact.pkl`` (each shard owns
        its slice of the keyspace, so the files never contend).
    tenants:
        Optional multi-tenant topology — a JSON file path or its parsed
        mapping, validated at boot by
        :func:`~repro.service.server.load_tenants` and handed as given to
        every shard, so each shard carries per-tenant engines and cache
        files. The tenant id joins the shard key: two tenants' identical
        questions may land on different shards, and never on the same
        cache entry.
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
        workers: int = 1,
        kernel: str = "auto",
        cache_limit: int | None = None,
        cache_path: str | Path | None = None,
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
        #: The tenant topology, validated now (a bad file fails the boot,
        #: not the first request); every shard is given the original source.
        self.tenants: dict[str, dict] = (
            load_tenants(tenants) if tenants is not None else {}
        )
        self._tenant_source = tenants
        self.shards = [InprocShard(index) for index in range(shards)]
        self.stats = RouterStats()
        #: The process's one request memo: lookup bodies -> identities.
        #: Shards are handed these identities and never resolve (or store)
        #: a lookup body themselves.
        self.resolver = RequestResolver(self.tenants)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _shard_cache_prefix(self, shard: InprocShard) -> Path | None:
        if self.cache_path is None:
            return None
        return self.cache_path.with_name(
            f"{self.cache_path.name}.shard{shard.index}"
        )

    def _shard_ledger_file(self, shard: InprocShard) -> Path | None:
        if self.ledger_path is None:
            return None
        return self.ledger_path.with_name(
            f"{self.ledger_path.name}.shard{shard.index}.sqlite"
        )

    async def _start_shard(self, shard: InprocShard) -> None:
        """Boot one shard: a socketless service on this event loop."""
        service = DisclosureService(
            workers=self.workers,
            kernel=self.kernel,
            cache_limit=self.cache_limit,
            cache_path=self._shard_cache_prefix(shard),
            ledger_file=self._shard_ledger_file(shard),
            tenants=self._tenant_source,
        )
        await service.start_local()
        shard.service = service

    async def start(self) -> None:
        """Boot every shard, then the front socket."""
        await asyncio.gather(*(self._start_shard(s) for s in self.shards))
        await self.start_http()

    async def stop(self) -> None:
        """Stop accepting, then stop every shard: each fails its queued
        work with 503 and persists its cache."""
        await self.stop_http()
        await asyncio.gather(
            *(
                shard.service.stop_local()
                for shard in self.shards
                if shard.service is not None
            )
        )

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    @staticmethod
    async def _dispatch(
        shard: InprocShard, method: str, path: str, body: bytes
    ) -> tuple[int, dict]:
        """A hop to a shard: the same request semantics as a socket
        exchange, via the shared dispatch path."""
        status, payload, _ = await shard.service.dispatch(method, path, body)
        shard.service.note_request(path, status)
        return status, payload

    async def _forward(
        self, shard: InprocShard, method: str, path: str, body: bytes
    ) -> tuple[int, dict]:
        """:meth:`_dispatch`, counted as a proxied request."""
        self.stats.proxied += 1
        self.stats.by_shard[shard.index] += 1
        return await self._dispatch(shard, method, path, body)

    async def _answer(
        self,
        shard: InprocShard,
        path: str,
        ident: RequestIdentity,
        request: Callable[[], tuple[bytes | None, dict | None]],
    ) -> tuple[int, dict]:
        """Answer a resolved lookup on a shard by identity, so the shard
        never parses or memoizes the body: from its cache on this event
        loop when fully cached (``fast_hits``), through its engine
        otherwise. ``request()`` gives the engine path's ``(body,
        payload)``, and is only called when that path runs."""
        service = shard.service
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
        through the request memo, then answer it by identity on the owning
        shard. A batch whose bucketizations hash to several shards is
        split and merged (``split_batches``)."""
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
        return await self._answer(
            self.shards[owners[0]], path, ident, lambda: (body, payload)
        )

    async def _split_batch(
        self, path: str, ident: RequestIdentity, body: bytes, payload
    ):
        """Split a batch by per-bucketization plane key, merge losslessly.

        Each shard answers its sub-batch by sub-identity; its value lists
        are re-read from the body only when its engine path runs.
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
            return {"bucketizations": [raw[p] for p in positions]}

        async def _sub(shard_index: int, positions: list[int]):
            return await self._answer(
                self.shards[shard_index],
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
        async def _probe(shard: InprocShard) -> dict[str, Any]:
            status, answer = await self._dispatch(
                shard, "GET", "/healthz", b""
            )
            return {
                "shard": shard.index,
                "mode": shard.mode,
                "alive": shard.alive(),
                "ok": status == 200 and answer.get("ok", False),
            }

        shards = await asyncio.gather(*(_probe(s) for s in self.shards))
        ok = all(entry["ok"] for entry in shards)
        return (200 if ok else 503), {
            "ok": ok,
            "shards": shards,
            "uptime_s": round(time.monotonic() - self.stats.started, 3),
        }

    async def _ep_stats(self):
        async def _shard_stats(shard: InprocShard) -> dict[str, Any]:
            status, answer = await self._forward(shard, "GET", "/stats", b"")
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
        # Always "inproc"; perfbench reports it per lookup-sharded run.
        router["shard_mode"] = InprocShard.mode
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
