"""The serving layer: the engine's request/response workload as a process.

PR 3 built the pieces a long-running service needs — a bounded LRU cache
with :meth:`~repro.engine.engine.DisclosureEngine.save_cache` /
``load_cache`` persistence, and persistent worker processes whose
lifecycle (``PersistentBackend(idle_timeout=...)``, ``engine.close()``)
matches a server's. This package is that server, and its horizontal scaling tier:

- :mod:`repro.service.wire` — the JSON wire format (lossless in both
  arithmetic modes: floats as JSON numbers, Fractions as ``"num/den"``;
  non-finite floats are rejected at encode time).
- :mod:`repro.service.httpbase` — what both tiers share: the keep-alive
  HTTP/1.1 dialect (per-connection request loops, read timeouts,
  connection caps), the one endpoint table, and the one coalescer.
- :mod:`repro.service.server` — :class:`DisclosureService`, a stdlib-only
  asyncio HTTP server with one request resolver (every lookup body
  validated into one identity, memoized by its bytes), cached answers on
  the event loop, request coalescing (concurrent singles become one
  ``evaluate_many`` batch on the signature plane), graceful
  load-cache/save-cache lifecycle, and :class:`BackgroundService` for
  in-process embedding.
- :mod:`repro.service.router` — :class:`ShardRouter`, N service shards
  embedded in the router process behind a plane-key hash router
  (cache-affinity routing through the same resolver and memo, lossless
  batch split/merge, per-shard cache files, aggregated stats), plus
  :class:`BackgroundRouter`.
- :mod:`repro.service.client` — :class:`ServiceClient`, the blocking
  stdlib client with a bounded keep-alive connection pool whose answers
  are bit-identical to direct engine calls.

Start one with ``repro serve`` (``--shards N`` for the sharded topology)
or embed it::

    from repro.service import BackgroundRouter, BackgroundService

    with BackgroundService(workers=4) as bg:
        client = bg.client()
        client.disclosure(bucketization, k=3, model="negation")

    with BackgroundRouter(shards=3) as bg:
        bg.client().disclosure(bucketization, k=3)  # same bits, 3 shards
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.httpbase import ConnectionStats, JsonHttpServer
from repro.service.router import (
    BackgroundRouter,
    InprocShard,
    RouterStats,
    ShardRouter,
)
from repro.service.server import (
    BackgroundService,
    DisclosureService,
    ServiceStats,
    load_tenants,
)
from repro.service.wire import (
    bucket_lists,
    bucketization_from_payload,
    decode_params,
    decode_series,
    decode_value,
    encode_params,
    encode_series,
    encode_value,
)

__all__ = [
    "DisclosureService",
    "BackgroundService",
    "ServiceStats",
    "load_tenants",
    "ShardRouter",
    "BackgroundRouter",
    "RouterStats",
    "InprocShard",
    "JsonHttpServer",
    "ConnectionStats",
    "ServiceClient",
    "ServiceError",
    "encode_value",
    "decode_value",
    "encode_series",
    "decode_series",
    "encode_params",
    "decode_params",
    "bucket_lists",
    "bucketization_from_payload",
]
