"""The disclosure service: a stdlib-only asyncio HTTP layer over the engine.

:class:`DisclosureService` wraps two long-lived
:class:`~repro.engine.engine.DisclosureEngine` instances — one per
arithmetic mode — behind a small JSON-over-HTTP API, and adds the one thing
a serving layer can do that a library call cannot: **request coalescing**.
Concurrent single ``/disclosure`` and ``/safety`` requests that miss the
cache are drained by the tier's one
:class:`~repro.service.httpbase.Coalescer` (a fixed
:data:`~repro.service.httpbase.COALESCE_WAIT` of 2 ms after the first)
into groups of ``(tenant, mode, model, params, k)``, and each group is
evaluated as one
:meth:`~repro.engine.engine.DisclosureEngine.evaluate_many` call on the
signature plane, so N clients asking about the same (or same-shaped)
anonymization cost one computation, and the engines' worker processes
(``workers > 1``) see real batches instead of single lookups.

The HTTP dialect lives in :mod:`repro.service.httpbase`
(:class:`~repro.service.httpbase.JsonHttpServer`): **keep-alive**
HTTP/1.1 with per-request read timeouts and connection caps — one
connection carries many requests, which is what lets the pooled
:class:`~repro.service.client.ServiceClient` amortize TCP setup away.
Endpoints (the shard router serves the same table,
:data:`~repro.service.httpbase.ROUTES`):

=====================  ====  ==================================================
path                   verb  body / answer
=====================  ====  ==================================================
``/disclosure``        POST  single ``{buckets, k, model?, exact?, witness?}``
                             or batch ``{bucketizations, ks, model?, exact?}``
``/safety``            POST  ``{buckets, c, k, model?, exact?}`` -> safe + value
``/compare``           POST  ``{buckets, ks, models?, exact?}`` -> per-model
                             series (Figure 5 as an endpoint)
``/publish``           POST  ``{table, buckets, c, k, model?, params?,
                             exact?, tenant?, full?, witness?}`` -> the
                             republication verdict (see
                             :mod:`repro.publish`)
``/releases``          GET   summaries of every recorded release + ledger
                             totals
``/releases/{t}/{v}``  GET   one full release record (``{t}`` may be
                             tenant-qualified as ``tenant:table``)
``/models``            GET   registry introspection (every registered
                             adversary and its contract flags)
``/stats``             GET   service counters (incl. connection/keep-alive
                             counters) + per-engine
                             :class:`~repro.engine.engine.EngineStats`,
                             cache/plane sizes, backend telemetry, ledger
                             totals
``/healthz``           GET   liveness
=====================  ====  ==================================================

**One identity per body.** A lookup body (``/disclosure``, ``/safety``,
``/compare``) is turned into a validated :class:`RequestIdentity` by one
:class:`RequestResolver`: tenant, mode, model name(s) and resolved
instance(s), params (decoded, canonical and wire), ``k`` or the sorted,
de-duplicated ``ks``, ``c`` and the witness flag, and one signature-items
tuple per bucketization. The service's handlers, the coalescer's group key
and the shard router's plane key all read that one object, so every
topology gives the same 400 for a bad body. The resolver keeps a bounded
LRU memo from ``(path, body bytes)`` to the identity (1,024 entries,
bodies up to 64 KiB, validated bodies only, ``/stats ->
service.memo_hits``): a byte-identical repeat skips parsing, validation
and keying. The memo holds identities, never answers: every value still
comes from the engine cache. One process keeps one memo, in whichever
object reads the socket (the service, or the router in front of its
shards).

**Fully cached answers on the event loop.** Before any ``Bucketization``
is built or the engine thread is involved, every ``(model, k,
bucketization)`` of a request is peeked with
:meth:`~repro.engine.engine.DisclosureEngine.peek_cached`. When all of
them hit, the answer is encoded on the loop: singles and ``/safety``
count in ``cache_fast_hits``, ``/disclosure`` batches and ``/compare`` in
``series_fast_hits``. Witness requests and models that are not
signature-decomposable always take the engine path.

Lifecycle matches the engine's: :meth:`DisclosureService.start` loads any
persisted cache (``load_cache``; a file that fails to load is renamed to
``<file>.corrupt``, counted in ``cache_files_quarantined``, and its engine
boots empty), :meth:`DisclosureService.stop` drains,
saves the caches and closes the engines — ``repro serve`` ties those to
process SIGTERM/SIGINT. :class:`BackgroundService` runs the whole thing on
a daemon thread for tests and benchmarks. For the sharded topology (N of
these services embedded behind a plane-key hash router) see
:mod:`repro.service.router`.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
import warnings
from collections import Counter, OrderedDict
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.engine.backend import PersistentBackend
from repro.engine.base import (
    AdversaryModel,
    available_adversaries,
    canonical_params,
    get_adversary,
    param_schema,
)
from repro.engine.engine import DisclosureEngine, series_labels, threshold_value
from repro.engine.plane import CachePolicy
from repro.publish.engine import TABLE_NAME, RepublicationEngine
from repro.publish.ledger import ReleaseLedger, multiset_to_wire
from repro.service.httpbase import (
    MAX_BODY_BYTES,
    PREFIX_ROUTES,
    ROUTES,
    BackgroundHost,
    BadRequest,
    Coalescer,
    JsonHttpServer,
    RequestStats,
    Unavailable,
    require,
    require_ks,
)
from repro.service.wire import (
    bucketization_from_payload,
    decode_params,
    decode_value,
    encode_series,
    encode_value,
    encode_witness,
    signature_items_from_lists,
)

__all__ = [
    "MAX_BODY_BYTES",
    "ROUTES",
    "PREFIX_ROUTES",
    "ServiceStats",
    "RequestIdentity",
    "RequestResolver",
    "DisclosureService",
    "BackgroundService",
    "load_tenants",
    "resolve_mode",
]

#: Tenant ids become cache-file name components, so they are restricted to
#: a filename-safe alphabet up front.
_TENANT_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]*$")
#: A shard-suffixed cache prefix (the router hands each shard
#: ``<prefix>.shard<i>``); tenants are namespaced *before* the suffix.
_SHARD_SUFFIX = re.compile(r"(\.shard\d+)$")


def load_tenants(source: str | Path | Mapping[str, Any]) -> dict[str, dict]:
    """Validate a tenant topology (a JSON file path, or its already-parsed
    mapping) into ``{tenant: {"model", "params"}}``.

    Each tenant entry maps a tenant id to its *default* threat model:
    an optional registered model ``name`` and an optional ``params`` wire
    object (decoded here once, and test-constructed so a bad topology
    fails at boot, not on the first request).

    Raises :class:`ValueError` on any problem — the CLI maps that to a
    clean exit 1.
    """
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ValueError(f"cannot read tenants file {source}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"tenants file {source} is not JSON: {exc}") from None
    else:
        raw = source
    if not isinstance(raw, Mapping) or not raw:
        raise ValueError("tenants must be a non-empty JSON object")
    tenants: dict[str, dict] = {}
    for tenant, entry in raw.items():
        if not isinstance(tenant, str) or not _TENANT_ID.match(tenant):
            raise ValueError(
                f"tenant id {tenant!r} must match {_TENANT_ID.pattern} "
                "(it names cache files)"
            )
        if entry is None:
            entry = {}
        if not isinstance(entry, Mapping):
            raise ValueError(f"tenant {tenant!r} entry must be an object")
        unknown = set(entry) - {"model", "params"}
        if unknown:
            raise ValueError(
                f"tenant {tenant!r} has unknown keys {sorted(unknown)}"
            )
        name = entry.get("model", "implication")
        if name not in available_adversaries():
            raise ValueError(
                f"tenant {tenant!r} names unknown model {name!r}; "
                f"registered: {', '.join(available_adversaries())}"
            )
        wire = entry.get("params")
        params = decode_params(wire) if wire is not None else {}
        try:
            get_adversary(name, **params)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"tenant {tenant!r} default params are invalid: {exc}"
            ) from None
        tenants[tenant] = {"model": name, "params": params}
    return tenants


#: The two engine modes a service always carries.
_MODES = ("float", "exact")


#: Bounds of the request memo: entries, and the largest body it keeps.
MEMO_ENTRIES = 1024
MEMO_BODY_MAX = 64 * 1024


def resolve_mode(payload: dict) -> str:
    """The arithmetic mode a body asks for: ``"exact"`` or ``"float"``."""
    exact = require(payload, "exact", bool, optional=True, default=False)
    return "exact" if exact else "float"


def _registered(name: str) -> str:
    if name not in available_adversaries():
        raise BadRequest(
            f"unknown adversary model {name!r}; registered: "
            f"{', '.join(available_adversaries())}"
        )
    return name


def _nonnegative_ks(ks: list[int]) -> tuple[int, ...]:
    ordered = tuple(sorted(set(ks)))
    if ordered[0] < 0:
        raise BadRequest(f"k must be non-negative, got {ordered[0]}")
    return ordered


@dataclass(slots=True, eq=False)
class RequestIdentity:
    """A validated lookup request: everything its answer depends on.

    ``kind`` is ``"single"``, ``"batch"`` (both ``/disclosure``),
    ``"safety"`` or ``"compare"``. ``names`` and ``instances`` hold one
    model (several for ``/compare``); ``items`` holds one signature-items
    tuple per bucketization (several for a batch). ``k`` is set for
    singles and ``/safety``, ``ks`` (sorted, de-duplicated) for batches
    and ``/compare``; ``c`` and ``threshold`` only for ``/safety``.
    ``route`` is free for the shard router to cache each bucketization's
    owning shard in. Nothing here is parsed JSON or a ``Bucketization``:
    the engine path re-reads the body when it needs the value lists.
    """

    kind: str
    tenant: str | None
    mode: str
    names: tuple[str, ...]
    instances: tuple[AdversaryModel, ...]
    params: Mapping[str, Any]
    cparams: tuple
    items: tuple
    k: int | None = None
    ks: tuple[int, ...] | None = None
    c: Any = None
    threshold: Any = None
    witness: bool = False
    route: tuple[int, ...] | None = None

    @property
    def model(self) -> str:
        """The model name of a single-model request."""
        return self.names[0]

    @property
    def group(self) -> tuple:
        """The coalescer group of a single or ``/safety`` request: ``(tenant,
        mode, model name, canonical params, k)``."""
        return (self.tenant, self.mode, self.names[0], self.cparams, self.k)

    def subset(self, positions: list[int]) -> RequestIdentity:
        """This batch restricted to the bucketizations at ``positions``."""
        return replace(
            self, items=tuple(self.items[p] for p in positions), route=None
        )


class RequestResolver:
    """The one parser of lookup bodies, and the process's request memo.

    :meth:`resolve` maps ``(path, body bytes)`` to a
    :class:`RequestIdentity`, through a bounded LRU memo
    (:data:`MEMO_ENTRIES` entries, bodies up to :data:`MEMO_BODY_MAX`
    bytes) that only ever stores bodies which passed validation. The
    checks run in one fixed order per endpoint, so the service and the
    shard router give the same 400 for the same body.
    """

    def __init__(self, tenants: Mapping[str, dict]) -> None:
        self.tenants = tenants
        self._memo: OrderedDict[tuple[str, bytes], RequestIdentity] = (
            OrderedDict()
        )
        #: ``(name, canonical params) ->`` model instance: each threat is
        #: constructed (and so validated) once per process.
        self._instances: dict[tuple[str, tuple], AdversaryModel] = {}
        #: One shared copy of each recent signature multiset, so the
        #: memo's relabelled and reordered variants of one question do not
        #: each keep their own (cleared when it reaches the memo's size).
        self._multisets: dict[tuple, tuple] = {}

    def resolve(
        self, path: str, body: bytes
    ) -> tuple[RequestIdentity, dict | None]:
        """The identity of one lookup body, and its parsed payload — or
        ``None`` in place of the payload on a memo hit (nothing was
        parsed)."""
        key = (path, body)
        ident = self._memo.get(key)
        if ident is not None:
            self._memo.move_to_end(key)
            return ident, None
        payload = parse_json_body(body)
        ident = self.identity(path, payload)
        if len(body) <= MEMO_BODY_MAX:
            self._memo[key] = ident
            if len(self._memo) > MEMO_ENTRIES:
                self._memo.popitem(last=False)
        return ident, payload

    def _items(self, buckets: Any) -> tuple:
        """The signature multiset of one bucketization's raw value lists,
        validated, as the copy shared by every identity that has it."""
        items = signature_items_from_lists(buckets)
        shared = self._multisets.get(items)
        if shared is None:
            if len(self._multisets) >= MEMO_ENTRIES:
                self._multisets.clear()
            shared = self._multisets[items] = items
        return shared

    def tenant(self, payload: dict) -> str | None:
        """The optional ``tenant`` field, checked against the topology."""
        tenant = require(payload, "tenant", str, optional=True, default=None)
        if tenant is not None and tenant not in self.tenants:
            raise BadRequest(
                f"unknown tenant {tenant!r}"
                + (
                    f"; configured: {', '.join(sorted(self.tenants))}"
                    if self.tenants
                    else " (no tenants configured)"
                )
            )
        return tenant

    def instance(
        self, name: str, params: Mapping[str, Any]
    ) -> tuple[tuple, AdversaryModel]:
        """``(canonical params, instance)`` of a registered model name.
        Constructor failures — unknown param name (:class:`TypeError`),
        out-of-range value (:class:`ValueError`) — are a 400, never a
        500."""
        try:
            cparams = canonical_params(params)
            key = (name, cparams)
            instance = self._instances.get(key)
            if instance is None:
                instance = get_adversary(name, **params)
                self._instances[key] = instance
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"invalid params for model {name!r}: {exc}") from None
        return cparams, instance

    def threat(self, payload: dict, tenant: str | None):
        """The request's effective threat model: ``(name, decoded params,
        canonical params, instance)``.

        Explicit ``model``/``params`` fields win; a tenant supplies the
        defaults for whichever is absent."""
        config = self.tenants.get(tenant) if tenant is not None else None
        name = _registered(
            require(
                payload,
                "model",
                str,
                optional=True,
                default=config["model"] if config else "implication",
            )
        )
        if "params" in payload:
            params = decode_params(payload["params"])  # ValueError -> 400
        elif config is not None and "model" not in payload:
            params = config["params"]
        else:
            params = {}
        cparams, instance = self.instance(name, params)
        return name, params, cparams, instance

    def identity(self, path: str, payload: dict) -> RequestIdentity:
        """Validate one parsed lookup body (no memo)."""
        tenant = self.tenant(payload)
        mode = resolve_mode(payload)
        if path == "/compare":
            return self._compare(payload, tenant, mode)
        name, params, cparams, instance = self.threat(payload, tenant)
        threat = ((name,), (instance,), params, cparams)
        if path == "/disclosure" and "bucketizations" in payload:
            ks = require_ks(payload)
            raw = require(payload, "bucketizations", list)
            if not raw:
                raise BadRequest("'bucketizations' must be a non-empty list")
            items = tuple(self._items(b) for b in raw)
            return RequestIdentity(
                "batch", tenant, mode, *threat, items, ks=_nonnegative_ks(ks)
            )
        k = require(payload, "k", int)
        if path == "/safety":
            c = require(payload, "c", (int, float))
            if isinstance(c, bool):
                raise BadRequest("field 'c' must be a number")
            raw = require(payload, "buckets", list)
            # The threshold is checked against the model's scale before
            # the buckets (bad thresholds are a 400, not a computation).
            threshold = threshold_value(
                c, exact=mode == "exact", bounded=not instance.unbounded_scale
            )
            items = (self._items(raw),)
            _nonnegative_ks([k])
            return RequestIdentity(
                "safety", tenant, mode, *threat, items,
                k=k, c=c, threshold=threshold,
            )
        _nonnegative_ks([k])
        raw = require(payload, "buckets", list)
        witness = require(payload, "witness", bool, optional=True, default=False)
        items = (self._items(raw),)
        return RequestIdentity(
            "single", tenant, mode, *threat, items, k=k, witness=witness
        )

    def _compare(
        self, payload: dict, tenant: str | None, mode: str
    ) -> RequestIdentity:
        ks = require_ks(payload)
        models = payload.get("models", ["implication", "negation"])
        if not isinstance(models, list) or not models:
            raise BadRequest("'models' must be a non-empty list of names")
        for name in models:
            if not isinstance(name, str):
                raise BadRequest("'models' must be a list of model names")
        names = tuple(_registered(name) for name in models)
        if "params" in payload:
            # One params object, applied to every listed model (the
            # /compare use case is one parametric family across k).
            params = decode_params(payload["params"])
        elif tenant is not None and "models" not in payload:
            params = self.tenants[tenant]["params"]
        else:
            params = {}
        resolved = [self.instance(name, params) for name in names]
        items = (self._items(require(payload, "buckets", list)),)
        return RequestIdentity(
            "compare",
            tenant,
            mode,
            names,
            tuple(instance for _cparams, instance in resolved),
            params,
            resolved[0][0],
            items,
            ks=_nonnegative_ks(ks),
        )


class ServiceStats(RequestStats):
    """The serving-layer counters behind ``/stats`` (engine counters live on
    each engine's own :class:`~repro.engine.engine.EngineStats`).

    ``coalesced_batches`` counts coalescer groups (one engine call each)
    that served **more than one** concurrent single or ``/safety``
    request; ``coalesced_singles`` counts the requests so served, and
    ``max_coalesced`` the largest group — together they are the
    observable behind the coalescing claim ``tests/test_service.py``
    checks end to end.
    ``cache_fast_hits`` counts singles and ``/safety`` requests answered
    from the engine cache on the event loop, ``series_fast_hits`` the
    ``/disclosure`` batches and ``/compare`` requests so answered, and
    ``memo_hits`` the lookup bodies this service resolved from its request
    memo (shards leave it at 0: their router keeps the memo).
    ``cache_files_quarantined`` counts persisted cache files that failed
    to load at boot and were renamed to ``<file>.corrupt``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.single_requests = 0
        self.batch_requests = 0
        self.cache_fast_hits = 0
        self.series_fast_hits = 0
        self.memo_hits = 0
        self.coalesced_batches = 0
        self.coalesced_singles = 0
        self.max_coalesced = 0
        self.by_tenant: Counter[str] = Counter()
        self.publishes_total = 0
        self.publishes_accepted = 0
        self.publishes_rejected = 0
        self.publish_multisets_evaluated = 0
        self.publish_multisets_reused = 0
        self.cache_files_quarantined = 0

    def note_coalesced(self, group_size: int) -> None:
        """Record one drained coalescer group of ``group_size`` singles."""
        if group_size > 1:
            self.coalesced_batches += 1
            self.coalesced_singles += group_size
        self.max_coalesced = max(self.max_coalesced, group_size)

    def note_publish(self, verdict: Mapping[str, Any]) -> None:
        """Fold one publish verdict's decision + work counters in."""
        work = verdict["work"]
        self.publishes_total += 1
        if verdict["accepted"]:
            self.publishes_accepted += 1
        else:
            self.publishes_rejected += 1
        self.publish_multisets_evaluated += work["evaluated_multisets"]
        self.publish_multisets_reused += work["reused_multisets"]

    def as_dict(self) -> dict[str, Any]:
        """The service counters as the ``/stats -> service`` JSON section."""
        return {
            **super().as_dict(),
            "single_requests": self.single_requests,
            "batch_requests": self.batch_requests,
            "cache_fast_hits": self.cache_fast_hits,
            "series_fast_hits": self.series_fast_hits,
            "memo_hits": self.memo_hits,
            "coalesced_batches": self.coalesced_batches,
            "coalesced_singles": self.coalesced_singles,
            "max_coalesced": self.max_coalesced,
            "by_tenant": dict(self.by_tenant),
            "publishes_total": self.publishes_total,
            "publishes_accepted": self.publishes_accepted,
            "publishes_rejected": self.publishes_rejected,
            "publish_multisets_evaluated": self.publish_multisets_evaluated,
            "publish_multisets_reused": self.publish_multisets_reused,
            "cache_files_quarantined": self.cache_files_quarantined,
        }


class DisclosureService(JsonHttpServer):
    """A long-lived disclosure server over two mode-fixed engines.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back from
        :attr:`port` after :meth:`start` — the pattern tests and
        ``repro serve --port 0`` use).
    workers, cache_limit, kernel:
        Engine construction knobs, exactly as the CLI flags: each mode's
        engine gets ``workers`` worker processes of its own (above 1; 1
        keeps every batch in-process), a
        :class:`~repro.engine.plane.CachePolicy` bounded by
        ``cache_limit``, and the MINIMIZE1/MINIMIZE2 ``kernel`` selector
        (the exact engine always resolves to scalar).
    cache_path:
        Optional path *prefix* for cache persistence. Boot loads
        ``<prefix>.float.pkl`` / ``<prefix>.exact.pkl`` when present
        (counts in :attr:`loaded_entries`); :meth:`stop` writes both back.
        A file that fails to load (truncated, not a cache, or saved in the
        other arithmetic mode) does not stop the boot: it is renamed to
        ``<file>.corrupt``, so the shutdown save cannot overwrite it, and
        its engine starts empty.
    request_timeout:
        Seconds a keep-alive connection may sit idle, or take to deliver a
        complete request, before it is dropped (slow-loris guard; ``None``
        disables — only for trusted loopback use).
    max_connections:
        Cap on concurrently open connections (503 beyond it; ``None`` =
        unbounded). The counters behind it appear under
        ``/stats -> service.connections``.
    ledger_file:
        Optional SQLite path for the release ledger behind ``/publish``
        (in-memory when absent — publish still works, but release history
        dies with the process). In a sharded fleet the router hands each
        shard ``<prefix>.shard<i>.sqlite``.

    Notes
    -----
    With ``workers > 1`` the worker processes fork lazily on the first
    coalesced batch, i.e. from a process that already runs the event loop
    and engine threads. The worker target only touches modules this
    package has already imported, so the usual fork-under-threads import
    deadlock does not apply to our own code — but a plugin model whose
    evaluation forks further, or an embedding application holding its own
    locks across threads, should keep ``workers=1`` or drive a
    :class:`~repro.engine.engine.DisclosureEngine` built with a
    ``spawn``-context :class:`~repro.engine.backend.PersistentBackend`.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
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
        self.cache_path = Path(cache_path) if cache_path is not None else None

        def _engine_pair() -> dict[str, DisclosureEngine]:
            return {
                mode: DisclosureEngine(
                    exact=(mode == "exact"),
                    policy=CachePolicy(max_entries=cache_limit),
                    workers=workers,
                    kernel=kernel,
                )
                for mode in _MODES
            }

        self.engines: dict[str, DisclosureEngine] = _engine_pair()
        #: tenant id -> its default threat model (see :func:`load_tenants`).
        self.tenants: dict[str, dict] = (
            load_tenants(tenants) if tenants is not None else {}
        )
        #: tenant id -> its own mode-fixed engine pair. Structural cache
        #: isolation: a tenant's entries live in its own engines and
        #: persist to its own ``<prefix>.<tenant>[.shard<i>].<mode>.pkl``.
        self.tenant_engines: dict[str, dict[str, DisclosureEngine]] = {
            tenant: _engine_pair() for tenant in self.tenants
        }
        #: Lookup bodies -> validated identities, memoized by their bytes.
        self.resolver = RequestResolver(self.tenants)
        #: The release ledger behind ``/publish`` — persistent when
        #: ``ledger_file`` is given (the router hands each shard its own
        #: ``<prefix>.shard<i>.sqlite``), in-memory otherwise.
        self.ledger = ReleaseLedger(
            str(ledger_file) if ledger_file is not None else ":memory:"
        )
        #: Lazily-built ``(tenant-or-None, mode) ->``
        #: :class:`~repro.publish.engine.RepublicationEngine`, each wrapping
        #: this service's existing engine of that mode (publish work shares
        #: the engine cache with the interactive endpoints) and the shared
        #: ledger (tenant namespacing lives in the ledger rows).
        self._republishers: dict[
            tuple[str | None, str], RepublicationEngine
        ] = {}
        self.stats = ServiceStats()
        self.loaded_entries: dict[str, int] = dict.fromkeys(_MODES, 0)
        self.saved_entries: dict[str, int] = dict.fromkeys(_MODES, 0)
        self.tenant_loaded: dict[tuple[str, str], int] = {
            (tenant, mode): 0 for tenant in self.tenants for mode in _MODES
        }
        # All engine work runs on ONE executor thread: the engines are not
        # thread-safe, and the serialization is what piles concurrent
        # singles into the coalescer's queue while a group runs.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        #: Cache-missing singles and ``/safety`` requests, grouped by
        #: everything that selects an engine call (:attr:`RequestIdentity.group`).
        self._coalescer = Coalescer(self._run_group, name="repro-coalescer")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _mode_cache_file(self, mode: str, tenant: str | None = None) -> Path:
        assert self.cache_path is not None
        base = self.cache_path.name
        if tenant is not None:
            # Tenant goes before any router-assigned shard suffix, giving
            # <prefix>.<tenant>.shard<i>.<mode>.pkl in a sharded fleet and
            # <prefix>.<tenant>.<mode>.pkl for a single service.
            if _SHARD_SUFFIX.search(base):
                base = _SHARD_SUFFIX.sub(rf".{tenant}\1", base)
            else:
                base = f"{base}.{tenant}"
        return self.cache_path.with_name(f"{base}.{mode}.pkl")

    def _all_engines(self):
        """Every ``(tenant-or-None, mode, engine)`` this service carries."""
        for mode, engine in self.engines.items():
            yield None, mode, engine
        for tenant, engines in self.tenant_engines.items():
            for mode, engine in engines.items():
                yield tenant, mode, engine

    async def start(self) -> None:
        """Load persisted caches, start the coalescer and the socket server."""
        await self.start_local()
        await self.start_http()

    async def start_local(self) -> None:
        """The socketless half of :meth:`start`: load persisted caches and
        start the coalescer — everything but the listening socket.

        This is how a **shard** boots: the router embeds a
        :class:`DisclosureService` directly on its own event loop and
        feeds it through :meth:`~repro.service.httpbase.JsonHttpServer.dispatch`
        (or hands it resolved identities), so the engines, coalescer, stats
        and cache lifecycle behave exactly as in a standalone service —
        minus the socket.
        """
        if self.cache_path is not None:
            for tenant, mode, engine in self._all_engines():
                path = self._mode_cache_file(mode, tenant)
                if path.exists():
                    loaded = self._load_cache_file(engine, path)
                    if tenant is None:
                        self.loaded_entries[mode] = loaded
                    else:
                        self.tenant_loaded[(tenant, mode)] = loaded
        self._coalescer.start()

    def _load_cache_file(self, engine: DisclosureEngine, path: Path) -> int:
        """Load one persisted cache file into ``engine``; a file that fails
        to load is renamed to ``<file>.corrupt``, counted and warned about
        instead, and ``engine`` stays empty. Returns the entries loaded."""
        try:
            return engine.load_cache(path)
        except Exception as exc:  # any bad file must not stop the boot
            corrupt = path.with_name(path.name + ".corrupt")
            path.replace(corrupt)
            self.stats.cache_files_quarantined += 1
            warnings.warn(
                f"cache file {path} failed to load "
                f"({type(exc).__name__}: {exc}); moved to {corrupt}",
                RuntimeWarning,
                stacklevel=2,
            )
            return 0

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, fail queued work with 503,
        persist both caches, close the engines."""
        await self.stop_http()
        await self.stop_local()

    async def stop_local(self) -> None:
        """The socketless half of :meth:`stop` (inverse of
        :meth:`start_local`): stop the coalescer, fail queued work with
        503, persist both caches, close the engines."""
        self._stopping = True
        await self._coalescer.stop()
        if self.cache_path is not None:
            for tenant, mode, engine in self._all_engines():
                saved = engine.save_cache(self._mode_cache_file(mode, tenant))
                if tenant is None:
                    self.saved_entries[mode] = saved
        for _, _, engine in self._all_engines():
            engine.close()
        self._executor.shutdown(wait=True)
        self.ledger.close()

    # ------------------------------------------------------------------
    # The coalescer's group callback, and the endpoints
    # ------------------------------------------------------------------
    async def _run_group(self, key: tuple, items: list) -> list:
        """One coalescer group of ``(instance, bucketization)`` items, all
        with group ``key``: ``evaluate`` for a lone item, one
        ``evaluate_many`` batch for several, on the engine thread."""
        tenant, mode, _model, _cparams, k = key
        engine = self._engines_for(tenant)[mode]
        instance = items[0][0]
        bs = [bucketization for _, bucketization in items]
        loop = asyncio.get_running_loop()
        if len(bs) == 1:
            values = [
                await loop.run_in_executor(
                    self._executor,
                    lambda: engine.evaluate(bs[0], k, model=instance),
                )
            ]
        else:
            series = await loop.run_in_executor(
                self._executor,
                lambda: engine.evaluate_many(bs, [k], model=instance),
            )
            values = [s[k] for s in series]
        self.stats.note_coalesced(len(items))
        return values

    def _engines_for(self, tenant: str | None) -> dict[str, DisclosureEngine]:
        return self.engines if tenant is None else self.tenant_engines[tenant]

    async def _ep_lookup(self, path: str, body: bytes):
        """``/disclosure``, ``/safety`` and ``/compare``: resolve the body
        (through the request memo), then answer its identity from the
        cache on the event loop when every value it needs is cached, from
        the engine otherwise."""
        ident, payload = self.resolver.resolve(path, body)
        if payload is None:
            self.stats.memo_hits += 1
        cached = self.answer_from_cache(ident)
        if cached is not None:
            return 200, cached
        return await self.answer_from_engine(ident, body, payload)

    def answer_from_cache(self, ident: RequestIdentity) -> dict | None:
        """The whole answer of ``ident`` from the engine cache, or ``None``
        as soon as one ``(model, k, bucketization)`` misses.

        Runs on the event loop: :meth:`~repro.engine.engine.DisclosureEngine.peek_cached`
        is strictly read-only, so it is safe against the engine thread,
        and no ``Bucketization`` is built. Witness requests never come
        here, and models that are not signature-decomposable always miss.
        Bumps the counters of a served request only when it answers.
        """
        if ident.witness:
            return None
        engine = self._engines_for(ident.tenant)[ident.mode]
        peek = engine.peek_cached
        kind = ident.kind
        if kind == "single" or kind == "safety":
            value = peek(ident.instances[0], ident.k, ident.items[0])
            if value is None:
                return None
            answer = self._value_answer(ident, value)
            if kind == "single":
                self.stats.single_requests += 1
            self.stats.cache_fast_hits += 1
        else:
            series = []
            for m in ident.instances:
                for items in ident.items:
                    values = {}
                    for k in ident.ks:
                        value = peek(m, k, items)
                        if value is None:
                            return None
                        values[k] = value
                    series.append(values)
            if kind == "batch":
                answer = self._batch_answer(ident, series)
                self.stats.batch_requests += 1
            else:
                answer = self._compare_answer(ident, engine, series)
            self.stats.series_fast_hits += 1
        if ident.tenant is not None:
            self.stats.by_tenant[ident.tenant] += 1
        return answer

    async def answer_from_engine(
        self, ident: RequestIdentity, body: bytes | None, payload=None
    ):
        """Answer ``ident`` through the engine thread (singles and
        ``/safety`` through the coalescer). The value lists come from
        ``payload``, or from re-reading ``body`` when the identity came out
        of the memo."""
        if self._stopping:
            raise Unavailable("service is shutting down")
        if ident.tenant is not None:
            self.stats.by_tenant[ident.tenant] += 1
        if payload is None:
            payload = parse_json_body(body)
        engine = self._engines_for(ident.tenant)[ident.mode]
        loop = asyncio.get_running_loop()
        if ident.kind == "batch":
            bs = [
                bucketization_from_payload(buckets)
                for buckets in payload["bucketizations"]
            ]
            self.stats.batch_requests += 1
            series = await loop.run_in_executor(
                self._executor,
                lambda: engine.evaluate_many(
                    bs, ident.ks, model=ident.instances[0]
                ),
            )
            return 200, self._batch_answer(ident, series)
        bucketization = bucketization_from_payload(payload["buckets"])
        if ident.kind == "compare":
            comparison = await loop.run_in_executor(
                self._executor,
                lambda: engine.compare(
                    bucketization, ident.ks, models=ident.instances
                ),
            )
            return 200, self._compare_answer(
                ident, engine, list(comparison.values())
            )
        if ident.kind == "single":
            self.stats.single_requests += 1
        value = await self._coalescer.submit(
            ident.group, (ident.instances[0], bucketization)
        )
        answer = self._value_answer(ident, value)
        if ident.witness:
            instance = ident.instances[0]
            try:
                witness = await loop.run_in_executor(
                    self._executor,
                    lambda: engine.witness(bucketization, ident.k, model=instance),
                )
            except NotImplementedError as exc:
                raise BadRequest(str(exc)) from None
            answer["witness"] = encode_witness(witness)
        return 200, answer

    @staticmethod
    def _value_answer(ident: RequestIdentity, value) -> dict[str, Any]:
        """The answer of a single or ``/safety`` request."""
        if ident.kind == "safety":
            return {
                "model": ident.model,
                "k": ident.k,
                "c": ident.c,
                "exact": ident.mode == "exact",
                "safe": bool(value < ident.threshold),
                "value": encode_value(value),
            }
        return {
            "model": ident.model,
            "k": ident.k,
            "exact": ident.mode == "exact",
            "value": encode_value(value),
        }

    @staticmethod
    def _batch_answer(ident: RequestIdentity, series: list) -> dict[str, Any]:
        """The answer of a ``/disclosure`` batch, one series per
        bucketization."""
        return {
            "model": ident.model,
            "ks": list(ident.ks),
            "exact": ident.mode == "exact",
            "series": [encode_series(values) for values in series],
        }

    @staticmethod
    def _compare_answer(
        ident: RequestIdentity, engine: DisclosureEngine, series: list
    ) -> dict[str, Any]:
        """The answer of a ``/compare`` request, one series per model."""
        return {
            "ks": list(ident.ks),
            "exact": ident.mode == "exact",
            "kernel": engine.kernel,
            "series": {
                label: encode_series(values)
                for label, values in zip(
                    series_labels(m.name for m in ident.instances), series
                )
            },
        }

    # ------------------------------------------------------------------
    # Republication endpoints
    # ------------------------------------------------------------------
    def _republisher(
        self, tenant: str | None, mode: str
    ) -> RepublicationEngine:
        """The ``(tenant, mode)``-bound republication engine, built lazily
        over this service's existing engine of that mode (publish work
        shares its cache and persistence) and the shared ledger."""
        key = (tenant, mode)
        republisher = self._republishers.get(key)
        if republisher is None:
            republisher = RepublicationEngine(
                self._engines_for(tenant)[mode],
                self.ledger,
                tenant=tenant or "",
            )
            self._republishers[key] = republisher
        return republisher

    async def _ep_publish(self, path: str, body: bytes):
        """``POST /publish``: check and record the next version of a table.

        Runs on the same single engine-executor thread as every other
        engine call, so a publish serializes cleanly with coalesced
        batches and shares the engine cache with them.
        """
        payload = parse_json_body(body)
        resolver = self.resolver
        tenant = resolver.tenant(payload)
        if tenant is not None:
            self.stats.by_tenant[tenant] += 1
        mode = resolve_mode(payload)
        model, params, _cparams, _instance = resolver.threat(payload, tenant)
        table = require(payload, "table", str)
        if not TABLE_NAME.match(table):
            raise BadRequest(
                f"field 'table' must match {TABLE_NAME.pattern}"
            )
        k = require(payload, "k", int)
        if k < 0:
            raise BadRequest(f"k must be non-negative, got {k}")
        if "c" not in payload:
            raise BadRequest("missing required field 'c'")
        c = decode_value(payload["c"])  # ValueError -> 400
        full = require(payload, "full", bool, optional=True, default=False)
        want_witness = require(
            payload, "witness", bool, optional=True, default=False
        )
        bucketization = bucketization_from_payload(
            require(payload, "buckets", list)
        )
        republisher = self._republisher(tenant, mode)
        loop = asyncio.get_running_loop()
        verdict = await loop.run_in_executor(
            self._executor,
            lambda: republisher.publish(
                table,
                bucketization,
                c=c,
                k=k,
                model=model,
                params=params,
                full=full,
                with_witness=want_witness,
            ),
        )
        self.stats.note_publish(verdict)
        return 200, verdict

    async def _ep_releases(self):
        """``GET /releases``: summaries of every recorded release plus the
        ledger totals."""
        loop = asyncio.get_running_loop()
        releases = await loop.run_in_executor(
            self._executor, self.ledger.list_releases
        )
        counters = await loop.run_in_executor(
            self._executor, self.ledger.counters
        )
        return 200, {"releases": releases, "ledger": counters}

    async def _ep_release(self, path: str):
        """``GET /releases/{table}/{version}``: one full release record.

        The ``{table}`` segment may be tenant-qualified as
        ``{tenant}:{table}`` (tenant ids and table names never contain
        ``:``); the bare form reads the default namespace.
        """
        parts = path.split("/")
        if len(parts) != 4 or not parts[2] or not parts[3]:
            raise BadRequest(
                "release path must be /releases/{table}/{version}"
            )
        qualified, version_raw = parts[2], parts[3]
        tenant, _, table = qualified.rpartition(":")
        try:
            version = int(version_raw)
        except ValueError:
            raise BadRequest(
                f"version must be an integer, got {version_raw!r}"
            ) from None
        loop = asyncio.get_running_loop()
        release = await loop.run_in_executor(
            self._executor,
            lambda: self.ledger.get(table, version, tenant=tenant),
        )
        if release is None:
            return 404, {
                "error": f"no recorded release {qualified!r} v{version}"
            }
        return 200, {
            "table": release.table,
            "tenant": release.tenant or None,
            "version": release.version,
            "mode": release.mode,
            "model": release.model,
            "params": release.params,
            "k": release.k,
            "c": release.c,
            "accepted": release.accepted,
            "multiset": multiset_to_wire(release.multiset),
            "verdict": release.verdict,
        }

    async def _ep_models(self):
        models = []
        for name in available_adversaries():
            model = get_adversary(name)
            models.append(
                {
                    "name": name,
                    "supports_exact": model.supports_exact,
                    "supports_witness": model.supports_witness,
                    "unbounded_scale": model.unbounded_scale,
                    "monotone": model.monotone,
                    "signature_decomposable": model.signature_decomposable(),
                    # The machine-usable tunables: name/type/default per
                    # constructor parameter (was an opaque repr of the
                    # default instance's params_key).
                    "params": param_schema(name),
                }
            )
        return 200, {"models": models}

    async def _ep_stats(self):
        engines = {}
        for mode, engine in self.engines.items():
            # A plain attribute read: the engine thread may be starting a
            # batch, and only that thread ever builds a backend.
            backend = engine.backend
            backend_info: dict[str, Any] = {
                "name": "serial" if backend is None else backend.name,
                "parallel": backend is not None,
            }
            if isinstance(backend, PersistentBackend):
                backend_info.update(
                    batches_run=backend.batches_run,
                    signatures_shipped=backend.signatures_shipped,
                    respawns=backend.respawns,
                    workers_alive=backend.worker_count(),
                )
            engines[mode] = {
                "stats": engine.stats.as_dict(),
                "cache_entries": engine.cache_size(),
                "pinned_entries": engine.pinned_count(),
                "plane_signatures": len(engine.plane),
                "loaded_entries": self.loaded_entries[mode],
                "backend": backend_info,
            }
        service = self.stats.as_dict()
        service["connections"] = self.connections.as_dict()
        service["max_connections"] = self.max_connections
        loop = asyncio.get_running_loop()
        ledger = await loop.run_in_executor(
            self._executor, self.ledger.counters
        )
        answer = {"service": service, "engines": engines, "ledger": ledger}
        if self.tenants:
            answer["tenants"] = {
                tenant: {
                    "model": config["model"],
                    "requests": self.stats.by_tenant.get(tenant, 0),
                    "engines": {
                        mode: {
                            "cache_entries": engine.cache_size(),
                            "loaded_entries": self.tenant_loaded[
                                (tenant, mode)
                            ],
                        }
                        for mode, engine in self.tenant_engines[
                            tenant
                        ].items()
                    },
                }
                for tenant, config in self.tenants.items()
            }
        return 200, answer

    async def _ep_healthz(self):
        return 200, {
            "ok": True,
            "uptime_s": round(time.monotonic() - self.stats.started, 3),
        }


def parse_json_body(body: bytes) -> dict:
    """Decode a POST body into a JSON object (400 on anything else)."""
    try:
        payload = json.loads(body.decode("utf-8")) if body else None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BadRequest(f"invalid JSON body: {exc}") from None
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    return payload


class BackgroundService(BackgroundHost):
    """Run a :class:`DisclosureService` on a daemon thread (tests, benches).

    Usage::

        with BackgroundService() as bg:
            value = bg.client().disclosure(bucketization, k=3)

    The context manager owns the event loop: entering starts the loop
    thread and blocks until the server is bound (surfacing any startup
    error), exiting requests a graceful :meth:`DisclosureService.stop`
    and joins the thread.
    """

    def _make_service(self) -> DisclosureService:
        return DisclosureService(**self._kwargs)
