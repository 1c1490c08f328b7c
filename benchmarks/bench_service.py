"""The serving tier under load: latency, throughput, coalescing, sharding.

Five claims the serving layer makes over direct engine calls, measured
against in-process :class:`~repro.service.server.BackgroundService` /
:class:`~repro.service.router.BackgroundRouter` deployments:

- **warm requests are cheap**: after the first (cold: engine + HTTP stack
  + cache fill) request, repeats of the same question are answered from
  the shared cache — ``warm_ms`` should sit far under ``cold_ms``;
- **keep-alive beats request-per-connection**: the PR-4 protocol paid a
  TCP handshake per request and documented that as its throughput cap;
  the pooled keep-alive client sends the same questions over one reused
  connection (``keepalive.speedup``);
- **batching beats request-per-question**: one ``/disclosure`` batch body
  over M bucketizations vs. M sequential single requests
  (``batch_speedup``), since the batch pays one HTTP exchange and one
  engine call on the signature plane;
- **concurrent singles coalesce**: clients firing the same question
  concurrently are served from one engine batch — ``/stats`` records the
  coalesced batches, and the answers stay bit-identical to a direct
  :class:`~repro.engine.engine.DisclosureEngine`;
- **sharding preserves the bits and never costs throughput**: a 3-shard
  plane-key-routed deployment (``shard_mode="auto"``: in-process shards
  on a low-core box, subprocess shards when cores outnumber shards)
  answers a concurrent workload identically to the single service and to
  the direct engine (``sharded.identical_results``), and — thanks to the
  router's zero-reparse byte memo, cache-peek fast path and upstream
  coalescing — at least matches the single service's req/s
  (``sharded.requests_per_s_ratio >= 1.0``, enforced for non-tiny runs
  by ``scripts/check_bench_schema.py``);
- **routing is cheap**: the ``router_overhead`` microbench times one
  routing decision three ways — the old full-reparse path (build a
  ``Bucketization``), the keyed path (one signature pass over raw
  lists) and the steady-state byte-memo lookup;
- **tenants share nothing**: two tenants with disjoint default threat
  models sweep the same questions through one service — the
  ``multi_tenant`` section records per-tenant req/s, per-tenant engine
  cache entries and per-tenant cache files, with answers bit-identical
  to each tenant's direct engine (``cache_isolated`` /
  ``identical_results`` are enforced by the schema check).

``BENCH_service.json`` records all of it (schema-checked in CI via
``scripts/check_bench_schema.py``; ``BENCH_TINY=1`` shrinks the
workload), including p50/p95/p99 request latencies for the warm single
service and the sharded topology.
"""

from __future__ import annotations

import json
import random
import tempfile
import threading
import time
from pathlib import Path

from reporting import tiny_mode, write_bench_json

from repro.bucketization import Bucketization
from repro.engine import DisclosureEngine, get_adversary
from repro.service import BackgroundRouter, BackgroundService, ServiceClient
from repro.service.router import shard_key
from repro.service.wire import (
    bucket_lists,
    bucketization_from_payload,
    signature_items_from_lists,
)

K = 3
CONCURRENT_CLIENTS = 8
SHARDS = 3
#: Client threads for the sharded-vs-single comparison.
HAMMER_THREADS = 4


def _percentiles(latencies_s: list[float]) -> dict[str, float]:
    """p50/p95/p99 of per-request wall times, reported in milliseconds."""
    ordered = sorted(latencies_s)
    out: dict[str, float] = {}
    for point in (50, 95, 99):
        index = min(
            len(ordered) - 1, round(point / 100 * (len(ordered) - 1))
        )
        out[f"p{point}_ms"] = round(ordered[index] * 1000, 3)
    return out


def _router_overhead_microbench(b: Bucketization) -> dict[str, float]:
    """One routing decision, three ways: full reparse (the pre-refactor
    path: JSON -> ``Bucketization`` object graph -> plane key), keyed
    (JSON -> one signature pass over the raw lists -> plane key), and the
    steady-state byte-memo lookup that skips JSON entirely."""
    payload = {
        "buckets": bucket_lists(b),
        "k": K,
        "model": "implication",
        "exact": False,
    }
    body = json.dumps(payload).encode()
    iterations = 200 if tiny_mode() else 5000

    start = time.perf_counter()
    for _ in range(iterations):
        decoded = json.loads(body)
        items = bucketization_from_payload(
            decoded["buckets"]
        ).signature_items()
        shard_key("float", decoded["model"], (decoded["k"],), items) % SHARDS
    reparse_s = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(iterations):
        decoded = json.loads(body)
        items = signature_items_from_lists(decoded["buckets"])
        shard_key("float", decoded["model"], (decoded["k"],), items) % SHARDS
    keyed_s = time.perf_counter() - start

    memo = {("/disclosure", body): 1}
    start = time.perf_counter()
    for _ in range(iterations):
        memo.get(("/disclosure", body))
    memo_s = time.perf_counter() - start

    return {
        "iterations": iterations,
        "reparse_us": round(reparse_s / iterations * 1e6, 3),
        "keyed_us": round(keyed_s / iterations * 1e6, 3),
        "memo_us": round(memo_s / iterations * 1e6, 3),
        "keyed_speedup": round(reparse_s / keyed_s, 3) if keyed_s > 0 else 0.0,
        "memo_speedup": round(reparse_s / memo_s, 3) if memo_s > 0 else 0.0,
    }


#: Two tenants with disjoint default threat models — the isolation claim
#: is only meaningful if their parameterizations share nothing.
TENANTS = {
    "acme": {
        "model": "weighted",
        "params": {"weights": {"a": 2.5, "b": 0.5}},
    },
    "globex": {"model": "sampling", "params": {"samples": 400, "seed": 7}},
}


def _multi_tenant_bench(bs: list[Bucketization]) -> dict:
    """Two tenants sweeping the same question list through one service:
    per-tenant req/s, and the cache-isolation evidence — each tenant's
    answers land in that tenant's engines (own entry counts) and persist
    to that tenant's cache files, while staying bit-identical to a direct
    per-tenant :class:`DisclosureEngine`."""
    questions = bs[: 4 if tiny_mode() else 12]
    engine = DisclosureEngine()
    expected = {
        "acme": [
            engine.evaluate(
                b, K, model=get_adversary("weighted", weights={"a": 2.5, "b": 0.5})
            )
            for b in questions
        ],
        "globex": [
            engine.evaluate(
                b, K, model=get_adversary("sampling", samples=400, seed=7)
            )
            for b in questions
        ],
    }
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "fleet"
        with BackgroundService(
            tenants=TENANTS,
            cache_path=prefix,
        ) as bg:
            client = bg.client()
            answers: dict[str, list] = {tenant: [] for tenant in TENANTS}
            start = time.perf_counter()
            for tenant in TENANTS:
                for b in questions:
                    answers[tenant].append(
                        client.disclosure(b, K, tenant=tenant)
                    )
            elapsed = time.perf_counter() - start
            tenant_stats = client.stats()["tenants"]
            per_tenant_requests = {
                tenant: tenant_stats[tenant]["requests"] for tenant in TENANTS
            }
            per_tenant_cache_entries = {
                tenant: tenant_stats[tenant]["engines"]["float"][
                    "cache_entries"
                ]
                for tenant in TENANTS
            }
        tenant_files = sorted(
            entry.name
            for entry in Path(tmp).iterdir()
            if any(f".{tenant}." in entry.name for tenant in TENANTS)
        )
    requests = len(TENANTS) * len(questions)
    identical = all(answers[t] == expected[t] for t in TENANTS)
    # Isolation: every tenant computed its own answers (non-empty private
    # cache) and persisted them to its own files — nothing shared.
    cache_isolated = all(
        per_tenant_cache_entries[tenant] >= 1
        and f"fleet.{tenant}.float.pkl" in tenant_files
        for tenant in TENANTS
    )
    return {
        "tenants": sorted(TENANTS),
        "questions": len(questions),
        "requests": requests,
        "requests_per_s": round(requests / elapsed, 1) if elapsed > 0 else 0.0,
        "per_tenant_requests": per_tenant_requests,
        "per_tenant_cache_entries": per_tenant_cache_entries,
        "cache_files": tenant_files,
        "cache_isolated": cache_isolated,
        "identical_results": identical,
    }


def _workload() -> list[Bucketization]:
    """Distinct bucketizations over one small value universe (shared
    signatures — the shape a republishing service sees)."""
    tiny = tiny_mode()
    count = 8 if tiny else 48
    rng = random.Random(20070419)
    out = []
    for _ in range(count):
        buckets = [
            [rng.choice("abcdefgh") for _ in range(rng.randint(4, 10))]
            for _ in range(rng.randint(2, 5))
        ]
        out.append(Bucketization.from_value_lists(buckets))
    return out


def _sequential_singles(client: ServiceClient, bs, k: int) -> list:
    return [client.disclosure(b, k) for b in bs]


def _hammer(
    host: str, port: int, bs, k: int, passes: int
) -> tuple[float, list, list]:
    """``HAMMER_THREADS`` pooled clients each sweep the question list
    ``passes`` times; returns (wall seconds, every thread's answers,
    every request's wall time).

    One untimed warmup sweep fills the caches (and, behind a router, the
    byte memo) first, so the timed window measures the steady-state
    serving path both topologies claim — not the one-off engine fills,
    which are identical work for both and would only dilute the
    comparison with compute noise."""
    with ServiceClient(host, port, pool_size=1) as warmup:
        for b in bs:
            warmup.disclosure(b, k)
    results: list = [None] * HAMMER_THREADS
    latencies: list = [None] * HAMMER_THREADS
    barrier = threading.Barrier(HAMMER_THREADS + 1)

    def worker(index: int) -> None:
        client = ServiceClient(host, port, pool_size=2)
        barrier.wait(timeout=60)
        answers = []
        times = []
        for _ in range(passes):
            for b in bs:
                begin = time.perf_counter()
                answers.append(client.disclosure(b, k))
                times.append(time.perf_counter() - begin)
        results[index] = answers
        latencies[index] = times
        client.close()

    threads = [
        threading.Thread(target=worker, args=(i,))
        for i in range(HAMMER_THREADS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - start
    return elapsed, results, [t for times in latencies for t in times or []]


def test_service_latency_throughput_coalescing(benchmark):
    bs = _workload()
    repeats = 20 if tiny_mode() else 200

    with BackgroundService() as bg:
        client = bg.client()

        # Cold: the very first question this service has ever seen.
        start = time.perf_counter()
        cold_value = client.disclosure(bs[0], K)
        cold_s = time.perf_counter() - start

        # Warm: the same question repeatedly (pure cache + HTTP cost),
        # through the pooled keep-alive client — the default path.
        warm_latencies: list[float] = []

        def warm_round() -> list:
            values = []
            for _ in range(repeats):
                begin = time.perf_counter()
                values.append(client.disclosure(bs[0], K))
                warm_latencies.append(time.perf_counter() - begin)
            return values

        start = time.perf_counter()
        warm_values = benchmark.pedantic(warm_round, rounds=1, iterations=1)
        warm_elapsed = time.perf_counter() - start
        warm_s = warm_elapsed / repeats
        requests_per_s = repeats / warm_elapsed if warm_elapsed > 0 else 0.0
        assert set(warm_values) == {cold_value}

        # Keep-alive vs. one-connection-per-request on the same warm
        # question: same server, same cache hits, only the transport
        # differs — the delta is pure TCP setup/teardown.
        keepalive_client = ServiceClient(bg.host, bg.port, pool_size=2)
        per_connection_client = ServiceClient(
            bg.host, bg.port, keep_alive=False
        )
        start = time.perf_counter()
        for _ in range(repeats):
            keepalive_client.disclosure(bs[0], K)
        keepalive_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(repeats):
            per_connection_client.disclosure(bs[0], K)
        per_connection_elapsed = time.perf_counter() - start
        keepalive_client.close()
        keepalive_rps = (
            repeats / keepalive_elapsed if keepalive_elapsed > 0 else 0.0
        )
        per_connection_rps = (
            repeats / per_connection_elapsed
            if per_connection_elapsed > 0
            else 0.0
        )
        keepalive_speedup = (
            per_connection_elapsed / keepalive_elapsed
            if keepalive_elapsed > 0
            else float("inf")
        )

        # Request-per-question vs. one batch body over fresh questions.
        start = time.perf_counter()
        sequential_values = _sequential_singles(client, bs, K + 1)
        sequential_s = time.perf_counter() - start
        start = time.perf_counter()
        batch_series = client.disclosure_batch(bs, [K + 2])
        batch_s = time.perf_counter() - start
        batch_values = [series[K + 2] for series in batch_series]
        batch_speedup = sequential_s / batch_s if batch_s > 0 else float("inf")

    # Concurrent identical singles queued behind a held engine thread: the
    # service must serve everyone from (at most two) engine batches,
    # bit-identically. The engine thread is parked on a gate job until the
    # service has counted every single, so no timing window decides
    # whether a batch forms.
    with BackgroundService() as bg:
        host, port = bg.host, bg.port
        gate = threading.Event()
        bg.service._executor.submit(gate.wait)
        concurrent_values: list = [None] * CONCURRENT_CLIENTS

        def hit(index: int) -> None:
            concurrent_values[index] = ServiceClient(host, port).disclosure(
                bs[0], K
            )

        threads = [
            threading.Thread(target=hit, args=(i,))
            for i in range(CONCURRENT_CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60
        while (
            bg.service.stats.single_requests < CONCURRENT_CLIENTS
            and time.monotonic() < deadline
        ):
            time.sleep(0.001)
        gate.set()
        for thread in threads:
            thread.join(timeout=120)
        concurrent_s = time.perf_counter() - start
        service_stats = bg.client().stats()["service"]

    # Sharded vs. single under the same concurrent pooled-client hammer:
    # HAMMER_THREADS clients sweep the fresh question list (k = K+3).
    hammer_passes = 2 if tiny_mode() else 4
    hammer_requests = HAMMER_THREADS * hammer_passes * len(bs)
    with BackgroundService() as bg:
        single_elapsed, single_answers, _ = _hammer(
            bg.host, bg.port, bs, K + 3, hammer_passes
        )
    with BackgroundRouter(
        shards=SHARDS, shard_mode="auto"
    ) as bg:
        sharded_elapsed, sharded_answers, sharded_latencies = _hammer(
            bg.host, bg.port, bs, K + 3, hammer_passes
        )
        router_stats = bg.client().stats()["router"]
    single_rps = (
        hammer_requests / single_elapsed if single_elapsed > 0 else 0.0
    )
    sharded_rps = (
        hammer_requests / sharded_elapsed if sharded_elapsed > 0 else 0.0
    )

    # Ground truth: a direct engine on the same questions.
    engine = DisclosureEngine()
    expected_sweep = [engine.evaluate(b, K + 3) for b in bs] * hammer_passes
    identical = (
        cold_value == engine.evaluate(bs[0], K)
        and sequential_values == [engine.evaluate(b, K + 1) for b in bs]
        and batch_values == [engine.evaluate(b, K + 2) for b in bs]
        and concurrent_values == [engine.evaluate(bs[0], K)] * CONCURRENT_CLIENTS
    )
    sharded_identical = all(
        answers == expected_sweep for answers in sharded_answers
    ) and all(answers == expected_sweep for answers in single_answers)
    assert identical
    assert sharded_identical

    coalesced_batches = service_stats["coalesced_batches"]
    assert coalesced_batches >= 1, "no concurrent singles were coalesced"
    assert service_stats["single_requests"] == CONCURRENT_CLIENTS

    sharded_ratio = sharded_rps / single_rps if single_rps > 0 else 0.0
    router_overhead = _router_overhead_microbench(bs[0])
    multi_tenant = _multi_tenant_bench(bs)
    assert multi_tenant["identical_results"]
    assert multi_tenant["cache_isolated"]

    benchmark.extra_info["requests_per_s"] = round(requests_per_s, 1)
    benchmark.extra_info["batch_speedup"] = round(batch_speedup, 3)
    benchmark.extra_info["keepalive_speedup"] = round(keepalive_speedup, 3)
    benchmark.extra_info["sharded_requests_per_s"] = round(sharded_rps, 1)
    benchmark.extra_info["sharded_ratio"] = round(sharded_ratio, 3)

    write_bench_json(
        "service",
        {
            "backend": "serial",
            "workers": 1,
            "k": K,
            "questions": len(bs),
            "warm_repeats": repeats,
            "cold_ms": round(cold_s * 1000, 3),
            "warm_ms": round(warm_s * 1000, 3),
            "requests_per_s": round(requests_per_s, 1),
            "sequential_s": round(sequential_s, 4),
            "batch_s": round(batch_s, 4),
            "batch_speedup": round(batch_speedup, 3),
            "concurrent_clients": CONCURRENT_CLIENTS,
            "concurrent_s": round(concurrent_s, 4),
            "coalesced_batches": coalesced_batches,
            "coalesced_singles": service_stats["coalesced_singles"],
            "max_coalesced": service_stats["max_coalesced"],
            "identical_results": identical,
            "latency": _percentiles(warm_latencies),
            "router_overhead": router_overhead,
            "keepalive": {
                "warm_repeats": repeats,
                "requests_per_s": round(keepalive_rps, 1),
                "per_connection_requests_per_s": round(per_connection_rps, 1),
                "speedup": round(keepalive_speedup, 3),
            },
            "sharded": {
                "shards": SHARDS,
                "shard_mode": router_stats["shard_mode"],
                "clients": HAMMER_THREADS,
                "requests": hammer_requests,
                "requests_per_s": round(sharded_rps, 1),
                "single_requests_per_s": round(single_rps, 1),
                "requests_per_s_ratio": round(sharded_ratio, 3),
                **_percentiles(sharded_latencies),
                "split_batches": router_stats["split_batches"],
                "restarts": router_stats["restarts"],
                "route_memo_hits": router_stats["route_memo_hits"],
                "reparse_avoided": router_stats["reparse_avoided"],
                "fast_hits": router_stats["fast_hits"],
                "coalesced_batches": router_stats["coalesced_batches"],
                "identical_results": sharded_identical,
            },
            "multi_tenant": multi_tenant,
        },
    )
