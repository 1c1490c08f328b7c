"""End-to-end tests for the sharded service tier.

The router's contract:

- a 3-shard deployment behind the plane-key hash router answers
  **bit-identically** to a direct single
  :class:`~repro.engine.engine.DisclosureEngine`, in both arithmetic
  modes, under >= 8 concurrent pooled keep-alive clients;
- batch requests are split by per-bucketization plane key and merged
  losslessly in the original order;
- routing is a *stable* function of the plane key — the same question
  always lands on the same shard (cache affinity);
- every shard is embedded in the router process, on any host;
- ``/stats`` and ``/healthz`` aggregate across shards; shutdown persists
  one cache file pair per shard under the shared prefix.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
from fractions import Fraction
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.bucketization import Bucketization
from repro.engine import DisclosureEngine, canonical_params, get_adversary
from repro.service import (
    BackgroundService,
    ServiceClient,
    ServiceError,
    ShardRouter,
)
from repro.service.httpbase import (
    MAX_BODY_BYTES,
    MAX_LINE_BYTES,
    PREFIX_ROUTES,
    ROUTES,
)
from repro.service.router import BackgroundRouter, shard_key

SHARDS = 3
CLIENTS = 8


def _random_bucketizations(count: int, seed: int) -> list[Bucketization]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        buckets = [
            [rng.choice("abcdef") for _ in range(rng.randint(3, 9))]
            for _ in range(rng.randint(1, 4))
        ]
        out.append(Bucketization.from_value_lists(buckets))
    return out


@pytest.fixture(scope="module", params=["inproc"])
def router():
    """One shared 3-shard deployment for every read-mostly test (the
    ``inproc`` id names the kind of shard it embeds)."""
    with BackgroundRouter(shards=SHARDS) as bg:
        yield bg


@pytest.fixture(scope="module")
def client(router) -> ServiceClient:
    return router.client()


# ---------------------------------------------------------------------------
# The hash itself: stable, deterministic, key-sensitive
# ---------------------------------------------------------------------------
class TestShardKey:
    def test_stable_across_calls(self):
        b = Bucketization.from_value_lists([["a", "a", "b"], ["c", "d"]])
        sig = b.signature_items()
        assert shard_key("float", "implication", (3,), sig) == shard_key(
            "float", "implication", (3,), sig
        )

    def test_sensitive_to_every_component(self):
        b = Bucketization.from_value_lists([["a", "a", "b"], ["c", "d"]])
        sig = b.signature_items()
        base = shard_key("float", "implication", (3,), sig)
        assert base != shard_key("exact", "implication", (3,), sig)
        assert base != shard_key("float", "negation", (3,), sig)
        assert base != shard_key("float", "implication", (4,), sig)
        other = Bucketization.from_value_lists([["a", "b", "c", "d", "e"]])
        assert base != shard_key(
            "float", "implication", (3,), other.signature_items()
        )

    def test_same_shape_same_shard(self):
        """Cache affinity survives value renaming: the plane interns
        signatures, not values, and the router hashes the same way."""
        left = Bucketization.from_value_lists([["a", "a", "b"], ["c", "d"]])
        right = Bucketization.from_value_lists([["x", "x", "y"], ["p", "q"]])
        assert left.signature_items() == right.signature_items()
        assert shard_key(
            "float", "implication", (2,), left.signature_items()
        ) == shard_key("float", "implication", (2,), right.signature_items())


# ---------------------------------------------------------------------------
# Bit-identical answers through the sharded topology
# ---------------------------------------------------------------------------
class TestShardedEquivalence:
    @pytest.mark.parametrize("exact", [False, True])
    def test_concurrent_pooled_clients_bit_identical(self, router, exact):
        bs = _random_bucketizations(CLIENTS, seed=1400 + exact)
        models = ["implication", "negation", "distribution", "weighted"]
        ks = [0, 1, 2, 3]
        jobs = [
            (bs[i], models[i % len(models)], ks[i % len(ks)])
            for i in range(CLIENTS)
        ]
        shared = ServiceClient(router.host, router.port, pool_size=CLIENTS)
        results: list = [None] * len(jobs)
        errors: list = []
        barrier = threading.Barrier(len(jobs))

        def hit(index: int) -> None:
            try:
                barrier.wait(timeout=60)
                b, model, k = jobs[index]
                results[index] = shared.disclosure(
                    b, k, model=model, exact=exact
                )
            except BaseException as exc:  # surfaces in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=hit, args=(i,)) for i in range(len(jobs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        shared.close()
        assert not errors
        engine = DisclosureEngine(exact=exact)
        for (b, model, k), served in zip(jobs, results):
            assert served == engine.evaluate(b, k, model=model), (
                f"sharded value diverged for {model} k={k}"
            )

    def test_batch_split_and_merged_losslessly(self, router, client):
        bs = _random_bucketizations(12, seed=77)
        ks = [1, 3]
        before = client.stats()["router"]["split_batches"]
        served = client.disclosure_batch(bs, ks, exact=True)
        direct = DisclosureEngine(exact=True).evaluate_many(bs, ks)
        assert served == direct  # order preserved, bits preserved
        after = client.stats()["router"]["split_batches"]
        # 12 random shapes across 3 shards: the batch really was split.
        assert after == before + 1

    def test_single_shard_batch_forwarded_whole(self, router, client):
        """Every item hashing to one shard skips the split/merge machinery:
        the router forwards the original body and counts a whole batch."""
        # Same signature shape => same shard key (values are irrelevant).
        bs = [
            Bucketization.from_value_lists([[v, v, "other"], ["p", "q"]])
            for v in ("a", "b", "c", "d")
        ]
        ks = [1, 2]
        before = client.stats()["router"]
        served = client.disclosure_batch(bs, ks)
        direct = DisclosureEngine().evaluate_many(bs, ks)
        assert served == direct
        after = client.stats()["router"]
        assert after["whole_batches"] == before["whole_batches"] + 1
        assert after["split_batches"] == before["split_batches"]

    def test_safety_and_compare_and_witness_proxy(self, router, client):
        b = Bucketization.from_value_lists(
            [["Flu", "Flu", "Cancer"], ["Flu", "Mumps", "Cancer"]]
        )
        engine = DisclosureEngine()
        answer = client.safety(b, 0.9, 1)
        assert answer["safe"] == engine.is_safe(b, 0.9, 1)
        assert answer["value"] == engine.evaluate(b, 1)
        served = client.compare(b, [0, 1, 2])
        direct = engine.compare(b, [0, 1, 2])
        assert served == {name: dict(s) for name, s in direct.items()}
        witness = client.witness(b, 2, model="negation")
        assert witness["witness"]["disclosure"] == witness["value"]

    def test_models_proxied(self, router, client):
        from repro.engine import available_adversaries

        assert [m["name"] for m in client.models()] == list(
            available_adversaries()
        )


# ---------------------------------------------------------------------------
# Cache-affinity routing
# ---------------------------------------------------------------------------
class TestAffinity:
    def test_identical_requests_land_on_one_shard(self, router, client):
        b = Bucketization.from_value_lists(
            [["affinity", "affinity", "probe", "probe", "x"]]
        )
        before = {
            entry["shard"]: entry["service"]["single_requests"]
            for entry in client.stats()["shards"]
        }
        repeats = 6
        for _ in range(repeats):
            client.disclosure(b, 2, model="negation")
        after = {
            entry["shard"]: entry["service"]["single_requests"]
            for entry in client.stats()["shards"]
        }
        deltas = {index: after[index] - before[index] for index in after}
        grew = [index for index, delta in deltas.items() if delta > 0]
        assert len(grew) == 1, f"affinity broken: deltas {deltas}"
        assert deltas[grew[0]] == repeats
        # ...and the owning shard served the repeats from its cache —
        # either the engine cache proper or the serving-layer fast peek
        # over it (the router's inproc fast path and the shard's own
        # event-loop fast path both count in cache_fast_hits).
        owner = next(
            entry
            for entry in client.stats()["shards"]
            if entry["shard"] == grew[0]
        )
        hits = (
            owner["engines"]["float"]["stats"]["cache_hits"]
            + owner["service"]["cache_fast_hits"]
        )
        assert hits >= repeats - 1


# ---------------------------------------------------------------------------
# Parametric adversaries through the sharded topology
# ---------------------------------------------------------------------------
class TestParametricRouting:
    def test_params_join_the_shard_key(self):
        b = Bucketization.from_value_lists([["a", "a", "b"], ["c", "d"]])
        sig = b.signature_items()
        ordered = canonical_params({"weights": {"b": 1.0, "a": 2.0}})
        reordered = canonical_params({"weights": {"a": 2.0, "b": 1.0}})
        base = shard_key("float", "weighted", (2,), sig, ordered)
        # Request-side key order is irrelevant: one canonical identity.
        assert base == shard_key("float", "weighted", (2,), sig, reordered)
        assert base != shard_key(
            "float", "weighted", (2,), sig,
            canonical_params({"weights": {"a": 2.0, "b": 1.5}}),
        )
        # The legacy 4-arg call is the empty-params, tenantless key.
        assert shard_key("float", "implication", (3,), sig) == shard_key(
            "float", "implication", (3,), sig, (), None
        )
        assert base != shard_key("float", "weighted", (2,), sig, ordered, "t")

    def test_shard_key_is_a_pure_function_of_values(self):
        """Two canonicalizations of the same params built independently
        (fresh objects, fresh Fractions) must hash identically — the key
        may never depend on instance identity or repr-of-instance."""
        b = Bucketization.from_value_lists([["a", "a", "b"], ["c", "d"]])
        first = shard_key(
            "exact", "probabilistic", (1,), b.signature_items(),
            canonical_params({"confidence": Fraction(1, 3)}),
        )
        second = shard_key(
            "exact", "probabilistic", (1,),
            Bucketization.from_value_lists(
                [["a", "a", "b"], ["c", "d"]]
            ).signature_items(),
            canonical_params({"confidence": Fraction(2, 6)}),
        )
        assert first == second

    def test_parametric_singles_bit_identical(self, router, client):
        b = Bucketization.from_value_lists(
            [["a", "a", "b", "c"], ["a", "b", "d", "d"]]
        )
        engine = DisclosureEngine()
        low = client.disclosure(
            b, 1, model="probabilistic",
            params={"confidence": Fraction(1, 3)},
        )
        high = client.disclosure(
            b, 1, model="probabilistic",
            params={"confidence": Fraction(2, 3)},
        )
        assert low == engine.evaluate(
            b, 1, model=get_adversary("probabilistic", confidence=Fraction(1, 3))
        )
        assert high == engine.evaluate(
            b, 1, model=get_adversary("probabilistic", confidence=Fraction(2, 3))
        )
        assert low != high  # two param sets cannot share a cache entry
        weighted = client.disclosure(
            b, 2, model="weighted", params={"weights": {"a": 3.0}}
        )
        assert weighted == engine.evaluate(
            b, 2, model=get_adversary("weighted", weights={"a": 3.0})
        )
        sampled = client.disclosure(
            b, 2, model="sampling", params={"samples": 512, "seed": 9}
        )
        assert sampled == engine.evaluate(
            b, 2, model=get_adversary("sampling", samples=512, seed=9)
        )

    def test_parametric_requests_keep_cache_affinity(self, router, client):
        b = Bucketization.from_value_lists(
            [["route", "route", "probe", "x", "y"]]
        )
        params = {"weights": {"route": 2.0}}
        before = {
            entry["shard"]: entry["service"]["single_requests"]
            for entry in client.stats()["shards"]
        }
        repeats = 5
        for _ in range(repeats):
            client.disclosure(b, 2, model="weighted", params=params)
        after = {
            entry["shard"]: entry["service"]["single_requests"]
            for entry in client.stats()["shards"]
        }
        deltas = {index: after[index] - before[index] for index in after}
        grew = [index for index, delta in deltas.items() if delta > 0]
        assert len(grew) == 1, f"params affinity broken: deltas {deltas}"
        assert deltas[grew[0]] == repeats

    def test_parametric_route_stable_across_router_restarts(self):
        """The owning shard for an explicit-params request is a durable
        function of the question — a restarted router (fresh shards,
        fresh model instances) routes it to the same shard index."""
        b = Bucketization.from_value_lists(
            [["s", "s", "t", "a"], ["s", "t", "b", "b"]]
        )
        params = {"weights": {"s": 2.0, "t": 0.5}}

        def owning_shard() -> tuple[int, float]:
            with BackgroundRouter(shards=SHARDS) as bg:
                client = bg.client()
                value = client.disclosure(
                    b, 1, model="weighted", params=params
                )
                counts = {
                    entry["shard"]: entry["service"]["single_requests"]
                    for entry in client.stats()["shards"]
                }
                (owner,) = [s for s, n in counts.items() if n > 0]
                return owner, value

        first_owner, first_value = owning_shard()
        second_owner, second_value = owning_shard()
        assert first_owner == second_owner
        assert first_value == second_value

    def test_unknown_tenant_rejected_before_routing(self, router, client):
        with pytest.raises(ServiceError) as excinfo:
            client.disclosure(
                Bucketization.from_value_lists([["a", "b"]]), 1,
                tenant="nope",
            )
        assert excinfo.value.status == 400
        assert "no tenants configured" in excinfo.value.message

    def test_bad_params_rejected_at_the_router(self, router, client):
        for payload in (
            {"buckets": [["a", "b"]], "k": 1, "params": 5},
            {"buckets": [["a", "b"]], "k": 1, "params": {"x": True}},
            {
                "buckets": [["a", "b"]],
                "k": 1,
                "model": "sampling",
                "params": {"samples": 0},
            },
        ):
            with pytest.raises(ServiceError) as excinfo:
                client.request("POST", "/disclosure", payload)
            assert excinfo.value.status == 400


# ---------------------------------------------------------------------------
# Multi-tenant topologies behind the router
# ---------------------------------------------------------------------------
ROUTER_TENANTS = {
    "acme": {"model": "weighted", "params": {"weights": {"p": 2.5}}},
    "globex": {"model": "sampling", "params": {"samples": 500, "seed": 7}},
}


class TestRouterTenants:
    @pytest.mark.parametrize("shard_mode", ["inproc"])
    def test_tenants_served_and_isolated(self, tmp_path, shard_mode):
        prefix = tmp_path / "fleet"
        b = Bucketization.from_value_lists(
            [["p", "p", "q", "r"], ["p", "q", "s", "t"]]
        )
        engine = DisclosureEngine()
        with BackgroundRouter(
            shards=2,
            cache_path=prefix,
            tenants=ROUTER_TENANTS,
        ) as bg:
            client = bg.client()
            assert all(
                entry["mode"] == shard_mode
                for entry in client.health()["shards"]
            )
            acme = client.disclosure(b, 2, tenant="acme")
            globex = client.disclosure(b, 2, tenant="globex")
            plain = client.disclosure(b, 2)
            assert acme == engine.evaluate(
                b, 2, model=get_adversary("weighted", weights={"p": 2.5})
            )
            assert globex == engine.evaluate(
                b, 2, model=get_adversary("sampling", samples=500, seed=7)
            )
            assert plain == engine.evaluate(b, 2)
            assert acme != plain  # tenant defaults engaged through routing
            stats = client.stats()
            assert set(stats["tenants"]) == {"acme", "globex"}
            assert stats["tenants"]["acme"]["requests"] >= 1
            assert stats["tenants"]["globex"]["requests"] >= 1
            # Each tenant's questions live in that tenant's engines only.
            tenant_entries = {
                tenant: sum(
                    entry["tenants"][tenant]["engines"]["float"][
                        "cache_entries"
                    ]
                    for entry in stats["shards"]
                )
                for tenant in ROUTER_TENANTS
            }
            assert tenant_entries["acme"] >= 1
            assert tenant_entries["globex"] >= 1
        # One cache file per (tenant, shard, mode) under the shared prefix.
        for index in range(2):
            for mode in ("float", "exact"):
                assert (tmp_path / f"fleet.shard{index}.{mode}.pkl").exists()
                for tenant in ROUTER_TENANTS:
                    assert (
                        tmp_path / f"fleet.{tenant}.shard{index}.{mode}.pkl"
                    ).exists()

    def test_tenants_file_cli_topology(self, tmp_path):
        """``repro serve --shards 2 --tenants FILE`` — each embedded shard
        reads the same JSON file the router validated."""
        if not hasattr(signal, "SIGTERM"):
            pytest.skip("needs POSIX signals")
        import json as json_module

        tenants_file = tmp_path / "tenants.json"
        tenants_file.write_text(
            json_module.dumps(ROUTER_TENANTS), encoding="utf-8"
        )
        repo_root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--shards",
                "2",
                "--workers",
                "1",
                "--tenants",
                str(tenants_file),
                "--cache-file",
                str(tmp_path / "fleet"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=repo_root,
        )
        try:
            port_line = process.stdout.readline()
            process.stdout.readline()  # topology line
            match = re.search(r"http://[^:]+:(\d+)", port_line)
            assert match, f"no port in {port_line!r}"
            client = ServiceClient("127.0.0.1", int(match.group(1)))
            b = Bucketization.from_value_lists(
                [["p", "p", "q", "r"], ["p", "q", "s", "t"]]
            )
            engine = DisclosureEngine()
            assert client.disclosure(b, 2, tenant="acme") == engine.evaluate(
                b, 2, model=get_adversary("weighted", weights={"p": 2.5})
            )
            assert client.stats()["tenants"]["acme"]["requests"] >= 1
            client.close()
        finally:
            process.send_signal(signal.SIGTERM)
            _, err = process.communicate(timeout=120)
        assert process.returncode == 0, err

    def test_bad_tenants_file_fails_boot(self, tmp_path):
        with pytest.raises(ValueError, match="unknown model"):
            ShardRouter(
                shards=2, tenants={"t": {"model": "martian"}}
            )


# ---------------------------------------------------------------------------
# The one kind of shard, and the routing hot path
# ---------------------------------------------------------------------------
#: The ``/stats -> router`` keys perfbench's ``stat_counters`` and
#: ``run_http`` read; a missing one makes a benchmark run raise.
PERFBENCH_ROUTER_KEYS = {
    "route_memo_hits",
    "fast_hits",
    "proxied",
    "requests_total",
    "coalesced_batches",
    "shard_mode",
}


class TestShardModes:
    def test_shards_are_embedded_on_any_host(self, monkeypatch):
        """However many cores the host has, every shard runs inside the
        router process, and ``/stats`` keeps every key perfbench reads."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        with BackgroundRouter(shards=2) as bg:
            with bg.client() as client:
                health = client.health()
                router = client.stats()["router"]
        assert [entry["mode"] for entry in health["shards"]] == ["inproc"] * 2
        assert router["shard_mode"] == "inproc"
        assert PERFBENCH_ROUTER_KEYS <= set(router)
        assert router["coalesced_batches"] == 0

    def test_zero_reparse_memo_and_inproc_fast_path(self):
        """Byte-identical repeats are routed without JSON parsing
        (route_memo_hits / reparse_avoided) and, on in-process shards,
        answered straight from the cache peek (fast_hits) — bit-identical
        to the engine the whole way."""
        b = Bucketization.from_value_lists(
            [["m", "m", "e", "m", "o"], ["f", "a", "s", "t"]]
        )
        expect = DisclosureEngine().evaluate(b, 2)
        with BackgroundRouter(shards=2) as bg:
            client = bg.client()
            repeats = 5
            for _ in range(repeats):
                assert client.disclosure(b, 2) == expect
            stats = client.stats()
            router = stats["router"]
            assert router["shard_mode"] == "inproc"
            assert router["route_memo_hits"] >= repeats - 1
            assert router["reparse_avoided"] >= repeats - 1
            assert router["fast_hits"] >= repeats - 1
            assert stats["totals"]["cache_fast_hits"] >= repeats - 1


# ---------------------------------------------------------------------------
# Validation and aggregation
# ---------------------------------------------------------------------------
class TestRouterEndpoints:
    def test_bad_bodies_are_400_at_the_router(self, router, client):
        for payload in (
            {"buckets": [], "k": 1},
            {"buckets": [["a"]], "k": "three"},
            {"buckets": [["a"]], "k": 1, "model": "martian"},
            {"bucketizations": [], "ks": [1]},
            {"bucketizations": [[["a"]]], "ks": []},
        ):
            with pytest.raises(ServiceError) as excinfo:
                client.request("POST", "/disclosure", payload)
            assert excinfo.value.status == 400

    def test_shard_400_proxied_back(self, router, client):
        with pytest.raises(ServiceError) as excinfo:
            client.disclosure(
                Bucketization.from_value_lists([["a", "b"]]), -1
            )
        assert excinfo.value.status == 400

    def test_healthz_aggregates_all_shards(self, router, client):
        health = client.health()
        assert health["ok"] is True
        assert len(health["shards"]) == SHARDS
        assert all(entry["ok"] for entry in health["shards"])

    def test_stats_aggregates_router_and_shards(self, router, client):
        client.disclosure(
            Bucketization.from_value_lists([["s", "t", "a", "t"]]), 1
        )
        stats = client.stats()
        assert {"router", "totals", "shards"} <= set(stats)
        assert stats["router"]["shards"] == SHARDS
        assert stats["router"]["proxied"] >= 1
        assert "connections" in stats["router"]
        assert len(stats["shards"]) == SHARDS
        assert stats["totals"]["single_requests"] >= 1
        for entry in stats["shards"]:
            assert {"service", "engines", "shard"} <= set(entry)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ShardRouter(shards=0)


# ---------------------------------------------------------------------------
# One resolver: the same 400 (and the same answer bytes) in every topology
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def single_service():
    with BackgroundService() as bg:
        yield bg


def _send(
    host, path: str, body: bytes = b"", method: str = "POST"
) -> tuple[int, bytes]:
    connection = HTTPConnection(host.host, host.port, timeout=60)
    try:
        connection.request(
            method, path, body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


#: Rejected lookup bodies, one defect or several (the first defect in the
#: service's check order names the error).
REJECTED = [
    ("/disclosure", b"{not json"),
    ("/disclosure", b"[1, 2]"),
    ("/disclosure", {"buckets": [], "k": -1}),
    ("/disclosure", {"buckets": [["a"]], "k": "x", "model": "martian"}),
    ("/disclosure", {"k": 1, "exact": "yes", "tenant": 5}),
    ("/disclosure", {"buckets": [[]], "k": 1, "witness": "no"}),
    ("/disclosure", {"buckets": [["a", {"v": 1}]], "k": 1}),
    (
        "/disclosure",
        {"buckets": [], "k": 1, "model": "probabilistic",
         "params": {"bogus": 1}},
    ),
    ("/disclosure", {"buckets": [["a"]], "k": 1, "params": 5}),
    ("/disclosure", {"bucketizations": [], "ks": [-1]}),
    ("/disclosure", {"bucketizations": [[["a"]], []], "ks": [-1, 2]}),
    ("/disclosure", {"bucketizations": [[["a"]]], "ks": [2, -3, -1]}),
    ("/disclosure", {"bucketizations": "x", "ks": [], "model": "martian"}),
    ("/safety", {"buckets": [], "k": 1, "c": 5}),
    ("/safety", {"buckets": [["a"]], "k": -1, "c": 0.5}),
    ("/safety", {"buckets": [], "k": -1, "c": 0.5}),
    ("/safety", {"buckets": [["a"]], "k": 1, "c": True}),
    ("/safety", {"buckets": [["a"]], "k": 1}),
    ("/safety", {"buckets": [["a"]], "k": 1, "c": -1, "model": "weighted"}),
    ("/compare", {"buckets": [], "ks": [1], "models": ["nope"]}),
    ("/compare", {"buckets": [["a"]], "ks": [], "models": "x"}),
    ("/compare", {"buckets": [["a"]], "ks": [1], "models": []}),
    ("/compare", {"buckets": [["a"]], "ks": [1], "models": ["negation", 3]}),
    ("/compare", {"buckets": [], "ks": [-1]}),
    ("/compare", {"buckets": [["a"]], "ks": [-1, 1]}),
    (
        "/compare",
        {"buckets": [["a"]], "ks": [1], "models": ["probabilistic"],
         "params": {"confidence": "3/2"}},
    ),
    # Non-finite thresholds: Python's json reads NaN and Infinity literals.
    ("/safety", b'{"buckets": [["a", "a", "b"]], "k": 1, "c": NaN}'),
    ("/safety", b'{"buckets": [["a"]], "k": 1, "c": Infinity, "model": "weighted"}'),
    (
        "/safety",
        b'{"buckets": [["a"]], "k": 1, "c": Infinity, "model": "weighted", '
        b'"exact": true}',
    ),
    ("/safety", b'{"buckets": [["a"]], "k": 1, "c": -Infinity}'),
]


class TestOneResolver:
    @pytest.mark.parametrize(
        "path,body", REJECTED, ids=[f"{p}-{i}" for i, (p, _) in enumerate(REJECTED)]
    )
    def test_same_400_in_every_topology(self, router, single_service, path, body):
        data = body if isinstance(body, bytes) else json.dumps(body).encode()
        expect = _send(single_service, path, data)
        assert expect[0] == 400
        memos = [single_service.service.resolver._memo, router.service.resolver._memo]
        sizes = [len(memo) for memo in memos]
        # Sent twice everywhere: a rejected body is never memoized, so the
        # second answer is re-validated and still the same 400.
        for host in (single_service, router):
            assert _send(host, path, data) == expect
            assert _send(host, path, data) == expect
        assert [len(memo) for memo in memos] == sizes

    def test_same_answer_bytes_in_every_topology(self, router, single_service):
        """Cold, memoized and fully cached answers of every lookup kind are
        byte-identical through a router (split batches included) and a
        single service."""
        bs = _random_bucketizations(6, seed=1717)
        lists = [[list(b.sensitive_values) for b in x.buckets] for x in bs]
        bodies = [
            ("/disclosure", {"buckets": lists[0], "k": 2, "model": "negation"}),
            ("/disclosure", {"bucketizations": lists, "ks": [3, 0, 2]}),
            (
                "/disclosure",
                {"bucketizations": lists[:3], "ks": [1, 2], "exact": True},
            ),
            ("/safety", {"buckets": lists[1], "k": 1, "c": 0.8}),
            (
                "/compare",
                {"buckets": lists[2], "ks": [2, 1],
                 "models": ["negation", "negation", "implication"]},
            ),
        ]
        for _round in range(3):
            for path, body in bodies:
                data = json.dumps(body).encode()
                expect = _send(single_service, path, data)
                assert expect[0] == 200
                assert _send(router, path, data) == expect
        with router.client() as client:
            totals = client.stats()["totals"]
        assert totals["series_fast_hits"] >= 3


#: Every registered route, with a concrete path for each prefix route.
ROUTE_PATHS = [(path, verb) for path, (verb, _) in ROUTES.items()] + [
    (f"{prefix}t/1", verb) for prefix, (verb, _) in PREFIX_ROUTES.items()
]


class TestOneRouteTable:
    """Both tiers dispatch from one table, so they refuse alike."""

    @pytest.mark.parametrize(
        "path,verb", ROUTE_PATHS, ids=[path for path, _ in ROUTE_PATHS]
    )
    def test_wrong_verb_is_the_same_405(self, router, single_service, path, verb):
        wrong = "GET" if verb == "POST" else "POST"
        expect = _send(single_service, path, method=wrong)
        assert expect[0] == 405
        assert json.loads(expect[1]) == {"error": f"{path} only accepts {verb}"}
        assert _send(router, path, method=wrong) == expect

    @pytest.mark.parametrize("path", ["/nowhere", "/", "/releasesx", "/stats/"])
    def test_unknown_path_is_the_same_404(self, router, single_service, path):
        expect = _send(single_service, path, method="GET")
        assert expect[0] == 404
        assert json.loads(expect[1]) == {"error": f"unknown path {path!r}"}
        assert _send(router, path, method="GET") == expect


class TestOversizedBody:
    @staticmethod
    def _reply(host, head: bytes) -> bytes:
        """Send only ``head``; read until the server closes the connection
        (a hang here is a failure)."""
        with socket.create_connection((host.host, host.port), timeout=30) as sock:
            sock.sendall(head)
            data = b""
            while chunk := sock.recv(65536):
                data += chunk
        return data

    @classmethod
    def _declared(cls, host, length: str) -> bytes:
        """The reply to a request head declaring ``length``."""
        return cls._reply(
            host,
            f"POST /disclosure HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {length}\r\n\r\n".encode(),
        )

    def test_over_limit_is_413_and_closes(self, router, single_service):
        for host in (single_service, router):
            reply = self._declared(host, str(MAX_BODY_BYTES + 1))
            assert reply.startswith(b"HTTP/1.1 413 Payload Too Large\r\n")
            assert b"Connection: close" in reply
            assert b"body too large" in reply

    @pytest.mark.parametrize("length", ["-1", "twelve"])
    def test_bad_length_stays_400(self, router, single_service, length):
        for host in (single_service, router):
            reply = self._declared(host, length)
            assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
            assert b"invalid Content-Length" in reply

    @pytest.mark.parametrize(
        "head",
        [
            b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\nHost: t\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * MAX_LINE_BYTES
            + b"\r\n\r\n",
        ],
        ids=["request-line", "header"],
    )
    def test_over_long_line_is_400_and_closes(self, router, single_service, head):
        for host in (single_service, router):
            reply = self._reply(host, head)
            assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
            assert b"Connection: close" in reply
            assert reply.endswith(b'{"error": "request line or header too long"}')


# ---------------------------------------------------------------------------
# The serve lifecycle, and per-shard cache persistence
# ---------------------------------------------------------------------------
class TestSupervision:
    @pytest.mark.skipif(
        not hasattr(signal, "SIGTERM"), reason="needs POSIX signals"
    )
    @pytest.mark.parametrize("shard_mode", ["inproc"])
    def test_cli_sharded_serve_lifecycle(self, tmp_path, shard_mode):
        """``repro serve --shards 2`` boots a router process with its
        shards embedded, serves with the right bits, and on SIGTERM shuts
        every shard down gracefully (exit 0, one persisted cache pair per
        shard)."""
        repo_root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--shards",
                "2",
                "--workers",
                "1",
                "--cache-file",
                str(tmp_path / "fleet"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=repo_root,
        )
        try:
            port_line = process.stdout.readline()
            topology_line = process.stdout.readline()
            match = re.search(r"http://[^:]+:(\d+)", port_line)
            assert match, f"no port in {port_line!r}"
            assert "2 in-process shards" in topology_line
            client = ServiceClient("127.0.0.1", int(match.group(1)))
            b = Bucketization.from_value_lists([["a", "a", "b"], ["c", "d"]])
            assert client.disclosure(b, 2) == DisclosureEngine().evaluate(b, 2)
            health = client.health()
            assert health["ok"] is True
            assert [entry["mode"] for entry in health["shards"]] == [
                shard_mode
            ] * 2
            client.close()
        finally:
            process.send_signal(signal.SIGTERM)
            _, err = process.communicate(timeout=120)
        assert process.returncode == 0, err
        for index in range(2):
            for mode in ("float", "exact"):
                assert (tmp_path / f"fleet.shard{index}.{mode}.pkl").exists()

    @pytest.mark.parametrize("shard_mode", ["inproc"])
    def test_per_shard_cache_persistence(self, tmp_path, shard_mode):
        prefix = tmp_path / "fleet"
        b = Bucketization.from_value_lists(
            [["p", "p", "q", "r"], ["p", "q", "s", "t"]]
        )
        with BackgroundRouter(shards=SHARDS, cache_path=prefix) as bg:
            assert {shard.mode for shard in bg.service.shards} == {shard_mode}
            first = bg.client().disclosure(b, 3)
        for index in range(SHARDS):
            for mode in ("float", "exact"):
                assert (tmp_path / f"fleet.shard{index}.{mode}.pkl").exists()
        with BackgroundRouter(shards=SHARDS, cache_path=prefix) as bg:
            client = bg.client()
            loaded = [
                entry["engines"]["float"]["loaded_entries"]
                for entry in client.stats()["shards"]
            ]
            assert sum(loaded) >= 1  # the owning shard reloaded its slice
            assert client.disclosure(b, 3) == first
            hits = [
                entry["engines"]["float"]["stats"]["cache_hits"]
                + entry["service"]["cache_fast_hits"]
                for entry in client.stats()["shards"]
            ]
            assert sum(hits) >= 1  # answered from the reloaded cache
