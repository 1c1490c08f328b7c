"""End-to-end tests for the disclosure service layer.

Covers the acceptance criteria of the serving layer:

- full process lifecycle: ``repro serve`` boots, loads its cache, serves,
  and on SIGTERM saves the cache and exits 0 — and a restarted service
  answers from the reloaded cache;
- N concurrent clients receive **bit-identical** answers to direct
  :class:`~repro.engine.engine.DisclosureEngine` calls, in both float and
  exact arithmetic;
- concurrent single requests are coalesced into one engine batch
  (observable through ``/stats``);
- malformed requests surface as 4xx JSON errors, never 500s or hangs.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.bucketization import Bucketization
from repro.engine import DisclosureEngine, available_adversaries, get_adversary
from repro.service import (
    BackgroundRouter,
    BackgroundService,
    ServiceClient,
    ServiceError,
)
from repro.service.server import load_tenants

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def figure3_like() -> Bucketization:
    return Bucketization.from_value_lists(
        [
            ["Flu", "Flu", "Lung Cancer", "Lung Cancer", "Mumps"],
            ["Flu", "Flu", "Breast Cancer", "Ovarian Cancer", "Heart Disease"],
        ]
    )


@pytest.fixture(scope="module")
def service():
    """One shared background service for the read-mostly endpoint tests."""
    with BackgroundService() as bg:
        yield bg


@pytest.fixture(scope="module")
def client(service) -> ServiceClient:
    return service.client()


# ---------------------------------------------------------------------------
# Endpoints against direct engine calls
# ---------------------------------------------------------------------------
class TestEndpoints:
    def test_health(self, client):
        assert client.health()["ok"] is True

    def test_models_lists_whole_registry(self, client):
        models = client.models()
        assert [m["name"] for m in models] == list(available_adversaries())
        for record in models:
            assert {
                "name",
                "supports_exact",
                "supports_witness",
                "unbounded_scale",
                "monotone",
                "signature_decomposable",
            } <= set(record)

    @pytest.mark.parametrize("exact", [False, True])
    def test_single_disclosure_bit_identical(self, client, figure3_like, exact):
        engine = DisclosureEngine(exact=exact)
        for model in ("implication", "negation", "distribution"):
            for k in (0, 1, 3):
                served = client.disclosure(
                    figure3_like, k, model=model, exact=exact
                )
                direct = engine.evaluate(figure3_like, k, model=model)
                assert served == direct
                if exact:
                    assert isinstance(served, Fraction)

    def test_batch_matches_evaluate_many(self, client, figure3_like):
        merged = figure3_like.merge_buckets([0, 1])
        ks = [1, 2, 4]
        served = client.disclosure_batch(
            [figure3_like, merged], ks, exact=True
        )
        direct = DisclosureEngine(exact=True).evaluate_many(
            [figure3_like, merged], ks
        )
        assert served == direct

    def test_safety_matches_engine(self, client, figure3_like):
        engine = DisclosureEngine()
        answer = client.safety(figure3_like, 0.9, 1)
        assert answer["safe"] == engine.is_safe(figure3_like, 0.9, 1)
        assert answer["value"] == engine.evaluate(figure3_like, 1)

    def test_compare_matches_engine(self, client, figure3_like):
        ks = [0, 1, 2]
        served = client.compare(
            figure3_like, ks, models=("implication", "negation")
        )
        direct = DisclosureEngine().compare(
            figure3_like, ks, models=("implication", "negation")
        )
        assert set(served) == set(direct)
        for name in direct:
            assert served[name] == direct[name]

    def test_witness_disclosure_matches_value(self, client, figure3_like):
        answer = client.witness(figure3_like, 2, model="negation")
        assert answer["witness"]["type"] == "NegationWitness"
        assert answer["witness"]["disclosure"] == answer["value"]

    def test_witness_unsupported_model_is_400(self, client, figure3_like):
        with pytest.raises(ServiceError) as excinfo:
            client.witness(figure3_like, 2, model="weighted")
        assert excinfo.value.status == 400

    def test_stats_shape(self, client, figure3_like):
        client.disclosure(figure3_like, 1)  # ensure non-zero counters
        stats = client.stats()
        assert {"service", "engines"} <= set(stats)
        assert stats["service"]["requests_total"] >= 1
        for mode in ("float", "exact"):
            record = stats["engines"][mode]
            assert {
                "stats",
                "cache_entries",
                "pinned_entries",
                "plane_signatures",
                "loaded_entries",
                "backend",
            } <= set(record)
            assert record["backend"]["name"] == "serial"
        assert stats["engines"]["float"]["stats"]["evaluations"] >= 1


# ---------------------------------------------------------------------------
# Concurrency: bit-identical answers and coalescing
# ---------------------------------------------------------------------------
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


class TestConcurrency:
    CLIENTS = 8

    @pytest.mark.parametrize("exact", [False, True])
    def test_concurrent_clients_bit_identical_to_engine(self, exact):
        bs = _random_bucketizations(self.CLIENTS, seed=42 + exact)
        models = ["implication", "negation", "distribution", "weighted"]
        ks = [0, 1, 2, 3]
        jobs = [
            (bs[i], models[i % len(models)], ks[i % len(ks)])
            for i in range(self.CLIENTS)
        ]
        results: list = [None] * len(jobs)
        errors: list = []
        with BackgroundService() as bg:
            host, port = bg.host, bg.port

            def hit(index: int) -> None:
                try:
                    b, model, k = jobs[index]
                    results[index] = ServiceClient(host, port).disclosure(
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
        assert not errors
        engine = DisclosureEngine(exact=exact)
        for (b, model, k), served in zip(jobs, results):
            assert served == engine.evaluate(b, k, model=model), (
                f"served value diverged for {model} k={k}"
            )

    def test_concurrent_singles_coalesce_into_one_batch(self):
        """Singles queued while the engine thread is busy leave together:
        the thread is held until every single is counted, so the grouping
        does not depend on a timing window."""
        bs = _random_bucketizations(self.CLIENTS, seed=7)
        with BackgroundService() as bg:
            _fire_behind_held_engine(
                bg, [lambda b=b: _single(bg, b, 2) for b in bs]
            )
            with bg.client() as client:
                stats = client.stats()["service"]
        assert stats["single_requests"] == self.CLIENTS
        # At most two groups drained: the one handed to the held engine
        # thread, and every single queued behind it.
        assert 1 <= stats["coalesced_batches"] <= 2
        assert stats["max_coalesced"] >= self.CLIENTS // 2
        assert stats["coalesced_singles"] >= self.CLIENTS - 1

    def test_coalesced_identical_requests_compute_once(self, figure3_like):
        """N concurrent identical singles: one unique plane key, so the
        engine evaluates once and everyone gets the same bits."""
        n = 6
        with BackgroundService() as bg:
            values = _fire_behind_held_engine(
                bg, [lambda: _single(bg, figure3_like, 3)] * n
            )
            with bg.client() as client:
                engine_stats = client.stats()["engines"]["float"]["stats"]
        direct = DisclosureEngine().evaluate(figure3_like, 3)
        assert values == [direct] * n
        # Every single was queued before the engine ran, so the first group
        # computed the one plane key and any second group hit the cache.
        assert engine_stats["misses"] == 1


def _single(bg, bucketization: Bucketization, k: int):
    with bg.client() as client:
        return client.disclosure(bucketization, k)


def _fire_behind_held_engine(bg, calls) -> list:
    """Run each of ``calls`` (single requests) on its own thread while
    ``bg``'s one engine thread is parked on a gate job, release the gate
    once the service has counted every single, and return the answers."""
    gate = threading.Event()
    bg.service._executor.submit(gate.wait)
    results: list = [None] * len(calls)
    errors: list = []

    def run(index: int) -> None:
        try:
            results[index] = calls[index]()
        except BaseException as exc:  # surfaces in the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(len(calls))
    ]
    for t in threads:
        t.start()
    try:
        deadline = time.monotonic() + 60
        while bg.service.stats.single_requests < len(calls) and not errors:
            assert time.monotonic() < deadline, "singles never all arrived"
            time.sleep(0.005)
    finally:
        gate.set()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "a single never got its answer"
    assert not errors
    return results


# ---------------------------------------------------------------------------
# Malformed requests: 4xx paths
# ---------------------------------------------------------------------------
def _raw_request(
    host: str, port: int, method: str, path: str, body: bytes | None = None
) -> tuple[int, dict]:
    connection = HTTPConnection(host, port, timeout=30)
    try:
        connection.request(
            method, path, body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        payload = json.loads(response.read() or b"{}")
        return response.status, payload
    finally:
        connection.close()


class TestMalformedRequests:
    def test_unknown_path_is_404(self, service):
        status, payload = _raw_request(service.host, service.port, "GET", "/nope")
        assert status == 404
        assert "error" in payload

    def test_wrong_method_is_405(self, service):
        status, payload = _raw_request(
            service.host, service.port, "GET", "/disclosure"
        )
        assert status == 405
        assert "error" in payload

    def test_invalid_json_is_400(self, service):
        status, payload = _raw_request(
            service.host, service.port, "POST", "/disclosure", b"{not json"
        )
        assert status == 400
        assert "error" in payload

    def test_non_object_body_is_400(self, service):
        status, _ = _raw_request(
            service.host, service.port, "POST", "/disclosure", b"[1, 2, 3]"
        )
        assert status == 400

    @pytest.mark.parametrize(
        "body",
        [
            {},  # missing everything
            {"buckets": [["a"]], "k": "three"},  # k wrong type
            {"buckets": [["a"]], "k": -1},  # negative power
            {"buckets": [["a"]], "k": True},  # bool is not an int
            {"buckets": [], "k": 1},  # empty bucketization
            {"buckets": [[]], "k": 1},  # empty bucket
            {"buckets": [[{"v": 1}]], "k": 1},  # non-scalar value
            {"buckets": [["a"]], "k": 1, "model": "martian"},  # unknown model
            {"buckets": [["a"]], "k": 1, "exact": "yes"},  # exact wrong type
            {"bucketizations": [[["a"]]], "ks": []},  # batch with empty ks
            {"bucketizations": [], "ks": [1]},  # empty batch
        ],
    )
    def test_bad_disclosure_bodies_are_400(self, service, body):
        status, payload = _raw_request(
            service.host,
            service.port,
            "POST",
            "/disclosure",
            json.dumps(body).encode(),
        )
        assert status == 400
        assert "error" in payload

    @pytest.mark.parametrize(
        "body",
        [
            {"buckets": [["a", "b"]], "k": 1, "c": 0.0},  # c out of range
            {"buckets": [["a", "b"]], "k": 1, "c": 1.5},  # c above bound
            {"buckets": [["a", "b"]], "k": 1},  # missing c
        ],
    )
    def test_bad_safety_bodies_are_400(self, service, body):
        status, _ = _raw_request(
            service.host,
            service.port,
            "POST",
            "/safety",
            json.dumps(body).encode(),
        )
        assert status == 400

    def test_bad_compare_models_is_400(self, service):
        status, _ = _raw_request(
            service.host,
            service.port,
            "POST",
            "/compare",
            json.dumps(
                {"buckets": [["a", "b"]], "ks": [1], "models": ["martian"]}
            ).encode(),
        )
        assert status == 400

    @pytest.mark.parametrize(
        "body",
        [
            # Unknown constructor kwarg -> TypeError -> 400, not 500.
            {
                "buckets": [["a", "b"]],
                "k": 1,
                "model": "probabilistic",
                "params": {"bogus": 1},
            },
            # Out-of-range value -> ValueError -> 400.
            {
                "buckets": [["a", "b"]],
                "k": 1,
                "model": "probabilistic",
                "params": {"confidence": "3/2"},
            },
            {
                "buckets": [["a", "b"]],
                "k": 1,
                "model": "sampling",
                "params": {"samples": 0},
            },
            # Malformed params field itself.
            {"buckets": [["a", "b"]], "k": 1, "params": 5},
            {"buckets": [["a", "b"]], "k": 1, "params": {"x": True}},
            {"buckets": [["a", "b"]], "k": 1, "params": {"q": "one/two"}},
            # Tenant routing on a tenant-less service.
            {"buckets": [["a", "b"]], "k": 1, "tenant": "nope"},
            {"buckets": [["a", "b"]], "k": 1, "tenant": 3},
        ],
    )
    def test_bad_params_and_tenant_bodies_are_400(self, service, body):
        status, payload = _raw_request(
            service.host,
            service.port,
            "POST",
            "/disclosure",
            json.dumps(body).encode(),
        )
        assert status == 400
        assert "error" in payload

    @pytest.mark.parametrize("path", ["/safety", "/compare"])
    def test_bad_params_rejected_on_every_threat_endpoint(self, service, path):
        body = {
            "buckets": [["a", "b"]],
            "k": 1,
            "c": 0.9,
            "ks": [1],
            "model": "probabilistic",
            "models": ["probabilistic"],
            "params": {"confidence": "3/2"},
        }
        status, payload = _raw_request(
            service.host, service.port, "POST", path, json.dumps(body).encode()
        )
        assert status == 400
        assert "error" in payload
        assert "probabilistic" in payload["error"]

    def test_errors_do_not_poison_the_service(self, service, figure3_like):
        client = service.client()
        with pytest.raises(ServiceError):
            client.disclosure(figure3_like, -1)
        # The engine thread and coalescer survive a failed request.
        assert client.disclosure(figure3_like, 1) == DisclosureEngine().evaluate(
            figure3_like, 1
        )


def _raw_bytes(host: str, port: int, path: str, body: bytes) -> tuple[int, bytes]:
    connection = HTTPConnection(host, port, timeout=30)
    try:
        connection.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class TestOneBodyOneAnswer:
    """A lookup body gets one byte string whatever the cache holds: cold,
    partly warm (the engine path merges cached and computed ``k``), and
    fully cached (answered on the event loop)."""

    @pytest.mark.parametrize(
        "path,body,warm",
        [
            (
                "/disclosure",
                {
                    "bucketizations": [
                        [["o", "o", "b", "w"], ["o", "b", "x", "y", "z"]],
                        [["q", "q", "q", "r"]],
                    ],
                    "ks": [3, 1, 2, 1],
                    "model": "negation",
                },
                {"buckets": [["o", "o", "b", "w"], ["o", "b", "x", "y", "z"]],
                 "k": 2, "model": "negation"},
            ),
            (
                "/compare",
                {
                    "buckets": [["o", "o", "b", "w"], ["c", "c", "d", "e"]],
                    "ks": [4, 2, 3],
                    "models": ["implication", "negation", "implication"],
                },
                {"buckets": [["o", "o", "b", "w"], ["c", "c", "d", "e"]],
                 "k": 3},
            ),
        ],
    )
    @pytest.mark.parametrize("exact", [False, True])
    def test_same_bytes_cold_partly_warm_and_cached(self, path, body, warm, exact):
        body, warm = dict(body, exact=exact), dict(warm, exact=exact)
        data = json.dumps(body).encode()
        with BackgroundService() as bg:
            cold = _raw_bytes(bg.host, bg.port, path, data)
            assert cold[0] == 200
            with bg.client() as client:
                assert client.stats()["service"]["series_fast_hits"] == 0
        with BackgroundService() as bg:
            status, _ = _raw_bytes(
                bg.host, bg.port, "/disclosure", json.dumps(warm).encode()
            )
            assert status == 200
            assert _raw_bytes(bg.host, bg.port, path, data) == cold
            assert _raw_bytes(bg.host, bg.port, path, data) == cold
            with bg.client() as client:
                service = client.stats()["service"]
            assert service["series_fast_hits"] == 1
            assert service["cache_fast_hits"] == 0
            assert service["memo_hits"] == 1
        answer = json.loads(cold[1])
        assert answer["ks"] == sorted(set(body["ks"]))
        series = answer["series"]
        for one in series.values() if path == "/compare" else series:
            assert list(one) == [str(k) for k in answer["ks"]]
        if path == "/compare":
            assert list(series) == ["implication", "negation", "implication#2"]
            assert "kernel" in answer


# ---------------------------------------------------------------------------
# Keep-alive connections and the pooled client
# ---------------------------------------------------------------------------
class TestKeepAlive:
    def test_one_connection_serves_many_requests(self, figure3_like):
        with BackgroundService() as bg:
            connection = HTTPConnection(bg.host, bg.port, timeout=30)
            try:
                body = json.dumps(
                    {"buckets": [list(b.sensitive_values) for b in figure3_like]}
                    | {"k": 1}
                ).encode()
                for _ in range(3):
                    connection.request(
                        "POST",
                        "/disclosure",
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    assert response.status == 200
                    assert not response.will_close  # server kept it open
                    response.read()
                connection.request("GET", "/stats")
                stats = json.loads(connection.getresponse().read())
            finally:
                connection.close()
        connections = stats["service"]["connections"]
        assert connections["total"] == 1
        assert connections["keepalive_requests"] == 3  # requests 2..4

    def test_connection_close_header_honored(self, figure3_like):
        with BackgroundService() as bg:
            connection = HTTPConnection(bg.host, bg.port, timeout=30)
            try:
                connection.request(
                    "GET", "/healthz", headers={"Connection": "close"}
                )
                response = connection.getresponse()
                assert response.status == 200
                assert response.will_close  # server announced the close
                response.read()
            finally:
                connection.close()

    def test_pooled_client_reuses_one_connection(self, figure3_like):
        with BackgroundService() as bg:
            client = ServiceClient(bg.host, bg.port, pool_size=2)
            for k in range(5):
                client.disclosure(figure3_like, k)
            connections = client.stats()["service"]["connections"]
            client.close()
        assert connections["total"] == 1
        assert connections["keepalive_requests"] >= 5

    def test_per_connection_client_opens_one_each(self, figure3_like):
        with BackgroundService() as bg:
            client = ServiceClient(bg.host, bg.port, keep_alive=False)
            for k in range(3):
                client.disclosure(figure3_like, k)
            connections = client.stats()["service"]["connections"]
        assert connections["total"] == 4  # 3 singles + the /stats call
        assert connections["keepalive_requests"] == 0

    def test_stale_pooled_connection_replays_transparently(self, figure3_like):
        """An idle-timeout-closed server connection must not surface: the
        pooled client detects the stale socket and replays."""
        with BackgroundService(
            request_timeout=0.3
        ) as bg:
            client = ServiceClient(bg.host, bg.port, pool_size=2)
            first = client.disclosure(figure3_like, 2)
            time.sleep(0.8)  # server idle-timeout reaps the pooled socket
            assert client.disclosure(figure3_like, 2) == first
            client.close()

    def test_max_connections_cap_is_503(self):
        with BackgroundService(
            max_connections=1
        ) as bg:
            holder = HTTPConnection(bg.host, bg.port, timeout=30)
            try:
                holder.request("GET", "/healthz")
                assert holder.getresponse().status == 200
                # holder keeps the only slot; a second connection is refused.
                status, payload = _raw_request(
                    bg.host, bg.port, "GET", "/healthz"
                )
                assert status == 503
                assert "error" in payload
            finally:
                holder.close()
            # The slot frees once the server reaps the closed socket.
            for _ in range(100):
                status, _ = _raw_request(bg.host, bg.port, "GET", "/healthz")
                if status == 200:
                    break
                time.sleep(0.05)
            assert status == 200
            stats = bg.client().stats()["service"]
            assert stats["connections"]["rejected_over_cap"] == 1
            assert stats["max_connections"] == 1


# ---------------------------------------------------------------------------
# Process lifecycle: repro serve + SIGTERM + cache persistence
# ---------------------------------------------------------------------------
def _boot_serve(prefix: Path) -> tuple[subprocess.Popen, int, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
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
            "--workers",
            "1",
            "--cache-file",
            str(prefix),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    try:
        port_line = process.stdout.readline()
        cache_line = process.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", port_line)
        assert match, f"no port in {port_line!r}"
        return process, int(match.group(1)), cache_line
    except BaseException:
        process.kill()
        raise


@pytest.mark.skipif(
    not hasattr(signal, "SIGTERM"), reason="needs POSIX signals"
)
def test_serve_lifecycle_sigterm_persists_cache(tmp_path, figure3_like):
    prefix = tmp_path / "svc-cache"

    # Boot 1: empty cache, serve a couple of requests, SIGTERM.
    process, port, cache_line = _boot_serve(prefix)
    try:
        assert "loaded 0 float / 0 exact" in cache_line
        client = ServiceClient("127.0.0.1", port)
        float_value = client.disclosure(figure3_like, 2)
        exact_value = client.disclosure(figure3_like, 2, exact=True)
        assert float_value == DisclosureEngine().evaluate(figure3_like, 2)
        assert exact_value == DisclosureEngine(exact=True).evaluate(
            figure3_like, 2
        )
    finally:
        process.send_signal(signal.SIGTERM)
        out, err = process.communicate(timeout=60)
    assert process.returncode == 0, err
    assert "saved" in out
    assert (tmp_path / "svc-cache.float.pkl").exists()
    assert (tmp_path / "svc-cache.exact.pkl").exists()

    # Boot 2: the saved caches load, and the same question is a cache hit.
    process, port, cache_line = _boot_serve(prefix)
    try:
        assert re.search(r"loaded [1-9]\d* float / [1-9]\d* exact", cache_line)
        client = ServiceClient("127.0.0.1", port)
        stats = client.stats()
        assert stats["engines"]["float"]["loaded_entries"] >= 1
        assert stats["engines"]["exact"]["loaded_entries"] >= 1
        # A repeat question may be answered by the engine cache or by the
        # serving layer's event-loop fast peek — both are reloaded-cache
        # hits, so count them together.
        def _hits(s):
            return (
                s["engines"]["float"]["stats"]["cache_hits"]
                + s["service"]["cache_fast_hits"]
            )

        before = _hits(stats)
        assert client.disclosure(figure3_like, 2) == float_value
        after = _hits(client.stats())
        assert after == before + 1  # answered from the reloaded cache
    finally:
        process.send_signal(signal.SIGTERM)
        _, err = process.communicate(timeout=60)
    assert process.returncode == 0, err


# ---------------------------------------------------------------------------
# Parametric adversaries over the wire, and multi-tenant serving
# ---------------------------------------------------------------------------
PARAMETRIC_CASES = [
    ("weighted", {"weights": {"Flu": 2.5, "Mumps": 1.0}}),
    ("sampling", {"samples": 512, "seed": 9}),
    ("probabilistic", {"confidence": Fraction(1, 3)}),
]

TENANTS = {
    "acme": {
        "model": "weighted",
        "params": {"weights": {"Flu": 2.5, "Mumps": 1.0}},
    },
    "globex": {"model": "sampling", "params": {"samples": 500, "seed": 7}},
}


@pytest.fixture(scope="module")
def small_pair() -> Bucketization:
    """Small enough for the oracle-based probabilistic model (sub-second)."""
    return Bucketization.from_value_lists(
        [["a", "a", "b", "c"], ["a", "b", "d", "d"]]
    )


class TestParamsAndTenants:
    @pytest.mark.parametrize("name,params", PARAMETRIC_CASES)
    def test_parametric_request_bit_identical_to_engine(
        self, client, figure3_like, small_pair, name, params
    ):
        # The probabilistic oracle is exponential in instance size; give it
        # the small instance and the closed-form models the Figure-3 one.
        b = small_pair if name == "probabilistic" else figure3_like
        served = client.disclosure(b, 1, model=name, params=params)
        direct = DisclosureEngine().evaluate(
            b, 1, model=get_adversary(name, **params)
        )
        assert served == direct
        # The parametric instance answers differently from the default one
        # (otherwise this test would pass with params silently dropped).
        assert served != client.disclosure(b, 1, model=name)

    def test_exact_fraction_confidence_survives_the_wire(
        self, client, small_pair
    ):
        q = Fraction(10**9 + 7, 10**9 + 9)
        served = client.disclosure(
            small_pair, 1, model="probabilistic",
            params={"confidence": q}, exact=True,
        )
        direct = DisclosureEngine(exact=True).evaluate(
            small_pair, 1, model=get_adversary("probabilistic", confidence=q)
        )
        assert served == direct
        assert isinstance(served, Fraction)
        # q cannot survive a float round trip: bit-equality with the direct
        # exact engine means the Fraction crossed the wire untouched.
        assert Fraction(float(q)) != q

    def test_distinct_params_never_share_a_cache_entry(self, small_pair):
        with BackgroundService() as bg:
            client = bg.client()
            low = client.disclosure(
                small_pair, 1, model="probabilistic",
                params={"confidence": Fraction(1, 3)},
            )
            high = client.disclosure(
                small_pair, 1, model="probabilistic",
                params={"confidence": Fraction(2, 3)},
            )
            entries = client.stats()["engines"]["float"]["cache_entries"]
            # Two param sets, one question: two cache entries, two values.
            assert entries == 2
            assert low != high
            # A repeat is answered from cache, not recomputed.
            before = client.stats()["engines"]["float"]["stats"]["misses"]
            assert (
                client.disclosure(
                    small_pair, 1, model="probabilistic",
                    params={"confidence": Fraction(1, 3)},
                )
                == low
            )
            stats = client.stats()
            after = stats["engines"]["float"]["stats"]["misses"]
            assert after == before
            assert stats["engines"]["float"]["cache_entries"] == 2

    def test_compare_applies_params_to_every_model(self, client, small_pair):
        ks = [0, 1]
        params = {"confidence": Fraction(1, 2)}
        served = client.compare(
            small_pair, ks, models=("probabilistic",), params=params
        )
        direct = DisclosureEngine().compare(
            small_pair,
            ks,
            models=(get_adversary("probabilistic", **params),),
        )
        assert served.keys() == direct.keys()
        for name in direct:
            assert served[name] == direct[name]

    def test_models_exposes_machine_usable_param_schema(self, client):
        records = {m["name"]: m for m in client.models()}
        for record in records.values():
            assert "params_key" not in record
            for spec in record["params"]:
                assert {"name", "type", "default"} <= set(spec)
        assert records["implication"]["params"] == []
        by_name = {
            s["name"]: s["default"] for s in records["sampling"]["params"]
        }
        assert by_name == {"samples": 20000, "seed": 0}
        assert [s["name"] for s in records["weighted"]["params"]] == ["weights"]
        assert records["weighted"]["params"][0]["default"] is None
        assert records["probabilistic"]["params"][0]["default"] == 1

    def test_param_schema_round_trips_through_get_adversary(self, client):
        for record in client.models():
            defaults = {
                spec["name"]: spec["default"]
                for spec in record["params"]
                if not isinstance(spec["default"], str)
            }
            rebuilt = get_adversary(record["name"], **defaults)
            assert rebuilt.params_key() == get_adversary(record["name"]).params_key()

    def test_tenant_defaults_engage_and_answers_match_engine(
        self, tmp_path, figure3_like
    ):
        with BackgroundService(
            tenants=TENANTS,
            cache_path=tmp_path / "fleet",
        ) as bg:
            client = bg.client()
            acme = client.disclosure(figure3_like, 2, tenant="acme")
            globex = client.disclosure(figure3_like, 2, tenant="globex")
            plain = client.disclosure(figure3_like, 2)
            engine = DisclosureEngine()
            assert acme == engine.evaluate(
                figure3_like,
                2,
                model=get_adversary("weighted", weights={"Flu": 2.5, "Mumps": 1.0}),
            )
            assert globex == engine.evaluate(
                figure3_like,
                2,
                model=get_adversary("sampling", samples=500, seed=7),
            )
            assert plain == engine.evaluate(figure3_like, 2)
            assert acme != plain  # the tenant default actually engaged

            # An explicit model on a tenant request suppresses the tenant's
            # default params (they belong to the *default* model).
            assert client.disclosure(
                figure3_like, 2, model="implication", tenant="acme"
            ) == plain

            stats = client.stats()
            assert set(stats["tenants"]) == {"acme", "globex"}
            acme_stats = stats["tenants"]["acme"]
            assert acme_stats["model"] == "weighted"
            assert acme_stats["requests"] >= 2
            assert acme_stats["engines"]["float"]["cache_entries"] >= 1
            assert stats["tenants"]["globex"]["requests"] >= 1

        # Per-tenant engines persist to per-tenant cache files.
        assert (tmp_path / "fleet.float.pkl").exists()
        assert (tmp_path / "fleet.acme.float.pkl").exists()
        assert (tmp_path / "fleet.globex.float.pkl").exists()

    def test_tenants_share_nothing(self, tmp_path, figure3_like):
        """The same explicit question through two tenants lands in two
        engines and two cache files — no cross-tenant sharing."""
        prefix = tmp_path / "iso"
        with BackgroundService(
            tenants=TENANTS,
            cache_path=prefix,
        ) as bg:
            client = bg.client()
            question = dict(model="negation", exact=False)
            a = client.disclosure(figure3_like, 1, tenant="acme", **question)
            b = client.disclosure(figure3_like, 1, tenant="globex", **question)
            assert a == b  # same bits, computed independently
            stats = client.stats()["tenants"]
            assert stats["acme"]["engines"]["float"]["cache_entries"] == 1
            assert stats["globex"]["engines"]["float"]["cache_entries"] == 1
        acme_file = prefix.parent / "iso.acme.float.pkl"
        globex_file = prefix.parent / "iso.globex.float.pkl"
        assert acme_file.exists() and globex_file.exists()

        # A restarted service reloads each tenant's entries into *its*
        # engine only.
        with BackgroundService(
            tenants=TENANTS,
            cache_path=prefix,
        ) as bg:
            client = bg.client()
            stats = client.stats()["tenants"]
            assert stats["acme"]["engines"]["float"]["loaded_entries"] == 1
            assert stats["globex"]["engines"]["float"]["loaded_entries"] == 1
            assert (
                client.disclosure(figure3_like, 1, tenant="acme", **question)
                == a
            )

    @pytest.mark.parametrize(
        "raw,match",
        [
            ("not json at all", "not JSON"),
            ({}, "non-empty"),
            ({"bad tenant!": {}}, "tenant id"),
            ({"t": {"model": "martian"}}, "unknown model"),
            ({"t": {"model": "sampling", "params": {"samples": 0}}}, "invalid"),
            ({"t": {"surprise": 1}}, "unknown keys"),
            ({"t": ["implication"]}, "must be an object"),
        ],
    )
    def test_load_tenants_rejects_bad_topologies(self, tmp_path, raw, match):
        source = raw
        if isinstance(raw, str):
            path = tmp_path / "tenants.json"
            path.write_text(raw, encoding="utf-8")
            source = path
        with pytest.raises(ValueError, match=match):
            load_tenants(source)

    def test_load_tenants_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_tenants(tmp_path / "nope.json")

    def test_tenant_entry_may_omit_params(self):
        tenants = load_tenants({"t": {"model": "negation"}})
        assert tenants["t"] == {
            "model": "negation",
            "params": {},
            "params_wire": None,
        }


def test_background_service_cache_roundtrip(tmp_path, figure3_like):
    """The in-process lifecycle: stop saves, a fresh service loads."""
    prefix = tmp_path / "bg-cache"
    with BackgroundService(
        cache_path=prefix
    ) as bg:
        first = bg.client().disclosure(figure3_like, 3, model="negation")
    assert (tmp_path / "bg-cache.float.pkl").exists()
    with BackgroundService(
        cache_path=prefix
    ) as bg:
        client = bg.client()
        stats = client.stats()
        assert stats["engines"]["float"]["loaded_entries"] >= 1
        assert client.disclosure(figure3_like, 3, model="negation") == first
        after = client.stats()
        assert (
            after["engines"]["float"]["stats"]["cache_hits"]
            + after["service"]["cache_fast_hits"]
            >= 1
        )


# ---------------------------------------------------------------------------
# Worker processes as /stats reports them
# ---------------------------------------------------------------------------
def test_stats_report_persistent_workers_when_workers_above_one():
    bs = _random_bucketizations(8, seed=81)
    with BackgroundService(workers=2) as bg:
        with bg.client() as client:
            assert client.disclosure_batch(bs, [1, 2]) == DisclosureEngine(
                backend="serial"
            ).evaluate_many(bs, [1, 2])
            backend = client.stats()["engines"]["float"]["backend"]
        assert backend["name"] == "persistent"
        assert backend["parallel"] is True
        assert backend["batches_run"] == 1
        assert backend["workers_alive"] == 2
    with BackgroundService(workers=1) as bg:
        with bg.client() as client:
            client.disclosure_batch(bs, [1, 2])
            stats = client.stats()
        for mode in ("float", "exact"):
            backend = stats["engines"][mode]["backend"]
            assert backend == {"name": "serial", "parallel": False}


# ---------------------------------------------------------------------------
# A cache file that fails to load is quarantined, and the boot goes on
# ---------------------------------------------------------------------------
def _bad_cache_bytes(kind: str, directory: Path, bucketization) -> bytes:
    """Bytes of a float-mode cache file that cannot be loaded."""
    if kind == "garbage":
        return b"garbage"
    source = DisclosureEngine(exact=(kind == "other_mode"))
    source.evaluate(bucketization, 1)
    path = directory / "source.pkl"
    source.save_cache(path)
    data = path.read_bytes()
    return data[: len(data) // 2] if kind == "truncated" else data


@pytest.mark.parametrize("where", ["service", "tenant", "shard"])
@pytest.mark.parametrize("kind", ["garbage", "truncated", "other_mode"])
def test_bad_cache_file_is_quarantined_and_boot_continues(
    tmp_path, figure3_like, kind, where
):
    prefix = tmp_path / "boot"
    name = {
        "service": "boot.float.pkl",
        "tenant": "boot.acme.float.pkl",
        "shard": "boot.shard0.float.pkl",
    }[where]
    path = tmp_path / name
    bad = _bad_cache_bytes(kind, tmp_path, figure3_like)
    path.write_bytes(bad)
    if where == "shard":
        host = BackgroundRouter(shards=2, cache_path=prefix)
    else:
        host = BackgroundService(
            cache_path=prefix,
            tenants=TENANTS if where == "tenant" else None,
        )
    tenant = "acme" if where == "tenant" else None
    with pytest.warns(RuntimeWarning, match="failed to load"), host as bg:
        with bg.client() as client:
            stats = client.stats()
            answer = client.disclosure(
                figure3_like, 1, model="implication", tenant=tenant
            )
    counters = stats["totals"] if where == "shard" else stats["service"]
    assert counters["cache_files_quarantined"] == 1
    if where == "tenant":
        engines = stats["tenants"]["acme"]["engines"]
        assert engines["float"]["cache_entries"] == 0
    elif where == "service":
        assert stats["engines"]["float"]["cache_entries"] == 0
    assert answer == DisclosureEngine().evaluate(figure3_like, 1)
    assert path.with_name(name + ".corrupt").read_bytes() == bad
    # The graceful stop saved a fresh cache in the bad file's place.
    loaded = DisclosureEngine().load_cache(path)
    assert loaded >= (0 if where == "shard" else 1)
