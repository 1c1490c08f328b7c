"""The repository benchmark: one command, four workloads, checked answers.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]

Workloads (see ``perfbench/README.md`` for why each exists):

- ``lookup``: warm and cold disclosure questions against ``repro serve``
  booted on caches saved by an untimed priming pass. Its traced run ends
  with a traced ``publish`` phase, which supplies the publish and ledger
  layers.
- ``lookup-sharded``: the same traffic against ``repro serve --shards 2``.
- ``sanitize``: lattice sanitization of a 10k-row Adult sample through
  the library API, in a driver process of the benchmark's own.
- ``publish``: a stream of ``POST /publish`` releases and a few release
  reads against ``repro serve --ledger-file``. Runnable by hand, but not
  listed in ``BENCHMARK.json``: on a shared 2-core host its timings
  spread wider than any bound the benchmark may set.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run (and
the tracing overhead against an untraced run made alongside). The line
before it is a JSON report: workload properties, generator checks,
per-layer accounting. The run exits 0 only if the program could be
measured; answers that fail verification make ``correct`` false.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("lookup", "lookup-sharded", "sanitize", "publish")
#: Launches per run whose launch-to-ready times give ``setup_s`` (median).
SETUP_LAUNCHES = 5
#: The closed loop uses at most this many keep-alive connections. publish
#: uses one: a publisher sends a table's versions one after another, and
#: with two clients each publish's latency would mix its own work with a
#: wait for the other's on the single engine thread.
CONNECTIONS = min(2, os.cpu_count() or 1)
PUBLISH_CONNECTIONS = 1
#: A generator busier than this share of one core could cap throughput.
MAX_GENERATOR_CPU_SHARE = 0.5
#: Upper bound on lookup request rate, used to size the timed sequence
#: (about 2.5x the rate measured on a 2-core host; a run whose sequence
#: runs out is marked invalid rather than wrapped around).
LOOKUP_MAX_RATE = 5000
#: Publish epochs per second of ``--seconds``: the fixed publish sequence
#: takes about ``--seconds`` on a 2-core host.
PUBLISH_EPOCHS_PER_S = 4
HEALTHZ_FLOOR_REQUESTS = 2000
#: Rows of the table ``sanitize`` loads, sampled from the population.
SANITIZE_ROWS = 10000
#: Tail percentile per workload: the highest with >= 10 samples beyond it.
TAIL = {"lookup": 0.99, "lookup-sharded": 0.99, "sanitize": 0.90, "publish": 0.90}


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


WORK_BASE = ROOT / ".perfbench-work"


def make_workdir() -> Path:
    WORK_BASE.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK_BASE))


def copy_state(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


# ----------------------------------------------------------------------
# HTTP workloads
# ----------------------------------------------------------------------
class HttpWorkload:
    """Inputs, server flags and answer checks of one HTTP workload."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        from inputs import build_lookup, build_publish

        self.name = name
        self.publish = name == "publish"
        self.connections = PUBLISH_CONNECTIONS if self.publish else CONNECTIONS
        if self.publish:
            self.inputs = build_publish(
                seed, max(2, math.ceil(seconds * PUBLISH_EPOCHS_PER_S)), self.connections
            )
            self.prime_ids = self.inputs.prime
            self.lanes = self.inputs.lanes
        else:
            self.inputs = build_lookup(seed, max(20000, int(seconds * LOOKUP_MAX_RATE)))
            self.prime_ids = self.inputs.corpus
            self.lanes = [self.inputs.timed]

    def serve_args(self, state: Path) -> list[str]:
        if self.publish:
            return ["--ledger-file", str(state / "ledger.sqlite")]
        args = ["--cache-file", str(state / "cache")]
        return args + (["--shards", "2"] if self.name == "lookup-sharded" else [])

    def prime(self, workdir: Path) -> Path:
        """Untimed priming pass: persisted state for every later boot."""
        from httpraw import RawClient
        from procs import Server

        state = workdir / "state"
        state.mkdir()
        server = Server(self.serve_args(state), workdir, "prime")
        server.start()
        try:
            client = RawClient(server.host, server.port)
            for req in self.prime_ids:
                status, body = client.send(self.inputs.requests[req])
                if status != 200:
                    raise RuntimeError(f"priming request failed ({status}): {body[:300]!r}")
            client.close()
        finally:
            if server.stop() != 0:
                raise RuntimeError("priming server did not exit cleanly")
        return state

    def drive(self, server, workdir: Path, seconds: float, trace_dir: Path | None) -> dict:
        """Run the generator process against ``server``; stop the server."""
        from procs import child_env, cpu_times, steal_share, vm_hwm_mb

        tag = "traced" if trace_dir else "plain"
        spec_path, result_path = workdir / f"spec-{tag}.pkl", workdir / f"result-{tag}.pkl"
        spec = {
            "host": server.host,
            "port": server.port,
            "server_pid": server.pid,
            "connections": self.connections,
            "requests": self.inputs.requests,
            "warmup": self.inputs.warmup if self.publish else [self.inputs.warmup],
            "lanes": self.lanes,
            "seconds": None if self.publish else seconds,
            "trace_dir": str(trace_dir) if trace_dir else None,
            "healthz_floor": HEALTHZ_FLOOR_REQUESTS if trace_dir else 0,
        }
        try:
            with open(spec_path, "wb") as handle:
                pickle.dump(spec, handle, protocol=pickle.HIGHEST_PROTOCOL)
            cpu0 = cpu_times()
            subprocess.run(
                [sys.executable, str(HERE / "loadgen.py"), str(spec_path), str(result_path)],
                env=child_env(workdir),
                cwd=ROOT,
                check=True,
                timeout=seconds + 120,
            )
            steal = steal_share(cpu0, cpu_times())
            hwm = vm_hwm_mb(server.pid)
        finally:
            code = server.stop()
        with open(result_path, "rb") as handle:
            result = pickle.load(handle)
        result["peak_rss_mb"] = hwm
        result["host_steal_share"] = steal
        result["exit_code"] = code
        result["stats_before"] = json.loads(result["stats_before"])
        result["stats_after"] = json.loads(result["stats_after"])
        return result

    def sent(self, result: dict) -> list[list[int]]:
        """Request ids attempted in the timed phase, per lane, in send order."""
        count = [0] * len(self.lanes)
        for lane, pos, _req, _ns, _status, _done in result["record"]:
            count[lane] = max(count[lane], pos + 1)
        return [lane[:n] for lane, n in zip(self.lanes, count)]

    def verify(self, result: dict) -> tuple[set, dict]:
        """Request ids answered wrongly, plus publish verdicts."""
        from verify import verify_lookup, verify_publish

        bad = set(result["mismatched"])
        if self.publish:
            wrong, verdicts = verify_publish(self.inputs.meta, self.sent(result), result["responses"])
            return bad | set(wrong), verdicts
        return bad | set(verify_lookup(self.inputs.requests, result["responses"])), {}

    def properties(self, result: dict, verdicts: dict) -> dict:
        """Measured workload properties of the attempted timed operations."""
        requests, meta = self.inputs.requests, self.inputs.meta
        sent = [req for lane in self.sent(result) for req in lane]
        sizes = sorted(len(requests[req].partition(b"\r\n\r\n")[2]) for req in sent)
        props = {
            "operations": len(sent),
            "body_bytes_quartiles": statistics.quantiles(sizes, n=4) if len(sizes) > 1 else sizes,
        }
        if self.publish:
            kinds = Counter(meta[req][0] for req in sent)
            pubs = [verdicts[req] for req in sent if req in verdicts]
            evaluated = sum(v["work"]["release_evaluated"] for v in pubs)
            reused = sum(v["work"]["reused_multisets"] for v in pubs)
            props.update(
                endpoint_mix={k: n / len(sent) for k, n in kinds.items()},
                accept_share=sum(v["accepted"] for v in pubs) / max(1, len(pubs)),
                policy_change_share=sum(
                    (not v["work"]["incremental"]) and v["composition"]["prior_accepted_releases"] > 0
                    for v in pubs
                )
                / max(1, len(pubs)),
                reuse_share=reused / max(1, evaluated + reused),
            )
            return props
        seen_bytes = {requests[req] for req in self.prime_ids}
        seen_ids = {meta[req][4] for req in self.prime_ids}
        kinds: Counter = Counter()
        for req in sent:
            data, identity = requests[req], meta[req][4]
            if data in seen_bytes:
                kinds["byte_identical_repeat"] += 1
            elif identity in seen_ids:
                kinds["equal_signature_variant"] += 1
            else:
                kinds["never_seen"] += 1
            seen_bytes.add(data)
            seen_ids.add(identity)
        total = len(sent)
        props.update(
            question_shares={k: n / total for k, n in kinds.items()},
            endpoint_mix={k: n / total for k, n in Counter(meta[r][1] for r in sent).items()},
            model_mix={k: n / total for k, n in Counter(meta[r][2] for r in sent).items()},
            exact_share=sum(meta[r][3] for r in sent) / total,
        )
        return props


def latency_metrics(result: dict, workload: str) -> tuple[dict, dict]:
    ok = sorted(ns for *_rest, ns, status, _done in result["record"] if 200 <= status < 300)
    if not ok:
        raise RuntimeError("no operation succeeded")
    throughput = sum(ops / (ns / 1e9) for ops, ns in result["per_conn"] if ns > 0)
    tail = TAIL[workload]
    metrics = {
        "throughput_rps": metric(throughput, "ops/s"),
        "latency_p50_ms": metric(percentile(ok, 0.5) / 1e6, "ms"),
        "latency_tail_ms": metric(percentile(ok, tail) / 1e6, "ms"),
    }
    info = {
        "latency_samples": len(ok),
        "tail_percentile": round(tail * 100),
        "samples_beyond_tail": len(ok) - math.ceil(tail * len(ok)),
        "mean_latency_us": sum(ok) / len(ok) / 1e3,
    }
    return metrics, info


def generator_check(result: dict) -> dict:
    wall = result["wall_ns"] / 1e9
    share = result["cpu_s"] / wall if wall > 0 else 0.0
    nproc = os.cpu_count() or 1
    valid = (
        result["connections_opened"] <= nproc
        and share < MAX_GENERATOR_CPU_SHARE
        and result["complete"]
    )
    return {
        "loadgen_cpu_share": share,
        "connections": result["connections"],
        "connections_opened": result["connections_opened"],
        "nproc": nproc,
        "sequence_long_enough": result["complete"],
        "valid": valid,
    }


def count_failures(result: dict, bad: set) -> tuple[int, int, dict]:
    """Timed operations attempted and failed. A wrong answer counts as a
    failed operation; wrong warm-up answers, warm-up failures and an
    unclean server exit count too, so a run can only pass clean."""
    attempted = len(result["record"])
    timed = {req for _lane, _pos, req, _ns, _status, _done in result["record"]}
    failed_ops = sum(
        1 for *_rest, req, _ns, status, _done in result["record"] if not 200 <= status < 300 or req in bad
    )
    detail = dict(result["failures"])
    detail["verification_mismatches"] = len(bad)
    detail["warmup_failures"] = sum(result["warmup_failures"].values())
    detail["server_exit_code"] = result["exit_code"]
    failed = failed_ops + len(bad - timed) + detail["warmup_failures"] + (result["exit_code"] != 0)
    return attempted, failed, detail


def stat_counters(stats: dict) -> Counter:
    """Flatten ``/stats`` (single service or router) into summable counters."""
    counters: Counter = Counter()
    if "router" in stats:
        shards = [s for s in stats["shards"] if "service" in s]
        services = [s["service"] for s in shards]
        engines = [e for s in shards for e in s["engines"].values()]
        for key in ("route_memo_hits", "fast_hits", "proxied", "coalesced_batches", "requests_total"):
            counters[f"router.{key}"] = stats["router"][key]
    else:
        services, engines = [stats["service"]], list(stats["engines"].values())
    for service in services:
        counters["single_requests"] += service["single_requests"]
        counters["safety_requests"] += service["by_endpoint"].get("/safety", 0)
        counters["cache_fast_hits"] += service["cache_fast_hits"]
        counters["coalesced_batches"] += service["coalesced_batches"]
        counters["coalesced_singles"] += service["coalesced_singles"]
    for engine in engines:
        counters["evaluations"] += engine["stats"]["evaluations"]
        counters["cache_hits"] += engine["stats"]["cache_hits"]
        counters["signatures_shipped"] += engine["backend"].get("signatures_shipped", 0)
        counters["workers_alive"] += engine["backend"].get("workers_alive", 0)
    return counters


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_delta(before: dict, after: dict) -> dict:
    """``name -> (count, ns)`` accumulated between two trace snapshots."""
    out = {}
    for name, (count, ns, _hist) in after.items():
        c0, n0, _h = before.get(name, (0, 0, None))
        out[name] = (count - c0, ns - n0)
    return out


#: Every per-layer metric with its unit (``BENCHMARK.json`` lists the same).
LAYER_UNITS = {
    "httpbase.dispatch_us": "us/op",
    "httpbase.transport_us": "us/op",
    "httpbase.healthz_floor_us": "us",
    "httpbase.client_mean_us": "us",
    "server.parse_us": "us/op",
    "server.self_warm_us": "us/op",
    "server.self_cold_us": "us/op",
    "server.fast_hit_ratio": "ratio",
    "server.coalesced_batch_mean": "count",
    "wire.keying_us": "us/op",
    "wire.bucketize_us": "us/op",
    "wire.encode_us": "us/op",
    "router.route_memo_hit_ratio": "ratio",
    "router.fast_hit_ratio": "ratio",
    "router.forwarded": "count/op",
    "router.coalesced_batches": "count/op",
    "engine.peek_us": "us/op",
    "engine.evaluate_us": "us/op",
    "engine.cache_hit_ratio": "ratio",
    "engine.load_cache_s": "s",
    "backend.run_us": "us/op",
    "backend.batches": "count/op",
    "backend.signatures_shipped": "count/op",
    "backend.errors": "count",
    "kernel.calls": "count/op",
    "kernel.busy_us": "us/op",
    "kernel.dp_cells": "count/op",
    "generalization.bucketize_us": "us/op",
    "search.predicate_checks": "count/session",
    "search.pruned": "count/session",
    "search.signature_memo_hit_ratio": "ratio",
    "publish.publish_us": "us/op",
    "publish.reuse_ratio": "ratio",
    "publish.composition_evaluated": "count/publish",
    "ledger.record_us": "us/op",
    "ledger.accepted_contents_us": "us/op",
    "loadgen.cpu_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


#: Layers the traced ``lookup`` run takes from its publish phase.
PUBLISH_PHASE_LAYERS = (
    "publish.publish_us",
    "publish.reuse_ratio",
    "publish.composition_evaluated",
    "ledger.record_us",
    "ledger.accepted_contents_us",
)


def layer_metrics(values: dict) -> dict:
    """All per-layer metrics; a layer the workload did not run reports 0."""
    return {name: metric(values.get(name, 0.0), unit) for name, unit in LAYER_UNITS.items()}


def wrapped_layers(delta: dict, ops: int) -> dict:
    """Values of the layers timed by the wrappers in ``tracing.py``."""

    def us(*names):
        return sum(delta.get(n, (0, 0))[1] for n in names) / ops / 1e3

    def count(*names):
        return sum(delta.get(n, (0, 0))[0] for n in names)

    return {
        "httpbase.dispatch_us": us("dispatch"),
        "server.parse_us": us("parse"),
        "wire.keying_us": us("keying"),
        "wire.bucketize_us": us("bucketize"),
        "wire.encode_us": us("encode"),
        "engine.peek_us": us("peek"),
        "engine.evaluate_us": us("engine"),
        "backend.run_us": us("backend.run"),
        "backend.batches": count("backend.run") / ops,
        "backend.errors": count("backend.errors"),
        "kernel.calls": count("kernel.minimize1", "kernel.min_ratio") / ops,
        "kernel.busy_us": us("kernel.minimize1", "kernel.min_ratio"),
        "kernel.dp_cells": count("kernel.dp_cells") / ops,
        "generalization.bucketize_us": us("bucketize_at"),
        "publish.publish_us": us("publish"),
        "ledger.record_us": us("ledger.record"),
        "ledger.accepted_contents_us": us("ledger.accepted_contents"),
    }


def http_layer_metrics(work: HttpWorkload, traced: dict, plain_rps: float, trace_dir: Path, verdicts: dict):
    snap1, snap2 = (json.loads((trace_dir / f"snap-{i}.json").read_text()) for i in (1, 2))
    delta = layer_delta(snap1, snap2)
    ops = len(traced["record"])
    values = wrapped_layers(delta, ops)
    _lat, info = latency_metrics(traced, work.name)
    client_us = info["mean_latency_us"]

    def ns(name):
        return delta.get(name, (0, 0))[1]

    executor_ns = ns("engine") - ns("engine.in_publish") + ns("publish")
    c0, c1 = stat_counters(traced["stats_before"]), stat_counters(traced["stats_after"])
    d = {key: c1[key] - c0[key] for key in c1}
    traced_rps = sum(o / (n / 1e9) for o, n in traced["per_conn"] if n > 0)
    values.update(
        {
            "httpbase.client_mean_us": client_us,
            "httpbase.transport_us": client_us - values["httpbase.dispatch_us"],
            "httpbase.healthz_floor_us": statistics.median(traced["healthz_ns"]) / 1e3,
            "server.self_warm_us": (ns("dispatch.warm") - ns("children.warm")) / ops / 1e3,
            "server.self_cold_us": (ns("dispatch.cold") - ns("children.cold") - executor_ns) / ops / 1e3,
            "server.fast_hit_ratio": ratio(d["cache_fast_hits"], d["single_requests"] + d["safety_requests"]),
            "server.coalesced_batch_mean": ratio(d["coalesced_singles"], d["coalesced_batches"]),
            "router.route_memo_hit_ratio": ratio(d.get("router.route_memo_hits", 0), ops),
            "router.fast_hit_ratio": ratio(d.get("router.fast_hits", 0), ops),
            "router.forwarded": ratio(d.get("router.proxied", 0), ops),
            "router.coalesced_batches": ratio(d.get("router.coalesced_batches", 0), ops),
            "engine.cache_hit_ratio": ratio(d["cache_hits"], d["evaluations"]),
            "engine.load_cache_s": snap1.get("load_cache", (0, 0))[1] / 1e9,  # boot precedes snap 1
            "backend.signatures_shipped": d["signatures_shipped"] / ops,
            "loadgen.cpu_share": generator_check(traced)["loadgen_cpu_share"],
            "trace.overhead_ratio": ratio(traced_rps, plain_rps),
        }
    )
    if verdicts:
        pubs = list(verdicts.values())
        evaluated = sum(v["work"]["release_evaluated"] for v in pubs)
        reused = sum(v["work"]["reused_multisets"] for v in pubs)
        values["publish.reuse_ratio"] = ratio(reused, evaluated + reused)
        values["publish.composition_evaluated"] = ratio(
            sum(v["work"]["composition_evaluated"] for v in pubs), len(pubs)
        )
    parts = {
        name: values[name]
        for name in (
            "httpbase.transport_us",
            "server.parse_us",
            "wire.keying_us",
            "wire.bucketize_us",
            "wire.encode_us",
            "engine.peek_us",
            "server.self_warm_us",
            "server.self_cold_us",
        )
    }
    parts["executor_us"] = executor_ns / ops / 1e3
    accounting = {
        "client_mean_us": client_us,
        "parts_us": parts,
        "parts_sum_us": sum(parts.values()),
        "residuals_nonnegative": min(
            parts["httpbase.transport_us"], parts["server.self_warm_us"], parts["server.self_cold_us"]
        )
        >= 0,
        "shard_mode": shard_mode(traced["stats_after"]),
    }
    return layer_metrics(values), accounting


def shard_mode(stats: dict) -> str:
    return stats["router"]["shard_mode"] if "router" in stats else "single"


def run_http(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    from procs import Server

    t_gen = time.perf_counter()
    work = HttpWorkload(name, seed, seconds)
    gen_s = time.perf_counter() - t_gen
    state = work.prime(workdir)
    report: dict = {"input_generation_s": gen_s}
    launches = []

    def launch(tag: str, trace_dir: Path | None = None):
        server = Server(work.serve_args(copy_state(state, workdir / f"state-{tag}")), workdir, tag, trace_dir=trace_dir)
        launches.append(server.start())
        return server

    runs = []
    unclean_exits = 0
    if not trace:
        for i in range(SETUP_LAUNCHES - 1):
            unclean_exits += launch(f"setup{i}").stop() != 0
    plain = work.drive(launch("plain"), workdir, seconds, None)
    runs.append(plain)
    if trace:
        trace_dir = workdir / "trace"
        trace_dir.mkdir()
        traced = work.drive(launch("traced", trace_dir), workdir, seconds, trace_dir)
        runs.append(traced)
    attempted, failed = 0, unclean_exits
    verdicts: dict = {}
    report["runs"] = []
    report["setup_unclean_exits"] = unclean_exits
    for result in runs:
        bad, verdicts = work.verify(result)
        a, f, detail = count_failures(result, bad)
        attempted += a
        failed += f
        check = generator_check(result)
        lat, info = latency_metrics(result, name)
        report["runs"].append(
            {
                "traced": result is not plain,
                "attempted": a,
                "succeeded": a - f,
                "failed": f,
                "failures": detail,
                "generator": check,
                "latency": info,
                "throughput_rps": lat["throughput_rps"]["value"],
                "shard_mode": shard_mode(result["stats_after"]),
                "backend_workers_alive_at_start": stat_counters(result["stats_before"])["workers_alive"],
                "host_steal_share": result["host_steal_share"],
                "properties": work.properties(result, verdicts),
            }
        )
    valid = all(r["generator"]["valid"] for r in report["runs"])
    if trace:
        metrics, accounting = http_layer_metrics(
            work, traced, report["runs"][0]["throughput_rps"], trace_dir, verdicts
        )
        report["accounting"] = accounting
        if name == "lookup":
            # publish is not a workload of BENCHMARK.json (its timings
            # spread too widely on a shared host), so its publish and
            # ledger layers are traced here, against a server of its own.
            # Half length keeps the whole traced run well inside 180 s.
            sub = workdir / "publish-phase"
            sub.mkdir()
            phase_metrics, phase_attempted, phase_failed, phase_valid, phase_report = run_http(
                "publish", seed, seconds / 2, True, sub
            )
            for key in PUBLISH_PHASE_LAYERS:
                metrics[key] = phase_metrics[key]
            attempted += phase_attempted
            failed += phase_failed
            valid = valid and phase_valid
            report["publish_phase"] = phase_report
    else:
        metrics, _info = latency_metrics(plain, name)
        metrics["setup_s"] = metric(statistics.median(launches), "s")
        metrics["peak_rss_mb"] = metric(plain["peak_rss_mb"], "MB")
        report["setup_launches_s"] = launches
    return metrics, attempted, failed, valid, report


# ----------------------------------------------------------------------
# sanitize
# ----------------------------------------------------------------------
def run_sanitize(seed: int, seconds: float, trace: bool, workdir: Path):
    from inputs import population
    from procs import child_env, cpu_times, read_line, steal_share
    from repro.data import save_csv
    from sanitize_driver import POLICIES
    from verify import minimal_by_scan

    csv_path = workdir / "adult.csv"
    save_csv(population().sample(SANITIZE_ROWS, seed=seed), csv_path)
    launches = []

    def driver(tag: str, *flags: str) -> dict | None:
        result_path = workdir / f"sanitize-{tag}.pkl"
        argv = [sys.executable, str(HERE / "sanitize_driver.py"), str(csv_path), str(result_path)]
        argv += ["--seconds", str(seconds), *flags]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(workdir), cwd=ROOT)
        try:
            if read_line(proc, 120).strip() != b"ready":
                raise RuntimeError("sanitize driver did not report ready")
            launches.append(time.perf_counter() - t0)
            cpu0 = cpu_times()
            proc.communicate(timeout=seconds + 150)
            steal = steal_share(cpu0, cpu_times())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(f"sanitize driver exited with {proc.returncode}")
        if "--probe" in flags:
            return None
        with open(result_path, "rb") as handle:
            result = pickle.load(handle)
        result["host_steal_share"] = steal
        return result

    if not trace:
        for i in range(SETUP_LAUNCHES - 1):
            driver(f"probe{i}", "--probe")
    runs = [driver("plain")]
    if trace:
        runs.append(driver("traced", "--trace"))
    expected = minimal_by_scan(str(csv_path), POLICIES)
    attempted = failed = 0
    report: dict = {"runs": []}
    for run in runs:
        bad_checks = 0
        for session in run["sessions"]:
            for result in session["results"]:
                if result["minimal"] != expected[tuple(result["policy"])]:
                    bad_checks += result["checks"]
        attempted += len(run["latencies"])
        failed += bad_checks
        lat = sorted(run["latencies"])
        first = run["sessions"][0]
        report["runs"].append(
            {
                "traced": run is not runs[0],
                "attempted": len(lat),
                "succeeded": len(lat) - bad_checks,
                "failed": bad_checks,
                "failures": {"verification_mismatches": bad_checks},
                "throughput_rps": len(lat) / (run["wall_ns"] / 1e9),
                "host_steal_share": run["host_steal_share"],
                "latency": {
                    "latency_samples": len(lat),
                    "tail_percentile": 90,
                    "samples_beyond_tail": len(lat) - math.ceil(0.9 * len(lat)),
                },
                "properties": {
                    "rows": run["rows"],
                    "nodes": run["nodes"],
                    "policies": [list(p) for p in POLICIES],
                    "sessions": len(run["sessions"]),
                    "checks_per_session": sum(r["checks"] for r in first["results"]),
                    "minimal_nodes": {str(r["policy"]): r["minimal"] for r in first["results"]},
                },
            }
        )
    plain = runs[0]
    lat = sorted(plain["latencies"])
    if trace:
        traced = runs[1]
        before, after = traced["trace"]
        delta = layer_delta(before, after)
        ops = len(traced["latencies"])
        sessions = traced["sessions"]
        values = wrapped_layers(delta, ops)
        checks = sum(r["checks"] for s in sessions for r in s["results"])
        evaluations = sum(s["evaluations"] for s in sessions)
        values.update(
            {
                "engine.cache_hit_ratio": ratio(sum(s["cache_hits"] for s in sessions), evaluations),
                "search.predicate_checks": checks / len(sessions),
                "search.pruned": sum(r["pruned"] for s in sessions for r in s["results"]) / len(sessions),
                # the engine is only called by the predicate on a memo miss
                "search.signature_memo_hit_ratio": ratio(checks - evaluations, checks),
                "trace.overhead_ratio": ratio(
                    report["runs"][1]["throughput_rps"], report["runs"][0]["throughput_rps"]
                ),
            }
        )
        metrics = layer_metrics(values)
    else:
        metrics = {
            "throughput_rps": metric(len(lat) / (plain["wall_ns"] / 1e9), "ops/s"),
            "latency_p50_ms": metric(percentile(lat, 0.5) / 1e6, "ms"),
            "latency_tail_ms": metric(percentile(lat, TAIL["sanitize"]) / 1e6, "ms"),
            "setup_s": metric(statistics.median(launches), "s"),
            "peak_rss_mb": metric(plain["peak_rss_mb"], "MB"),
        }
        report["setup_launches_s"] = launches
    return metrics, attempted, failed, True, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from inputs import DEFAULT_SEED

    seed = DEFAULT_SEED if args.seed is None else args.seed
    # SIGTERM unwinds through the finally blocks that stop every child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = make_workdir()
    os.environ["TMPDIR"] = str(workdir)
    try:
        if args.workload == "sanitize":
            outcome = run_sanitize(seed, args.seconds, bool(args.trace), workdir)
        else:
            outcome = run_http(args.workload, seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_BASE.rmdir()  # only when no other run is using it
    metrics, attempted, failed, valid, report = outcome
    report.update(workload=args.workload, seed=seed, default_seed=DEFAULT_SEED, seconds=args.seconds,
                  trace=args.trace, valid=valid)
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": failed == 0 and valid,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
