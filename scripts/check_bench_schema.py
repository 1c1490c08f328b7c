#!/usr/bin/env python
"""Validate BENCH_*.json benchmark artifacts — schema and cross-run drift.

CI's bench-smoke job runs the JSON-emitting benchmarks at tiny sizes and
then this checker, so schema drift (a renamed or dropped key, a version
bump without a matching update here) fails the build instead of silently
breaking the cross-PR perf trajectory.

Two modes:

``check`` (the default)
    Validate each artifact against its required key set and invariants::

        python scripts/check_bench_schema.py BENCH_engine.json \\
            BENCH_service.json BENCH_publish.json

``--compare BASELINE.json FRESH.json``
    The CI regression gate: validate FRESH as above, then require that
    every key (recursively, through nested sections) present in the
    committed BASELINE is still present in FRESH — a dropped section is a
    build failure, because it silently truncates the perf trajectory.
    Timing-valued fields (``*_s``, ``*_ms``, ``*requests_per_s``,
    ``*speedup``) are compared **tolerantly** (an order-of-magnitude
    band, machines differ) and skipped entirely when either record was
    produced under ``BENCH_TINY`` — tiny workloads measure nothing.
"""

from __future__ import annotations

import json
import sys

SCHEMA_VERSION = 1

#: Ratio beyond which a (non-tiny) timing comparison fails. Deliberately
#: generous: this gate exists to catch pathological regressions and unit
#: mixups (ms recorded as s), not 20% noise between machines.
TIMING_TOLERANCE = 10.0

#: Required keys per benchmark name (the shared envelope plus specifics).
ENVELOPE = {"benchmark", "schema_version", "python", "tiny"}
REQUIRED = {
    "engine": ENVELOPE
    | {
        "wall_time_s",
        "rows",
        "nodes",
        "models",
        "ks",
        "epochs",
        "cache_hit_rate",
        "cache_entries",
        "evictions",
        "stats",
        "kernel",
    },
    "service": ENVELOPE
    | {
        "backend",
        "workers",
        "k",
        "questions",
        "warm_repeats",
        "cold_ms",
        "warm_ms",
        "requests_per_s",
        "sequential_s",
        "batch_s",
        "batch_speedup",
        "concurrent_clients",
        "concurrent_s",
        "coalesced_batches",
        "coalesced_singles",
        "max_coalesced",
        "identical_results",
        "latency",
        "router_overhead",
        "keepalive",
        "sharded",
        "multi_tenant",
    },
    "publish": ENVELOPE | {"k", "c", "float", "exact"},
}

#: Keys required inside each of the publish record's per-mode sections.
PUBLISH_MODE_KEYS = {
    "versions",
    "buckets_final",
    "distinct_multisets_final",
    "accepted_versions",
    "identical_results",
    "full_evaluated_multisets",
    "incremental_evaluated_multisets",
    "reused_multisets",
    "evaluated_ratio",
    "full_wall_ms",
    "incremental_wall_ms",
    "speedup",
}

#: Keys required inside the engine record's ``kernel`` section, and the
#: speedup floor the committed (non-tiny) baseline must demonstrate.
KERNEL_KEYS = {
    "kernels",
    "numpy_available",
    "distinct_signatures",
    "nodes",
    "max_m",
    "max_k",
    "scalar_minimize1_s",
    "numpy_minimize1_s",
    "minimize1_speedup",
    "scalar_min_ratio_s",
    "numpy_min_ratio_s",
    "min_ratio_speedup",
    "identical_results",
}
KERNEL_SPEEDUP_FLOOR = 5.0

#: Keys required inside the service record's nested sections.
KEEPALIVE_KEYS = {
    "warm_repeats",
    "requests_per_s",
    "per_connection_requests_per_s",
    "speedup",
}
LATENCY_KEYS = {"p50_ms", "p95_ms", "p99_ms"}
ROUTER_OVERHEAD_KEYS = {
    "iterations",
    "reparse_us",
    "keyed_us",
    "memo_us",
    "keyed_speedup",
    "memo_speedup",
}
SHARDED_KEYS = (
    LATENCY_KEYS
    | {
        "shards",
        "shard_mode",
        "clients",
        "requests",
        "requests_per_s",
        "single_requests_per_s",
        "requests_per_s_ratio",
        "split_batches",
        "route_memo_hits",
        "reparse_avoided",
        "fast_hits",
        "coalesced_batches",
        "identical_results",
    }
)
MULTI_TENANT_KEYS = {
    "tenants",
    "questions",
    "requests",
    "requests_per_s",
    "per_tenant_requests",
    "per_tenant_cache_entries",
    "cache_files",
    "cache_isolated",
    "identical_results",
}


def _load(path: str):
    with open(path) as handle:
        return json.load(handle)


def check(path: str) -> list[str]:
    errors: list[str] = []
    try:
        record = _load(path)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable ({exc})"]
    name = record.get("benchmark")
    required = REQUIRED.get(name)
    if required is None:
        return [f"{path}: unknown benchmark name {name!r}"]
    if record.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"{path}: schema_version {record.get('schema_version')!r} "
            f"!= {SCHEMA_VERSION}"
        )
    missing = sorted(required - set(record))
    if missing:
        errors.append(f"{path}: missing keys {missing}")
    if name == "engine":
        errors.extend(_check_engine(path, record))
    if name == "service":
        errors.extend(_check_service(path, record))
    if name == "publish":
        errors.extend(_check_publish(path, record))
    return errors


def _check_publish(path: str, record: dict) -> list[str]:
    """The publish record's invariants, per arithmetic mode: incremental
    decisions bit-identical to the full from-scratch re-check (and to the
    whole-table engine answer), strictly fewer multisets evaluated than
    full, and nonzero ledger reuse."""
    errors: list[str] = []
    for mode in ("float", "exact"):
        section = record.get(mode)
        if not isinstance(section, dict):
            errors.append(f"{path}: {mode!r} must be an object")
            continue
        missing = sorted(PUBLISH_MODE_KEYS - set(section))
        if missing:
            errors.append(f"{path}: {mode} missing keys {missing}")
        if section.get("identical_results") is not True:
            errors.append(
                f"{path}: {mode} incremental republication diverged from "
                f"the full re-check"
            )
        evaluated = section.get("incremental_evaluated_multisets")
        full_evaluated = section.get("full_evaluated_multisets")
        if (
            isinstance(evaluated, int)
            and isinstance(full_evaluated, int)
            and evaluated >= full_evaluated
        ):
            errors.append(
                f"{path}: {mode} incremental evaluated {evaluated} "
                f"multisets, not strictly fewer than full's "
                f"{full_evaluated}"
            )
        reused = section.get("reused_multisets")
        if isinstance(reused, int) and reused <= 0:
            errors.append(f"{path}: {mode} recorded no ledger reuse")
    return errors


def _check_engine(path: str, record: dict) -> list[str]:
    """The engine record's ``kernel`` section invariants: all keys present,
    and — whenever the numpy kernel actually ran — bit-identical results.
    The >= 5x MINIMIZE1 speedup floor is only meaningful at bench scale, so
    it is enforced for non-tiny records (the committed baseline)."""
    errors: list[str] = []
    section = record.get("kernel")
    if not isinstance(section, dict):
        return [f"{path}: 'kernel' must be an object"]
    missing = sorted(KERNEL_KEYS - set(section))
    if missing:
        errors.append(f"{path}: kernel missing keys {missing}")
    if not section.get("numpy_available"):
        return errors  # scalar-only environment: nothing to compare
    if section.get("identical_results") is not True:
        errors.append(
            f"{path}: numpy kernel results diverged from the scalar kernel"
        )
    speedup = section.get("minimize1_speedup")
    if not record.get("tiny") and (
        not isinstance(speedup, (int, float))
        or speedup < KERNEL_SPEEDUP_FLOOR
    ):
        errors.append(
            f"{path}: kernel minimize1_speedup {speedup!r} below the "
            f"x{KERNEL_SPEEDUP_FLOOR:g} floor"
        )
    return errors


def _check_service(path: str, record: dict) -> list[str]:
    """The service record's invariants: served values bit-identical to the
    direct engine (single, batch, keep-alive and sharded topologies),
    concurrent singles actually coalesced, the latency / router-overhead /
    keep-alive / sharded / multi-tenant sections present and complete,
    tenants provably cache-isolated, and — at bench scale (non-tiny) —
    the sharded topology at least matching the single service's req/s
    (the PR-7 routing-hot-path floor)."""
    errors: list[str] = []
    if record.get("identical_results") is not True:
        errors.append(f"{path}: service answers diverged from the engine")
    batches = record.get("coalesced_batches")
    if not isinstance(batches, int) or batches < 1:
        errors.append(
            f"{path}: no coalesced batches recorded "
            f"(coalesced_batches={batches!r})"
        )
    for section, required in (
        ("latency", LATENCY_KEYS),
        ("router_overhead", ROUTER_OVERHEAD_KEYS),
        ("keepalive", KEEPALIVE_KEYS),
        ("sharded", SHARDED_KEYS),
        ("multi_tenant", MULTI_TENANT_KEYS),
    ):
        entry = record.get(section)
        if not isinstance(entry, dict):
            errors.append(f"{path}: {section!r} must be an object")
            continue
        missing = sorted(required - set(entry))
        if missing:
            errors.append(f"{path}: {section} missing keys {missing}")
    sharded = record.get("sharded")
    if isinstance(sharded, dict) and sharded.get("identical_results") is not True:
        errors.append(
            f"{path}: sharded deployment diverged from the single engine"
        )
    multi_tenant = record.get("multi_tenant")
    if isinstance(multi_tenant, dict):
        if multi_tenant.get("identical_results") is not True:
            errors.append(
                f"{path}: multi-tenant answers diverged from the per-tenant "
                f"direct engines"
            )
        if multi_tenant.get("cache_isolated") is not True:
            errors.append(
                f"{path}: tenants shared cache state "
                f"(multi_tenant.cache_isolated is not true)"
            )
    if isinstance(sharded, dict) and not record.get("tiny"):
        sharded_rps = sharded.get("requests_per_s")
        single_rps = sharded.get("single_requests_per_s")
        if (
            isinstance(sharded_rps, (int, float))
            and isinstance(single_rps, (int, float))
            and sharded_rps < single_rps
        ):
            errors.append(
                f"{path}: sharded throughput {sharded_rps} req/s below the "
                f"single-service floor of {single_rps} req/s"
            )
    return errors


# ---------------------------------------------------------------------------
# --compare: the regression gate between a committed baseline and a fresh run
# ---------------------------------------------------------------------------
def _is_timing_key(key: str) -> bool:
    return (
        key.endswith("_s")
        or key.endswith("_ms")
        or key.endswith("requests_per_s")
        or key.endswith("speedup")
    )


def _missing_keys(baseline, fresh, prefix: str = "") -> list[str]:
    """Every key path present in ``baseline`` but absent from ``fresh``."""
    missing: list[str] = []
    for key, value in baseline.items():
        path = f"{prefix}{key}"
        if key not in fresh:
            missing.append(path)
        elif isinstance(value, dict) and isinstance(fresh[key], dict):
            missing.extend(_missing_keys(value, fresh[key], f"{path}."))
    return missing


def _timing_drift(baseline, fresh, prefix: str = "") -> list[str]:
    """Tolerant timing comparison over shared numeric timing fields."""
    drifted: list[str] = []
    for key, base_value in baseline.items():
        path = f"{prefix}{key}"
        fresh_value = fresh.get(key)
        if isinstance(base_value, dict) and isinstance(fresh_value, dict):
            drifted.extend(_timing_drift(base_value, fresh_value, f"{path}."))
            continue
        if not _is_timing_key(key):
            continue
        if not isinstance(base_value, (int, float)) or not isinstance(
            fresh_value, (int, float)
        ):
            continue
        if base_value <= 0 or fresh_value <= 0:
            continue  # degenerate measurements carry no signal
        ratio = fresh_value / base_value
        if ratio > TIMING_TOLERANCE or ratio < 1.0 / TIMING_TOLERANCE:
            drifted.append(
                f"{path}: {fresh_value} vs baseline {base_value} "
                f"(x{ratio:.2f}, tolerance x{TIMING_TOLERANCE:g})"
            )
    return drifted


def compare(baseline_path: str, fresh_path: str) -> list[str]:
    """The ``--compare`` mode: schema-check FRESH, then diff BASELINE->FRESH."""
    errors = check(fresh_path)
    try:
        baseline = _load(baseline_path)
    except (OSError, json.JSONDecodeError) as exc:
        return errors + [f"{baseline_path}: unreadable baseline ({exc})"]
    try:
        fresh = _load(fresh_path)
    except (OSError, json.JSONDecodeError):
        return errors  # already reported by check()
    if baseline.get("benchmark") != fresh.get("benchmark"):
        errors.append(
            f"{fresh_path}: benchmark {fresh.get('benchmark')!r} does not "
            f"match baseline {baseline.get('benchmark')!r}"
        )
        return errors
    if baseline.get("schema_version") != fresh.get("schema_version"):
        errors.append(
            f"{fresh_path}: schema_version {fresh.get('schema_version')!r} "
            f"!= baseline {baseline.get('schema_version')!r}"
        )
    missing = _missing_keys(baseline, fresh)
    if missing:
        errors.append(
            f"{fresh_path}: keys present in baseline {baseline_path} but "
            f"missing here: {missing}"
        )
    if baseline.get("tiny") or fresh.get("tiny"):
        return errors  # tiny workloads measure nothing; skip timings
    errors.extend(
        f"{fresh_path}: timing drift at {entry}"
        for entry in _timing_drift(baseline, fresh)
    )
    return errors


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if argv[0] == "--compare":
        if len(argv) != 3:
            print(
                "usage: check_bench_schema.py --compare BASELINE.json "
                "FRESH.json",
                file=sys.stderr,
            )
            return 2
        errors = compare(argv[1], argv[2])
        for error in errors:
            print(f"bench-compare error: {error}", file=sys.stderr)
        if not errors:
            print(f"ok: {argv[2]} matches baseline {argv[1]}")
        return 1 if errors else 0
    errors = [error for path in argv for error in check(path)]
    for error in errors:
        print(f"schema error: {error}", file=sys.stderr)
    if not errors:
        print(f"ok: {len(argv)} benchmark artifact(s) match schema v{SCHEMA_VERSION}")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
