"""The ``sanitize`` driver: the paper's lattice sanitization through the
public library API, with no HTTP.

``python3 perfbench/sanitize_driver.py CSV RESULT --seconds S [--probe] [--trace]``

Set-up loads the CSV, builds the 72-node lattice and one default
``DisclosureEngine``, then prints ``ready``; ``--probe`` exits there (the
orchestrator times several launches). Otherwise the driver runs whole
sessions until ``--seconds`` have passed. A session runs
``find_minimal_safe_nodes`` for every policy in :data:`POLICIES` against
one engine, so policies that share ``(k, model)`` reuse its cache; each
session after the first starts from a freshly built default engine so
every session does the same work. One operation is one lattice-node
safety check, timed around the predicate call.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
import time

#: (c, k, model); the first two share (k, model).
POLICIES = ((0.7, 3, "implication"), (0.8, 3, "implication"), (0.7, 2, "negation"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("csv")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro import ADULT_SCHEMA, DisclosureEngine, GeneralizationLattice, adult_hierarchies
    from repro.data import load_csv
    from repro.generalization import SearchStats, find_minimal_safe_nodes

    table = load_csv(args.csv, ADULT_SCHEMA)
    lattice = GeneralizationLattice(adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers)
    engine = DisclosureEngine()
    print("ready", flush=True)
    if args.probe:
        return 0

    rec = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import install

        rec = install()
    now = time.perf_counter_ns
    latencies: list[int] = []
    sessions = []
    before = rec.snapshot() if rec else None
    t0 = now()
    deadline = t0 + int(args.seconds * 1e9)
    while not sessions or now() < deadline:
        if sessions:
            engine = DisclosureEngine()
        results = []
        for c, k, model in POLICIES:
            predicate = engine.node_predicate(table, lattice, c, k, model=model)

            def timed(node, predicate=predicate):
                start = now()
                safe = predicate(node)
                latencies.append(now() - start)
                return safe

            stats = SearchStats()
            minimal = find_minimal_safe_nodes(lattice, timed, stats=stats)
            results.append(
                {
                    "policy": (c, k, model),
                    "minimal": sorted(minimal),
                    "checks": stats.predicate_checks,
                    "pruned": stats.pruned,
                }
            )
        sessions.append(
            {
                "results": results,
                "evaluations": engine.stats.evaluations,
                "cache_hits": engine.stats.cache_hits,
            }
        )
    wall_ns = now() - t0
    after = rec.snapshot() if rec else None
    with open(f"/proc/{os.getpid()}/status") as handle:
        hwm_kb = next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
    with open(args.result, "wb") as handle:
        pickle.dump(
            {
                "latencies": latencies,
                "wall_ns": wall_ns,
                "sessions": sessions,
                "rows": len(table),
                "nodes": lattice.size,
                "peak_rss_mb": hwm_kb / 1024.0,
                "trace": (before, after),
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
