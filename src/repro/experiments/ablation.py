"""Ablation studies of three of the implementation's design choices.

Three questions, each answerable with a function here:

1. **Single-bucket concentration** (:func:`single_bucket_gap`): does the
   cross-bucket machinery of MINIMIZE2 ever find a strictly better placement
   than the best single bucket? (Observed: never; the library keeps the
   general DP because the paper does not prove this.)
2. **Signature deduplication** (:func:`dedupe_speedup`): how much time does
   collapsing equal bucket signatures save at a given lattice node?
3. **Solver sharing** (:func:`memo_reuse_ratio`): how much MINIMIZE1 work is
   shared across a full lattice sweep (the paper's incremental-cost remark)?
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.core.minimize1 import Minimize1Solver
from repro.core.minimize2 import min_ratio_table
from repro.data.table import Table
from repro.generalization.apply import bucketize_at
from repro.generalization.lattice import GeneralizationLattice

__all__ = [
    "SingleBucketReport",
    "single_bucket_gap",
    "dedupe_speedup",
    "memo_reuse_ratio",
]


@dataclass(frozen=True)
class SingleBucketReport:
    """Result of a randomized single-bucket-concentration scan.

    Attributes
    ----------
    trials:
        Number of random instances checked.
    violations:
        Instances where the full DP was strictly below the best single
        bucket (counterexamples to the conjecture).
    max_gap:
        Largest relative improvement of the full DP over the single-bucket
        shortcut (0.0 when the conjecture held everywhere).
    """

    trials: int
    violations: int
    max_gap: float


def single_bucket_gap(
    *, trials: int = 500, seed: int = 0, max_k: int = 5
) -> SingleBucketReport:
    """Scan random bucketizations for cases where cross-bucket placement
    strictly beats the best single bucket."""
    solver = Minimize1Solver(exact=True)
    rng = random.Random(seed)
    violations = 0
    max_gap = 0.0
    for _ in range(trials):
        num_buckets = rng.randint(2, 4)
        signatures = []
        for _ in range(num_buckets):
            d = rng.randint(1, 5)
            counts = sorted((rng.randint(1, 9) for _ in range(d)), reverse=True)
            signatures.append(tuple(counts))
        k = rng.randint(1, max_k)
        full = min_ratio_table(signatures, k, exact=True, solver=solver)[k]
        from fractions import Fraction

        single = min(
            solver.minimum(sig, k + 1) * Fraction(sum(sig), sig[0])
            for sig in set(signatures)
        )
        if full < single:
            violations += 1
            if single > 0:
                max_gap = max(max_gap, float(1 - full / single))
    return SingleBucketReport(
        trials=trials, violations=violations, max_gap=max_gap
    )


def dedupe_speedup(
    table: Table,
    lattice: GeneralizationLattice,
    node: tuple[int, ...],
    *,
    k: int = 11,
    repeats: int = 3,
) -> dict:
    """Time MINIMIZE2 with and without signature deduplication at ``node``.

    Returns a dict with bucket counts, distinct-signature counts, the two
    timings (seconds, best of ``repeats``) and the verified-equal results.
    """
    bucketization = bucketize_at(table, lattice, node)
    signatures = [bucket.signature for bucket in bucketization.buckets]

    def best_time(dedupe: bool) -> float:
        best = float("inf")
        for _ in range(repeats):
            solver = Minimize1Solver()
            start = time.perf_counter()
            min_ratio_table(signatures, k, solver=solver, dedupe=dedupe)
            best = min(best, time.perf_counter() - start)
        return best

    with_dedupe = best_time(True)
    without = best_time(False)
    assert min_ratio_table(signatures, k, dedupe=True) == min_ratio_table(
        signatures, k, dedupe=False
    )
    return {
        "buckets": len(signatures),
        "distinct_signatures": len(set(signatures)),
        "seconds_with_dedupe": with_dedupe,
        "seconds_without_dedupe": without,
        "speedup": without / with_dedupe if with_dedupe > 0 else float("inf"),
    }


def memo_reuse_ratio(
    table: Table, lattice: GeneralizationLattice, *, ks=(1, 3, 5, 7, 9, 11)
) -> dict:
    """Sweep the whole lattice with one shared solver and report how much
    MINIMIZE1 state it accumulated versus what per-node cold solvers would
    have computed in total.

    Every node runs the DP up to ``max(ks)``, through
    :func:`~repro.core.minimize2.min_ratio_table`, even where
    :func:`~repro.core.disclosure.max_disclosure_series` would answer a
    certain disclosure without it: the question is the DP's own sharing."""
    shared = Minimize1Solver()
    cold_total_states = 0
    max_k = max(ks)
    for node in lattice.nodes():
        counts = dict(bucketize_at(table, lattice, node).signature_items())
        min_ratio_table(counts, max_k, solver=shared)
        cold = Minimize1Solver()
        min_ratio_table(counts, max_k, solver=cold)
        cold_total_states += cold.memo_size()
    return {
        "nodes": lattice.size,
        "shared_states": shared.memo_size(),
        "cold_states_total": cold_total_states,
        "reuse_factor": (
            cold_total_states / shared.memo_size()
            if shared.memo_size()
            else float("inf")
        ),
        "distinct_signatures": shared.known_signatures(),
    }
