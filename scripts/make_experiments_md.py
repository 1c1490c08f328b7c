"""Regenerate EXPERIMENTS.md: paper-vs-measured for every evaluation artifact.

Runs both figures at the paper's dataset size (45,222 rows) plus the
supporting ablations, and writes the markdown report. Invoke from the repo
root:

    python scripts/make_experiments_md.py [--rows N] [--out EXPERIMENTS.md]
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.core.disclosure import min_k_to_breach
from repro.core.minimize1 import Minimize1Solver
from repro.core.minimize2 import min_ratio_table
from repro.data.adult import ADULT_SCHEMA, ADULT_SIZE
from repro.data.hierarchies import adult_hierarchies
from repro.experiments.fig5 import run_figure5
from repro.experiments.fig6 import run_figure6
from repro.experiments.runner import default_adult_table
from repro.generalization.apply import bucketize_at
from repro.generalization.lattice import GeneralizationLattice
from repro.generalization.search import SearchStats, find_minimal_safe_nodes
from repro.core.safety import SafetyChecker


def fig5_section(table) -> str:
    start = time.time()
    result = run_figure5(table)
    elapsed = time.time() - start
    lines = [
        "## Figure 5 — maximum disclosure vs. number of conjuncts",
        "",
        "Anonymization: Age generalized to 20-year intervals, all other",
        f"quasi-identifiers suppressed (lattice node `{result.node}`,",
        f"{result.num_buckets} buckets, {result.num_rows} rows; computed in "
        f"{elapsed:.2f}s).",
        "",
        "Paper (read off the plot, real Adult data): both curves start near",
        "0.3 at k=0; the implication curve dominates the negation curve with",
        "a visible but small gap through the middle k range; both approach 1",
        "by k≈12-13 (14 occupation values).",
        "",
        "Measured (synthetic Adult):",
        "",
        "| k | implications | negated atoms | gap |",
        "|---|--------------|---------------|-----|",
    ]
    for row in result.rows:
        lines.append(
            f"| {row.k} | {row.implication:.4f} | {row.negation:.4f} "
            f"| {row.implication - row.negation:+.4f} |"
        )
    lines += [
        "",
        "Shape checks (asserted in `benchmarks/bench_fig5.py`): both series",
        "monotone in k; implication >= negation everywhere; strictly positive",
        "gap at intermediate k; certainty reached within the domain bound.",
        "",
    ]
    return "\n".join(lines)


def fig6_section(table) -> str:
    start = time.time()
    result = run_figure6(table)
    elapsed = time.time() - start
    lines = [
        "## Figure 6 — min bucket entropy vs. least max disclosure",
        "",
        f"All 72 lattice anonymizations of the {result.num_rows}-row table",
        f"(computed in {elapsed:.2f}s; natural-log entropy).",
        "",
        "Paper (read off the plot): for every k in {1,3,5,7,9,11} the least",
        "worst-case disclosure decreases monotonically in h over [1, 2.4];",
        "curves for larger k sit strictly higher; at h≈2.4 the k=1 curve is",
        "near 0.1-0.15 while k=11 remains near 1.",
        "",
        "Measured envelope endpoints (h >= 1 to match the paper's x-range):",
        "",
        "| k | disclosure at min h | disclosure at max h | decreasing trend |",
        "|---|--------------------|---------------------|------------------|",
    ]
    for k in result.ks:
        envelope = [e for e in result.envelope(k) if e[0] >= 1.0]
        first_h, first_d = envelope[0]
        last_h, last_d = envelope[-1]
        # Count adjacent increases in the envelope (noise indicator).
        increases = sum(
            1 for (_, a), (_, b) in zip(envelope, envelope[1:]) if b > a + 1e-9
        )
        trend = f"{len(envelope) - 1 - increases}/{len(envelope) - 1} steps down"
        lines.append(
            f"| {k} | {first_d:.4f} (h={first_h:.2f}) "
            f"| {last_d:.4f} (h={last_h:.2f}) | {trend} |"
        )
    lines += [
        "",
        "Full per-k envelopes (h, least max disclosure):",
        "",
    ]
    for k in result.ks:
        envelope = [e for e in result.envelope(k) if e[0] >= 1.0]
        series = ", ".join(f"({h:.2f}, {d:.3f})" for h, d in envelope)
        lines.append(f"- k={k}: {series}")
    lines.append("")
    return "\n".join(lines)


def search_section(table) -> str:
    lattice = GeneralizationLattice(
        adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
    )
    checker = SafetyChecker(0.75, 3)
    stats = SearchStats()
    start = time.time()
    minimal = find_minimal_safe_nodes(
        lattice,
        lambda node: checker.is_safe(bucketize_at(table, lattice, node)),
        stats=stats,
    )
    elapsed = time.time() - start
    lines = [
        "## Section 3.4 — lattice search for minimal (c,k)-safe nodes",
        "",
        "Paper: the (c,k)-safety check replaces the k-anonymity check inside",
        "Incognito-style search; monotonicity (Theorem 14) justifies pruning.",
        "",
        f"Measured at c=0.75, k=3 on {len(table)} rows: "
        f"{len(minimal)} minimal safe node(s) "
        f"{[tuple(n) for n in minimal]}; {stats.predicate_checks} safety",
        f"checks + {stats.pruned} pruned of {stats.nodes_total} nodes; "
        f"{checker.cache_hits} signature-cache hits; {elapsed:.2f}s.",
        "",
    ]
    return "\n".join(lines)


def incognito_section(table) -> str:
    from repro.generalization.incognito import (
        IncognitoStats,
        incognito_minimal_safe_nodes,
    )

    lattice = GeneralizationLattice(
        adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
    )
    single_checker = SafetyChecker(0.75, 3)
    single_stats = SearchStats()
    start = time.time()
    single = find_minimal_safe_nodes(
        lattice,
        lambda node: single_checker.is_safe(
            bucketize_at(table, lattice, node)
        ),
        stats=single_stats,
    )
    single_time = time.time() - start

    multi_checker = SafetyChecker(0.75, 3)
    multi_stats = IncognitoStats()
    start = time.time()
    multi = incognito_minimal_safe_nodes(
        table, lattice, multi_checker.is_safe, stats=multi_stats
    )
    multi_time = time.time() - start
    assert set(multi) == set(single)

    lines = [
        "## Incognito modification — multi-phase vs. single-phase",
        "",
        "Paper: \"we can modify the Incognito algorithm ... by simply",
        "replacing the check for k-anonymity with the check for",
        "(c,k)-safety.\" Subset-phase pruning is sound by Theorem 14",
        "(projections onto fewer quasi-identifiers are coarser).",
        "",
        "| search | full-lattice safety checks | total checks | wall time |",
        "|--------|---------------------------|--------------|-----------|",
        f"| single-phase sweep | {single_stats.predicate_checks} | "
        f"{single_stats.predicate_checks} | {single_time:.2f}s |",
        f"| multi-phase Incognito | {multi_stats.final_phase_evaluated} | "
        f"{multi_stats.evaluated} | {multi_time:.2f}s |",
        "",
        f"Both return the same {len(single)} minimal (0.75, 3)-safe nodes.",
        "",
    ]
    return "\n".join(lines)


def conjecture_section(table) -> str:
    lattice = GeneralizationLattice(
        adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
    )
    bucketization = bucketize_at(table, lattice, (3, 2, 1, 1))
    signatures = [b.signature for b in bucketization.buckets]
    solver = Minimize1Solver()
    k = 7
    full = min_ratio_table(signatures, k, solver=solver)[k]
    single = min(
        solver.minimum(sig, k + 1) * sum(sig) / sig[0]
        for sig in set(signatures)
    )
    agree = abs(full - single) < 1e-12
    lines = [
        "## Observed property — single-bucket concentration (not in the paper)",
        "",
        "Across 4,000 randomized instances and every Adult anonymization we",
        "measured, the minimizing placement of MINIMIZE2 concentrates all",
        "k antecedent atoms and the consequent in a single bucket, i.e.",
        "`min_b MINIMIZE1(b, k+1) * n_b / n_b(s0)` equals the full",
        "cross-bucket DP. The paper does not claim this and the library",
        "always runs the general DP; `benchmarks/bench_single_bucket_conjecture.py`",
        "re-checks it on every run.",
        "",
        f"On node (3,2,1,1) ({len(signatures)} buckets, k={k}): full DP = "
        f"{full:.6f}, single-bucket = {single:.6f}, agree = {agree}.",
        "",
    ]
    return "\n".join(lines)


def breach_section(table) -> str:
    lattice = GeneralizationLattice(
        adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
    )
    lines = [
        "## Attacker power to breach — supplementary sweep",
        "",
        "Minimum k at which max disclosure reaches 0.9 / 1.0 per node height",
        "(bound: one less than the largest number of distinct values in a",
        "bucket; 14 occupations ⇒ at most 13).",
        "",
        "| node | buckets | k for ≥0.9 | k for 1.0 |",
        "|------|---------|-----------|-----------|",
    ]
    for node in [(0, 0, 0, 0), (2, 1, 0, 0), (3, 2, 1, 1), (5, 2, 1, 1)]:
        bucketization = bucketize_at(table, lattice, node)
        k90 = min_k_to_breach(bucketization, 0.9)
        k100 = min_k_to_breach(bucketization, 1.0)
        lines.append(f"| {node} | {len(bucketization)} | {k90} | {k100} |")
    lines.append("")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--rows", type=int, default=ADULT_SIZE)
    parser.add_argument("--out", type=str, default="EXPERIMENTS.md")
    args = parser.parse_args()

    table = default_adult_table(args.rows)
    header = "\n".join(
        [
            "# EXPERIMENTS — paper vs. measured",
            "",
            "Reproduction of the evaluation of *Worst-Case Background",
            "Knowledge for Privacy-Preserving Data Publishing* (ICDE 2007).",
            "The paper's evaluation section contains two figures and no",
            "tables; both are regenerated below, plus the complexity and",
            "search claims of Sections 3.3-3.4 (timed in `benchmarks/`).",
            "",
            f"Dataset: synthetic Adult projection, {len(table)} rows, seed",
            "20070419, with the real data's schema, attribute cardinalities",
            "and published marginals. The algorithms read only per-bucket",
            "sensitive-value histograms, so every code path runs as on the",
            "real data; `repro.data.loader.load_adult_file` drops it in.",
            "Absolute numbers differ from the paper's (different underlying",
            "histograms); every *shape* claim is reproduced and asserted in",
            "the benchmark suite.",
            "",
        ]
    )
    sections = [
        header,
        fig5_section(table),
        fig6_section(table),
        search_section(table),
        incognito_section(table),
        conjecture_section(table),
        breach_section(table),
    ]
    Path(args.out).write_text("\n".join(sections))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
