"""Figure 5 regeneration: max disclosure vs. k, implications and negations.

Paper reference points (ICDE 2007, Figure 5, real Adult data): both curves
start near 0.3 at k = 0, the implication (solid) curve dominates the negation
(dotted) curve, the gap stays small, and disclosure reaches 1 by k = 13 (14
sensitive values). The absolute values below come from the synthetic Adult
substitute (``repro.data.adult.generate_adult``); the shape assertions encode
the paper's claims.
"""

from __future__ import annotations

from repro.experiments.fig5 import run_figure5


def test_figure5_full_dataset(benchmark, adult_full):
    result = benchmark.pedantic(
        run_figure5, args=(adult_full,), rounds=3, iterations=1
    )

    rows = result.rows
    # Paper shape 1: monotone non-decreasing in attacker power.
    for series in ("implication", "negation"):
        values = [getattr(r, series) for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    # Paper shape 2: implications dominate negations at every k.
    assert all(r.implication >= r.negation - 1e-12 for r in rows)
    # Paper shape 3: certainty is reached within the domain-size bound.
    assert rows[-1].implication > 0.95
    # Paper shape 4: a strictly positive gap exists somewhere in the middle
    # (implications are strictly stronger knowledge than negations).
    assert any(r.implication > r.negation + 1e-9 for r in rows)

    benchmark.extra_info["node"] = str(result.node)
    benchmark.extra_info["series_implication"] = [
        round(r.implication, 6) for r in rows
    ]
    benchmark.extra_info["series_negation"] = [
        round(r.negation, 6) for r in rows
    ]


def test_figure5_series_cost_equals_single_k(benchmark, adult_full):
    """Sweeping all 13 k-values costs one DP pass (the all-k property)."""
    from repro.core.disclosure import max_disclosure_series
    from repro.generalization.apply import bucketize_at
    from repro.data.hierarchies import adult_hierarchies
    from repro.data.adult import ADULT_SCHEMA
    from repro.generalization.lattice import GeneralizationLattice

    lattice = GeneralizationLattice(
        adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
    )
    bucketization = bucketize_at(adult_full, lattice, (3, 2, 1, 1))

    series = benchmark(max_disclosure_series, bucketization, range(13))
    assert len(series) == 13
