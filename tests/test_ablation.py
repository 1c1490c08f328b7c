"""The ablation experiment helpers."""

from __future__ import annotations

from repro.experiments.ablation import (
    SingleBucketReport,
    dedupe_speedup,
    memo_reuse_ratio,
    single_bucket_gap,
)


class TestSingleBucketGap:
    def test_conjecture_holds_on_scan(self):
        report = single_bucket_gap(trials=150, seed=1)
        assert isinstance(report, SingleBucketReport)
        assert report.trials == 150
        # The observed property: no violations. If this ever fails, a
        # counterexample to the single-bucket concentration was found —
        # report it and update the observation in repro.experiments.ablation.
        assert report.violations == 0
        assert report.max_gap == 0.0

    def test_deterministic(self):
        assert single_bucket_gap(trials=30, seed=2) == single_bucket_gap(
            trials=30, seed=2
        )


class TestDedupeSpeedup:
    def test_reports_consistent_counts(self, small_adult, adult_lattice):
        report = dedupe_speedup(
            small_adult, adult_lattice, (2, 1, 0, 0), k=5, repeats=1
        )
        assert report["distinct_signatures"] <= report["buckets"]
        assert report["seconds_with_dedupe"] > 0
        assert report["seconds_without_dedupe"] > 0
        assert report["speedup"] > 0


class TestMemoReuse:
    def test_shared_solver_never_stores_more_than_cold_total(
        self, small_adult, adult_lattice
    ):
        report = memo_reuse_ratio(small_adult, adult_lattice, ks=(1, 5))
        assert report["nodes"] == 72
        assert report["shared_states"] <= report["cold_states_total"]
        assert report["reuse_factor"] >= 1.0
        assert report["distinct_signatures"] > 0
