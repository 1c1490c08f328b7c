"""Maximum disclosure (Definition 6): the DP against the exact oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bucketization import Bucketization
from repro.core import disclosure, kernel, negation
from repro.core.disclosure import (
    max_disclosure,
    max_disclosure_series,
    max_disclosure_series_from_counts,
    min_formula1_ratio,
    min_k_to_breach,
)
from repro.core.exact import exact_max_disclosure_simple
from repro.core.minimize1 import Minimize1Solver
from repro.core.minimize2 import min_ratio_table
from repro.core.negation import bucket_negation_disclosure, max_disclosure_negations
from repro.engine import DisclosureEngine
from repro.generalization.apply import bucketize_at

requires_numpy = pytest.mark.skipif(
    not kernel.numpy_available(), reason="numpy not installed"
)
KERNELS = ["scalar", pytest.param("numpy", marks=requires_numpy)]

# Up to five buckets over a 5-value alphabet: with k = 0..6, some draws are
# certain at every k and others only from k = 3 or 4 on.
medium_bucketizations = st.lists(
    st.lists(st.sampled_from("abcde"), min_size=1, max_size=8),
    min_size=1,
    max_size=5,
).map(Bucketization.from_value_lists)


def random_bucketization(rng, max_buckets=2, max_size=3, values="abc"):
    lists = []
    for _ in range(rng.randint(1, max_buckets)):
        size = rng.randint(1, max_size)
        lists.append([rng.choice(values) for _ in range(size)])
    return Bucketization.from_value_lists(lists)


class TestAgainstExactOracle:
    """The central correctness property: DP == brute force (Definition 6
    restricted to simple implications, which Theorem 9 proves sufficient)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        rng = random.Random(seed)
        bucketization = random_bucketization(rng)
        for k in range(3):
            dp = max_disclosure(bucketization, k, exact=True)
            brute = exact_max_disclosure_simple(bucketization, k)
            assert dp == brute, (bucketization, k)

    def test_same_consequent_restriction_suffices(self):
        # Theorem 9: restricting brute force to same-consequent families
        # does not lower the maximum.
        bucketization = Bucketization.from_value_lists([["a", "a", "b"], ["b", "c"]])
        for k in (1, 2):
            free = exact_max_disclosure_simple(bucketization, k)
            restricted = exact_max_disclosure_simple(
                bucketization, k, same_consequent_only=True
            )
            assert free == restricted == max_disclosure(bucketization, k, exact=True)


class TestKnownValues:
    def test_figure3_values(self, figure3):
        assert max_disclosure(figure3, 0, exact=True) == Fraction(2, 5)
        assert max_disclosure(figure3, 1, exact=True) == Fraction(2, 3)
        assert max_disclosure(figure3, 2, exact=True) == 1

    def test_uniform_bucket(self):
        b = Bucketization.from_value_lists([["a", "b", "c", "d"]])
        assert max_disclosure(b, 0, exact=True) == Fraction(1, 4)
        assert max_disclosure(b, 1, exact=True) == Fraction(1, 3)
        assert max_disclosure(b, 3, exact=True) == 1

    def test_homogeneous_bucket_discloses_fully_at_k0(self):
        b = Bucketization.from_value_lists([["a", "a", "a"]])
        assert max_disclosure(b, 0, exact=True) == 1

    def test_skewed_bucket_two_person_implication(self):
        b = Bucketization.from_value_lists(
            [list("abcdefghij"), ["x"] * 8 + ["y", "z"]]
        )
        # Best k=1 attack: (p1 = x) -> (p0 = x) inside the skewed bucket,
        # a genuinely implication-only attack (no negation expresses it).
        assert max_disclosure(b, 1, exact=True) == Fraction(36, 37)
        from repro.core.negation import max_disclosure_negations

        assert max_disclosure_negations(b, 1, exact=True) == Fraction(8, 9)


class TestInvariants:
    def test_monotone_in_k(self):
        b = Bucketization.from_value_lists([["a", "a", "b", "c"], ["a", "b"]])
        series = max_disclosure_series(b, range(6), exact=True)
        values = [series[k] for k in range(6)]
        assert all(x <= y for x, y in zip(values, values[1:]))

    def test_bounded_by_one_and_reaches_one(self):
        b = Bucketization.from_value_lists([["a", "b", "c"]])
        series = max_disclosure_series(b, range(5), exact=True)
        assert all(0 < v <= 1 for v in series.values())
        assert series[2] == 1  # two negations pin the third value

    def test_at_least_top_fraction(self):
        b = Bucketization.from_value_lists([["a", "a", "a", "b", "c"]])
        for k in range(4):
            assert max_disclosure(b, k, exact=True) >= Fraction(3, 5)

    def test_implications_dominate_negations(self):
        rng = random.Random(42)
        for _ in range(10):
            b = random_bucketization(rng, max_buckets=3, max_size=5)
            for k in range(4):
                assert max_disclosure(b, k, exact=True) >= (
                    max_disclosure_negations(b, k, exact=True)
                )

    def test_series_equals_pointwise(self):
        b = Bucketization.from_value_lists([["a", "a", "b"], ["c", "d"]])
        series = max_disclosure_series(b, [0, 2, 4], exact=True)
        for k, value in series.items():
            assert value == max_disclosure(b, k, exact=True)

    def test_float_tracks_exact(self, figure3):
        for k in range(4):
            approx = max_disclosure(figure3, k)
            exact = max_disclosure(figure3, k, exact=True)
            assert approx == pytest.approx(float(exact), abs=1e-12)


class TestPlumbing:
    def test_min_ratio_relation(self, figure3):
        for k in range(3):
            ratio = min_formula1_ratio(figure3, k, exact=True)
            assert max_disclosure(figure3, k, exact=True) == Fraction(1) / (
                1 + ratio
            )

    def test_negative_k_rejected(self, figure3):
        with pytest.raises(ValueError):
            max_disclosure(figure3, -1)

    def test_empty_ks_empty_series(self, figure3):
        assert max_disclosure_series(figure3, []) == {}

    def test_shared_solver_across_bucketizations(self, figure3):
        solver = Minimize1Solver(exact=True)
        first = max_disclosure(figure3, 2, solver=solver)
        merged = figure3.merge_buckets([0, 1])
        second = max_disclosure(merged, 2, solver=solver)
        assert first >= second  # Theorem 14 while sharing the memo


def dp_value(counts, k, *, exact=False, kernel="auto"):
    """``1 / (1 + r_k)`` straight from MINIMIZE2's table: the DP the
    certain-disclosure rule skips."""
    ratio = min_ratio_table(counts, k, exact=exact, kernel=kernel)[k]
    return Fraction(1) / (1 + ratio) if exact else 1.0 / (1.0 + ratio)


def assert_same_value(value, reference):
    """Equal, of the same type and, for floats, the same bits."""
    assert type(value) is type(reference)
    assert value == reference
    if isinstance(value, float):
        assert value.hex() == reference.hex()


class TestCertainDisclosureRule:
    """A bucket with at most k + 1 distinct values makes the worst case
    exactly 1; the entry points answer that without the DP, and every value
    stays the one the DP or the negation closed form gives."""

    @pytest.mark.parametrize("kernel_name", KERNELS)
    @settings(max_examples=60, deadline=None)
    @given(b=medium_bucketizations, k=st.integers(min_value=0, max_value=5))
    def test_float_bits_match_the_dp(self, kernel_name, b, k):
        counts = dict(b.signature_items())
        solver = Minimize1Solver(kernel=kernel_name)
        assert_same_value(
            max_disclosure(b, k, solver=solver),
            dp_value(counts, k, kernel=kernel_name),
        )
        assert_same_value(
            min_formula1_ratio(b, k, solver=solver),
            min_ratio_table(counts, k, kernel=kernel_name)[k],
        )

    @settings(max_examples=60, deadline=None)
    @given(b=medium_bucketizations)
    def test_series_matches_the_per_k_dp(self, b):
        counts = dict(b.signature_items())
        for exact in (False, True):
            series = max_disclosure_series(b, range(7), exact=exact)
            assert list(series) == list(range(7))
            for k, value in series.items():
                assert_same_value(value, dp_value(counts, k, exact=exact))
            assert max_disclosure_series_from_counts(
                counts, range(7), exact=exact
            ) == series

    def test_series_on_both_sides_of_d_min(self):
        # d_min = 4: k = 0..2 come from one DP pass, k = 3..6 are certain.
        b = Bucketization.from_value_lists(
            [list("abcd"), list("aabbccdde"), list("abcdeab")]
        )
        counts = dict(b.signature_items())
        for exact in (False, True):
            series = max_disclosure_series(b, range(7), exact=exact)
            for k, value in series.items():
                assert_same_value(value, dp_value(counts, k, exact=exact))
                assert (value == 1) == (k >= 3)

    def test_every_lattice_node_through_the_engine(
        self, small_adult, adult_lattice
    ):
        bucketizations = [
            bucketize_at(small_adult, adult_lattice, node)
            for node in adult_lattice.nodes()
        ]
        assert len(bucketizations) == 72
        ks = range(7)
        for exact in (False, True):
            one = Fraction(1) if exact else 1.0
            reference_solver = Minimize1Solver(exact=exact)
            single = DisclosureEngine(exact=exact)
            batched = DisclosureEngine(exact=exact)
            for b in bucketizations:
                ratios = min_ratio_table(
                    dict(b.signature_items()), ks[-1], solver=reference_solver
                )
                implication = {k: one / (one + ratios[k]) for k in ks}
                negations = {
                    k: max(
                        bucket_negation_disclosure(s, k, exact=exact)
                        for s, _ in b.signature_items()
                    )
                    for k in ks
                }
                for model, reference in (
                    ("implication", implication),
                    ("negation", negations),
                ):
                    for k in ks:
                        assert_same_value(
                            single.evaluate(b, k, model=model), reference[k]
                        )
                    series = batched.series(b, ks, model=model)
                    for k in ks:
                        assert_same_value(series[k], reference[k])

    def test_certain_bucketization_runs_no_dp(self, monkeypatch):
        calls: list[int] = []
        real = disclosure.min_ratio_table

        def counting(signatures, max_k, **kwargs):
            calls.append(max_k)
            return real(signatures, max_k, **kwargs)

        monkeypatch.setattr(disclosure, "min_ratio_table", counting)
        b = Bucketization.from_value_lists([["a", "b"], list("abcdd")])
        for exact in (False, True):
            one = Fraction(1) if exact else 1.0
            zero = Fraction(0) if exact else 0.0
            solver = Minimize1Solver(exact=exact)
            assert_same_value(max_disclosure(b, 1, solver=solver), one)
            assert_same_value(min_formula1_ratio(b, 1, solver=solver), zero)
            series = max_disclosure_series(b, range(1, 5), solver=solver)
            assert series == {k: one for k in range(1, 5)}
            assert solver.known_signatures() == 0
            engine = DisclosureEngine(exact=exact)
            assert_same_value(engine.evaluate(b, 1), one)
            assert_same_value(engine.evaluate(b, 1), one)
            assert engine.stats.cache_hits == 1  # cached like any value
            assert engine.context.solver.known_signatures() == 0
        assert calls == []
        # Below d_min - 1 = 1 the DP runs, once, only up to k = 0.
        assert max_disclosure_series(b, range(5))[0] == dp_value(
            dict(b.signature_items()), 0
        )
        assert calls == [0]

    def test_certain_negation_scans_no_signature(self, monkeypatch):
        calls: list[tuple] = []
        real = negation.bucket_negation_disclosure

        def counting(signature, k, **kwargs):
            calls.append((signature, k))
            return real(signature, k, **kwargs)

        monkeypatch.setattr(negation, "bucket_negation_disclosure", counting)
        b = Bucketization.from_value_lists([["a", "b"], list("abcdd")])
        assert_same_value(max_disclosure_negations(b, 1), 1.0)
        assert_same_value(
            max_disclosure_negations(b, 1, exact=True), Fraction(1)
        )
        assert calls == []
        assert max_disclosure_negations(b, 0, exact=True) == Fraction(1, 2)
        assert len(calls) == 2


class TestRawSignatureCounts:
    """``max_disclosure_series_from_counts`` takes raw counts, so it checks
    them before the certain-disclosure rule could answer a bad one."""

    @pytest.mark.parametrize(
        "counts",
        [
            {},
            {(): 1},
            {(2, 0): 1},
            {(1, 2): 1},
            {(2, 1): 0},
            {(1,): -1, (3, 2, 1): 1},
        ],
    )
    @pytest.mark.parametrize("k", range(4))
    def test_bad_input_rejected(self, counts, k):
        with pytest.raises(ValueError):
            max_disclosure_series_from_counts(counts, [k])

    def test_empty_message(self):
        with pytest.raises(ValueError, match="need at least one bucket"):
            max_disclosure_series_from_counts({}, [0])

    def test_valid_counts_match_the_bucketization(self, figure3):
        counts = dict(figure3.signature_items())
        for exact in (False, True):
            assert max_disclosure_series_from_counts(
                counts, range(5), exact=exact
            ) == max_disclosure_series(figure3, range(5), exact=exact)


class TestMinKToBreach:
    def test_reads_the_multiset_not_the_buckets(self, bucket_builds):
        eager = Bucketization.from_value_lists(
            [list("abcd"), list("aabbccdde"), list("aaaabbc")]
        )
        levels = (0.3, 0.5, 0.8, 1.0)
        expected = {
            (c, exact): min_k_to_breach(eager, c, exact=exact)
            for c in levels
            for exact in (False, True)
        }
        assert expected[(1.0, False)] == 2  # d_min - 1 for "aaaabbc"
        deferred = Bucketization.from_signature_counts(eager.signature_items())
        bucket_builds[0] = 0
        actual = {
            (c, exact): min_k_to_breach(deferred, c, exact=exact)
            for c in levels
            for exact in (False, True)
        }
        assert actual == expected
        assert bucket_builds[0] == 0
