"""k-anonymity and ℓ-diversity baselines."""

from __future__ import annotations

import math

import pytest

from repro.anonymity import (
    distinct_diversity,
    entropy_diversity,
    is_distinct_l_diverse,
    is_entropy_l_diverse,
    is_k_anonymous,
    is_recursive_cl_diverse,
    max_k_anonymity,
)
from repro.bucketization import Bucketization


@pytest.fixture
def buckets():
    return Bucketization.from_value_lists(
        [["a", "a", "b", "c"], ["a", "b", "c", "d", "e"]]
    )


class TestKAnonymity:
    def test_level(self, buckets):
        assert max_k_anonymity(buckets) == 4
        assert is_k_anonymous(buckets, 4)
        assert not is_k_anonymous(buckets, 5)

    def test_singletons(self):
        b = Bucketization.from_value_lists([["x"], ["y", "z"]])
        assert max_k_anonymity(b) == 1
        assert is_k_anonymous(b, 1)

    def test_validation(self, buckets):
        with pytest.raises(ValueError):
            is_k_anonymous(buckets, 0)

    def test_ignores_sensitive_values_entirely(self):
        # The paper's footnote: a homogeneous bucket is perfectly
        # k-anonymous yet fully disclosing.
        homogeneous = Bucketization.from_value_lists([["s"] * 10])
        assert is_k_anonymous(homogeneous, 10)
        from repro.core.disclosure import max_disclosure

        assert max_disclosure(homogeneous, 0) == 1.0


class TestLDiversity:
    def test_distinct(self, buckets):
        assert distinct_diversity(buckets) == 3
        assert is_distinct_l_diverse(buckets, 3)
        assert not is_distinct_l_diverse(buckets, 4)

    def test_distinct_reads_the_multiset(self, buckets, bucket_builds):
        deferred = Bucketization.from_signature_counts(buckets.signature_items())
        bucket_builds[0] = 0
        assert distinct_diversity(deferred) == distinct_diversity(buckets) == 3
        assert is_distinct_l_diverse(deferred, 3)
        assert not is_distinct_l_diverse(deferred, 4)
        assert bucket_builds[0] == 0

    def test_entropy(self, buckets):
        # Worst bucket: {a:2, b:1, c:1}; H = ln4 - (1/2)ln2... compute:
        h = -(0.5 * math.log(0.5) + 2 * 0.25 * math.log(0.25))
        assert entropy_diversity(buckets) == pytest.approx(math.exp(h))
        assert is_entropy_l_diverse(buckets, math.exp(h) - 1e-9)
        assert not is_entropy_l_diverse(buckets, math.exp(h) + 0.01)

    def test_entropy_validation(self, buckets):
        with pytest.raises(ValueError):
            is_entropy_l_diverse(buckets, 0.5)

    def test_recursive_cl(self):
        b = Bucketization.from_value_lists([["a", "a", "a", "b", "b", "c"]])
        # r = (3, 2, 1). l=2: 3 < c*(2+1) iff c > 1.
        assert is_recursive_cl_diverse(b, 1.01, 2)
        assert not is_recursive_cl_diverse(b, 0.99, 2)
        # l=3: 3 < c*1 iff c > 3.
        assert is_recursive_cl_diverse(b, 3.5, 3)
        assert not is_recursive_cl_diverse(b, 2.5, 3)

    def test_recursive_cl_l1_caps_top_fraction(self):
        b = Bucketization.from_value_lists([["a", "a", "b", "c"]])
        # top fraction 1/2: need c > 1/2.
        assert is_recursive_cl_diverse(b, 0.6, 1)
        assert not is_recursive_cl_diverse(b, 0.5, 1)

    def test_recursive_cl_fails_when_l_exceeds_distinct(self):
        b = Bucketization.from_value_lists([["a", "b"]])
        assert not is_recursive_cl_diverse(b, 100.0, 3)

    def test_recursive_validation(self, buckets):
        with pytest.raises(ValueError):
            is_recursive_cl_diverse(buckets, -1, 2)
        with pytest.raises(ValueError):
            is_recursive_cl_diverse(buckets, 1.0, 0)

    def test_diversity_relates_to_negation_disclosure(self):
        # Distinct ℓ-diversity with uniform buckets bounds the (ℓ-1)-negation
        # disclosure away from 1 — the ℓ-diversity design goal.
        from repro.core.negation import max_disclosure_negations

        uniform = Bucketization.from_value_lists([["a", "b", "c", "d"]])
        assert is_distinct_l_diverse(uniform, 4)
        assert max_disclosure_negations(uniform, 2) < 1
        assert max_disclosure_negations(uniform, 3) == 1
