"""Worst case for k negated atoms (the ℓ-diversity adversary)."""

from __future__ import annotations

import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bucketization import Bucket, Bucketization
from repro.core.exact import exact_max_disclosure_negations
from repro.core.negation import (
    NegationWitness,
    _best_for_signature,
    bucket_negation_disclosure,
    max_disclosure_negations,
    max_disclosure_negations_series,
    negation_witness,
)
from repro.generalization.apply import bucketize_at, generalize_table


class TestClosedFormAgainstBruteForce:
    """The closed form concentrates all negations on one person; the brute
    force ranges over every set of k atoms anywhere (other people, other
    buckets). They must agree — this is the same-person-optimality claim."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_random_instances(self, seed, k):
        rng = random.Random(seed)
        lists = []
        for _ in range(rng.randint(1, 2)):
            size = rng.randint(1, 3)
            lists.append([rng.choice("abc") for _ in range(size)])
        bucketization = Bucketization.from_value_lists(lists)
        closed = max_disclosure_negations(bucketization, k, exact=True)
        brute = exact_max_disclosure_negations(bucketization, k)
        assert closed == brute, (lists, k)


class TestKnownValues:
    def test_figure3_negations(self, figure3):
        # k=0: 2/5. k=1: rule out lung cancer -> 2/3. k=2: certainty.
        assert max_disclosure_negations(figure3, 0, exact=True) == Fraction(2, 5)
        assert max_disclosure_negations(figure3, 1, exact=True) == Fraction(2, 3)
        assert max_disclosure_negations(figure3, 2, exact=True) == 1

    def test_certainty_at_distinct_minus_one(self):
        b = Bucketization.from_value_lists([["a", "b", "c", "d"]])
        assert max_disclosure_negations(b, 3, exact=True) == 1
        assert max_disclosure_negations(b, 2, exact=True) < 1

    def test_target_not_always_top_value(self):
        # {a:3, b:3, c:1}: with k=1 the best attack negates one of the top
        # values and targets the other: 3/(7-3) = 3/4.
        b = Bucketization.from_value_lists([["a"] * 3 + ["b"] * 3 + ["c"]])
        assert max_disclosure_negations(b, 1, exact=True) == Fraction(3, 4)

    def test_per_bucket_form(self):
        assert bucket_negation_disclosure((2, 2, 1), 1, exact=True) == Fraction(
            2, 3
        )
        assert bucket_negation_disclosure(
            Bucket.from_values(["x", "x", "y"]), 1, exact=True
        ) == 1


class TestInvariants:
    def test_monotone_in_k(self):
        b = Bucketization.from_value_lists([["a", "a", "b", "c", "d"]])
        series = max_disclosure_negations_series(b, range(6), exact=True)
        values = [series[k] for k in sorted(series)]
        assert all(x <= y for x, y in zip(values, values[1:]))

    def test_k0_equals_top_fraction(self):
        b = Bucketization.from_value_lists([["a", "a", "b"], ["c", "d", "d", "d"]])
        assert max_disclosure_negations(b, 0, exact=True) == Fraction(3, 4)

    def test_never_exceeds_one(self):
        rng = random.Random(3)
        for _ in range(20):
            values = [rng.choice("abcd") for _ in range(rng.randint(1, 6))]
            b = Bucketization.from_value_lists([values])
            for k in range(5):
                assert max_disclosure_negations(b, k, exact=True) <= 1

    def test_negative_k_rejected(self, figure3):
        with pytest.raises(ValueError):
            max_disclosure_negations(figure3, -1)


class TestWitness:
    def test_witness_achieves_reported_disclosure(self, figure3):
        from repro.core.exact import probability
        from repro.knowledge.atoms import Atom

        witness = negation_witness(figure3, 1, exact=True)
        assert isinstance(witness, NegationWitness)

        def phi(world):
            return all(
                world[witness.person] != value
                for value in witness.negated_values
            )

        achieved = probability(
            figure3, Atom(witness.person, witness.target_value), phi
        )
        assert achieved == witness.disclosure

    def test_witness_values_are_distinct_and_exclude_target(self, figure3):
        witness = negation_witness(figure3, 2, exact=True)
        assert witness.target_value not in witness.negated_values
        assert len(set(witness.negated_values)) == len(witness.negated_values)

    def test_witness_matches_max(self, figure3):
        for k in range(4):
            witness = negation_witness(figure3, k, exact=True)
            assert witness.disclosure == max_disclosure_negations(
                figure3, k, exact=True
            )


class TestSignatureMaximum:
    """The maximum over distinct signatures equals the per-bucket maximum
    it replaced, bit for bit in float and exactly in exact mode."""

    def test_matches_per_bucket_maximum(self, small_adult, adult_lattice):
        ks = range(6)
        for node in adult_lattice.nodes():
            deferred = bucketize_at(small_adult, adult_lattice, node)
            buckets = Bucketization.from_table(
                generalize_table(small_adult, adult_lattice, node)
            ).buckets
            for exact in (False, True):
                series = max_disclosure_negations_series(deferred, ks, exact=exact)
                for k in ks:
                    expected = max(
                        bucket_negation_disclosure(bucket, k, exact=exact)
                        for bucket in buckets
                    )
                    value = max_disclosure_negations(deferred, k, exact=exact)
                    assert type(value) is type(expected), (node, k)
                    assert value == expected and series[k] == expected, (node, k)
                    if not exact:
                        assert value.hex() == expected.hex(), (node, k)


def loop_best_for_signature(signature, k, *, exact):
    """The reference: for every target index, build the index tuple of the
    counts its best attack eliminates and sum it (O(d^2) per signature)."""
    n = sum(signature)
    d = len(signature)
    best = None
    best_t = 0
    best_eliminated = ()
    for t in range(d):
        if t <= k:
            eliminated = tuple(j for j in range(min(k + 1, d)) if j != t)
        else:
            eliminated = tuple(range(min(k, d)))
        removed = sum(signature[j] for j in eliminated)
        value = (
            Fraction(signature[t], n - removed)
            if exact
            else signature[t] / (n - removed)
        )
        if best is None or value > best:
            best, best_t, best_eliminated = value, t, eliminated
    return best, best_t, best_eliminated


@st.composite
def signatures_and_k(draw):
    """A signature of 1-16 counts (small caps give many ties) and a k in
    0..d+2."""
    d = draw(st.integers(min_value=1, max_value=16))
    cap = draw(st.sampled_from([1, 2, 3, 10, 100]))
    counts = draw(
        st.lists(st.integers(min_value=1, max_value=cap), min_size=d, max_size=d)
    )
    k = draw(st.integers(min_value=0, max_value=d + 2))
    return tuple(sorted(counts, reverse=True)), k


class TestOnePassMatchesLoop:
    """The one-pass best attack gives the reference loop's value bit for bit,
    its target and its eliminated indices, in both arithmetics."""

    @given(signatures_and_k())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, case):
        signature, k = case
        for exact in (False, True):
            value, t, eliminated = _best_for_signature(signature, k, exact=exact)
            expected, expected_t, expected_eliminated = loop_best_for_signature(
                signature, k, exact=exact
            )
            assert type(value) is type(expected)
            if exact:
                assert value == expected
            else:
                assert struct.pack("<d", value) == struct.pack("<d", expected)
            assert (t, eliminated) == (expected_t, expected_eliminated)
        bucket = Bucket.from_signature(signature)
        witness = negation_witness(Bucketization([bucket]), k, exact=True)
        order = bucket.values_by_frequency
        assert witness.target_value == order[expected_t]
        assert witness.negated_values == tuple(order[j] for j in expected_eliminated)
