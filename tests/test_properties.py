"""Property-based tests (hypothesis) for the core invariants.

These are the library's strongest guarantees, checked on randomized inputs:

1. DP == exact oracle (maximum disclosure, Definition 6).
2. Lemma 12's closed form == world enumeration.
3. The O(k^3) DP == partition enumeration (MINIMIZE1).
4. Theorem 14 monotonicity: merging buckets never increases disclosure.
5. Negation closed form == brute force over arbitrary negation sets, and
   both worst cases are certain exactly when some bucket has at most
   ``k + 1`` distinct values.
6. Signature deduplication never changes MINIMIZE2's answer.
7. Disclosure is monotone in k and bounded in (0, 1].
8. Theorem 3 encoding is exact on every world.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bucketization import Bucketization
from repro.core.disclosure import max_disclosure, max_disclosure_series
from repro.core.exact import (
    exact_max_disclosure_negations,
    exact_max_disclosure_simple,
)
from repro.core.minimize1 import (
    Minimize1Solver,
    lemma12_probability,
    minimize1_reference,
)
from repro.core.minimize2 import min_ratio_table
from repro.core.negation import (
    bucket_negation_disclosure,
    max_disclosure_negations,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

# Signatures: non-increasing positive counts. Capped at 7 tuples in total so
# the enumeration-based checks (multiset permutations: up to 7! orderings)
# stay fast.
signatures = (
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4)
    .filter(lambda counts: sum(counts) <= 7)
    .map(lambda counts: tuple(sorted(counts, reverse=True)))
)

# Tiny bucketizations over a 3-value alphabet (oracle-enumerable): at most
# five tuples in total so the exponential formula enumeration stays fast.
tiny_bucketizations = (
    st.lists(
        st.lists(st.sampled_from("abc"), min_size=1, max_size=3),
        min_size=1,
        max_size=2,
    )
    .filter(lambda lists: sum(len(x) for x in lists) <= 5)
    .map(Bucketization.from_value_lists)
)

# Slightly larger bucketizations for DP-only invariants (no oracle).
medium_bucketizations = st.lists(
    st.lists(st.sampled_from("abcde"), min_size=1, max_size=8),
    min_size=1,
    max_size=5,
).map(Bucketization.from_value_lists)

small_k = st.integers(min_value=0, max_value=2)


# ---------------------------------------------------------------------------
# 1-2-3: the exactness ladder
# ---------------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(b=tiny_bucketizations, k=small_k)
def test_dp_equals_exact_oracle(b, k):
    oracle = exact_max_disclosure_simple(b, k)
    assert max_disclosure(b, k, exact=True) == oracle
    # The DP itself, which max_disclosure skips when the worst case is
    # certain (nearly always on this 3-value alphabet).
    ratio = min_ratio_table(dict(b.signature_items()), k, exact=True)[k]
    assert Fraction(1) / (1 + ratio) == oracle


@settings(max_examples=60, deadline=None)
@given(sig=signatures, data=st.data())
def test_lemma12_closed_form_equals_enumeration(sig, data):
    n = sum(sig)
    num_people = data.draw(st.integers(min_value=1, max_value=min(3, n)))
    parts = tuple(
        sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=1, max_value=3),
                    min_size=num_people,
                    max_size=num_people,
                )
            ),
            reverse=True,
        )
    )
    closed = lemma12_probability(sig, parts, exact=True)

    values = []
    for index, count in enumerate(sig):
        values.extend([index] * count)
    worlds = set(permutations(values))
    good = sum(
        1
        for world in worlds
        if all(world[i] >= parts[i] for i in range(len(parts)))
    )
    assert closed == Fraction(good, len(worlds))


@settings(max_examples=60, deadline=None)
@given(sig=signatures, m=st.integers(min_value=0, max_value=5))
def test_minimize1_dp_equals_partition_enumeration(sig, m):
    solver = Minimize1Solver(exact=True)
    assert solver.minimum(sig, m) == minimize1_reference(sig, m, exact=True)


# ---------------------------------------------------------------------------
# 4: Theorem 14
# ---------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(b=medium_bucketizations, k=st.integers(min_value=0, max_value=4), data=st.data())
def test_merging_never_increases_disclosure(b, k, data):
    if len(b) < 2:
        coarser = b
    else:
        i = data.draw(st.integers(min_value=0, max_value=len(b) - 1))
        j = data.draw(st.integers(min_value=0, max_value=len(b) - 1))
        if i == j:
            j = (j + 1) % len(b)
        coarser = b.merge_buckets([i, j])
    assert max_disclosure(coarser, k, exact=True) <= max_disclosure(
        b, k, exact=True
    )


# ---------------------------------------------------------------------------
# 5: negation worst case
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(b=tiny_bucketizations, k=small_k)
def test_negation_closed_form_equals_brute_force(b, k):
    oracle = exact_max_disclosure_negations(b, k)
    assert max_disclosure_negations(b, k, exact=True) == oracle
    # The per-signature closed form, which max_disclosure_negations skips
    # when the worst case is certain.
    assert max(
        bucket_negation_disclosure(s, k, exact=True)
        for s, _ in b.signature_items()
    ) == oracle


@settings(max_examples=60, deadline=None)
@given(b=medium_bucketizations, k=st.integers(min_value=0, max_value=5))
def test_certain_iff_at_most_k_plus_one_distinct(b, k):
    # The theorem the certain-disclosure rule rests on, for both models:
    # the worst case is exactly 1 when, and only when, some bucket has at
    # most k + 1 distinct values. Checked on the DP and the per-signature
    # closed form as well as on the public entry points.
    items = b.signature_items()
    certain = min(len(s) for s, _ in items) <= k + 1
    ratio = min_ratio_table(dict(items), k, exact=True)[k]
    closed_form = max(
        bucket_negation_disclosure(s, k, exact=True) for s, _ in items
    )
    assert (ratio == 0) == certain
    assert (closed_form == 1) == certain
    assert (max_disclosure(b, k, exact=True) == 1) == certain
    assert (max_disclosure_negations(b, k, exact=True) == 1) == certain


# ---------------------------------------------------------------------------
# 6-7: DP structure invariants
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(b=medium_bucketizations, k=st.integers(min_value=0, max_value=5))
def test_dedupe_is_invisible(b, k):
    sigs = [bucket.signature for bucket in b.buckets]
    assert min_ratio_table(sigs, k, exact=True, dedupe=True) == min_ratio_table(
        sigs, k, exact=True, dedupe=False
    )


@settings(max_examples=40, deadline=None)
@given(b=medium_bucketizations)
def test_disclosure_monotone_in_k_and_bounded(b):
    series = max_disclosure_series(b, range(7), exact=True)
    values = [series[k] for k in range(7)]
    assert all(0 < v <= 1 for v in values)
    assert all(x <= y for x, y in zip(values, values[1:]))


@settings(max_examples=40, deadline=None)
@given(b=medium_bucketizations, k=st.integers(min_value=0, max_value=5))
def test_implications_dominate_negations_property(b, k):
    assert max_disclosure(b, k, exact=True) >= max_disclosure_negations(
        b, k, exact=True
    )


@settings(max_examples=40, deadline=None)
@given(b=medium_bucketizations, k=st.integers(min_value=0, max_value=4))
def test_disclosure_at_least_max_top_fraction(b, k):
    floor = max(
        Fraction(bucket.top_frequency, bucket.size) for bucket in b.buckets
    )
    assert max_disclosure(b, k, exact=True) >= floor


# ---------------------------------------------------------------------------
# 8: Theorem 3 encoding
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(b=tiny_bucketizations, data=st.data())
def test_encoding_exact_on_all_worlds(b, data):
    from repro.core.exact import enumerate_worlds
    from repro.knowledge.completeness import encode_predicate

    worlds = list(enumerate_worlds(b))
    chosen = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(worlds) - 1))
    )
    predicate = lambda w: worlds.index(w) in chosen
    phi = encode_predicate(worlds, predicate, ["a", "b", "c"])
    for index, world in enumerate(worlds):
        assert phi.holds_in(world) == (index in chosen)
