"""Worst-case disclosure against ``k`` negated atoms — the ℓ-diversity attacker.

ℓ-diversity (Machanavajjhala et al., cited as [24]) models background
knowledge as negated atoms ``NOT (t_p[S] = s)``. Figure 5's dotted line plots
the worst case over ``k`` such statements; this module computes it in closed
form.

The worst case concentrates all ``k`` negations on a single person of a single
bucket: cross-bucket negations cannot influence the target's bucket (buckets
are independent and negations never couple them) and same-bucket negations
about *other* people are weakly dominated (property-tested against the exact
oracle in ``tests/test_negation.py``). Conditioning one person on avoiding a
value set ``N`` gives

    Pr(t_p = s | p avoids N) = n_b(s) / (n_b - sum_{s' in N} n_b(s'))

so the optimum eliminates the ``k`` most frequent values other than the
target and targets whichever value then maximizes the quotient.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from repro.bucketization.bucket import Bucket
from repro.bucketization.bucketization import Bucketization

__all__ = [
    "bucket_negation_disclosure",
    "max_disclosure_negations",
    "max_disclosure_negations_series",
    "negation_witness",
    "NegationWitness",
]


def _best_for_signature(
    signature: Sequence[int], k: int, *, exact: bool
) -> tuple:
    """``(disclosure, target index, eliminated indices)`` for one bucket.

    For each candidate target index ``t`` the optimal elimination set is the
    ``k`` largest remaining counts; with the signature sorted descending those
    are indices ``0..k`` skipping ``t`` (or ``0..k-1`` when ``t > k``). The
    mass they remove is ``top(k + 1) - signature[t]`` or ``top(k)``, where
    ``top(m)`` sums the ``m`` largest counts: exact integers, so each
    quotient is the one summing the eliminated counts would give. Every
    ``t > k + 1`` shares ``t = k + 1``'s denominator with no larger count,
    so it cannot beat it and is skipped. The first ``t`` reaching the
    maximum wins. O(d) for ``n``, then O(min(k, d)).
    """
    n = sum(signature)
    d = len(signature)
    top_k = sum(signature[:k])
    top_k1 = sum(signature[: k + 1])
    best = None
    best_t = 0
    for t, count in enumerate(signature[: k + 2]):
        removed = top_k1 - count if t <= k else top_k
        value = Fraction(count, n - removed) if exact else count / (n - removed)
        if best is None or value > best:
            best, best_t = value, t
    if best_t <= k:
        eliminated = tuple(j for j in range(min(k + 1, d)) if j != best_t)
    else:
        eliminated = tuple(range(k))
    return best, best_t, eliminated


def bucket_negation_disclosure(
    bucket: Bucket | Sequence[int], k: int, *, exact: bool = False
):
    """Worst-case disclosure within one bucket for ``k`` negated atoms.

    Accepts a :class:`~repro.bucketization.bucket.Bucket` or a bare signature.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    signature = bucket.signature if isinstance(bucket, Bucket) else tuple(bucket)
    value, _, _ = _best_for_signature(signature, k, exact=exact)
    return value


def max_disclosure_negations(
    bucketization: Bucketization, k: int, *, exact: bool = False
):
    """Worst-case disclosure of the whole bucketization for ``k`` negations.

    Read off the distinct bucket signatures (equal signatures give equal
    values), so a deferred bucketization's buckets are never built.

    When some bucket has at most ``k + 1`` distinct values the answer is
    exactly 1 (``1.0``, or ``Fraction(1)`` in exact mode) and no signature
    is scanned: target one of its values and negate the others (at most
    ``k``), and the quotient is ``count / count``; no quotient exceeds 1.
    That is the closed form's own value, bit for bit.
    """
    items = bucketization.signature_items()
    if min(len(signature) for signature, _ in items) <= k + 1:
        return Fraction(1) if exact else 1.0
    return max(
        bucket_negation_disclosure(signature, k, exact=exact)
        for signature, _ in items
    )


def max_disclosure_negations_series(
    bucketization: Bucketization, ks: Iterable[int], *, exact: bool = False
) -> dict[int, object]:
    """Worst case for several ``k`` values: per ``k``, 1 when some bucket
    has at most ``k + 1`` distinct values, else each distinct signature
    costs one O(d) sum plus at most ``k + 2`` candidate targets."""
    return {
        k: max_disclosure_negations(bucketization, k, exact=exact)
        for k in sorted(set(ks))
    }


@dataclass(frozen=True)
class NegationWitness:
    """A concrete worst-case set of negated atoms.

    Attributes
    ----------
    bucket_index:
        Which bucket the attack targets.
    person:
        The person all negations (and the disclosed atom) involve.
    target_value:
        The sensitive value whose probability is maximized.
    negated_values:
        The values asserted *not* to be the person's (``<= k`` of them; fewer
        than ``k`` when the bucket has fewer other distinct values).
    disclosure:
        ``Pr(t_person = target_value | B and the negations)``.
    """

    bucket_index: int
    person: Any
    target_value: Any
    negated_values: tuple[Any, ...]
    disclosure: object


def negation_witness(
    bucketization: Bucketization, k: int, *, exact: bool = False
) -> NegationWitness:
    """Reconstruct a worst-case negation set achieving
    :func:`max_disclosure_negations`."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    best: tuple | None = None
    for index, bucket in enumerate(bucketization.buckets):
        value, t, eliminated = _best_for_signature(
            bucket.signature, k, exact=exact
        )
        if best is None or value > best[0]:
            best = (value, index, t, eliminated)
    assert best is not None  # bucketizations are non-empty by construction
    value, index, t, eliminated = best
    bucket = bucketization.buckets[index]
    order = bucket.values_by_frequency
    return NegationWitness(
        bucket_index=index,
        person=bucket.person_ids[0],
        target_value=order[t],
        negated_values=tuple(order[j] for j in eliminated),
        disclosure=value,
    )
