"""ℓ-diversity (Machanavajjhala et al., ICDE 2006) — the paper's reference [24].

Three standard instantiations over a bucketization:

- **distinct** ℓ-diversity: every bucket has at least ℓ distinct sensitive
  values;
- **entropy** ℓ-diversity: every bucket's sensitive entropy is at least
  ``log(ℓ)``;
- **recursive (c,ℓ)**-diversity: in every bucket,
  ``r_1 < c * (r_l + r_{l+1} + ... + r_d)`` where ``r_i`` are the sensitive
  frequencies in descending order.

All three are preserved by bucket merging in the entropy/recursive cases per
the ℓ-diversity paper's monotonicity results, so they can drive the lattice
search just like (c,k)-safety. The connection to this paper: ℓ-diversity
bounds disclosure against ℓ-1 *negated atoms*; Figure 5 compares that
attacker to the implication attacker (see :mod:`repro.core.negation`).
"""

from __future__ import annotations

import math

from repro.bucketization.bucket import Bucket
from repro.bucketization.bucketization import Bucketization

__all__ = [
    "distinct_diversity",
    "entropy_diversity",
    "is_distinct_l_diverse",
    "is_entropy_l_diverse",
    "is_recursive_cl_diverse",
]


def distinct_diversity(bucketization: Bucketization) -> int:
    """The largest ℓ such that the bucketization is distinct ℓ-diverse
    (the minimum number of distinct values in any bucket), read off the
    signature multiset without building a deferred bucketization's
    buckets."""
    return min(len(sig) for sig, _ in bucketization.signature_items())


def entropy_diversity(bucketization: Bucketization) -> float:
    """The largest ℓ such that the bucketization is entropy ℓ-diverse:
    ``exp(min bucket entropy)`` (natural log throughout)."""
    return math.exp(
        min(bucket.entropy() for bucket in bucketization.buckets)
    )


def is_distinct_l_diverse(bucketization: Bucketization, ell: int) -> bool:
    """Every bucket contains at least ``ell`` distinct sensitive values."""
    if ell <= 0:
        raise ValueError(f"ell must be positive, got {ell}")
    return distinct_diversity(bucketization) >= ell


def is_entropy_l_diverse(bucketization: Bucketization, ell: float) -> bool:
    """Every bucket's sensitive entropy is at least ``log(ell)``."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    threshold = math.log(ell)
    return all(
        bucket.entropy() >= threshold - 1e-12
        for bucket in bucketization.buckets
    )


def _bucket_recursive_cl(bucket: Bucket, c: float, ell: int) -> bool:
    """Recursive (c, ℓ)-diversity for one bucket."""
    counts = bucket.signature  # already descending
    if ell > len(counts):
        return False
    tail = sum(counts[ell - 1 :])
    return counts[0] < c * tail


def is_recursive_cl_diverse(
    bucketization: Bucketization, c: float, ell: int
) -> bool:
    """Recursive (c,ℓ)-diversity: the most frequent value is outweighed by
    the tail ``r_l + ... + r_d`` scaled by ``c``, in every bucket.

    For ``ell = 1`` the condition reads ``r_1 < c * (r_1 + ... + r_d)``,
    i.e. a cap of ``c`` on every bucket's top frequency fraction.
    """
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    if ell <= 0:
        raise ValueError(f"ell must be positive, got {ell}")
    return all(
        _bucket_recursive_cl(bucket, c, ell)
        for bucket in bucketization.buckets
    )
