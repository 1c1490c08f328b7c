"""Maximum disclosure w.r.t. ``L^k_basic`` (Definition 6) in polynomial time.

This is the paper's headline algorithm: Theorem 9 restricts the worst case to
``k`` simple implications sharing one consequent, MINIMIZE1/MINIMIZE2 minimize
Formula (1) over those, and

    max disclosure = 1 / (1 + min Formula (1))

The whole computation is ``O(|B| * k^3)`` time and space (Section 3.3.3), and
in this implementation the per-bucket work is shared across equal bucket
signatures and across calls that pass a common solver.

**Certain disclosure skips the DP.** When some bucket has at most ``k + 1``
distinct sensitive values, Formula (1)'s minimum is exactly zero and the
disclosure exactly 1, so the entry points here answer without running
MINIMIZE1/MINIMIZE2. The proof, for a bucket ``b`` with ``n`` tuples and
``d`` distinct values: give all ``m`` atoms of MINIMIZE1 to one person and
Lemma 12's numerator is ``n - prefix[min(m, d)]``, which is 0 once
``m >= d``, so ``MINIMIZE1(b, m)`` is exactly 0 there (the scalar DP's
literal ``0.0``, ``0 / x`` in the numpy kernel, ``Fraction(0)`` in exact
mode) and, since a zero factor needs ``d <= m``, nowhere else. Hosting the
consequent in ``b`` with all ``k >= d - 1`` antecedents makes that
placement's product 0; every other factor is finite, so the minimum is
exactly 0 and ``1 / (1 + 0)`` exactly 1. Below ``d_min - 1`` the DP runs as
before, only up to the largest such ``k`` asked for: a placement touches at
most ``k + 1`` buckets, so the narrower pass computes each smaller ``k``'s
minimum over the same products, bit for bit. The DP itself
(:func:`~repro.core.minimize2.min_ratio_table` and the solver) keeps no such
rule, so the kernels, the ablations and witness reconstruction still
exercise it on every input.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from repro.bucketization.bucketization import Bucketization
from repro.core.minimize1 import (
    INFEASIBLE,
    Minimize1Solver,
    _validate_signature,
    resolve_solver,
)
from repro.core.minimize2 import min_ratio_table

__all__ = [
    "min_formula1_ratio",
    "max_disclosure",
    "max_disclosure_series",
    "max_disclosure_series_from_counts",
    "min_k_to_breach",
]


def _to_disclosure(ratio, *, exact: bool):
    """``1 / (1 + ratio)`` with infeasible ratios mapped to disclosure 0."""
    if ratio == INFEASIBLE:  # pragma: no cover - cannot happen for |B| >= 1
        return Fraction(0) if exact else 0.0
    if exact:
        return Fraction(1) / (1 + ratio)
    return 1.0 / (1.0 + ratio)


def _min_ratios(
    signature_counts: Mapping[tuple[int, ...], int],
    ks: list[int],
    solver: Minimize1Solver,
) -> dict[int, object]:
    """Formula (1)'s minimum for each ``k`` in ``ks`` (ascending,
    non-negative) over a valid signature multiset: an exact zero from
    ``d_min - 1`` on (the module docstring's rule), and one MINIMIZE2 pass
    up to the largest ``k`` below it, when one is asked for."""
    certain = min(len(signature) for signature in signature_counts) - 1
    below = [k for k in ks if k < certain]
    table = (
        min_ratio_table(signature_counts, below[-1], solver=solver)
        if below
        else []
    )
    zero = Fraction(0) if solver.exact else 0.0
    return {k: table[k] if k < certain else zero for k in ks}


def min_formula1_ratio(
    bucketization: Bucketization,
    k: int,
    *,
    exact: bool | None = None,
    solver: Minimize1Solver | None = None,
):
    """Minimum of Formula (1) over placements of ``k`` antecedent atoms and
    the consequent atom (Section 3.3.3).

    Exactly zero, without running the DP, when some bucket has at most
    ``k + 1`` distinct sensitive values (see the module docstring)."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    solver = resolve_solver(exact, solver)
    return _min_ratios(dict(bucketization.signature_items()), [k], solver)[k]


def max_disclosure(
    bucketization: Bucketization,
    k: int,
    *,
    exact: bool | None = None,
    solver: Minimize1Solver | None = None,
):
    """Maximum disclosure of ``bucketization`` w.r.t. ``L^k_basic``.

    Parameters
    ----------
    bucketization:
        The published buckets.
    k:
        Bound on the attacker's power: number of basic implications known.
    exact:
        Return an exact :class:`~fractions.Fraction` (float otherwise). The
        default ``None`` inherits the solver's mode; an explicit value that
        contradicts a provided solver raises :class:`ValueError`.
    solver:
        Optional shared :class:`~repro.core.minimize1.Minimize1Solver`; pass
        one instance across many bucketizations to reuse per-signature work.

    Returns
    -------
    float | Fraction
        ``max_{p, s, phi in L^k_basic} Pr(t_p[S] = s | B and phi)``.

    Notes
    -----
    When some bucket has ``d <= k + 1`` distinct sensitive values the answer
    is exactly 1 (``1.0``, or ``Fraction(1)`` in exact mode) and no DP runs:
    ``d - 1`` implications ``p = s' -> p = s``, one per other value ``s'``,
    leave one of the bucket's people a single possible value. In Formula (1)
    terms, MINIMIZE1 of that bucket is exactly 0 once all ``d`` of its
    values are excluded from one person, so hosting the consequent there
    makes the minimum exactly 0. The value is the DP's, bit for bit.

    Examples
    --------
    The paper's Figure 3 bucketization. For ``k = 1`` the paper's text
    quotes 10/19, from a cross-bucket implication; a same-person
    implication reaches 2/3, and 2/3 is the maximum:

    >>> from repro.bucketization import Bucketization
    >>> figure3 = Bucketization.from_value_lists([
    ...     ["Flu", "Flu", "Lung Cancer", "Lung Cancer", "Mumps"],
    ...     ["Flu", "Flu", "Breast Cancer", "Ovarian Cancer", "Heart Disease"],
    ... ])
    >>> max_disclosure(figure3, 0, exact=True)
    Fraction(2, 5)
    >>> max_disclosure(figure3, 1, exact=True)
    Fraction(2, 3)
    """
    solver = resolve_solver(exact, solver)
    ratio = min_formula1_ratio(bucketization, k, solver=solver)
    return _to_disclosure(ratio, exact=solver.exact)


def max_disclosure_series(
    bucketization: Bucketization,
    ks: Iterable[int],
    *,
    exact: bool | None = None,
    solver: Minimize1Solver | None = None,
) -> dict[int, object]:
    """Maximum disclosure for several ``k`` values at the cost of one.

    A single MINIMIZE2 pass computes every ``k <= max(ks)`` (the DP tables
    are shared), so sweeping ``k`` — as both Figures 5 and 6 do — costs the
    same as the largest single query. Every ``k >= d_min - 1`` is answered
    1 without the DP, which then runs only up to the largest requested
    ``k`` below that. ``exact``/``solver`` resolve exactly as in
    :func:`max_disclosure` (the solver's mode wins; explicit conflicts
    raise).
    """
    return _series(dict(bucketization.signature_items()), ks, exact, solver)


def _series(
    signature_counts: Mapping[tuple[int, ...], int],
    ks: Iterable[int],
    exact: bool | None,
    solver: Minimize1Solver | None,
) -> dict[int, object]:
    """The series of a valid signature multiset (see the callers)."""
    ks = sorted(set(ks))
    if not ks:
        return {}
    if ks[0] < 0:
        raise ValueError(f"k must be non-negative, got {ks[0]}")
    solver = resolve_solver(exact, solver)
    ratios = _min_ratios(signature_counts, ks, solver)
    return {k: _to_disclosure(ratios[k], exact=solver.exact) for k in ks}


def max_disclosure_series_from_counts(
    signature_counts: Mapping[tuple[int, ...], int],
    ks: Iterable[int],
    *,
    exact: bool | None = None,
    solver: Minimize1Solver | None = None,
) -> dict[int, object]:
    """:func:`max_disclosure_series` computed purely on the signature plane.

    ``signature_counts`` maps each bucket signature to its multiplicity —
    all the implication worst case depends on (Lemma 12 / MINIMIZE2 see a
    bucketization only through its histogram shapes), so no people are
    ever built.

    The counts are raw input, so they are checked once here, before the
    certain-disclosure rule could answer a malformed short signature with 1.
    :func:`max_disclosure_series` skips the check: a bucketization's
    multiset is valid by construction.

    Raises
    ------
    ValueError
        If ``signature_counts`` is empty, a signature is empty, increases
        anywhere or has a non-positive entry, or a multiplicity is not
        positive; or if a ``k`` is negative.
    """
    if not signature_counts:
        raise ValueError("need at least one bucket")
    for signature, count in signature_counts.items():
        _validate_signature(signature)
        if count <= 0:
            raise ValueError(
                f"signature multiplicity must be positive, got {count}"
            )
    return _series(signature_counts, ks, exact, solver)


def min_k_to_breach(
    bucketization: Bucketization,
    c: float,
    *,
    exact: bool = False,
) -> int:
    """The least attacker power ``k`` whose maximum disclosure reaches ``c``.

    This is the quantity ℓ-diversity reasons about ("it takes at least ℓ-1
    pieces of information"), generalized to implication knowledge. It is
    always well-defined for ``c <= 1``: in any bucket with ``d`` distinct
    sensitive values, ``d - 1`` negation-style implications force a certain
    disclosure, so the search ends by ``max_b (d_b - 1)`` at the latest.
    The distinct counts are read off the signature multiset, so a deferred
    bucketization's buckets are never built.

    Parameters
    ----------
    c:
        Disclosure level to reach, in (0, 1].

    Returns
    -------
    int
        Smallest ``k`` with ``max_disclosure(bucketization, k) >= c``.

    Examples
    --------
    >>> from repro.bucketization import Bucketization
    >>> b = Bucketization.from_value_lists([["a", "b", "c", "d"]])
    >>> min_k_to_breach(b, 1.0)
    3
    """
    if not 0 < c <= 1:
        raise ValueError(f"c must be in (0, 1], got {c}")
    bound = max(len(sig) for sig, _ in bucketization.signature_items()) - 1
    series = max_disclosure_series(bucketization, range(bound + 1), exact=exact)
    threshold = Fraction(c).limit_denominator() if exact else c
    for k in range(bound + 1):
        if series[k] >= threshold:
            return k
    return bound  # pragma: no cover - k = bound always reaches 1 >= c
