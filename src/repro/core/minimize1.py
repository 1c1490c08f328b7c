"""MINIMIZE1 — Algorithm 1 and Lemma 12 of the paper.

Minimizes ``Pr(AND_{i in [m]} NOT A_i | B)`` over all choices of ``m`` atoms
that involve people in a single bucket ``b``. Lemma 12 reduces the search to
*shapes*: pick ``l`` distinct people, give the ``i``-th person the bucket's
``k_i`` most frequent values (``k_0 >= k_1 >= ... >= k_{l-1}``,
``sum k_i = m``), and the probability has the closed form

    prod_{i in [l]}  (n_b - i - sum_{j in [k_i]} n_b(s_b^j)) / (n_b - i)

so minimizing over atom sets becomes minimizing over integer partitions of
``m``. This module provides:

- :func:`lemma12_probability` — the closed form for one partition, each
  factor clamped at 0 (a non-positive numerator means the top-``k_i`` values
  fill the remaining slots, so the event is impossible),
- :class:`Minimize1Solver` — the paper's memoized ``O(k^3)`` dynamic program,
  usable in float or exact-:class:`~fractions.Fraction` arithmetic,
- :func:`minimize1_reference` / :func:`best_partition` — direct enumeration
  over all partitions (the independent reference used by tests and by witness
  reconstruction).

A bucket enters these functions only through its *signature* (its sensitive
frequencies in descending order), so results are memoized per signature and
shared across buckets and across bucketizations — this implements the
incremental-recomputation remark at the end of Section 3.3.3.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction

from repro.core import kernel as _kernel

__all__ = [
    "INFEASIBLE",
    "lemma12_probability",
    "iter_partitions",
    "minimize1_reference",
    "best_partition",
    "Minimize1Solver",
    "resolve_solver",
]

#: Marker for infeasible placements (more people needed than the bucket has).
INFEASIBLE = float("inf")


def _validate_signature(signature: Sequence[int]) -> tuple[int, ...]:
    sig = tuple(signature)
    if not sig:
        raise ValueError("signature must be non-empty")
    if any(c <= 0 for c in sig):
        raise ValueError(f"signature counts must be positive: {sig}")
    if any(a < b for a, b in zip(sig, sig[1:])):
        raise ValueError(f"signature must be non-increasing: {sig}")
    return sig


def _prefix_sums(signature: tuple[int, ...]) -> list[int]:
    """``prefix[j] = n_b(s^0) + ... + n_b(s^{j-1})``; saturates past the last
    distinct value (frequencies of absent values are zero)."""
    prefix = [0]
    for count in signature:
        prefix.append(prefix[-1] + count)
    return prefix


def lemma12_probability(
    signature: Sequence[int], parts: Sequence[int], *, exact: bool = False
):
    """Closed form of Lemma 12 for one partition ``parts = (k_0, ..., k_{l-1})``.

    Returns the probability that, for each ``i``, person ``i`` (all distinct,
    in one bucket with the given frequency ``signature``) has none of the
    bucket's ``k_i`` most frequent values. Factors are clamped at 0: when the
    top-``k_i`` values exhaust the remaining slots the event is impossible.

    Raises
    ------
    ValueError
        If ``parts`` is not non-increasing with positive entries, or uses
        more people than the bucket holds.
    """
    sig = _validate_signature(signature)
    parts = tuple(parts)
    if any(p <= 0 for p in parts):
        raise ValueError(f"partition parts must be positive: {parts}")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"partition must be non-increasing: {parts}")
    n = sum(sig)
    if len(parts) > n:
        raise ValueError(
            f"partition uses {len(parts)} people but the bucket has {n} tuples"
        )
    prefix = _prefix_sums(sig)
    d = len(sig)
    result = Fraction(1) if exact else 1.0
    for i, k_i in enumerate(parts):
        numerator = n - i - prefix[min(k_i, d)]
        if numerator <= 0:
            return Fraction(0) if exact else 0.0
        if exact:
            result *= Fraction(numerator, n - i)
        else:
            result *= numerator / (n - i)
    return result


def iter_partitions(m: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    """All partitions of ``m`` into at most ``max_parts`` positive,
    non-increasing parts. ``m = 0`` yields the empty partition."""
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")

    def recurse(remaining: int, cap: int, slots: int, acc: list[int]):
        if remaining == 0:
            yield tuple(acc)
            return
        if slots == 0:
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            yield from recurse(remaining - part, part, slots - 1, acc)
            acc.pop()

    yield from recurse(m, m, max_parts, [])


def minimize1_reference(
    signature: Sequence[int], m: int, *, exact: bool = False
):
    """Minimum of Lemma 12's closed form over all partitions of ``m``, by
    direct enumeration. Exponential in ``m`` — the reference the DP is
    validated against, and small-``m`` witness reconstruction."""
    value, _ = best_partition(signature, m, exact=exact)
    return value


def best_partition(
    signature: Sequence[int], m: int, *, exact: bool = False
) -> tuple:
    """``(minimum probability, argmin partition)`` over partitions of ``m``
    into at most ``min(m, n_b)`` people."""
    sig = _validate_signature(signature)
    if m == 0:
        return (Fraction(1) if exact else 1.0), ()
    n = sum(sig)
    best_value = None
    best_parts: tuple[int, ...] = ()
    for parts in iter_partitions(m, min(m, n)):
        value = lemma12_probability(sig, parts, exact=exact)
        if best_value is None or value < best_value:
            best_value, best_parts = value, parts
    if best_value is None:  # m > 0 but no partition fits (cannot happen: n >= 1)
        raise ValueError(f"no feasible partition of {m} atoms in bucket {sig}")
    return best_value, best_parts


class Minimize1Solver:
    """The paper's MINIMIZE1 dynamic program, memoized per bucket signature.

    ``minimum(signature, m)`` equals ``MINIMIZE1(b, 0, m, m)`` from
    Algorithm 1: the minimum of ``Pr(AND_{i in [m]} NOT A_i | B)`` over atoms
    within one bucket with that signature. States ``(i, cap, rem)`` are
    bounded by ``m`` each, giving the paper's ``O(k^3)`` time and space per
    bucket; the memo is keyed by signature, so repeated signatures — within
    one bucketization or across many — are solved once (the Section 3.3.3
    incremental-cost remark).

    Parameters
    ----------
    exact:
        Use :class:`~fractions.Fraction` arithmetic (slower, exact) instead
        of floats.
    intern:
        Optional ``signature -> hashable id`` mapping (e.g.
        ``SignaturePlane.intern``). When provided, the memo is keyed by the
        interned id instead of the raw signature tuple, so a plane shared
        with the engine pays for hashing each signature once instead of on
        every lookup.
    kernel:
        ``"auto"`` (vectorized when numpy is available and the solver is in
        float mode), ``"numpy"``, or ``"scalar"`` — resolved once via
        :func:`repro.core.kernel.resolve_kernel`; exact mode is always
        scalar.
    """

    def __init__(
        self, *, exact: bool = False, intern=None, kernel: str = "auto"
    ) -> None:
        self._exact = exact
        self._one = Fraction(1) if exact else 1.0
        self._intern = intern
        self._memo: dict[object, dict] = {}
        self._tables: dict[object, list] = {}
        self._kernel = _kernel.resolve_kernel(kernel, exact=exact)

    @property
    def exact(self) -> bool:
        """Whether results are exact fractions."""
        return self._exact

    @property
    def kernel(self) -> str:
        """The concrete kernel in use: ``"numpy"`` or ``"scalar"``."""
        return self._kernel

    def _key(self, sig: tuple[int, ...]):
        return sig if self._intern is None else self._intern(sig)

    def minimum(self, signature: Sequence[int], m: int):
        """Minimum of ``Pr(AND_{i in [m]} NOT A_i | B)`` for ``m`` atoms in a
        bucket with the given signature (``m = 0`` gives 1)."""
        sig = _validate_signature(signature)
        if m < 0:
            raise ValueError(f"m must be non-negative, got {m}")
        if m == 0:
            return self._one
        if self._kernel == "numpy":
            key = self._key(sig)
            cached = self._tables.get(key)
            if cached is None or len(cached) <= m:
                self.tables([sig], m)
                cached = self._tables[key]
            return cached[m]
        n = sum(sig)
        prefix = _prefix_sums(sig)
        d = len(sig)
        key = self._key(sig)
        memo = self._memo.setdefault(key, {})

        def g(i: int, cap: int, rem: int):
            if rem == 0:
                return self._one
            if i >= n:
                return INFEASIBLE
            key = (i, cap, rem)
            cached = memo.get(key)
            if cached is not None:
                return cached
            best = INFEASIBLE
            for k_i in range(1, min(cap, rem) + 1):
                rest = g(i + 1, k_i, rem - k_i)
                if rest == INFEASIBLE:
                    continue
                numerator = n - i - prefix[min(k_i, d)]
                if numerator <= 0:
                    best = Fraction(0) if self._exact else 0.0
                    break  # cannot do better than zero
                if self._exact:
                    candidate = Fraction(numerator, n - i) * rest
                else:
                    candidate = (numerator / (n - i)) * rest
                if candidate < best:
                    best = candidate
            memo[key] = best
            return best

        result = g(0, m, m)
        if result == INFEASIBLE:  # pragma: no cover - unreachable for n >= 1
            raise ValueError(f"no feasible atom placement for m={m} in {sig}")
        return result

    def table(self, signature: Sequence[int], max_m: int) -> list:
        """``[minimum(signature, m) for m in 0..max_m]`` — one list the
        cross-bucket DP consumes. Sub-problems are shared across ``m``."""
        if self._kernel == "numpy":
            return self.tables([signature], max_m)[0]
        return [self.minimum(signature, m) for m in range(max_m + 1)]

    def tables(
        self, signatures: Sequence[Sequence[int]], max_m: int
    ) -> list[list]:
        """``[table(sig, max_m) for sig in signatures]`` in one batch.

        On the numpy kernel every *distinct* signature not already cached
        at this width is solved in a single vectorized pass; the scalar
        kernel simply loops. Values are identical either way — the
        vectorized DP reproduces the scalar float path bit-for-bit.
        """
        if max_m < 0:
            raise ValueError(f"max_m must be non-negative, got {max_m}")
        sigs = [_validate_signature(s) for s in signatures]
        if self._kernel != "numpy":
            return [self.table(sig, max_m) for sig in sigs]
        keys = [self._key(sig) for sig in sigs]
        missing: dict[object, tuple[int, ...]] = {}
        for key, sig in zip(keys, sigs):
            cached = self._tables.get(key)
            if cached is None or len(cached) <= max_m:
                missing[key] = sig
        if missing:
            solved = _kernel.minimize1_tables(list(missing.values()), max_m)
            # A wider cached table has identical prefixes (the DP's
            # candidate set per state does not depend on max_m), so
            # overwriting a narrower entry never changes earlier values.
            for key, tbl in zip(missing, solved):
                self._tables[key] = tbl
        return [self._tables[key][: max_m + 1] for key in keys]

    def memo_size(self) -> int:
        """Total number of memoized DP states (for the incremental bench).

        On the numpy kernel each cached table entry counts as one state —
        the vectorized pass keeps no per-``(i, cap, rem)`` memo.
        """
        states = sum(len(states) for states in self._memo.values())
        return states + sum(len(tbl) for tbl in self._tables.values())

    def known_signatures(self) -> int:
        """Number of distinct bucket signatures solved so far."""
        return len(self._memo.keys() | self._tables.keys())


def resolve_solver(
    exact: bool | None,
    solver: Minimize1Solver | None,
    kernel: str = "auto",
) -> Minimize1Solver:
    """One rule for the ``exact``/``solver`` keyword pair, shared by every
    disclosure entry point.

    ``exact=None`` (the default) inherits the solver's mode, or float when no
    solver is passed. Passing both ``exact`` and a solver whose mode differs
    is an error: the solver's memoized tables are in one arithmetic, and
    silently answering in the other hides a float/Fraction mixup at the
    call site. ``kernel`` seeds a freshly created solver; a provided
    solver's already-resolved kernel always wins.
    """
    if solver is None:
        return Minimize1Solver(exact=bool(exact), kernel=kernel)
    if exact is not None and bool(exact) != solver.exact:
        raise ValueError(
            f"exact={exact} conflicts with the provided solver's "
            f"exact={solver.exact}; pass a matching solver or drop `exact`"
        )
    return solver
