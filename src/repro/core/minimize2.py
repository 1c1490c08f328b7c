"""MINIMIZE2 — Algorithm 2 of the paper, made iterative and incremental.

Minimizes Formula (1),

    Pr(NOT A AND (AND_{i in [k]} NOT A_i) | B) / Pr(A | B),

jointly over all atoms ``A, A_0, ..., A_{k-1}`` anywhere in the bucketization.
Maximum disclosure w.r.t. ``L^k_basic`` is then ``1 / (1 + minimum)``
(Section 3.3). Buckets are independent, so a placement is: choose how many
antecedent atoms each bucket receives and which bucket hosts the consequent
atom ``A``; the bucket hosting ``A`` contributes
``MINIMIZE1(b, m+1) * n_b / n_b(s_b^0)`` and every other bucket contributes
``MINIMIZE1(b, m)``.

Implementation notes:

- The DP runs **iteratively** (one backward pass over the bucket list), so
  there is no recursion-depth limit for bucketizations with tens of
  thousands of buckets. State per position: ``f(h, a)`` where ``h`` is the
  number of antecedent atoms still to place and ``a`` says whether ``A`` has
  already been placed. As printed in the paper, Algorithm 2's base case
  returns infinity and the initial flag is inconsistent between the text and
  the pseudo-code; we implement the evidently intended semantics (base case:
  1 if everything is placed, else infeasible; initial flag: ``A`` not yet
  placed) and validate against brute force.
- Buckets with equal signatures are interchangeable, and at most ``k+1``
  buckets ever receive an atom, so each distinct signature is kept at most
  ``max_k + 1`` times (``dedupe=True``). This turns ``O(|B| k^2)`` into
  ``O(min(|B|, distinct * (k+1)) * k^2)`` transitions plus one group-by.
- One pass produces the answers for **all** ``k' <= max_k`` simultaneously.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from fractions import Fraction

from repro.core import kernel as _kernel
from repro.core.minimize1 import INFEASIBLE, Minimize1Solver, resolve_solver

__all__ = ["min_ratio_table", "effective_signatures", "MinRatioComputation"]


def _times(a, b):
    """Product that treats :data:`INFEASIBLE` as absorbing (avoids 0 * inf)."""
    if a == INFEASIBLE or b == INFEASIBLE:
        return INFEASIBLE
    return a * b


def effective_signatures(
    signatures: Sequence[tuple[int, ...]] | Mapping[tuple[int, ...], int],
    cap: int,
) -> list[tuple[int, ...]]:
    """Deduplicate a signature list: keep each distinct signature at most
    ``cap`` times (``cap = max_k + 1`` preserves every optimum because a
    placement touches at most ``k + 1`` buckets).

    Accepts either one signature per bucket or a pre-counted multiset
    (``signature -> count``, the signature plane's native form); both yield
    the identical effective list, so counted callers skip materializing a
    per-bucket list entirely.
    """
    if cap <= 0:
        raise ValueError(f"cap must be positive, got {cap}")
    counted = (
        signatures if isinstance(signatures, Mapping) else Counter(signatures)
    )
    effective: list[tuple[int, ...]] = []
    for signature in sorted(counted, key=repr):
        effective.extend([signature] * min(counted[signature], cap))
    return effective


class MinRatioComputation:
    """One backward DP pass, with per-position tables retained.

    Retaining the tables lets :mod:`repro.core.witness` walk forward and
    reconstruct an optimal placement. For plain disclosure numbers use
    :func:`min_ratio_table`, which discards intermediates.

    Parameters
    ----------
    signatures:
        One signature per bucket, in a fixed order (positions index into this
        list; with deduplication disabled they correspond to actual buckets).
    max_k:
        Largest number of antecedent atoms to support.
    solver:
        Shared :class:`~repro.core.minimize1.Minimize1Solver` (its ``exact``
        flag decides the arithmetic).
    """

    def __init__(
        self,
        signatures: Sequence[tuple[int, ...]],
        max_k: int,
        solver: Minimize1Solver,
    ) -> None:
        if max_k < 0:
            raise ValueError(f"max_k must be non-negative, got {max_k}")
        sigs = list(signatures)
        if not sigs:
            raise ValueError("need at least one bucket")
        self.signatures = sigs
        self.max_k = max_k
        self.solver = solver
        one = Fraction(1) if solver.exact else 1.0

        # f_after[i] = (fa, ff) where fa[h] / ff[h] are the minimum products
        # contributed by buckets i..end when h antecedent atoms remain and A
        # is already placed (fa) or still to place (ff).
        if solver.kernel == "numpy":
            tables = solver.tables(sigs, max_k + 1)
            boosts = [sum(s) / s[0] for s in sigs]
            self._after = _kernel.min_ratio_backward(tables, boosts, max_k)
            self._after.reverse()
            return
        width = max_k + 1
        fa = [one] + [INFEASIBLE] * max_k
        ff = [INFEASIBLE] * width
        self._after: list[tuple[list, list]] = [(fa, ff)]
        for signature in reversed(sigs):
            g = solver.table(signature, max_k + 1)
            n = sum(signature)
            top = signature[0]
            boost = Fraction(n, top) if solver.exact else n / top
            ghat = [_times(g[m + 1], boost) for m in range(width)]
            prev_fa, prev_ff = self._after[-1]
            new_fa = [
                min(_times(g[m], prev_fa[h - m]) for m in range(h + 1))
                for h in range(width)
            ]
            new_ff = [
                min(
                    min(_times(g[m], prev_ff[h - m]) for m in range(h + 1)),
                    min(_times(ghat[m], prev_fa[h - m]) for m in range(h + 1)),
                )
                for h in range(width)
            ]
            self._after.append((new_fa, new_ff))
        self._after.reverse()  # _after[i] now = tables for suffix starting at i

    def tables_at(self, position: int) -> tuple[list, list]:
        """``(fa, ff)`` for the bucket suffix starting at ``position``."""
        return self._after[position]

    def ratio(self, k: int):
        """Minimum of Formula (1) using exactly ``k`` antecedent atoms."""
        if not 0 <= k <= self.max_k:
            raise ValueError(f"k={k} outside [0, {self.max_k}]")
        return self._after[0][1][k]

    def ratios(self) -> list:
        """``[ratio(k) for k in 0..max_k]``."""
        return list(self._after[0][1])


def min_ratio_table(
    signatures: Sequence[tuple[int, ...]] | Mapping[tuple[int, ...], int],
    max_k: int,
    *,
    solver: Minimize1Solver | None = None,
    exact: bool | None = None,
    dedupe: bool = True,
    kernel: str = "auto",
) -> list:
    """Minimum of Formula (1) for every ``k in 0..max_k`` over a bucketization
    given by its bucket ``signatures`` (one per bucket, or pre-counted as a
    ``signature -> count`` mapping — the signature plane's form).

    The result is a list ``r`` with ``max disclosure(k) = 1 / (1 + r[k])``;
    ``r[k] = 0`` means some k-implication formula forces a certain disclosure.

    Parameters
    ----------
    solver:
        Reuse a solver to share MINIMIZE1 memoization across calls (the
        incremental-cost remark of Section 3.3.3); a fresh one is created
        otherwise with the requested ``exact`` mode. ``exact``/``solver``
        resolve via :func:`repro.core.minimize1.resolve_solver` (the solver's
        mode wins; explicit conflicts raise).
    dedupe:
        Collapse equal signatures (always safe; disable only to measure the
        undeduplicated algorithm).
    kernel:
        Kernel selector for a freshly created solver (``auto``/``numpy``/
        ``scalar``); a provided ``solver``'s kernel wins. The numpy kernel
        is bit-identical to scalar on the float path.
    """
    solver = resolve_solver(exact, solver, kernel)
    if dedupe:
        sigs = effective_signatures(signatures, max_k + 1)
    elif isinstance(signatures, Mapping):
        # Expand the counted form in the same canonical order the dedupe
        # path uses, so float results are bit-identical either way.
        sigs = [
            signature
            for signature in sorted(signatures, key=repr)
            for _ in range(signatures[signature])
        ]
    else:
        sigs = list(signatures)
    return MinRatioComputation(sigs, max_k, solver).ratios()
