"""Float-mode kernel for the MINIMIZE1/MINIMIZE2 hot path.

Every disclosure query bottoms out in the paper's ``O(|B| k^3)``
MINIMIZE1/MINIMIZE2 dynamic programs. This module runs them faster than
the scalar reference loops:

- :func:`minimize1_tables` (vectorized, numpy) runs MINIMIZE1's
  ``(i, cap, rem)`` recursion as one layered array pass over **all**
  distinct signatures in a batch at once, instead of one memoized Python
  recursion per signature.
- :func:`min_ratio_backward` (a plain float loop, no numpy) runs MINIMIZE2's
  backward ``fa``/``ff`` recurrence, doing each bucket's three
  min-convolutions in one pass over ``(h, m)`` and skipping a product with
  an :data:`~repro.core.minimize1.INFEASIBLE` operand inline, where the
  scalar loop calls ``_times``. Its vectors are only ``max_k + 1`` wide,
  too short for numpy's per-call overhead to pay off.

Both functions reproduce the scalar float path **bit-for-bit**: the same
int->float64 divisions, the same multiplication pairs, and mins over the
same candidate sets (a min over identical floats is order-independent).
The one numpy-specific hazard — ``0.0 * inf == nan`` where the scalar code
short-circuits — is masked explicitly in :func:`minimize1_tables` before
the product is consumed.

numpy is an *optional* dependency (the ``repro[fast]`` extra).
:func:`resolve_kernel` maps the user-facing ``kernel={auto,numpy,scalar}``
selector to a concrete kernel: exact (Fraction) mode is always scalar — the
authoritative oracle — and a ``numpy`` request without numpy installed
falls back to scalar with a one-time :class:`RuntimeWarning`.

This module is self-contained (no ``repro`` imports) so the core solvers
can import it without cycles.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence

__all__ = [
    "KERNELS",
    "numpy_available",
    "resolve_kernel",
    "minimize1_tables",
    "min_ratio_backward",
]

#: Valid values for the user-facing kernel selector.
KERNELS = ("auto", "numpy", "scalar")

_np = None
_np_checked = False
_warned_missing = False


def _numpy():
    """The numpy module, or ``None`` — imported lazily, probed once."""
    global _np, _np_checked
    if not _np_checked:
        _np_checked = True
        try:
            import numpy
        except ImportError:  # pragma: no cover - exercised in no-numpy CI leg
            _np = None
        else:
            _np = numpy
    return _np


def numpy_available() -> bool:
    """Whether the vectorized MINIMIZE1 kernel can run in this environment."""
    return _numpy() is not None


def resolve_kernel(kernel: str, *, exact: bool = False) -> str:
    """Map a ``kernel`` selector to the concrete kernel that will run.

    Returns ``"numpy"`` or ``"scalar"``. Exact (Fraction) arithmetic is
    always scalar — the vectorized path is float-only and the exact oracle
    stays the correctness reference. ``"auto"`` silently picks numpy when
    available; an explicit ``"numpy"`` request without numpy installed
    falls back to scalar with a one-time :class:`RuntimeWarning`.
    """
    global _warned_missing
    if kernel not in KERNELS:
        raise ValueError(
            f"kernel must be one of {KERNELS}, got {kernel!r}"
        )
    if exact or kernel == "scalar":
        return "scalar"
    if numpy_available():
        return "numpy"
    if kernel == "numpy" and not _warned_missing:
        _warned_missing = True
        warnings.warn(
            "kernel='numpy' requested but numpy is not installed; "
            "falling back to the scalar kernel "
            "(pip install 'repro[fast]' to enable it)",
            RuntimeWarning,
            stacklevel=2,
        )
    return "scalar"


def minimize1_tables(
    signatures: Sequence[tuple[int, ...]], max_m: int
) -> list[list[float]]:
    """Batched MINIMIZE1: ``[solver.table(sig, max_m) for sig in signatures]``
    as one layered numpy pass, bit-identical to the scalar float DP.

    ``signatures`` must be validated (non-empty, positive, non-increasing)
    by the caller; they need not be distinct, but callers that deduplicate
    first do the work once per distinct signature.

    The scalar recursion ``g(i, cap, rem)`` is evaluated bottom-up over
    layers ``i = max_m .. 0`` with state arrays of shape
    ``(S, width, width)`` indexed ``[signature, cap, rem]``. At layer ``i``
    only states with ``rem <= max_m - i`` are ever consulted, so the top
    layer's boundary (1 when ``rem == 0``, else infeasible) is correct for
    every signature, including those with fewer than ``max_m`` tuples.
    """
    np = _numpy()
    if np is None:  # pragma: no cover - callers gate on resolve_kernel
        raise RuntimeError("numpy kernel requested but numpy is unavailable")
    if max_m < 0:
        raise ValueError(f"max_m must be non-negative, got {max_m}")
    sigs = [tuple(s) for s in signatures]
    if not sigs:
        return []
    if max_m == 0:
        return [[1.0] for _ in sigs]

    width = max_m + 1
    count = len(sigs)
    n = np.array([sum(s) for s in sigs], dtype=np.int64)
    # P[s, k] = prefix-sum of the top min(k, d_s) frequencies; zero padding
    # past each signature's last distinct value saturates the cumsum exactly
    # like the scalar ``prefix[min(k, d)]`` lookup.
    counts = np.zeros((count, max_m), dtype=np.int64)
    for row, sig in enumerate(sigs):
        head = sig[:max_m]
        counts[row, : len(head)] = head
    prefix = np.zeros((count, width), dtype=np.int64)
    prefix[:, 1:] = np.cumsum(counts, axis=1)

    k_idx = np.arange(1, width)  # candidate atoms for the current person
    rem_idx = np.arange(width)
    rem_after = rem_idx[None, :] - k_idx[:, None]  # (K, width)
    valid_k = rem_after >= 0
    gather = np.where(valid_k, rem_after, 0)

    inf = np.inf
    boundary = np.where(rem_idx == 0, 1.0, inf)  # (width,) per (cap, rem=..)
    boundary = np.broadcast_to(boundary, (width, width))
    g_layer = np.broadcast_to(boundary, (count, width, width)).copy()

    for i in range(max_m - 1, -1, -1):
        denom = n - i  # people remaining in the bucket after i placements
        safe_denom = np.where(denom > 0, denom, 1)
        # numerator for person i taking its top-k values, clamped at 0 so
        # the factor is exactly the scalar path's literal 0.0.
        numer = denom[:, None] - prefix[:, 1:]  # (S, K)
        factor = np.maximum(numer, 0) / safe_denom[:, None]
        # rest[s, k, rem] = g(i+1, k, rem - k) for each candidate k.
        rest = g_layer[:, k_idx[:, None], gather]
        with np.errstate(invalid="ignore"):
            cand = factor[:, :, None] * rest
        cand = np.where(np.isinf(rest), inf, cand)  # _times absorbing inf
        cand = np.where(valid_k[None, :, :], cand, inf)
        # Prefix-min over k <= cap gives every cap row in one accumulate.
        cum = np.minimum.accumulate(cand, axis=1)
        g_next = np.empty_like(g_layer)
        g_next[:, 0, :] = inf  # cap == 0: no candidate atom counts
        g_next[:, 1:, :] = cum
        g_next[:, :, 0] = 1.0  # rem == 0 precedes the i >= n check
        # Signatures already out of people keep the boundary pattern.
        g_layer = np.where((i < n)[:, None, None], g_next, boundary[None])

    diag = g_layer[:, rem_idx, rem_idx]  # table[s][m] = g(0, m, m)
    diag[:, 0] = 1.0
    return diag.tolist()


def min_ratio_backward(
    tables: Sequence[Sequence[float]],
    boosts: Sequence[float],
    max_k: int,
) -> list[tuple[list[float], list[float]]]:
    """MINIMIZE2's backward pass over pre-computed MINIMIZE1 tables.

    ``tables[i]`` is the float MINIMIZE1 table of bucket ``i`` (forward
    order, length at least ``max_k + 2``) and ``boosts[i] = n_i / top_i``
    its consequent-hosting boost. Returns the ``_after`` list in the same
    layout the scalar :class:`~repro.core.minimize2.MinRatioComputation`
    builds *before* reversal: the boundary pair first, then one
    ``(fa, ff)`` pair per bucket processed back-to-front, as plain Python
    float lists so witness reconstruction walks them unchanged.

    A plain float loop that needs no numpy: a bucket's vectors are only
    ``max_k + 1`` wide, too short for array calls to pay for their
    overhead. One pass over ``(h, m)`` does a bucket's three
    min-convolutions, and a product with an infeasible ``prev`` entry is
    skipped inline (MINIMIZE1 values are always finite, so only ``prev``
    can carry infeasible). Each product and minimum is one the scalar
    ``_times`` loop takes, so values are bit-identical to it. That loop
    stays the reference, and runs for exact mode and ``kernel="scalar"``.
    """
    inf = float("inf")
    width = max_k + 1
    fa = [1.0] + [inf] * max_k
    ff = [inf] * width
    after: list[tuple[list[float], list[float]]] = [(fa, ff)]
    for table, boost in zip(reversed(tables), reversed(boosts)):
        g = table[:width]
        ghat = [value * boost for value in table[1 : width + 1]]
        new_fa: list[float] = []
        new_ff: list[float] = []
        for h in range(width):
            best_fa = best_ff = inf
            # m = 0..h pairs with prev[h - m] = prev[h], ..., prev[0].
            for gm, ghat_m, prev_fa, prev_ff in zip(
                g, ghat, fa[h::-1], ff[h::-1]
            ):
                if prev_fa != inf:
                    product = gm * prev_fa
                    if product < best_fa:
                        best_fa = product
                    product = ghat_m * prev_fa
                    if product < best_ff:
                        best_ff = product
                if prev_ff != inf:
                    product = gm * prev_ff
                    if product < best_ff:
                        best_ff = product
            new_fa.append(best_fa)
            new_ff.append(best_ff)
        fa, ff = new_fa, new_ff
        after.append((fa, ff))
    return after
