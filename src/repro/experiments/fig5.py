"""Figure 5: maximum disclosure vs. number of pieces of background knowledge.

Paper setup (Section 4): one anonymized Adult table in which "all the
attributes other than Age were suppressed and the Age attribute was
generalized to intervals of size 20" — lattice node ``(3, 2, 1, 1)`` in this
library's layout. For ``k = 0..12`` it plots the maximum disclosure against

- an attacker with ``k`` basic implications (the solid line; our
  :func:`repro.core.disclosure.max_disclosure_series`), and
- an attacker with ``k`` negated atoms, the ℓ-diversity adversary (the dotted
  line; :func:`repro.core.negation.max_disclosure_negations_series`).

``k`` stops at 12 because with 14 occupation values disclosure certainly
reaches 1 at ``k = 13``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.data.adult import ADULT_SCHEMA
from repro.data.hierarchies import adult_hierarchies
from repro.data.table import Table
from repro.engine.engine import DisclosureEngine
from repro.generalization.apply import bucketize_at
from repro.generalization.lattice import GeneralizationLattice

__all__ = ["FIG5_NODE", "Figure5Row", "Figure5Result", "run_figure5"]

#: Age -> 20-year intervals (level 3); marital status, race, sex suppressed.
FIG5_NODE = (3, 2, 1, 1)

#: The paper sweeps k = 0..12 (14 sensitive values; certainty at k = 13).
DEFAULT_KS = tuple(range(13))


@dataclass(frozen=True)
class Figure5Row:
    """One x-position of Figure 5."""

    k: int
    implication: float
    negation: float


@dataclass(frozen=True)
class Figure5Result:
    """The reproduced figure: rows plus provenance."""

    node: tuple[int, ...]
    num_buckets: int
    num_rows: int
    rows: tuple[Figure5Row, ...]

    def series(self, which: str) -> list[tuple[int, float]]:
        """``(k, disclosure)`` pairs for ``which`` in
        {"implication", "negation"}."""
        if which not in ("implication", "negation"):
            raise ValueError(f"unknown series {which!r}")
        return [(row.k, getattr(row, which)) for row in self.rows]


def run_figure5(
    table: Table,
    *,
    ks: Sequence[int] = DEFAULT_KS,
    node: tuple[int, ...] = FIG5_NODE,
    engine: DisclosureEngine | None = None,
) -> Figure5Result:
    """Reproduce Figure 5 on ``table`` (the synthetic or real Adult data).

    Both series come from one batched
    :meth:`~repro.engine.engine.DisclosureEngine.compare` call, so the two
    adversaries share the engine's signature plane (one interned id-multiset
    keys both models' cache entries) and per-signature DP work; pass a
    shared ``engine`` — possibly with a bounded
    :class:`~repro.engine.plane.CachePolicy` — to extend that sharing
    across figures and nodes.

    Examples
    --------
    >>> from repro.data import generate_adult
    >>> result = run_figure5(generate_adult(2000))
    >>> [round(r.implication, 2) >= round(r.negation, 2) for r in result.rows]
    ... # doctest: +ELLIPSIS
    [True, ...]
    """
    lattice = GeneralizationLattice(
        adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
    )
    bucketization = bucketize_at(table, lattice, node)
    if engine is None:
        engine = DisclosureEngine()
    comparison = engine.compare(
        bucketization, ks, models=("implication", "negation")
    )
    rows = tuple(
        Figure5Row(
            k=k,
            implication=comparison["implication"][k],
            negation=comparison["negation"][k],
        )
        for k in sorted(set(ks))
    )
    return Figure5Result(
        node=tuple(node),
        num_buckets=len(bucketization),
        num_rows=len(table),
        rows=rows,
    )
