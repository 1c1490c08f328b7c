"""Figure 6: minimum bucket entropy vs. least maximum disclosure.

Paper setup (Section 4): fix ``k``; for every entropy value ``h``, consider
all anonymized tables (all 72 lattice nodes) whose *minimum bucket entropy*
equals ``h``; among them take the table with the least maximum disclosure for
``k`` implications, and plot ``h`` against that disclosure for
``k in {1, 3, 5, 7, 9, 11}``. The paper observes the curve decreasing in
``h`` (more in-bucket entropy, less skew, less worst-case disclosure).

:func:`run_figure6` sweeps every lattice node once, computes the disclosure
for *all* requested ``k`` in a single DP pass per node, and groups nodes by
(rounded) minimum entropy.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.data.adult import ADULT_SCHEMA
from repro.data.hierarchies import adult_hierarchies
from repro.data.table import Table
from repro.engine.base import AdversaryModel
from repro.engine.engine import DisclosureEngine
from repro.generalization.apply import bucketize_at
from repro.generalization.lattice import GeneralizationLattice
from repro.utility.entropy import min_bucket_entropy

__all__ = ["Figure6Node", "Figure6Result", "run_figure6", "DEFAULT_FIG6_KS"]

#: The paper plots k = 1, 3, 5, 7, 9, 11.
DEFAULT_FIG6_KS = (1, 3, 5, 7, 9, 11)


@dataclass(frozen=True)
class Figure6Node:
    """Per-anonymization record of the sweep."""

    node: tuple[int, ...]
    min_entropy: float
    num_buckets: int
    disclosure: dict[int, float]


@dataclass(frozen=True)
class Figure6Result:
    """The reproduced figure: all node records plus the per-entropy envelope."""

    ks: tuple[int, ...]
    num_rows: int
    nodes: tuple[Figure6Node, ...]
    #: Which adversary produced the disclosure series (for labeling).
    model: str = "implication"

    def envelope(self, k: int, *, digits: int = 6) -> list[tuple[float, float]]:
        """``(h, least max disclosure among nodes with min-entropy h)`` pairs,
        sorted by ``h`` — one Figure 6 line.

        Entropies are grouped after rounding to ``digits`` decimals (the
        paper groups by exact equality of the entropy value).
        """
        if k not in self.ks:
            raise ValueError(f"k={k} was not part of the sweep {self.ks}")
        grouped: dict[float, float] = {}
        for record in self.nodes:
            h = round(record.min_entropy, digits)
            d = record.disclosure[k]
            if h not in grouped or d < grouped[h]:
                grouped[h] = d
        return sorted(grouped.items())


def run_figure6(
    table: Table,
    *,
    ks: Sequence[int] = DEFAULT_FIG6_KS,
    min_entropy_floor: float | None = None,
    model: str | AdversaryModel = "implication",
    engine: DisclosureEngine | None = None,
) -> Figure6Result:
    """Sweep every node of the Adult lattice and build Figure 6's data.

    Parameters
    ----------
    table:
        The (synthetic or real) Adult projection.
    ks:
        The attacker powers to plot (paper: 1, 3, 5, 7, 9, 11).
    min_entropy_floor:
        Optionally drop anonymizations whose minimum entropy is below this
        (the paper's plot starts at h = 1; ``None`` keeps everything).
    model:
        Adversary model name or instance (default: the paper's implication
        attacker; pass ``"negation"`` for the ℓ-diversity analogue).
    engine:
        Optional shared :class:`~repro.engine.engine.DisclosureEngine`.
        Without one, the sweep runs in-process on a default engine of its
        own. Pass one built with ``workers > 1`` to evaluate the sweep's
        unique signature multisets on its worker processes; results are
        identical to the in-process sweep.

    Notes
    -----
    The whole sweep is one :meth:`DisclosureEngine.evaluate_many` call on
    the engine's signature plane: bucket signatures repeat heavily across
    anonymizations, so each distinct signature multiset is computed exactly
    once (Section 3.3.3's incremental remark) — serially through the shared
    cache, or, on an engine with workers, chunked over its persistent
    worker processes.
    """
    if engine is None:
        engine = DisclosureEngine()
    ks = tuple(sorted(set(ks)))
    if not ks:
        raise ValueError("need at least one k")
    lattice = GeneralizationLattice(
        adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
    )
    kept: list[tuple[tuple[int, ...], float, object]] = []
    for node in lattice.nodes():
        bucketization = bucketize_at(table, lattice, node)
        h = min_bucket_entropy(bucketization)
        if min_entropy_floor is not None and h < min_entropy_floor:
            continue
        kept.append((tuple(node), h, bucketization))
    series_per_node = engine.evaluate_many(
        [bucketization for _, _, bucketization in kept],
        ks,
        model=model,
    )
    records = [
        Figure6Node(
            node=node,
            min_entropy=h,
            num_buckets=len(bucketization),
            disclosure=disclosure,
        )
        for (node, h, bucketization), disclosure in zip(kept, series_per_node)
    ]
    records.sort(key=lambda r: (r.min_entropy, r.node))
    return Figure6Result(
        ks=ks,
        num_rows=len(table),
        nodes=tuple(records),
        model=engine.model(model).name,
    )
