"""Multi-phase Incognito search, adapted to (c,k)-safety (Section 3.4).

The paper: "we can modify the Incognito [LeFevre et al.] algorithm, which
finds all the minimal k-anonymous bucketizations, by simply replacing the
check for k-anonymity with the check for (c,k)-safety." This module performs
that modification faithfully — including Incognito's defining *subset
phases*, not just the final lattice sweep.

Why subset pruning is sound for (c,k)-safety: projecting the grouping onto a
subset of the quasi-identifiers merges buckets, i.e. moves **up** the paper's
partial order, so by Theorem 14 the projection's maximum disclosure is a
lower bound on the full grouping's. Contrapositive: if a node is already
unsafe on a *subset* of the attributes (at the same per-attribute levels),
every full node extending it is unsafe and need never be evaluated. This is
the same generalization/rollup property Incognito exploits for k-anonymity,
with the direction supplied by Theorem 14.

Phases run over attribute subsets of increasing size; each phase does a
bottom-up sweep of its sub-lattice with two prunings:

- **safe-ancestor** (within the phase): a node with a safe child is safe;
- **unsafe-projection** (across phases): a node whose (m-1)-attribute
  projection was unsafe is unsafe.

The final phase's evaluated-safe nodes are exactly the minimal (c,k)-safe
full-domain generalizations; :func:`incognito_minimal_safe_nodes` returns
them together with phase-by-phase statistics so the benchmark suite can
compare against the single-phase sweep of
:func:`repro.generalization.search.find_minimal_safe_nodes`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import combinations

from repro.bucketization.bucketization import Bucketization
from repro.data.table import Table
from repro.generalization.apply import _check_attributes, _roll_up
from repro.generalization.lattice import GeneralizationLattice, Node

__all__ = ["IncognitoStats", "PhaseStats", "incognito_minimal_safe_nodes"]


@dataclass
class PhaseStats:
    """Statistics for one attribute subset's sweep."""

    attributes: tuple[str, ...]
    nodes: int = 0
    evaluated: int = 0
    pruned_safe_ancestor: int = 0
    pruned_unsafe_projection: int = 0


@dataclass
class IncognitoStats:
    """Aggregate statistics across all phases.

    ``evaluated`` counts actual safety-predicate evaluations — the expensive
    operation the multi-phase structure exists to minimize on the full
    lattice (the last phase).
    """

    phases: list[PhaseStats] = field(default_factory=list)

    @property
    def evaluated(self) -> int:
        return sum(phase.evaluated for phase in self.phases)

    @property
    def final_phase_evaluated(self) -> int:
        return self.phases[-1].evaluated if self.phases else 0


def incognito_minimal_safe_nodes(
    table: Table,
    lattice: GeneralizationLattice,
    is_safe: Callable[[Bucketization], bool],
    *,
    stats: IncognitoStats | None = None,
) -> list[Node]:
    """All minimal (c,k)-safe nodes of ``lattice``, by multi-phase Incognito.

    Parameters
    ----------
    is_safe:
        Predicate on bucketizations; must be monotone under bucket merging
        (Theorem 14 provides this for (c,k)-safety, and it also holds for
        k-anonymity and the ℓ-diversity variants).
    stats:
        Optional :class:`IncognitoStats` to fill with per-phase counters.

    Returns
    -------
    list[Node]
        The same node set as
        :func:`repro.generalization.search.find_minimal_safe_nodes`
        (asserted equal in the tests), usually with fewer predicate
        evaluations on the full lattice.

    Raises
    ------
    ValueError
        If the lattice's attributes are not exactly the table's
        quasi-identifiers.
    """
    _check_attributes(table, lattice)
    if stats is None:
        stats = IncognitoStats()
    attributes = lattice.attributes
    hierarchies = lattice.hierarchies
    all_indices = tuple(range(len(attributes)))

    # unsafe[subset-of-indices] = set of level tuples known unsafe there.
    unsafe: dict[tuple[int, ...], set[Node]] = {}
    minimal_full: list[Node] = []

    for size in range(1, len(attributes) + 1):
        for keep in combinations(all_indices, size):
            subset_attrs = tuple(attributes[i] for i in keep)
            sub_lattice = GeneralizationLattice(
                {a: hierarchies[a] for a in subset_attrs}, subset_attrs
            )
            phase = PhaseStats(attributes=subset_attrs, nodes=sub_lattice.size)
            stats.phases.append(phase)

            safe_nodes: list[Node] = []
            evaluated_safe: list[Node] = []
            unsafe_here: set[Node] = set()
            is_final = keep == all_indices

            for level_nodes in sub_lattice.nodes_by_height():
                for node in level_nodes:
                    # Safe-ancestor pruning within the phase.
                    if any(
                        sub_lattice.is_ancestor_or_equal(safe, node)
                        for safe in safe_nodes
                    ):
                        phase.pruned_safe_ancestor += 1
                        continue
                    # Unsafe-projection pruning across phases.
                    projected_unsafe = False
                    if size > 1:
                        for drop in range(size):
                            sub_keep = keep[:drop] + keep[drop + 1 :]
                            projection = node[:drop] + node[drop + 1 :]
                            if projection in unsafe.get(sub_keep, ()):
                                projected_unsafe = True
                                break
                    if projected_unsafe:
                        phase.pruned_unsafe_projection += 1
                        unsafe_here.add(node)
                        continue
                    phase.evaluated += 1
                    if is_safe(_roll_up(table, hierarchies, subset_attrs, node)):
                        safe_nodes.append(node)
                        evaluated_safe.append(node)
                    else:
                        unsafe_here.add(node)

            unsafe[keep] = unsafe_here
            if is_final:
                minimal_full = evaluated_safe
    return minimal_full
