"""Lattice search for minimally sanitized safe generalizations (Section 3.4).

Theorem 14 makes (c,k)-safety monotone: if a node is safe, every ancestor
(coarser node) is safe. Two search strategies follow:

- :func:`find_minimal_safe_nodes` — bottom-up level-wise sweep with
  monotonicity pruning, in the spirit of the paper's Incognito modification:
  "simply replacing the check for k-anonymity with the check for
  (c,k)-safety". Returns *all* minimal safe nodes, so a utility function can
  pick among them (:func:`find_best_safe_node`).
- :func:`binary_search_chain` — the paper's observation that along a chain
  the least safe node is found with logarithmically many checks.

Both accept any monotone predicate, so they also serve k-anonymity and
ℓ-diversity (see :mod:`repro.anonymity`). For (c,k)-safety against an
arbitrary adversary model, build the predicate with
:func:`node_safety_predicate` (or use the equivalent
:class:`~repro.engine.engine.DisclosureEngine` search methods, which share
the engine's disclosure cache across nodes and models).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.bucketization.bucketization import Bucketization
from repro.errors import SearchError
from repro.generalization.lattice import GeneralizationLattice, Node

__all__ = [
    "SearchStats",
    "node_safety_predicate",
    "find_minimal_safe_nodes",
    "find_best_safe_node",
    "binary_search_chain",
]


def node_safety_predicate(
    table,
    lattice: GeneralizationLattice,
    checker: Callable,
    *,
    signature_memo: dict | None = None,
    node_signatures: dict | None = None,
) -> Callable[[Node], bool]:
    """Lift a bucketization-level safety check to lattice nodes.

    ``checker`` is anything callable on a bucketization — typically a
    :class:`~repro.core.safety.SafetyChecker` (which carries its adversary
    model and shares the engine's signature-plane cache across nodes), but
    a bare lambda works too.

    The predicate bucketizes each node with
    :func:`~repro.generalization.apply.bucketize_at` and a grouping memo of
    its own, so a node is rolled up from an already-checked child's groups
    (one level lower on one attribute) instead of from the table's ground QI
    classes. In a bottom-up sweep (:func:`find_minimal_safe_nodes`) only the
    bottom node reads the ground classes; a node with no checked child, as
    on the chain of :func:`binary_search_chain`, or whose step from every
    checked child is not a function on the table's values, falls back to
    them. Answers do not depend on the memo. The predicate keeps it alive:
    the groupings of the last two heights checked (O(table QI classes)
    each) and one label map per attribute and level, until the predicate
    itself is freed.

    Parameters
    ----------
    signature_memo:
        Optional ``signature items -> bool`` dict: nodes whose
        bucketizations induce the same signature multiset resolve with one
        ``checker`` call. Only sound when the checker's answer depends on
        the bucketization solely through its signatures — true for every
        signature-decomposable adversary model (the engine's
        :meth:`~repro.engine.engine.DisclosureEngine.node_predicate` turns
        this on exactly then) and for size-only predicates like
        k-anonymity; the caller vouches for anything custom.
    node_signatures:
        Optional ``node -> signature items`` dict for this ``table`` and
        ``lattice``, read before bucketizing: a node found there is not
        bucketized, and the checker gets a placeholder bucketization of
        the stored multiset
        (:meth:`~repro.bucketization.bucketization.Bucketization.from_signature_counts`
        without its validation). Every node the predicate does bucketize is
        recorded there, keyed after :meth:`GeneralizationLattice.validate
        <repro.generalization.lattice.GeneralizationLattice.validate>`, so
        one dict shared by several predicates on the same table and lattice
        bucketizes each node once. A node answered from it keeps no
        grouping, so its parents roll up from another child or the ground
        classes. As for ``signature_memo``, the checker must depend on the
        bucketization only through its signatures;
        :meth:`~repro.engine.engine.DisclosureEngine.node_predicate` passes
        its engine's dict exactly then.

    Examples
    --------
    ``find_minimal_safe_nodes(lattice, node_safety_predicate(table, lattice,
    SafetyChecker(0.7, 3, model="negation")))`` finds the minimal nodes safe
    against the ℓ-diversity adversary.
    """
    from repro.generalization.apply import _NodeGroupings, bucketize_at

    memo = _NodeGroupings()

    def is_safe(node: Node) -> bool:
        items = None
        if node_signatures is not None:
            node = lattice.validate(node)
            items = node_signatures.get(node)
        if items is not None:
            bucketization = Bucketization._from_signature_items(items)
        else:
            bucketization = bucketize_at(table, lattice, node, memo=memo)
            if node_signatures is not None:
                node_signatures[node] = bucketization.signature_items()
        if signature_memo is not None:
            signature_key = bucketization.signature_items()
            result = signature_memo.get(signature_key)
            if result is None:
                result = bool(checker(bucketization))
                signature_memo[signature_key] = result
        else:
            result = bool(checker(bucketization))
        return result

    return is_safe


@dataclass
class SearchStats:
    """Bookkeeping for a lattice search.

    Attributes
    ----------
    nodes_total:
        Number of lattice nodes in scope.
    predicate_checks:
        How many nodes the (expensive) safety predicate was evaluated on.
    pruned:
        Nodes skipped because an already-safe descendant made them
        non-minimal (monotonicity pruning).
    """

    nodes_total: int = 0
    predicate_checks: int = 0
    pruned: int = 0
    checked_nodes: list[Node] = field(default_factory=list)


def find_minimal_safe_nodes(
    lattice: GeneralizationLattice,
    is_safe: Callable[[Node], bool],
    *,
    stats: SearchStats | None = None,
) -> list[Node]:
    """All componentwise-minimal nodes satisfying a monotone predicate.

    Sweeps the lattice bottom-up by height. A node strictly above some
    already-found safe node cannot be minimal and is skipped without
    evaluating the predicate; every evaluated-safe node is therefore minimal.

    Parameters
    ----------
    is_safe:
        Monotone predicate on nodes (e.g. ``lambda node:
        checker.is_safe(bucketize_at(table, lattice, node))``). Monotonicity
        is the caller's responsibility; Theorem 14 provides it for
        (c,k)-safety.
    stats:
        Optional :class:`SearchStats` to fill in.

    Returns
    -------
    list[Node]
        Minimal safe nodes (possibly empty if even the top node is unsafe).
    """
    if stats is None:
        stats = SearchStats()
    stats.nodes_total = lattice.size
    minimal: list[Node] = []
    for level in lattice.nodes_by_height():
        for node in level:
            if any(
                lattice.is_ancestor_or_equal(found, node) for found in minimal
            ):
                stats.pruned += 1
                continue
            stats.predicate_checks += 1
            stats.checked_nodes.append(node)
            if is_safe(node):
                minimal.append(node)
    return minimal


def find_best_safe_node(
    lattice: GeneralizationLattice,
    is_safe: Callable[[Node], bool],
    utility: Callable[[Node], float],
    *,
    stats: SearchStats | None = None,
) -> Node:
    """The minimal safe node maximizing ``utility`` (Section 3.4's
    "bucketization that maximizes a given utility function subject to the
    constraint that the bucketization be (c,k)-safe").

    Raises
    ------
    SearchError
        If no safe node exists.
    """
    candidates = find_minimal_safe_nodes(lattice, is_safe, stats=stats)
    if not candidates:
        raise SearchError(
            "no lattice node satisfies the safety predicate (even the top "
            "node is unsafe)"
        )
    return max(candidates, key=utility)


def binary_search_chain(
    chain: Sequence[Node],
    is_safe: Callable[[Node], bool],
    *,
    stats: SearchStats | None = None,
) -> Node:
    """Lowest safe node on a bottom-to-top chain, with O(log |chain|) checks.

    The chain must be ordered fine-to-coarse so the predicate is monotone
    along it (false...false true...true); the paper's Section 3.4 notes this
    gives a search "logarithmic in the height of the bucketization lattice".

    Raises
    ------
    SearchError
        If even the last (coarsest) node is unsafe.
    ValueError
        If the chain is empty.
    """
    if not chain:
        raise ValueError("chain must be non-empty")
    if stats is None:
        stats = SearchStats()
    stats.nodes_total = len(chain)
    lo, hi = 0, len(chain) - 1
    # Establish the invariant: chain[hi] safe (else nothing on the chain is).
    stats.predicate_checks += 1
    stats.checked_nodes.append(chain[hi])
    if not is_safe(chain[hi]):
        raise SearchError("no safe node on the chain (top is unsafe)")
    while lo < hi:
        mid = (lo + hi) // 2
        stats.predicate_checks += 1
        stats.checked_nodes.append(chain[mid])
        if is_safe(chain[mid]):
            hi = mid
        else:
            lo = mid + 1
    return chain[lo]
