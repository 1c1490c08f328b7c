"""Apply a lattice node to a table: generalize, then bucketize.

Under full identification information, publishing the generalized table is
equivalent to publishing the bucketization whose buckets are the generalized
QI equivalence classes (Section 2.1); :func:`bucketize_at` produces exactly
that bucketization, which is what all disclosure computations consume.

A coarser node's classes are unions of a finer node's (the roll-up property
Incognito rests on), so :func:`bucketize_at` never rescans rows. It rolls up
the table's ground QI equivalence classes (:meth:`Table.qi_classes
<repro.data.table.Table.qi_classes>`): each distinct ground value is
generalized once per attribute, and each class joins the bucket of its
generalized key. That index is built lazily, on the first bucketization of a
table; it costs O(rows) memory, held for as long as the table lives; and
caching it is sound only because :class:`~repro.data.table.Table` is
immutable.

The paper's worst-case algorithms see a bucketization only through its
bucket signatures, so the roll-up computes exactly that up front: each
bucket's sensitive counts are the sums of its classes' counts, which the
index records. The returned bucketization is *deferred*: its per-person
buckets and person -> bucket map are built the first time a caller reads a
bucket (iterating, indexing, ``len``, ``buckets``, ``bucket_of``, equality,
...), never for ``signature_items()``, so an implication, negation or
distribution check builds none. The build yields the per-record-identical
buckets, then runs the constructor's validation and a check that the built
buckets' signature multiset equals the one computed up front.
Threads racing to build each produce equal state, as with
:meth:`Table.qi_classes <repro.data.table.Table.qi_classes>`. Until it is
built, a deferred bucketization keeps its node's grouping of the classes
(O(classes)) plus references to the table's person ids and class index.

Within a sweep, a node need not start from the ground classes either. The
predicate of :func:`~repro.generalization.search.node_safety_predicate`
passes :func:`bucketize_at` a memo of the node groupings it has made. A
node with a child in the memo (one level lower on one attribute) is rolled
up from the child with the fewest groups: that attribute's key position is
remapped through a map from the child's labels to the node's, built from
the attribute's distinct ground values, and the counts of groups that
merge are summed. The ground classes are simply the bottom node's
grouping; both roll-ups go through one merge step. A node with no child in
the memo falls back to the ground classes, and so does one whose every
memoized child is across a step that is not a function on the table's
values (a hierarchy breaking the refinement property, which
:meth:`Hierarchy.validate_consistency
<repro.generalization.hierarchy.Hierarchy.validate_consistency>` checks but
nothing enforces). In a bottom-up sweep every child of a checked node was
checked before it, so only the sweep's bottom node reads the ground
classes. The memo keeps the groupings of the last two heights checked
(O(classes) each) and the label maps, for as long as the predicate lives.

Across sweeps, an engine's predicate calls :func:`bucketize_at` only for a
node whose signature multiset the engine has not recorded for this table
and lattice (:meth:`DisclosureEngine.node_predicate
<repro.engine.engine.DisclosureEngine.node_predicate>`, signature-decomposable
models only). A node answered from that record makes no grouping, so a
node checked later in the same sweep whose children were all answered
there rolls up from the ground classes.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from itertools import chain
from operator import itemgetter
from typing import Any

from repro.bucketization.bucket import Bucket
from repro.bucketization.bucketization import Bucketization
from repro.data.table import Table
from repro.generalization.hierarchy import Hierarchy
from repro.generalization.lattice import GeneralizationLattice

__all__ = ["generalize_table", "bucketize_at"]


def _check_attributes(table: Table, lattice: GeneralizationLattice) -> None:
    """Raise unless ``lattice`` covers exactly ``table``'s quasi-identifiers."""
    if set(lattice.attributes) != set(table.schema.quasi_identifiers):
        raise ValueError(
            "lattice attributes do not match the table's quasi-identifiers"
        )


def generalize_table(
    table: Table, lattice: GeneralizationLattice, node: Sequence[int]
) -> Table:
    """Return ``table`` with every quasi-identifier coarsened to ``node``'s
    levels (the published full-domain generalization)."""
    node = lattice.validate(node)
    _check_attributes(table, lattice)
    return table.map_qi(
        lambda attribute, value: lattice.generalize_value(attribute, value, node)
    )


def bucketize_at(
    table: Table,
    lattice: GeneralizationLattice,
    node: Sequence[int],
    *,
    memo: _NodeGroupings | None = None,
) -> Bucketization:
    """Bucketization induced by generalizing ``table`` to ``node``: one bucket
    per generalized-QI equivalence class.

    This is the object the (c,k)-safety check takes; it avoids materializing
    the generalized table, and is identical (bucket order, person ids and
    sensitive values in row order) to
    ``Bucketization.from_table(generalize_table(table, lattice, node))``.
    It rolls up the table's QI class index instead of scanning rows. The
    index is built lazily, on the first call for ``table``, and is then held
    for as long as the table lives (O(rows) memory); caching it is sound only
    because a :class:`~repro.data.table.Table` is immutable.

    With ``memo``, the node is rolled up from the memoized child (one level
    lower on one attribute) with the fewest groups instead of from the
    ground classes. It falls back to the ground classes when no child is
    memoized, or when each memoized child's step to ``node`` is not a
    function on the table's values. Either way the node's grouping is then
    kept in the memo for its parents, and the result is identical.

    Only the signature multiset is computed here. The buckets are built on
    the first read of a bucket, with the constructor's validation and a
    check against that multiset; until then the result holds the node's
    grouping of the table's QI classes. Concurrent first reads are safe:
    each builds equal state. See the module docstring.

    Parameters
    ----------
    memo:
        The grouping memo of one sweep, valid only for the ``table`` and
        ``lattice`` it was first used with:
        :func:`~repro.generalization.search.node_safety_predicate` creates
        one per predicate and passes it to each of its calls.

    Raises
    ------
    ValueError
        If the lattice's attributes are not exactly the table's
        quasi-identifiers.
    EmptyTableError
        If ``table`` has no rows.
    """
    node = lattice.validate(node)
    _check_attributes(table, lattice)
    grouping = None if memo is None else memo.from_child(table, lattice, node)
    if grouping is None:
        levels = dict(zip(lattice.attributes, node))
        attributes = table.schema.quasi_identifiers
        grouping = _ground_grouping(
            table,
            lattice.hierarchies,
            attributes,
            [levels[attribute] for attribute in attributes],
        )
    if memo is not None:
        memo.keep(node, grouping)
    return _bucketization(table, grouping)


#: Groups of a table's QI classes: generalized key (in the order of the
#: attributes it was grouped by) -> (the group's sensitive-value counts, the
#: indices of its classes in ``Table.qi_classes()``). Counts may be shared
#: with the class index or another grouping and are never mutated.
_Grouping = dict[tuple, tuple[Mapping[Any, int], Sequence[int]]]


class _NodeGroupings:
    """The node groupings one sweep keeps, so :func:`bucketize_at` can roll
    each node up from a child (a coarser node's groups are unions of a finer
    node's: Incognito's roll-up property).

    A child one level lower on attribute ``a`` is usable when the labels of
    ``a``'s distinct ground values at the child's level determine their
    labels at the node's level; the map between the two is built once per
    ``(a, level)`` and kept here. A hierarchy that breaks the refinement
    property (:meth:`Hierarchy.validate_consistency
    <repro.generalization.hierarchy.Hierarchy.validate_consistency>`) on the
    table's values has no such map at that step, and a roll-up never crosses
    it. Groupings are kept for the last two heights checked only: in a
    bottom-up sweep every child of a checked node was checked at the height
    below (a pruned child lies above a safe node, so its parents are pruned
    too), and only the bottom node rolls up from the ground classes.
    """

    __slots__ = ("_groupings", "_height", "_label_maps")

    def __init__(self) -> None:
        self._groupings: dict[tuple[int, ...], _Grouping] = {}
        self._height = -1
        self._label_maps: dict[tuple[int, int], dict | None] = {}

    def from_child(
        self, table: Table, lattice: GeneralizationLattice, node: tuple[int, ...]
    ) -> _Grouping | None:
        """``node``'s grouping rolled up from the usable kept child with the
        fewest groups, or ``None`` when there is none."""
        best = None
        for i, level in enumerate(node):
            if not level:
                continue
            child = self._groupings.get(node[:i] + (level - 1,) + node[i + 1 :])
            if child is None or (best is not None and len(child) >= len(best[0])):
                continue
            label_map = self._label_map(table, lattice, i, level)
            if label_map is not None:
                best = child, i, label_map
        if best is None:
            return None
        child, i, label_map = best
        position = table.schema.quasi_identifiers.index(lattice.attributes[i])
        keys = (
            key[:position] + (label_map[key[position]],) + key[position + 1 :]
            for key in child
        )
        counts, parts = zip(*child.values())
        return _group(keys, counts, parts)

    def keep(self, node: tuple[int, ...], grouping: _Grouping) -> None:
        """Keep ``node``'s grouping. On a change of height, first drop every
        kept grouping that is not one height below ``node``."""
        height = sum(node)
        if height != self._height:
            self._height = height
            self._groupings = {
                kept: groups
                for kept, groups in self._groupings.items()
                if sum(kept) == height - 1
            }
        self._groupings[node] = grouping

    def _label_map(
        self, table: Table, lattice: GeneralizationLattice, i: int, level: int
    ) -> dict | None:
        """Label at ``level - 1`` -> label at ``level`` of the ``i``-th
        lattice attribute, over the table's distinct values of it; ``None``
        unless that is a function (equal finer labels, equal coarser labels
        with equal reprs, since bucket order follows key reprs)."""
        key = (i, level)
        if key not in self._label_maps:
            attribute = lattice.attributes[i]
            hierarchy = lattice.hierarchies[attribute]
            position = table.schema.quasi_identifiers.index(attribute)
            label_map: dict | None = {}
            for value in table.qi_classes().distinct[position]:
                coarser = hierarchy.generalize(value, level)
                known = label_map.setdefault(
                    hierarchy.generalize(value, level - 1), coarser
                )
                if known != coarser or repr(known) != repr(coarser):
                    label_map = None
                    break
            self._label_maps[key] = label_map
        return self._label_maps[key]


def _roll_up(
    table: Table,
    hierarchies: Mapping[str, Hierarchy],
    attributes: Sequence[str],
    levels: Sequence[int],
) -> Bucketization:
    """Group ``table``'s rows by their QIs in ``attributes`` generalized to
    ``levels``, keyed in ``attributes`` order — the same bucketization as
    ``Bucketization.from_table`` with that per-record key, built from the
    table's QI classes instead of its rows."""
    return _bucketization(
        table, _ground_grouping(table, hierarchies, attributes, levels)
    )


def _ground_grouping(
    table: Table,
    hierarchies: Mapping[str, Hierarchy],
    attributes: Sequence[str],
    levels: Sequence[int],
) -> _Grouping:
    """The table's QI classes grouped by their QIs in ``attributes``
    generalized to ``levels``, keyed in ``attributes`` order. Each distinct
    ground value is generalized once; the classes, each a group of its own,
    then go through the same merge step as a child roll-up."""
    table.require_nonempty()
    index = table.qi_classes()
    qi = table.schema.quasi_identifiers
    positions = [qi.index(attribute) for attribute in attributes]
    mappings = [
        {
            value: hierarchies[attribute].generalize(value, level)
            for value in index.distinct[position]
        }
        for attribute, level, position in zip(attributes, levels, positions)
    ]
    columns = list(zip(*index.keys))
    keys = zip(
        *[
            map(mapping.__getitem__, columns[position])
            for mapping, position in zip(mappings, positions)
        ]
    )
    # zip(range(n)) yields (0,), (1,), ...: each class is one part.
    return _group(keys, index.counts, zip(range(len(index.keys))))


def _group(
    keys: Iterable[tuple], counts: Iterable[Mapping], parts: Iterable[Sequence[int]]
) -> _Grouping:
    """The one merge step of every roll-up: group the ``i``-th sensitive
    counts and ground-class indices under the ``i``-th key, in order of
    first appearance. A key with one member keeps that member's counts and
    indices as they are (shared, never mutated). A second member copies
    them once; it and every later member then add their counts to the copy
    and append their indices."""
    slots: dict[tuple, int] = {}
    group_counts: list[Mapping] = []
    group_parts: list[Sequence[int]] = []
    copied: list[bool] = []
    groups = 0
    for key, member_counts, member_parts in zip(keys, counts, parts):
        # One hash of the key per member: its slot, new or existing.
        slot = slots.setdefault(key, groups)
        if slot == groups:
            group_counts.append(member_counts)
            group_parts.append(member_parts)
            copied.append(False)
            groups += 1
            continue
        if not copied[slot]:
            copied[slot] = True
            group_counts[slot] = dict(group_counts[slot])
            group_parts[slot] = list(group_parts[slot])
        summed = group_counts[slot]
        for value, n in member_counts.items():
            summed[value] = summed.get(value, 0) + n
        group_parts[slot] += member_parts
    return dict(zip(slots, zip(group_counts, group_parts)))


def _bucketization(table: Table, grouping: _Grouping) -> Bucketization:
    """The deferred bucketization with one bucket per group of ``grouping``:
    its signature multiset now, its buckets on first read."""
    signatures = Counter(
        tuple(sorted(counts.values(), reverse=True))
        for counts, _ in grouping.values()
    )
    index = table.qi_classes()
    person_ids, sensitive, class_rows = table.person_ids, index.sensitive, index.rows

    def build() -> list[Bucket]:
        buckets = []
        # Bucket order and in-bucket row order match the per-record
        # grouping: groups are sorted by key repr (stably, in first-row
        # order), and each group's classes are re-sorted into ascending row
        # order.
        for _, (_, parts) in sorted(grouping.items(), key=lambda kv: repr(kv[0])):
            rows = (
                class_rows[parts[0]]
                if len(parts) == 1
                else sorted(chain.from_iterable(map(class_rows.__getitem__, parts)))
            )
            if len(rows) == 1:
                (row,) = rows
                buckets.append(Bucket((person_ids[row],), (sensitive[row],)))
            else:
                pick = itemgetter(*rows)
                buckets.append(Bucket(pick(person_ids), pick(sensitive)))
        return buckets

    return Bucketization._deferred(tuple(sorted(signatures.items())), build)
