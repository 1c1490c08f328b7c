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
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from itertools import chain
from operator import itemgetter

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
    table: Table, lattice: GeneralizationLattice, node: Sequence[int]
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

    Only the signature multiset is computed here. The buckets are built on
    the first read of a bucket, with the constructor's validation and a
    check against that multiset; until then the result holds the node's
    grouping of the table's QI classes. Concurrent first reads are safe:
    each builds equal state. See the module docstring.

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
    levels = dict(zip(lattice.attributes, node))
    attributes = table.schema.quasi_identifiers
    return _roll_up(
        table,
        lattice.hierarchies,
        attributes,
        [levels[attribute] for attribute in attributes],
    )


def _roll_up(
    table: Table,
    hierarchies: Mapping[str, Hierarchy],
    attributes: Sequence[str],
    levels: Sequence[int],
) -> Bucketization:
    """Group ``table``'s rows by their QIs in ``attributes`` generalized to
    ``levels``, keyed in ``attributes`` order — the same bucketization as
    ``Bucketization.from_table`` with that per-record key, built from the
    table's QI classes instead of its rows.

    The signature multiset comes from summing the classes' sensitive counts
    per generalized key; the buckets are deferred until a caller reads one.
    """
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
    groups: dict[tuple, list[int]] = {}
    for j, key in enumerate(keys):
        groups.setdefault(key, []).append(j)
    class_counts = index.counts
    signatures: Counter = Counter()
    for parts in groups.values():
        if len(parts) == 1:
            counts = class_counts[parts[0]]
        else:
            counts = {}
            for j in parts:
                for value, n in class_counts[j].items():
                    counts[value] = counts.get(value, 0) + n
        signatures[tuple(sorted(counts.values(), reverse=True))] += 1
    person_ids, sensitive, class_rows = table.person_ids, index.sensitive, index.rows

    def build() -> list[Bucket]:
        buckets = []
        # Bucket order and in-bucket row order match the per-record
        # grouping: groups are sorted by key repr (stably, in first-row
        # order), and each group's classes are re-sorted into ascending row
        # order.
        for _, parts in sorted(groups.items(), key=lambda kv: repr(kv[0])):
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
