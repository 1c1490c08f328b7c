"""The microdata table: the publisher's private input.

A :class:`Table` is an immutable list of records plus a :class:`~repro.data.schema.Schema`.
Every record belongs to a unique person; the person id is either the value of
the schema's ``identifier`` column or the row index. Person ids are what the
background-knowledge language (:mod:`repro.knowledge`) refers to.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Any, NamedTuple

from repro.data.schema import Schema
from repro.errors import EmptyTableError, SchemaError

__all__ = ["QIClasses", "Table"]


class QIClasses(NamedTuple):
    """A table's ground quasi-identifier equivalence classes.

    ``keys[j]`` is the ``j``-th distinct QI tuple (in schema order, classes
    ordered by first row), ``rows[j]`` its ascending row indices and
    ``counts[j]`` the multiplicity of each sensitive value among those rows
    (shared; must not be mutated); ``sensitive`` is the sensitive column in
    row order; ``distinct[i]`` holds the distinct values of the ``i``-th
    quasi-identifier, sorted by ``repr``. Every coarser grouping of the rows
    by generalized QI values is a union of these classes, and its sensitive
    counts are the sums of theirs.
    """

    keys: tuple[tuple, ...]
    rows: tuple[tuple[int, ...], ...]
    sensitive: tuple[Any, ...]
    distinct: tuple[tuple[Any, ...], ...]
    counts: tuple[Counter, ...]


class Table:
    """An immutable microdata table (Section 2 of the paper).

    Parameters
    ----------
    rows:
        Records as mappings from attribute name to value. Copied defensively.
    schema:
        Column roles; every row must provide every schema attribute.

    Examples
    --------
    >>> schema = Schema(quasi_identifiers=("Zip", "Age"), sensitive="Disease")
    >>> t = Table([{"Zip": "14850", "Age": 23, "Disease": "Flu"}], schema)
    >>> len(t)
    1
    >>> t.sensitive_values()
    ('Flu',)
    """

    __slots__ = ("_rows", "_schema", "_person_ids", "_qi_classes")

    def __init__(self, rows: Iterable[Mapping[str, Any]], schema: Schema) -> None:
        self._schema = schema
        materialized = [dict(r) for r in rows]
        for record in materialized:
            schema.validate_record(record)
        self._rows: tuple[dict, ...] = tuple(materialized)
        if schema.identifier is not None:
            ids = tuple(r[schema.identifier] for r in self._rows)
            if len(set(ids)) != len(ids):
                raise SchemaError("identifier column contains duplicate person ids")
        else:
            ids = tuple(range(len(self._rows)))
        self._person_ids: tuple[Any, ...] = ids
        self._qi_classes: QIClasses | None = None

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[dict]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> dict:
        return self._rows[index]

    def __repr__(self) -> str:
        return f"Table({len(self)} rows, schema={self._schema!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self._schema == other._schema and self._rows == other._rows

    def __hash__(self) -> int:  # pragma: no cover - rarely hashed, but immutable
        return hash((self._schema, tuple(tuple(sorted(r.items())) for r in self._rows)))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """The table's :class:`~repro.data.schema.Schema`."""
        return self._schema

    @property
    def rows(self) -> tuple[dict, ...]:
        """All records (shared tuple; records must not be mutated)."""
        return self._rows

    @property
    def person_ids(self) -> tuple[Any, ...]:
        """One id per row: the identifier column if declared, else row index."""
        return self._person_ids

    def record_of(self, person_id: Any) -> dict:
        """Return the record of ``person_id``.

        Raises
        ------
        KeyError
            If no row belongs to ``person_id``.
        """
        try:
            index = self._person_ids.index(person_id)
        except ValueError:
            raise KeyError(f"no record for person {person_id!r}") from None
        return self._rows[index]

    def sensitive_values(self) -> tuple[Any, ...]:
        """The sensitive column, in row order."""
        s = self._schema.sensitive
        return tuple(r[s] for r in self._rows)

    def sensitive_domain(self) -> tuple[Any, ...]:
        """Distinct sensitive values present, in sorted order."""
        return tuple(sorted(set(self.sensitive_values()), key=repr))

    def sensitive_histogram(self) -> Counter:
        """Multiplicity of each sensitive value over the whole table."""
        return Counter(self.sensitive_values())

    def column(self, attribute: str) -> tuple[Any, ...]:
        """One attribute's values in row order."""
        if attribute not in self._schema.attributes:
            raise SchemaError(f"unknown attribute {attribute!r}")
        return tuple(r[attribute] for r in self._rows)

    def distinct(self, attribute: str) -> tuple[Any, ...]:
        """Distinct values of ``attribute``, sorted by ``repr`` for stability."""
        return tuple(sorted(set(self.column(attribute)), key=repr))

    # ------------------------------------------------------------------
    # Derivations
    # ------------------------------------------------------------------
    def map_qi(self, transform: Callable[[str, Any], Any]) -> "Table":
        """Return a new table with ``transform(attribute, value)`` applied to
        every quasi-identifier cell (the sensitive column is untouched).

        This is the primitive that full-domain generalization builds on.
        """
        qi = self._schema.quasi_identifiers
        new_rows = []
        for record in self._rows:
            clone = dict(record)
            for attribute in qi:
                clone[attribute] = transform(attribute, record[attribute])
            new_rows.append(clone)
        return Table(new_rows, self._schema)

    def select(self, predicate: Callable[[dict], bool]) -> "Table":
        """Return the sub-table of rows satisfying ``predicate``."""
        return Table([r for r in self._rows if predicate(r)], self._schema)

    def sample(self, n: int, *, seed: int = 0) -> "Table":
        """Return a deterministic uniform sample of ``n`` rows (without
        replacement). Useful for scaled-down experiments.
        """
        import random

        if n > len(self):
            raise EmptyTableError(f"cannot sample {n} rows from {len(self)}")
        rng = random.Random(seed)
        chosen = sorted(rng.sample(range(len(self)), n))
        return Table([self._rows[i] for i in chosen], self._schema)

    def qi_classes(self) -> QIClasses:
        """The table's :class:`QIClasses` index.

        Built by one row scan on first use and cached for the table's
        lifetime (O(rows) memory), which is sound only because a table is
        immutable.
        """
        index = self._qi_classes
        if index is None:
            # No lock: threads racing on the first call each build an equal
            # index, and whichever assignment lands last is kept.
            groups: dict[tuple, list[int]] = {}
            for row, record in enumerate(self._rows):
                groups.setdefault(self._schema.qi_tuple(record), []).append(row)
            distinct = tuple(
                tuple(sorted({key[i] for key in groups}, key=repr))
                for i in range(len(self._schema.quasi_identifiers))
            )
            sensitive = self.sensitive_values()
            counts = tuple(
                Counter(map(sensitive.__getitem__, rows)) for rows in groups.values()
            )
            index = QIClasses(
                tuple(groups),
                tuple(map(tuple, groups.values())),
                sensitive,
                distinct,
                counts,
            )
            self._qi_classes = index
        return index

    def group_by_qi(self) -> dict[tuple, list[Any]]:
        """Group person ids by their (current) quasi-identifier tuple.

        Returns a mapping from QI tuple to the list of person ids sharing it,
        in row order. This is the equivalence-class structure that both
        k-anonymity and bucketization operate on.
        """
        pids = self._person_ids
        index = self.qi_classes()
        return {
            key: [pids[row] for row in rows]
            for key, rows in zip(index.keys, index.rows)
        }

    def require_nonempty(self) -> None:
        """Raise :class:`EmptyTableError` if the table has no rows."""
        if not self._rows:
            raise EmptyTableError("operation requires a non-empty table")

    @classmethod
    def from_columns(
        cls, columns: Mapping[str, Sequence[Any]], schema: Schema
    ) -> "Table":
        """Build a table from parallel columns (all the same length)."""
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"columns have unequal lengths {sorted(lengths)}")
        n = lengths.pop() if lengths else 0
        names = list(columns)
        rows = [{name: columns[name][i] for name in names} for i in range(n)]
        return cls(rows, schema)
