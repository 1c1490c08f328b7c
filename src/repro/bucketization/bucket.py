"""A single bucket of a bucketization.

Using the paper's notation for a bucket ``b``:

- ``P_b``  — the people whose tuples landed in ``b`` (:attr:`Bucket.person_ids`),
- ``n_b``  — the number of tuples (:attr:`Bucket.size`),
- ``n_b(s)`` — the frequency of sensitive value ``s`` (:meth:`Bucket.frequency`),
- ``s_b^0, s_b^1, ...`` — sensitive values in decreasing frequency order
  (:attr:`Bucket.values_by_frequency`).

The disclosure algorithms depend on a bucket only through its sorted frequency
vector, exposed as :attr:`Bucket.signature` and used as a memoization key.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Iterable, Sequence
from typing import Any

from repro.errors import EmptyTableError

__all__ = ["Bucket"]


def _checked_signature(signature: Sequence[int]) -> tuple[int, ...]:
    """``signature`` as a tuple of ints, or raise if no bucket has it.

    A bucket's signature is a non-empty, non-increasing vector of positive
    frequencies.
    """
    counts = tuple(map(operator.index, signature))
    if not counts:
        raise EmptyTableError("a bucket must contain at least one tuple")
    if any(a < b for a, b in zip(counts, counts[1:])):
        raise ValueError(f"signature must be non-increasing: {counts}")
    if counts[-1] <= 0:
        raise ValueError(f"signature entries must be positive: {counts}")
    return counts


class Bucket:
    """An immutable bucket: person ids plus the multiset of sensitive values.

    Parameters
    ----------
    person_ids:
        The people in the bucket (``P_b``); must be distinct.
    sensitive_values:
        The bucket's sensitive multiset, one value per person. Order carries
        no information (the published permutation is random); it is retained
        only for round-tripping.

    Examples
    --------
    >>> b = Bucket(["Bob", "Charlie", "Dave", "Ed", "Frank"],
    ...            ["Flu", "Flu", "Lung Cancer", "Lung Cancer", "Mumps"])
    >>> b.size, b.frequency("Flu"), b.values_by_frequency[0]
    (5, 2, 'Flu')
    >>> b.signature
    (2, 2, 1)
    """

    __slots__ = (
        "_person_ids",
        "_values",
        "_counts",
        "_by_frequency",
        "_signature",
    )

    def __init__(
        self, person_ids: Iterable[Any], sensitive_values: Iterable[Any]
    ) -> None:
        pids = tuple(person_ids)
        values = tuple(sensitive_values)
        if not pids:
            raise EmptyTableError("a bucket must contain at least one tuple")
        if len(pids) != len(values):
            raise ValueError(
                f"{len(pids)} person ids but {len(values)} sensitive values"
            )
        if len(set(pids)) != len(pids):
            raise ValueError("person ids within a bucket must be distinct")
        self._person_ids = pids
        self._values = values
        counts = Counter(values)
        self._counts = counts
        # Deterministic order: by descending frequency, ties broken by repr.
        self._by_frequency = tuple(
            value
            for value, _ in sorted(
                counts.items(), key=lambda item: (-item[1], repr(item[0]))
            )
        )
        self._signature = tuple(
            counts[value] for value in self._by_frequency
        )

    # ------------------------------------------------------------------
    # Paper notation
    # ------------------------------------------------------------------
    @property
    def person_ids(self) -> tuple[Any, ...]:
        """``P_b``: the people in this bucket."""
        return self._person_ids

    @property
    def size(self) -> int:
        """``n_b``: number of tuples in the bucket."""
        return len(self._values)

    def frequency(self, value: Any) -> int:
        """``n_b(s)``: how many tuples carry sensitive value ``value``."""
        return self._counts.get(value, 0)

    @property
    def values_by_frequency(self) -> tuple[Any, ...]:
        """``s_b^0, s_b^1, ...``: distinct values, most frequent first."""
        return self._by_frequency

    @property
    def signature(self) -> tuple[int, ...]:
        """Frequencies in descending order — the histogram shape.

        Two buckets with equal signatures are interchangeable for every
        worst-case disclosure computation, which makes this the global
        memoization key for MINIMIZE1.
        """
        return self._signature

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------
    @property
    def sensitive_values(self) -> tuple[Any, ...]:
        """The raw multiset of sensitive values (arbitrary published order)."""
        return self._values

    @property
    def counts(self) -> Counter:
        """Value -> frequency for this bucket."""
        return Counter(self._counts)

    @property
    def distinct_count(self) -> int:
        """Number of distinct sensitive values in the bucket."""
        return len(self._counts)

    @property
    def top_frequency(self) -> int:
        """``n_b(s_b^0)``: frequency of the most frequent value."""
        return self._signature[0]

    @property
    def top_value(self) -> Any:
        """``s_b^0``: the most frequent sensitive value."""
        return self._by_frequency[0]

    def entropy(self, *, base: float = math.e) -> float:
        """Shannon entropy of the bucket's sensitive distribution.

        The paper's Figure 6 uses this with the natural logarithm (its x-axis
        tops out below ln 14 ~ 2.64 for the 14-value Occupation domain).
        """
        n = self.size
        h = 0.0
        for count in self._signature:
            p = count / n
            h -= p * math.log(p)
        if base != math.e:
            h /= math.log(base)
        # Guard against -0.0 from single-value buckets.
        return abs(h) if h == 0 else h

    def top_fraction(self) -> float:
        """``n_b(s_b^0) / n_b``: the zero-knowledge disclosure of this bucket."""
        return self.top_frequency / self.size

    def merge(self, other: "Bucket") -> "Bucket":
        """Union of two buckets (used to move *up* the paper's partial order).

        Raises
        ------
        ValueError
            If the buckets share a person.
        """
        return Bucket(
            self._person_ids + other._person_ids, self._values + other._values
        )

    @classmethod
    def from_values(cls, sensitive_values: Sequence[Any]) -> "Bucket":
        """Bucket with anonymous integer person ids ``0..n-1`` (handy in tests)."""
        return cls(range(len(tuple(sensitive_values))), sensitive_values)

    @classmethod
    def from_signature(
        cls, signature: Sequence[int], *, start_id: int = 0
    ) -> "Bucket":
        """A synthetic bucket realizing ``signature`` with placeholder values.

        Person ids (``start_id..``) and value labels (``s0, s1, ...``) carry
        no information: every signature-decomposable computation — all of the
        paper's worst-case algorithms — is invariant to them, which is what
        lets the signature plane rebuild an evaluation-equivalent bucket from
        an interned signature (e.g. inside a worker process).

        Raises
        ------
        ValueError
            If ``signature`` increases anywhere or has a non-positive entry.
        EmptyTableError
            If ``signature`` is empty.

        Examples
        --------
        >>> Bucket.from_signature((2, 1)).signature
        (2, 1)
        """
        counts = _checked_signature(signature)
        values = [
            f"s{index}" for index, count in enumerate(counts) for _ in range(count)
        ]
        return cls(range(start_id, start_id + len(values)), values)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bucket):
            return NotImplemented
        return (
            self._person_ids == other._person_ids
            and self._counts == other._counts
        )

    def __hash__(self) -> int:
        return hash((self._person_ids, self._signature))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{value!r}:{self._counts[value]}" for value in self._by_frequency
        )
        return f"Bucket(n={self.size}, {{{pairs}}})"
