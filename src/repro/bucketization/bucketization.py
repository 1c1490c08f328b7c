"""A bucketization ``B``: the published form of the table (Section 2.1).

The attacker is assumed to know, for every bucket, the set of people in it and
the multiset of sensitive values — :class:`Bucketization` is exactly that
knowledge. It also implements the paper's partial order on bucketizations
(Section 3.4): ``B <= B'`` iff every bucket of ``B'`` is a union of buckets of
``B`` (``B'`` is coarser). Theorem 14 says maximum disclosure is monotone
non-increasing along this order.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.bucketization.bucket import Bucket, _checked_signature
from repro.data.table import Table
from repro.errors import EmptyTableError

__all__ = ["Bucketization"]

#: A signature multiset as ``(signature, count)`` pairs sorted by signature.
SignatureItems = tuple[tuple[tuple[int, ...], int], ...]
#: Built buckets plus the person -> bucket-index map.
_State = tuple[tuple[Bucket, ...], dict[Any, int]]


def _indexed(buckets: Iterable[Bucket]) -> _State:
    """``buckets`` as a tuple plus the person -> bucket-index map, or raise
    if there are none or two share a person."""
    bs = tuple(buckets)
    if not bs:
        raise EmptyTableError("a bucketization needs at least one bucket")
    bucket_of: dict[Any, int] = {}
    for index, bucket in enumerate(bs):
        for pid in bucket.person_ids:
            if pid in bucket_of:
                raise ValueError(
                    f"person {pid!r} appears in buckets "
                    f"{bucket_of[pid]} and {index}"
                )
            bucket_of[pid] = index
    return bs, bucket_of


def _signature_items_of(buckets: Iterable[Bucket]) -> SignatureItems:
    return tuple(sorted(Counter(b.signature for b in buckets).items()))


class Bucketization:
    """An immutable sequence of disjoint :class:`Bucket` objects.

    A bucketization from :meth:`from_signature_counts` or from a lattice
    roll-up (:func:`~repro.generalization.apply.bucketize_at`, Incognito) is
    *deferred*: it is created knowing only its signature multiset, which is
    all :meth:`signature_items` and every signature-decomposable disclosure
    computation read. Its buckets and person -> bucket map are built the
    first time a caller asks for a bucket: iteration, indexing, ``len``,
    :attr:`buckets`, :meth:`bucket_of`, equality, the partial order, and
    every other accessor go through one private build step. The build runs
    the same validation as the constructor, then checks that the built
    buckets' signature multiset equals the one known up front, and drops
    the build function. Until then that function keeps alive what it needs:
    for a roll-up, the node's grouping of the table's QI classes (O(classes))
    plus references to the table's person ids and class index. Two threads
    racing to build each produce equal state, and whichever assignment lands
    last is kept (no lock), as with
    :meth:`Table.qi_classes <repro.data.table.Table.qi_classes>`.

    Examples
    --------
    >>> b = Bucketization([Bucket.from_values(["Flu", "Flu", "Mumps"])])
    >>> b.total_size, len(b)
    (3, 1)
    """

    __slots__ = ("_state", "_build", "_signature_items")

    def __init__(self, buckets: Iterable[Bucket]) -> None:
        self._state: _State | None = _indexed(buckets)
        self._build: Callable[[], Iterable[Bucket]] | None = None
        self._signature_items: SignatureItems | None = None

    @classmethod
    def _deferred(
        cls, signature_items: SignatureItems, build: Callable[[], Iterable[Bucket]]
    ) -> "Bucketization":
        """A bucketization with signature multiset ``signature_items`` whose
        buckets ``build()`` returns on first use."""
        self = cls.__new__(cls)
        self._state = None
        self._build = build
        self._signature_items = signature_items
        return self

    def _built(self) -> _State:
        """The buckets and the person -> bucket-index map, built on first
        use for a deferred bucketization."""
        state = self._state
        if state is None:
            build = self._build
            if build is None:
                # Another thread finished the build since the read above.
                return self._state
            state = _indexed(build())
            if _signature_items_of(state[0]) != self._signature_items:
                raise RuntimeError(
                    "built buckets disagree with the deferred signature multiset"
                )
            self._state = state
            self._build = None
        return state

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._built()[0])

    def __iter__(self):
        return iter(self._built()[0])

    def __getitem__(self, index: int) -> Bucket:
        return self._built()[0][index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bucketization):
            return NotImplemented
        return self._contents() == other._contents()

    def __hash__(self) -> int:  # pragma: no cover - rarely hashed
        return hash(self.partition_frozen())

    def __repr__(self) -> str:
        buckets = self._built()[0]
        sizes = [b.size for b in buckets]
        return f"Bucketization({len(buckets)} buckets, sizes={sizes})"

    def __reduce__(self):
        return (type(self), (self.buckets,))

    def _contents(self) -> dict[frozenset, Counter]:
        """Each bucket's person set mapped to its value multiset: equal for
        two bucketizations exactly when they partition the same people the
        same way and agree on every bucket's values, in any bucket order."""
        return {frozenset(b.person_ids): b.counts for b in self._built()[0]}

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def buckets(self) -> tuple[Bucket, ...]:
        """The buckets, in a fixed order."""
        return self._built()[0]

    @property
    def total_size(self) -> int:
        """Total number of tuples across buckets."""
        return sum(b.size for b in self._built()[0])

    @property
    def person_ids(self) -> tuple[Any, ...]:
        """All person ids, grouped by bucket."""
        return tuple(pid for b in self._built()[0] for pid in b.person_ids)

    def bucket_of(self, person_id: Any) -> Bucket:
        """The bucket containing ``person_id`` (full identification info)."""
        buckets, bucket_of = self._built()
        return buckets[bucket_of[person_id]]

    def bucket_index_of(self, person_id: Any) -> int:
        """Index of the bucket containing ``person_id``."""
        return self._built()[1][person_id]

    def partition_frozen(self) -> frozenset[frozenset]:
        """The partition of people as a hashable set of sets."""
        return frozenset(frozenset(b.person_ids) for b in self._built()[0])

    def signature_multiset(self) -> Counter:
        """Multiset of bucket signatures — all the disclosure DP needs."""
        return Counter(dict(self.signature_items()))

    def signature_items(self) -> SignatureItems:
        """The signature multiset as a canonical hashable tuple of
        ``(signature, count)`` pairs, sorted by signature.

        Computed once per bucketization, and never builds a deferred
        bucketization's buckets — this is the form the signature plane
        interns, every whole-bucketization cache keys on, and the parallel
        executor ships to worker processes.
        """
        if self._signature_items is None:
            self._signature_items = _signature_items_of(self._built()[0])
        return self._signature_items

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_table(
        cls,
        table: Table,
        *,
        key: Callable[[dict], Any] | None = None,
    ) -> "Bucketization":
        """Bucketize ``table`` by grouping rows with equal ``key``.

        The default key is the row's quasi-identifier tuple, which models a
        published table where each QI equivalence class is one bucket (the
        full-domain generalization view; see Section 2.1 on the equivalence
        of the two sanitization methods under full identification).
        """
        table.require_nonempty()
        schema = table.schema
        key_fn = key if key is not None else schema.qi_tuple
        groups: dict[Any, tuple[list, list]] = {}
        for pid, record in zip(table.person_ids, table.rows):
            pids, values = groups.setdefault(key_fn(record), ([], []))
            pids.append(pid)
            values.append(record[schema.sensitive])
        # Sort groups by key repr so bucket order is deterministic.
        buckets = [
            Bucket(pids, values)
            for _, (pids, values) in sorted(groups.items(), key=lambda kv: repr(kv[0]))
        ]
        return cls(buckets)

    @classmethod
    def from_signature_counts(cls, counts) -> "Bucketization":
        """Synthetic bucketization realizing a signature multiset.

        ``counts`` is a mapping ``signature -> multiplicity`` or an iterable
        of ``(signature, count)`` pairs. Person ids and value labels are
        fresh placeholders (see :meth:`Bucket.from_signature`): for every
        signature-decomposable computation the result is evaluation-
        equivalent to any bucketization with the same signature multiset,
        which is how the signature plane turns an interned cache key back
        into a unit of work for a worker process. Every pair is validated
        up front and duplicate signatures merge into one count; the buckets
        themselves are deferred (see the class docstring), so a
        signature-decomposable computation never builds them.

        Raises
        ------
        ValueError
            If a multiplicity is not positive, or a signature increases
            anywhere or has a non-positive entry.
        EmptyTableError
            If ``counts`` is empty or holds an empty signature.
        """
        items = counts.items() if hasattr(counts, "items") else counts
        merged: Counter = Counter()
        for signature, count in items:
            count = operator.index(count)
            if count <= 0:
                raise ValueError(
                    f"signature multiplicity must be positive, got {count}"
                )
            merged[_checked_signature(signature)] += count
        if not merged:
            raise EmptyTableError("a bucketization needs at least one bucket")
        return cls._from_signature_items(tuple(sorted(merged.items())))

    @classmethod
    def _from_signature_items(
        cls, signature_items: SignatureItems
    ) -> "Bucketization":
        """The placeholder bucketization of :meth:`from_signature_counts`,
        from a signature multiset already in the canonical form
        :meth:`signature_items` returns (sorted, merged, every signature a
        valid bucket's). Nothing is re-checked, so pass only a multiset the
        program computed itself."""

        def build() -> list[Bucket]:
            buckets: list[Bucket] = []
            next_id = 0
            for signature, count in signature_items:
                for _ in range(count):
                    bucket = Bucket.from_signature(signature, start_id=next_id)
                    next_id += bucket.size
                    buckets.append(bucket)
            return buckets

        return cls._deferred(signature_items, build)

    @classmethod
    def from_value_lists(cls, value_lists: Sequence[Sequence[Any]]) -> "Bucketization":
        """Build from bare sensitive-value lists with global integer ids
        (convenient in tests and benchmarks)."""
        buckets = []
        next_id = 0
        for values in value_lists:
            values = tuple(values)
            buckets.append(Bucket(range(next_id, next_id + len(values)), values))
            next_id += len(values)
        return cls(buckets)

    # ------------------------------------------------------------------
    # The partial order of Section 3.4
    # ------------------------------------------------------------------
    def merge_buckets(self, indices: Iterable[int]) -> "Bucketization":
        """Merge the buckets at ``indices`` into one, moving *up* the order.

        Returns a strictly coarser bucketization; by Theorem 14 its maximum
        disclosure is at most this one's.
        """
        buckets = self._built()[0]
        chosen = sorted(set(indices))
        if len(chosen) < 2:
            raise ValueError("need at least two distinct buckets to merge")
        for index in chosen:
            if not 0 <= index < len(buckets):
                raise IndexError(f"bucket index {index} out of range")
        merged = buckets[chosen[0]]
        for index in chosen[1:]:
            merged = merged.merge(buckets[index])
        remaining = [b for i, b in enumerate(buckets) if i not in set(chosen)]
        return Bucketization(remaining + [merged])

    def refines(self, coarser: "Bucketization") -> bool:
        """True iff ``self`` <= ``coarser`` in the paper's partial order, i.e.
        every bucket of ``coarser`` is a union of buckets of ``self``.

        Both must partition the same person set.
        """
        buckets, bucket_of = self._built()
        if set(bucket_of) != set(coarser._built()[1]):
            raise ValueError("bucketizations cover different person sets")
        for fine_bucket in buckets:
            indices = {
                coarser.bucket_index_of(pid) for pid in fine_bucket.person_ids
            }
            if len(indices) != 1:
                return False
        return True
