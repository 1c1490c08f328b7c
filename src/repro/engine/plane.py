"""The signature plane: interned signatures as the engine's unit of work.

Every disclosure algorithm in this package sees a bucketization only through
its multiset of bucket *signatures* (sorted frequency vectors). Before this
module, each layer re-derived and re-hashed those signatures per call: the
engine hashed a ``frozenset`` of multiset items for every cache lookup, the
MINIMIZE1 memo hashed raw signature tuples, and batch evaluation re-did both
per bucketization. The :class:`SignaturePlane` does that work once:

- :meth:`SignaturePlane.intern` maps each distinct signature to a dense
  integer id (one tuple hash per *new* signature, ever);
- :meth:`SignaturePlane.encode` represents any bucketization as a compact
  id-multiset — a small sorted tuple of ``(signature id, count)`` pairs —
  which is the engine's cache key and the unit of work for batch execution;
- :meth:`SignaturePlane.decode` turns a key back into raw signatures, so a
  cache key is *portable*: it can be shipped to a worker process (which
  rebuilds an evaluation-equivalent bucketization via
  :meth:`~repro.bucketization.bucketization.Bucketization.from_signature_counts`)
  or persisted to disk and re-interned by a different engine.

Beside the plane, this module holds the engine's :class:`CachePolicy`
(entry-count bound, pinning behavior for lattice sweeps). Parallel batches
ship plane keys, and the deltas of :meth:`SignaturePlane.signatures_since`,
to :class:`~repro.engine.backend.PersistentBackend` workers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.bucketization.bucketization import Bucketization

__all__ = ["SignaturePlane", "CachePolicy"]

#: A plane-encoded bucketization: ``((signature id, count), ...)`` sorted by id.
PlaneKey = tuple
#: A portable (plane-independent) form: ``((signature, count), ...)``.
RawMultiset = tuple


class SignaturePlane:
    """Interns bucket signatures into dense integer ids, once per engine.

    Ids are assigned in first-seen order and are **plane-local**: two planes
    intern the same signatures to different ids, which is why everything that
    leaves the plane (worker processes, cache persistence) goes through
    :meth:`decode` first and is re-interned on arrival.

    Examples
    --------
    >>> plane = SignaturePlane()
    >>> b = Bucketization.from_value_lists([["a", "a", "b"], ["x", "x", "y"]])
    >>> plane.encode(b)                # both buckets share signature (2, 1)
    ((0, 2),)
    >>> plane.signature(0)
    (2, 1)
    >>> plane.decode(plane.encode(b))
    (((2, 1), 2),)
    """

    __slots__ = ("_ids", "_signatures")

    def __init__(self) -> None:
        self._ids: dict[tuple[int, ...], int] = {}
        self._signatures: list[tuple[int, ...]] = []

    def __len__(self) -> int:
        """Number of distinct signatures interned so far."""
        return len(self._signatures)

    def __contains__(self, signature) -> bool:
        return tuple(signature) in self._ids

    def intern(self, signature: Sequence[int]) -> int:
        """The dense id for ``signature`` (assigned on first sight)."""
        sig = tuple(signature)
        sig_id = self._ids.get(sig)
        if sig_id is None:
            sig_id = len(self._signatures)
            self._ids[sig] = sig_id
            self._signatures.append(sig)
        return sig_id

    def signature(self, sig_id: int) -> tuple[int, ...]:
        """The signature interned under ``sig_id``."""
        return self._signatures[sig_id]

    def signatures_since(self, start: int) -> tuple[tuple[int, ...], ...]:
        """The signatures interned at ids ``start, start+1, ...`` — the delta
        a persistent worker's plane mirror needs to catch up to this plane.

        Ids are dense and assigned in first-seen order, so a mirror that has
        replayed the first ``start`` signatures agrees with this plane on
        every id below ``start``; appending this delta (in order) extends the
        agreement to ``len(self)``.
        """
        return tuple(self._signatures[start:])

    def encode(self, bucketization: Bucketization) -> PlaneKey:
        """``bucketization`` as a compact id-multiset (sorted by id)."""
        return tuple(
            sorted(
                (self.intern(signature), count)
                for signature, count in bucketization.signature_items()
            )
        )

    def encode_counts(self, counts) -> PlaneKey:
        """Like :meth:`encode`, from raw ``(signature, count)`` pairs or a
        mapping — the re-interning half of a decode round-trip."""
        items = counts.items() if hasattr(counts, "items") else counts
        return tuple(
            sorted((self.intern(signature), count) for signature, count in items)
        )

    def probe(self, items) -> PlaneKey | None:
        """Like :meth:`encode_counts` but strictly **read-only**: interns
        nothing, and returns ``None`` as soon as any signature has never
        been seen by this plane (so the corresponding plane key cannot be
        in any cache keyed on it).

        Because it only performs dict reads, this is safe to call from a
        thread other than the one mutating the plane — the serving layer's
        event-loop cache peek relies on exactly that.
        """
        ids = self._ids
        out = []
        for signature, count in items:
            sig_id = ids.get(signature)
            if sig_id is None:
                return None
            out.append((sig_id, count))
        out.sort()
        return tuple(out)

    def decode(self, key: PlaneKey) -> RawMultiset:
        """A plane key back as portable ``((signature, count), ...)`` pairs."""
        return tuple(
            (self._signatures[sig_id], count) for sig_id, count in key
        )


@dataclass(frozen=True)
class CachePolicy:
    """Bounds and behavior of the engine's shared disclosure cache.

    Attributes
    ----------
    max_entries:
        Entry-count limit for the whole-bucketization cache. ``None`` keeps
        the legacy unbounded behavior; with a limit, the least recently used
        unpinned entries are evicted (counted in ``EngineStats.evictions``)
        so a long-running service's memory stays bounded.
    pin_sweeps:
        When True, entries inserted by the engine's lattice-search predicate
        (:meth:`~repro.engine.engine.DisclosureEngine.node_predicate`) are
        pinned for the engine's lifetime — a bounded cache serving both a
        sweep and ad-hoc traffic will evict the traffic, not the sweep.
        Pinned entries are only dropped by ``unpin_all()`` + later eviction.
    """

    max_entries: int | None = None
    pin_sweeps: bool = False

    def __post_init__(self) -> None:
        if self.max_entries is not None and self.max_entries <= 0:
            raise ValueError(
                f"max_entries must be positive or None, got {self.max_entries}"
            )
