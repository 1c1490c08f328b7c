"""The :class:`DisclosureEngine`: one disclosure layer for every consumer.

The engine owns three things no single legacy function had:

1. **A shared, bounded cache on the signature plane.** Every bucketization
   is interned once into a compact id-multiset
   (:class:`~repro.engine.plane.SignaturePlane`), and one LRU-ordered dict —
   keyed by ``(model name, model params, k, plane key)`` — serves all
   models, all bucketizations, and all attacker powers evaluated on the
   engine. A :class:`~repro.engine.plane.CachePolicy` bounds the entry
   count (evictions are counted in :class:`EngineStats`), lattice sweeps
   can pin their entries, and :meth:`DisclosureEngine.save_cache` /
   :meth:`DisclosureEngine.load_cache` persist entries portably (plane keys
   are decoded to raw signatures on disk and re-interned on load).
2. **Batch APIs, optionally parallel.** :meth:`DisclosureEngine.series`
   evaluates many ``k`` at the cost the model can manage;
   :meth:`DisclosureEngine.evaluate_many` runs a series over many
   bucketizations — serially through the cache, or, on an engine built
   with ``workers > 1``, chunked by *unique* plane key over persistent
   worker processes
   (:class:`~repro.engine.backend.PersistentBackend`, which ships each
   signature to a worker once) with deterministic merge order and
   warm-back, so parallel results populate the shared cache and are
   bit-for-bit identical to the serial path;
   :meth:`DisclosureEngine.compare` runs many *models* over one
   bucketization — Figure 5's solid-vs-dotted lines in one call.
3. **Uniform mode and witness handling.** The engine fixes exact/float
   arithmetic once at construction; every model call receives the shared
   :class:`~repro.engine.base.EngineContext` (mode + signature plane +
   MINIMIZE1 solver), and :meth:`DisclosureEngine.witness` reconstructs
   worst-case formulas for any model that supports them.

High-level consumers — (c,k)-safety, greedy suppression, the lattice
searches, the experiments, the CLI — are thin wrappers over this class, so an
adversary registered with :func:`~repro.engine.base.register_adversary` is
immediately usable everywhere.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import OrderedDict
from collections.abc import Callable, Iterable, Mapping, Sequence
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from repro.bucketization.bucketization import Bucketization
from repro.engine.backend import ExecutionBackend, PersistentBackend
from repro.engine.base import (
    AdversaryModel,
    EngineContext,
    canonical_params,
    get_adversary,
)
from repro.engine.plane import CachePolicy, SignaturePlane
from repro.errors import SearchError

__all__ = ["EngineStats", "DisclosureEngine", "series_labels", "threshold_value"]

#: On-disk cache format version (bumped on incompatible layout changes).
CACHE_FORMAT = 1

_MISS = object()


def threshold_value(c: float, *, exact: bool, bounded: bool = True):
    """Validate a disclosure threshold and put it in the engine's arithmetic.

    ``bounded`` reflects the adversary model's scale: probability-valued
    models cap thresholds at 1; unbounded (cost-weighted) models only require
    positivity.
    """
    if c <= 0 or (bounded and c > 1):
        bound = "(0, 1]" if bounded else "(0, inf)"
        raise ValueError(f"threshold c must be in {bound}, got {c}")
    return Fraction(c).limit_denominator() if exact else c


def series_labels(names: Iterable[str]) -> list[str]:
    """The keys of a :meth:`DisclosureEngine.compare` answer, one per
    model name in order: the name itself, then ``name#2``, ``name#3``, ...
    for repeats, so no series is silently dropped."""
    labels: list[str] = []
    for name in names:
        label, n = name, 1
        while label in labels:
            n += 1
            label = f"{name}#{n}"
        labels.append(label)
    return labels


@dataclass
class EngineStats:
    """Counters for the engine's shared memoization.

    Attributes
    ----------
    evaluations:
        Number of ``(bucketization, k, model)`` lookups requested.
    cache_hits:
        How many of those were answered from the shared cache — entries that
        existed *before* the lookup's own batch ran.
    parallel_hits:
        Lookups answered directly from a parallel batch's own results during
        assembly (the values came from worker processes this very call, not
        from prior cache state). Counted separately so a cold cache with
        ``workers > 1`` honestly reports a zero ``hit_rate``.
    evictions:
        Entries dropped by the LRU bound (0 when ``max_entries`` is unset).
    parallel_tasks:
        Unique plane keys whose series were computed by worker processes
        (their per-``k`` results reach callers via ``parallel_hits``
        assembly and cache warm-back).
    backend_fallbacks:
        Parallel batches the execution backend failed to run (unpicklable
        plugin, fork restrictions, workers crashed twice, a model error),
        handed back to the serial path.
    kernel:
        The concrete MINIMIZE1/MINIMIZE2 kernel the engine resolved to
        (``"numpy"`` or ``"scalar"``) — surfaced so benchmark artifacts and
        ``/stats`` are self-describing about the code path that produced
        their numbers.
    """

    evaluations: int = 0
    cache_hits: int = 0
    parallel_hits: int = 0
    evictions: int = 0
    parallel_tasks: int = 0
    backend_fallbacks: int = 0
    kernel: str = "scalar"

    @property
    def misses(self) -> int:
        return self.evaluations - self.cache_hits - self.parallel_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from *pre-existing* cache entries
        (0.0 when none yet; parallel-batch assembly does not count)."""
        return self.cache_hits / self.evaluations if self.evaluations else 0.0

    def as_dict(self) -> dict[str, object]:
        """The counters plus derived rates, for JSON benchmark artifacts."""
        return {
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "parallel_hits": self.parallel_hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 6),
            "evictions": self.evictions,
            "parallel_tasks": self.parallel_tasks,
            "backend_fallbacks": self.backend_fallbacks,
            "kernel": self.kernel,
        }


class DisclosureEngine:
    """Evaluate any registered adversary model with one shared cache.

    Parameters
    ----------
    exact:
        Use exact :class:`~fractions.Fraction` arithmetic for every model
        that supports it (inherently floating-point models — ``weighted``,
        ``sampling`` — return floats regardless; see each model's
        ``supports_exact``).
    policy:
        A :class:`~repro.engine.plane.CachePolicy` bounding the shared
        cache; the default is unbounded with no sweep pinning.
    workers:
        Worker-process count for :meth:`evaluate_many`, fixed for the
        engine's life: the one setting that sends a batch out of process.
        On an engine with ``workers > 1`` and a backend, a batch under a
        signature-decomposable model with at least two uncached plane keys
        runs on the backend's worker processes; anything else runs
        in-process. Lattice sweeps run in-process on every engine: they
        check one node at a time, so they can prune.
    backend:
        ``"persistent"`` (the default) builds a
        :class:`~repro.engine.backend.PersistentBackend` in the constructor
        when ``workers > 1``, and none when ``workers=1``, so an in-process
        engine never imports :mod:`multiprocessing`. ``"serial"`` builds
        none, whatever ``workers`` says. An
        :class:`~repro.engine.backend.ExecutionBackend` instance is used as
        given. Worker processes are real — call :meth:`close` (or use the
        engine as a context manager) when done; the engine closes whichever
        backend it holds, including a caller-provided instance.
    kernel:
        MINIMIZE1/MINIMIZE2 kernel selector (``"auto"``, ``"numpy"``,
        ``"scalar"``). Resolved once at construction via
        :func:`repro.core.kernel.resolve_kernel` — exact mode always runs
        scalar, and the resolved concrete kernel is shipped to every
        worker so parallel results stay bit-identical to serial. The
        numpy float kernel is itself bit-identical to the scalar float
        path.

    Examples
    --------
    >>> from repro.bucketization import Bucketization
    >>> engine = DisclosureEngine()
    >>> b = Bucketization.from_value_lists([["flu", "flu", "cold", "mumps"]])
    >>> round(engine.evaluate(b, 1), 4)                  # implications
    0.75
    >>> round(engine.evaluate(b, 1, model="negation"), 4)
    0.6667
    >>> engine.stats.evaluations
    2
    """

    def __init__(
        self,
        *,
        exact: bool = False,
        policy: CachePolicy | None = None,
        workers: int = 1,
        backend: str | ExecutionBackend = "persistent",
        kernel: str = "auto",
    ) -> None:
        self.exact = exact
        self.policy = policy if policy is not None else CachePolicy()
        self.workers = max(1, int(workers))
        #: The backend batches run on; ``None`` for an engine that keeps
        #: every batch in-process.
        self.backend: ExecutionBackend | None
        if isinstance(backend, ExecutionBackend):
            self.backend = backend
        elif backend == "persistent":
            self.backend = PersistentBackend() if self.workers > 1 else None
        elif backend == "serial":
            self.backend = None
        else:
            raise ValueError(
                f"unknown backend {backend!r}; expected 'persistent', "
                "'serial' or an ExecutionBackend instance"
            )
        self.plane = SignaturePlane()
        self.context = EngineContext(exact=exact, plane=self.plane, kernel=kernel)
        self.stats = EngineStats(kernel=self.context.kernel)
        self._cache: OrderedDict[tuple, Any] = OrderedDict()
        self._pinned: set[tuple] = set()
        self._pin_depth = 0
        self._instances: dict[tuple, AdversaryModel] = {}
        #: ``(table, lattice, {node: signature items})`` of the last pair a
        #: node predicate was built for; see :meth:`node_predicate`.
        self._node_signatures: tuple[Any, Any, dict] | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the backend's worker processes, if the engine holds a
        backend. The engine stays usable — a closed backend respawns its
        workers on the next parallel batch."""
        if self.backend is not None:
            self.backend.close()

    def __enter__(self) -> DisclosureEngine:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def kernel(self) -> str:
        """The concrete MINIMIZE1/MINIMIZE2 kernel in use (``numpy``/``scalar``)."""
        return self.context.kernel

    # ------------------------------------------------------------------
    # Model resolution and cache plumbing
    # ------------------------------------------------------------------
    def model(
        self,
        model: str | AdversaryModel,
        params: Mapping[str, Any] | None = None,
    ) -> AdversaryModel:
        """Resolve a name (plus optional constructor ``params``) or pass an
        instance through, reusing one instance per ``(name, canonical
        params)`` so equal parameterizations share cache identity.

        Constructor errors propagate: :class:`TypeError` for an unknown
        parameter name, :class:`ValueError` for an out-of-range value —
        callers serving requests map both to a 400.
        """
        if isinstance(model, AdversaryModel):
            if params:
                raise ValueError("params are only valid with a model *name*")
            return model
        key = (model, canonical_params(params))
        instance = self._instances.get(key)
        if instance is None:
            instance = get_adversary(model, **(params or {}))
            self._instances[key] = instance
        return instance

    def cache_size(self) -> int:
        """Number of memoized ``(model, params, k, plane key)`` entries."""
        return len(self._cache)

    def pinned_count(self) -> int:
        """Number of entries currently exempt from LRU eviction."""
        return len(self._pinned)

    def threshold(self, c: float, *, model: str | AdversaryModel | None = None):
        """Validate a disclosure threshold and convert it to this engine's
        arithmetic — the one rule every safety comparison shares.

        With a ``model``, the upper bound follows the model's scale:
        probability-valued models cap ``c`` at 1, ``unbounded_scale`` models
        (cost-weighted) accept any positive threshold.
        """
        bounded = True
        if model is not None:
            bounded = not self.model(model).unbounded_scale
        return threshold_value(c, exact=self.exact, bounded=bounded)

    def _bucket_key(self, m: AdversaryModel, bucketization: Bucketization):
        """The bucketization half of a cache key, tagged by provenance:
        ``("plane", id-multiset)`` for signature-decomposable models (the
        common case — portable via the plane), ``("raw", model key)`` for
        models keyed finer than the signature plane."""
        if m.signature_decomposable():
            return ("plane", self.plane.encode(bucketization))
        return ("raw", m.cache_key(bucketization))

    def _key(self, m: AdversaryModel, bucketization: Bucketization, k: int):
        return (m.name, m.params_key(), k, self._bucket_key(m, bucketization))

    def peek_cached(self, model, k: int, signature_items):
        """Read-only cache probe from raw ``(signature, count)`` items.

        Returns the cached disclosure value for the plane key
        ``(model, k, signature-multiset)`` or ``None`` on a miss — without
        constructing a :class:`Bucketization`, interning anything into the
        plane, touching LRU order, or recording stats. Every operation is a
        plain dict read, so the serving layer may call this from its event
        loop while the engine thread computes: the worst a race can produce
        is a spurious miss, never a wrong value.

        Only signature-decomposable models are peekable (others key their
        cache finer than the plane); anything else is reported as a miss.
        """
        if k < 0:
            return None
        m = self.model(model)
        if not m.signature_decomposable():
            return None
        plane_key = self.plane.probe(signature_items)
        if plane_key is None:
            return None
        key = (m.name, m.params_key(), k, ("plane", plane_key))
        value = self._cache.get(key, _MISS)
        return None if value is _MISS else value

    def _cache_get(self, key):
        value = self._cache.get(key, _MISS)
        if value is not _MISS:
            self._cache.move_to_end(key)
            if self._pin_depth > 0:
                # A pinned scope claims what it *uses*, not just what it
                # inserts — a sweep rereading a warm entry must keep it.
                self._pinned.add(key)
        return value

    def _cache_put(self, key, value, *, pin: bool = True) -> None:
        self._cache[key] = value
        self._cache.move_to_end(key)
        if pin and self._pin_depth > 0:
            self._pinned.add(key)
        limit = self.policy.max_entries
        if limit is None:
            return
        while len(self._cache) > limit:
            if len(self._pinned) >= len(self._cache):
                break  # everything pinned: overflow beats data loss
            victim = next(iter(self._cache))
            if victim in self._pinned:
                # Rotate pinned keys out of scan position: they are immune
                # to eviction, so their LRU position carries no information,
                # and rotating keeps each eviction O(1) amortized instead of
                # rescanning a pinned prefix on every insert.
                self._cache.move_to_end(victim)
                continue
            del self._cache[victim]
            self.stats.evictions += 1

    @contextmanager
    def pinned(self):
        """Scope in which every cache entry inserted is pinned: exempt from
        LRU eviction until :meth:`unpin_all`. Lattice sweeps use this (via
        ``CachePolicy.pin_sweeps``) so a bounded cache serving both a sweep
        and ad-hoc traffic evicts the traffic, not the sweep."""
        self._pin_depth += 1
        try:
            yield self
        finally:
            self._pin_depth -= 1

    def unpin_all(self) -> None:
        """Release every pin (entries stay cached, but become evictable).

        Formerly pinned entries may have been rotated to the recent end of
        the LRU order while pinned (their position was irrelevant then), so
        immediately after unpinning they are evicted late rather than in
        strict original recency order.
        """
        self._pinned.clear()

    # ------------------------------------------------------------------
    # Cache persistence
    # ------------------------------------------------------------------
    def save_cache(self, path) -> int:
        """Persist the cache to ``path`` in a plane-independent form.

        Plane-tagged keys are decoded to raw signature multisets (ids are
        plane-local and would be meaningless elsewhere); a different engine —
        or the same service after a restart — re-interns them on
        :meth:`load_cache`. Returns the number of entries written.

        The write is atomic: the pickle goes to a temporary file in the
        same directory, is fsynced, and then replaces ``path``. A crash
        mid-dump leaves the previous file intact and no temporary behind.
        """
        entries = []
        for key, value in self._cache.items():
            name, params, k, (tag, bucket_key) = key
            if tag == "plane":
                bucket_key = self.plane.decode(bucket_key)
            entries.append((name, params, k, tag, bucket_key, value))
        payload = {
            "format": CACHE_FORMAT,
            "exact": self.exact,
            "entries": entries,
        }
        path = os.fspath(path)
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".",
            suffix=".tmp",
            dir=os.path.dirname(path) or ".",
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
        return len(entries)

    def load_cache(self, path) -> int:
        """Load entries saved by :meth:`save_cache`, re-interning plane keys.

        Existing entries win on collision. The cache policy applies (loading
        more than ``max_entries`` evicts). Loaded entries are *never* pinned
        — restoring a cache inside a :meth:`pinned` scope (or under
        ``pin_sweeps``) must not make the whole file permanent; a sweep that
        later reads a loaded entry claims it then, as usual. Returns the
        number of entries actually inserted.

        .. warning::
            The file is deserialized with :mod:`pickle`, which executes code
            during loading — only load cache files you wrote yourself (or
            otherwise trust). Never point this at shared or
            attacker-writable storage.

        Raises
        ------
        ValueError
            On a format-version mismatch, or when the file was saved by an
            engine in the other arithmetic mode (float and Fraction answers
            must never mix in one cache).
        """
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        if payload.get("format") != CACHE_FORMAT:
            raise ValueError(
                f"unsupported cache format {payload.get('format')!r} "
                f"(expected {CACHE_FORMAT})"
            )
        if bool(payload.get("exact")) != self.exact:
            raise ValueError(
                f"cache was saved with exact={payload.get('exact')} but this "
                f"engine has exact={self.exact}; arithmetic modes must match"
            )
        # Decode every entry before inserting any: a file that fails part
        # way leaves the cache as it was.
        entries = []
        for name, params, k, tag, bucket_key, value in payload["entries"]:
            if tag == "plane":
                bucket_key = self.plane.encode_counts(bucket_key)
            entries.append(((name, params, k, (tag, bucket_key)), value))
        loaded = 0
        for key, value in entries:
            if key not in self._cache:
                self._cache_put(key, value, pin=False)
                loaded += 1
        return loaded

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        bucketization: Bucketization,
        k: int,
        *,
        model: str | AdversaryModel = "implication",
    ):
        """Worst-case disclosure of ``bucketization`` against ``model`` with
        attacker power ``k`` (cached)."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        m = self.model(model)
        key = self._key(m, bucketization, k)
        self.stats.evaluations += 1
        value = self._cache_get(key)
        if value is not _MISS:
            self.stats.cache_hits += 1
            return value
        value = m.disclosure(bucketization, k, context=self.context)
        self._cache_put(key, value)
        return value

    def series(
        self,
        bucketization: Bucketization,
        ks: Iterable[int],
        *,
        model: str | AdversaryModel = "implication",
    ) -> dict[int, object]:
        """Worst case for several ``k`` values, batched.

        Already-cached ``k`` are answered from the cache; the rest go to the
        model's own batch path in one call (for ``implication`` a single
        MINIMIZE2 pass covers every ``k``, as ``max_disclosure_series``
        always did), and the results are cached individually so later single
        evaluations hit. The keys come back in ascending ``k`` order,
        whatever the cache held before the call.
        """
        m = self.model(model)
        ks = sorted(set(ks))
        if ks and ks[0] < 0:
            raise ValueError(f"k must be non-negative, got {ks[0]}")
        return self._series(
            m, bucketization, ks, self._bucket_key(m, bucketization)
        )

    def _series(
        self,
        m: AdversaryModel,
        bucketization: Bucketization,
        ks: list[int],
        bucket_key,
    ) -> dict[int, object]:
        """:meth:`series` for sorted, validated ``ks`` and the already
        computed ``bucket_key`` of ``bucketization``."""
        result: dict[int, object] = {}
        missing: list[int] = []
        name, params = m.name, m.params_key()
        for k in ks:
            key = (name, params, k, bucket_key)
            self.stats.evaluations += 1
            value = self._cache_get(key)
            if value is not _MISS:
                self.stats.cache_hits += 1
                result[k] = value
            else:
                missing.append(k)
        if not missing:
            return result
        computed = m.series(bucketization, missing, context=self.context)
        for k in missing:
            value = computed[k]
            self._cache_put((name, params, k, bucket_key), value)
            result[k] = value
        return {k: result[k] for k in ks}

    def evaluate_many(
        self,
        bucketizations: Iterable[Bucketization],
        ks: Iterable[int],
        *,
        model: str | AdversaryModel = "implication",
    ) -> list[dict[int, object]]:
        """One series per bucketization, in input order, all sharing this
        engine's cache and solver — the batched form a figure sweep or an
        incremental republication wants.

        On an engine built with ``workers > 1`` and a backend, under a
        signature-decomposable model, the *unique uncached* plane keys are
        evaluated by the backend's worker processes — each distinct
        signature multiset is computed exactly once — and warm-backed into
        the shared cache before the per-bucketization assembly. Results
        are bit-for-bit identical to the serial path (deterministic
        chunking and merge order; same canonical signature order inside
        each worker). In-process instead: an engine with ``workers=1`` or
        ``backend="serial"``, fewer than two uncached plane keys,
        non-decomposable models (their answers depend on more than the
        plane ships), or a failed backend.
        """
        bs = list(bucketizations)
        ks = sorted(set(ks))
        if ks and ks[0] < 0:
            raise ValueError(f"k must be non-negative, got {ks[0]}")
        m = self.model(model)
        if not (
            self.backend is not None
            and self.workers > 1
            and len(bs) > 1
            and ks
            and m.signature_decomposable()
        ):
            return [self.series(b, ks, model=m) for b in bs]
        # Each bucketization is encoded on the plane once: the fan-out and
        # the assembly below share these keys.
        plane_keys = [self.plane.encode(b) for b in bs]
        warmed = self._parallel_warm(plane_keys, ks, m)
        # Assemble from the batch's own results where available (not only via
        # the cache warm-back: a tight CachePolicy may already have evicted
        # them, and recomputing serially would waste the workers' effort).
        # These lookups count as parallel_hits, not cache_hits: the values
        # were produced by this very call, so a cold cache keeps an honest
        # zero hit_rate.
        results = []
        for b, plane_key in zip(bs, plane_keys):
            series = warmed.get(plane_key)
            if series is None:
                results.append(self._series(m, b, ks, ("plane", plane_key)))
                continue
            self.stats.evaluations += len(ks)
            self.stats.parallel_hits += len(ks)
            results.append({k: series[k] for k in ks})
        return results

    def _parallel_warm(
        self,
        plane_keys: Sequence[tuple],
        ks: Sequence[int],
        m: AdversaryModel,
    ) -> dict[tuple, dict[int, object]]:
        """Compute the unique uncached ``plane_keys`` on the execution
        backend.

        Returns ``{plane key: series}`` for the computed multisets (empty on
        any backend failure, counted in ``stats.backend_fallbacks`` — the
        serial path then takes over, recomputing and re-raising any genuine
        model error cleanly) and warm-backs the results into the shared
        cache so later calls hit."""
        name, params = m.name, m.params_key()
        pending: dict[tuple, None] = {}
        for plane_key in plane_keys:
            if plane_key in pending:
                continue
            tagged = ("plane", plane_key)
            if any((name, params, k, tagged) not in self._cache for k in ks):
                pending[plane_key] = None
        if len(pending) < 2:
            return {}  # nothing (or one series) to fan out; serial is cheaper
        try:
            all_series = self.backend.run(
                m,
                self.plane,
                list(pending),
                ks,
                exact=self.exact,
                workers=self.workers,
                kernel=self.context.kernel,
            )
        except Exception:
            # Backend unavailable (unpicklable plugin, fork restrictions,
            # workers crashed twice) — degrade to the serial path.
            self.stats.backend_fallbacks += 1
            return {}
        warmed: dict[tuple, dict[int, object]] = {}
        for plane_key, series in zip(pending, all_series):
            warmed[plane_key] = series
            tagged = ("plane", plane_key)
            for k, value in series.items():
                key = (name, params, k, tagged)
                if key not in self._cache:
                    self._cache_put(key, value)
        self.stats.parallel_tasks += len(pending)
        return warmed

    def compare(
        self,
        bucketization: Bucketization,
        ks: Iterable[int],
        *,
        models: Sequence[str | AdversaryModel] = ("implication", "negation"),
    ) -> dict[str, dict[int, object]]:
        """Cross-model comparison: ``{model name: {k: disclosure}}``.

        This is Figure 5 (solid implication line vs. dotted negation line) as
        one batched call; add any registered model name to extend the plot.
        Several differently-parameterized instances of one model get
        disambiguated keys (``weighted``, ``weighted#2``, ...) so no series
        is silently dropped.
        """
        instances = [self.model(spec) for spec in models]
        labels = series_labels(m.name for m in instances)
        return {
            label: self.series(bucketization, ks, model=m)
            for label, m in zip(labels, instances)
        }

    # ------------------------------------------------------------------
    # Derived queries
    # ------------------------------------------------------------------
    def witness(
        self,
        bucketization: Bucketization,
        k: int,
        *,
        model: str | AdversaryModel = "implication",
    ):
        """A concrete worst-case formula for ``model`` (not cached — witness
        objects reference real people, not just histogram shapes).

        Raises
        ------
        NotImplementedError
            If the model does not support witness reconstruction.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        m = self.model(model)
        return m.witness(bucketization, k, context=self.context)

    def is_safe(
        self,
        bucketization: Bucketization,
        c: float,
        k: int,
        *,
        model: str | AdversaryModel = "implication",
    ) -> bool:
        """(c,k)-safety (Definition 13) generalized to any adversary model:
        worst-case disclosure strictly below ``c``."""
        m = self.model(model)
        threshold = self.threshold(c, model=m)
        return self.evaluate(bucketization, k, model=m) < threshold

    def min_k_to_breach(
        self,
        bucketization: Bucketization,
        c: float,
        *,
        model: str | AdversaryModel = "implication",
    ) -> int:
        """Least attacker power whose worst case reaches ``c``.

        The search is bounded by ``max_b (d_b - 1)`` (any bucket with ``d``
        distinct values is certain after ``d - 1`` negations), which is
        guaranteed to suffice for the implication and negation adversaries.
        The distinct counts come from the signature multiset, so a deferred
        bucketization's buckets are not built for them.

        Raises
        ------
        SearchError
            If the model never reaches ``c`` within the bound (possible for
            models whose power does not grow with ``k``).
        """
        m = self.model(model)
        threshold = self.threshold(c, model=m)
        bound = max(len(sig) for sig, _ in bucketization.signature_items()) - 1
        series = self.series(bucketization, range(bound + 1), model=m)
        for k in range(bound + 1):
            if series[k] >= threshold:
                return k
        raise SearchError(
            f"the {m.name!r} adversary never reaches disclosure {c} "
            f"within k <= {bound}"
        )

    def worst_bucket(
        self,
        bucketization: Bucketization,
        k: int,
        *,
        model: str | AdversaryModel = "implication",
    ) -> int:
        """Index of a bucket attaining the model's worst case (what a greedy
        sanitizer should shrink next)."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        m = self.model(model)
        return m.worst_bucket(bucketization, k, context=self.context)

    # ------------------------------------------------------------------
    # Lattice search (Section 3.4), adversary-parametric
    # ------------------------------------------------------------------
    def node_predicate(
        self,
        table,
        lattice,
        c: float,
        k: int,
        *,
        model: str | AdversaryModel = "implication",
    ) -> Callable[[tuple], bool]:
        """A cached node-level safety predicate for the lattice searches.

        For signature-decomposable models the predicate also carries a
        signature-level memo: two nodes whose bucketizations induce the same
        signature multiset resolve with one engine call and one threshold
        comparison. With ``CachePolicy.pin_sweeps``, every cache entry the
        predicate inserts or reads is pinned.

        For those models the predicate also reads and fills the engine's
        memo of node signature multisets, so the sweeps of several policies
        on one table bucketize each node once. The memo holds one
        ``(table, lattice)`` pair, compared by identity: a predicate for
        another table or lattice replaces it, and each predicate keeps the
        dict it was built with. It stores each node's multiset (what
        :meth:`Bucketization.signature_items` returns), never a
        bucketization, so it holds no grouping of the table. Only the
        bucketizing is shared: every check still goes through
        :meth:`evaluate` and this predicate's own threshold, so values,
        verdicts, stats and pins are as without the memo. Other models
        build each node's real buckets, as before.

        Monotonicity along the generalization order is Theorem 14's gift for
        the implication adversary and holds for every bucket-decomposable
        model in this package; as with the raw search functions it remains
        the caller's responsibility for custom plugins.
        """
        from repro.generalization.search import node_safety_predicate

        m = self.model(model)
        threshold = self.threshold(c, model=m)
        pin = self.policy.pin_sweeps
        signature_memo = node_signatures = None
        if m.signature_decomposable():
            signature_memo = {}
            memo = self._node_signatures
            if memo is None or memo[0] is not table or memo[1] is not lattice:
                # Identity, not equality: a Table hashes all its rows.
                memo = self._node_signatures = (table, lattice, {})
            node_signatures = memo[2]

        def checker(bucketization: Bucketization) -> bool:
            if pin:
                with self.pinned():
                    value = self.evaluate(bucketization, k, model=m)
            else:
                value = self.evaluate(bucketization, k, model=m)
            return value < threshold

        return node_safety_predicate(
            table,
            lattice,
            checker,
            signature_memo=signature_memo,
            node_signatures=node_signatures,
        )

    def find_minimal_safe_nodes(
        self,
        table,
        lattice,
        c: float,
        k: int,
        *,
        model: str | AdversaryModel = "implication",
        stats=None,
    ) -> list:
        """All minimal (c,k)-safe lattice nodes under ``model`` (the paper's
        modified-Incognito sweep, with this engine's cache behind it).

        The sweep runs in-process whatever the engine's ``workers``: it
        checks one node at a time, so it skips every node above a safe one
        and rolls each node up from an already-checked child.
        """
        from repro.generalization.search import find_minimal_safe_nodes

        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        predicate = self.node_predicate(table, lattice, c, k, model=model)
        return find_minimal_safe_nodes(lattice, predicate, stats=stats)

    def find_best_safe_node(
        self,
        table,
        lattice,
        c: float,
        k: int,
        utility: Callable[[tuple], float],
        *,
        model: str | AdversaryModel = "implication",
        stats=None,
    ):
        """The minimal safe node maximizing ``utility`` under ``model``."""
        from repro.generalization.search import find_best_safe_node

        predicate = self.node_predicate(table, lattice, c, k, model=model)
        return find_best_safe_node(lattice, predicate, utility, stats=stats)

    def binary_search_chain(
        self,
        table,
        lattice,
        chain: Sequence,
        c: float,
        k: int,
        *,
        model: str | AdversaryModel = "implication",
        stats=None,
    ):
        """Lowest safe node on a fine-to-coarse chain under ``model``."""
        from repro.generalization.search import binary_search_chain

        predicate = self.node_predicate(table, lattice, c, k, model=model)
        return binary_search_chain(chain, predicate, stats=stats)
