"""Execution backends: where the engine's parallel batches run.

:meth:`~repro.engine.engine.DisclosureEngine.evaluate_many` always reduces a
batch to the *unique uncached* plane keys. On an engine built with
``workers > 1``, when at least two such keys remain, its
:class:`ExecutionBackend` computes them; otherwise the engine evaluates the
batch in-process through its own cache and shared solver. The engine's
``workers`` is the only switch: no call overrides it, and lattice sweeps
never send a batch out.

:class:`PersistentBackend` is the one implementation: long-lived worker
processes, each holding a worker-resident mirror of the engine's
:class:`~repro.engine.plane.SignaturePlane`. Batches ship only the *newly
interned* signatures since the worker's last batch (a delta over the plane's
dense ids) plus tiny id-multiset tasks, so in steady state each signature
crosses the process boundary at most once per worker. Workers survive
across calls (no per-call fork), respawn transparently after a crash, and
can shut down after an idle timeout; :meth:`ExecutionBackend.close` (or the
engine's context manager) ends them deterministically.

The workers return bit-for-bit the serial path's values: each plane key is
an independent, deterministic unit of work, and the worker-side evaluation
is the same ``model.series`` on a bucketization rebuilt from the shipped
signature counts, under the engine's already-resolved kernel.
"""

from __future__ import annotations

import abc
import threading
from collections.abc import Sequence
from typing import ClassVar

from repro.engine.plane import SignaturePlane
from repro.errors import ReproError

__all__ = ["BackendError", "ExecutionBackend", "PersistentBackend"]


class BackendError(ReproError):
    """A backend could not complete a batch (workers crashed twice, a model
    failed to pickle, ...). The engine treats this as "fall back to serial"."""


class ExecutionBackend(abc.ABC):
    """How a batch of unique plane keys gets evaluated out of process.

    :class:`PersistentBackend` is the implementation the engine builds;
    the type exists so a caller can inject its own (a ``spawn``-context
    :class:`PersistentBackend`, or a test double).

    Attributes
    ----------
    name:
        The label ``/stats`` reports for the backend.
    """

    name: ClassVar[str]

    @abc.abstractmethod
    def run(
        self,
        model,
        plane: SignaturePlane,
        plane_keys: Sequence[tuple],
        ks: Sequence[int],
        *,
        exact: bool,
        workers: int,
        kernel: str = "auto",
    ) -> list[dict[int, object]]:
        """One disclosure series per plane key, in input order.

        ``plane_keys`` are id-multisets on ``plane``; how much of the plane
        crosses a process boundary (full raw signatures vs. an incremental
        delta) is the backend's business. ``kernel`` is the engine's
        already-resolved concrete kernel (``"numpy"``/``"scalar"``), which
        every worker must honor so parallel results stay bit-identical to
        serial. Failures raise (typically :class:`BackendError`); the
        engine degrades to its serial path.
        """

    def close(self) -> None:
        """Release any long-lived resources (idempotent; default no-op)."""

    def __enter__(self) -> ExecutionBackend:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Persistent workers with incremental signature shipping
# ---------------------------------------------------------------------------
def _persistent_worker(conn) -> None:
    """Worker loop: mirror the parent plane, evaluate id-multiset tasks.

    The mirror is just a list — ids are dense and shipped in interning
    order, so ``mirror[sig_id]`` is the parent's ``plane.signature(sig_id)``
    once the delta is appended. The model and the evaluation context are
    worker-resident too: the model is re-shipped only when its identity
    changes, and the context's per-signature DP memo survives across
    batches, so steady-state batches ship (and re-derive) almost nothing.
    """
    from repro.bucketization.bucketization import Bucketization
    from repro.engine.base import EngineContext  # worker-side; avoid cycle

    mirror: list[tuple[int, ...]] = []
    model = None
    contexts: dict[tuple[bool, str], EngineContext] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            conn.close()
            return
        _, shipped_model, exact, kernel, reset, delta, tasks, ks = message
        if reset:
            mirror.clear()
        mirror.extend(delta)
        if shipped_model is not None:
            model = shipped_model
        try:
            context = contexts.get((exact, kernel))
            if context is None:
                context = EngineContext(exact=exact, kernel=kernel)
                contexts[(exact, kernel)] = context
            results = []
            for task in tasks:
                raw = tuple((mirror[sig_id], count) for sig_id, count in task)
                results.append(
                    model.series(
                        Bucketization.from_signature_counts(raw),
                        ks,
                        context=context,
                    )
                )
            reply = ("ok", results)
        except BaseException as exc:  # report, stay alive for the next batch
            reply = ("err", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """Parent-side handle: process, pipe, and the shipping watermarks."""

    __slots__ = ("process", "conn", "plane", "shipped_upto", "model_key")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        #: The plane the mirror tracks (strong ref: identity must not be
        #: recycled while this worker believes its mirror matches it). A
        #: batch from a *different* plane resets the mirror and re-ships.
        self.plane: SignaturePlane | None = None
        #: How many plane signatures this worker's mirror already holds.
        self.shipped_upto = 0
        #: Identity of the model instance last shipped (None = none yet).
        self.model_key: tuple | None = None

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        self.conn.close()


class PersistentBackend(ExecutionBackend):
    """Long-lived workers, each mirroring the engine's signature plane.

    Parameters
    ----------
    idle_timeout:
        Seconds of inactivity after which the worker processes are shut
        down (``None`` keeps them until :meth:`close`). The backend itself
        stays usable: the next batch respawns workers transparently — they
        simply start from an empty mirror again, so the first post-idle
        batch re-ships the full signature prefix.
    mp_context:
        A :mod:`multiprocessing` context (or context name); default is the
        platform default (``fork`` on Linux — cheap spawn, and plugin
        models need not be importable).

    Notes
    -----
    Crash handling is transparent: a dead pipe or worker makes the backend
    respawn every worker and retry the batch exactly once; a second failure
    raises :class:`BackendError` and the engine falls back to serial. A
    *model* error inside a worker is reported without killing the worker
    and also surfaces as :class:`BackendError` — the engine's serial retry
    then reproduces the genuine exception with a clean traceback.

    Each batch appends a record to :attr:`ship_log` (batch index, tasks,
    workers used, signatures shipped; a bounded deque — the last 256
    batches — with :attr:`batches_run` / :attr:`signatures_shipped`
    aggregating the full history) — the observable behind the delta
    protocol's "each signature at most once per worker" guarantee, asserted
    in ``tests/test_backend.py``.

    One backend may serve several engines: plane ids are plane-local, so a
    batch arriving from a different plane than a worker's mirror tracks
    resets that mirror and re-ships from scratch (correct, just not
    incremental across engines).
    """

    name: ClassVar[str] = "persistent"

    def __init__(
        self, *, idle_timeout: float | None = None, mp_context=None
    ) -> None:
        import multiprocessing

        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError(
                f"idle_timeout must be positive or None, got {idle_timeout}"
            )
        import collections

        if isinstance(mp_context, str):
            mp_context = multiprocessing.get_context(mp_context)
        self._mp = mp_context if mp_context is not None else multiprocessing
        self.idle_timeout = idle_timeout
        #: Bounded tail of per-batch shipping records (a service runs
        #: millions of batches; an unbounded list would be a slow leak).
        #: ``batches_run`` / ``signatures_shipped`` aggregate the full
        #: history.
        self.ship_log: collections.deque[dict[str, int]] = collections.deque(
            maxlen=256
        )
        self.batches_run = 0
        self.signatures_shipped = 0
        self.respawns = 0
        self._workers: list[_Worker] = []
        self._lock = threading.Lock()
        self._idle_timer: threading.Timer | None = None
        #: Bumped whenever the current timer is superseded (cancelled or
        #: re-armed); a firing whose generation is stale must not shut
        #: down workers a newer batch just used.
        self._timer_generation = 0

    # -- lifecycle ------------------------------------------------------
    def worker_count(self) -> int:
        """Live worker processes right now (0 after idle shutdown)."""
        with self._lock:
            return sum(1 for w in self._workers if w.process.is_alive())

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=_persistent_worker, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _ensure_workers(self, count: int) -> list[_Worker]:
        self._workers = [w for w in self._workers if w.process.is_alive()]
        while len(self._workers) < count:
            self._workers.append(self._spawn())
        return self._workers[:count]

    def _stop_workers(self) -> None:
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.stop()

    def _cancel_idle_timer(self) -> None:
        self._timer_generation += 1
        if self._idle_timer is not None:
            self._idle_timer.cancel()
            self._idle_timer = None

    def _arm_idle_timer(self) -> None:
        if self.idle_timeout is None:
            return
        self._timer_generation += 1
        timer = threading.Timer(
            self.idle_timeout,
            self._idle_shutdown,
            args=(self._timer_generation,),
        )
        timer.daemon = True
        self._idle_timer = timer
        timer.start()

    def _idle_shutdown(self, generation: int) -> None:
        with self._lock:
            if generation != self._timer_generation:
                # This firing raced a batch: it slipped past cancel() and
                # blocked on the lock while run() armed a fresh timer.
                # Stopping workers now would kill the pool the batch just
                # warmed — stand down and let the fresh timer decide.
                return
            self._idle_timer = None
            self._stop_workers()

    def close(self) -> None:
        """Shut every worker down (idempotent; the backend stays reusable —
        a later batch respawns, exactly as after an idle shutdown)."""
        with self._lock:
            self._cancel_idle_timer()
            self._stop_workers()

    # -- execution ------------------------------------------------------
    def run(self, model, plane, plane_keys, ks, *, exact, workers, kernel="auto"):
        keys = list(plane_keys)
        ks = sorted(set(ks))
        if not keys:
            return []
        workers = max(1, min(int(workers), len(keys)))
        with self._lock:
            self._cancel_idle_timer()
            try:
                try:
                    return self._run_once(
                        model, plane, keys, ks, exact, kernel, workers
                    )
                except _WorkerDied:
                    # Respawn the whole pool once and retry; mirrors restart
                    # empty, so the retry re-ships the full prefix.
                    self.respawns += 1
                    self._stop_workers()
                    try:
                        return self._run_once(
                            model, plane, keys, ks, exact, kernel, workers
                        )
                    except _WorkerDied as exc:
                        self._stop_workers()
                        raise BackendError(
                            "persistent workers died twice in one batch"
                        ) from exc
            finally:
                self._arm_idle_timer()

    def _run_once(self, model, plane, keys, ks, exact, kernel, workers):
        pool = self._ensure_workers(workers)
        chunks = [keys[i::len(pool)] for i in range(len(pool))]
        model_key = (type(model), model.name, model.params_key())
        plane_len = len(plane)
        shipped_total = 0
        active: list[tuple[_Worker, int]] = []
        for index, (worker, chunk) in enumerate(zip(pool, chunks)):
            if not chunk:
                continue
            # A backend can serve several engines: a batch from a different
            # plane resets the worker's mirror (ids are plane-local).
            reset = worker.plane is not plane
            since = 0 if reset else worker.shipped_upto
            delta = plane.signatures_since(since)
            ship_model = model if worker.model_key != model_key else None
            try:
                worker.conn.send(
                    ("batch", ship_model, exact, kernel, reset, delta, chunk, ks)
                )
            except (BrokenPipeError, OSError) as exc:
                raise _WorkerDied(str(exc)) from exc
            except Exception as exc:
                # Pickling failed before any bytes hit the pipe (Connection
                # serializes fully first): this payload cannot cross a
                # process boundary at all. Workers already sent to this
                # loop have replies in flight that nothing will consume —
                # a later batch would read them as *its* answers — so the
                # pool must go down with the batch.
                self._stop_workers()
                raise BackendError(f"cannot ship batch: {exc}") from exc
            # The worker syncs its mirror unconditionally on receipt, so
            # the watermark advances even if evaluation later fails.
            worker.plane = plane
            worker.shipped_upto = plane_len
            worker.model_key = model_key
            shipped_total += len(delta)
            active.append((worker, index))
        results: list = [None] * len(keys)
        errors: list[str] = []
        for worker, index in active:
            try:
                reply = worker.conn.recv()
            except (EOFError, OSError) as exc:
                raise _WorkerDied(str(exc)) from exc
            if reply[0] == "err":
                errors.append(reply[1])
                continue
            results[index::len(pool)] = reply[1]
        self.ship_log.append(
            {
                "batch": self.batches_run,
                "tasks": len(keys),
                "workers_used": len(active),
                "shipped_signatures": shipped_total,
            }
        )
        self.batches_run += 1
        self.signatures_shipped += shipped_total
        if errors:
            raise BackendError(
                f"model evaluation failed in a worker: {errors[0]}"
            )
        return results


class _WorkerDied(Exception):
    """Internal: a worker process or its pipe went away mid-batch."""
