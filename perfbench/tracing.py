"""Layer timing from outside the program, for the traced runs only.

:func:`install` wraps the public functions at each layer boundary where
their callers look them up (``repro.service.server`` and
``repro.service.router`` import the wire functions by name, so those names
are patched in the importing modules). Sums, counts and fixed log2
histograms are kept per thread, because engine calls run on the service's
executor thread, and merged only when a snapshot is written.

Request accounting: the outermost ``JsonHttpServer.dispatch`` of a request
opens a record in a context variable; timed children that run on the
event loop (parse, keying, bucketize, encode, peek) add their time to it.
A request whose cache peek hit is *warm*; every other request took the
executor hop and is *cold*. Executor-side layers (engine, publish) are
summed per layer, not per request.

Run ``python3 perfbench/tracing.py serve ARGS...`` to start ``repro serve``
with the wrappers installed: ``SIGUSR1`` writes snapshot ``snap-<n>.json``
and exit writes ``final.json``, both into ``$PERFBENCH_TRACE_DIR``.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import signal
import sys
import threading
import time

now = time.perf_counter_ns
HIST_BUCKETS = 40  # log2(ns) buckets: 1 ns .. ~550 s

_REQUEST: contextvars.ContextVar = contextvars.ContextVar("perfbench_request", default=None)


class Recorder:
    """Per-thread ``name -> [count, ns, histogram]`` sums."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._local = threading.local()

    def _table(self) -> dict:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = {}
            with self._lock:
                self._tables.append(table)
        return table

    def state(self):
        """Per-thread nesting state (engine depth, inside-publish flag)."""
        local = self._local
        if not hasattr(local, "depth"):
            local.depth = 0
            local.publishing = 0
        return local

    def add(self, name: str, ns: int, count: int = 1) -> None:
        table = self._table()
        entry = table.get(name)
        if entry is None:
            entry = table[name] = [0, 0, [0] * HIST_BUCKETS]
        entry[0] += count
        entry[1] += ns
        entry[2][min(max(ns, 1).bit_length() - 1, HIST_BUCKETS - 1)] += 1

    def snapshot(self) -> dict:
        merged: dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (count, ns, hist) in list(table.items()):
                entry = merged.setdefault(name, [0, 0, [0] * HIST_BUCKETS])
                entry[0] += count
                entry[1] += ns
                entry[2] = [a + b for a, b in zip(entry[2], hist)]
        return merged

    def dump(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


def _loop_child(rec: Recorder, name: str, fn, *, peek: bool = False):
    """Time a function that runs on the event loop inside a request."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = now()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = now() - t0
            rec.add(name, dt)
            request = _REQUEST.get()
            if request is not None:
                request[0] += dt
        if peek and result is not None and request is not None:
            request[1] = True
        return result

    return wrapper


def _timed(rec: Recorder, name: str, fn, *, errors: str | None = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = now()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            if errors:
                rec.add(errors, 0)
            raise
        finally:
            rec.add(name, now() - t0)

    return wrapper


def _engine_call(rec: Recorder, fn):
    """Busy time of the outermost engine call on this thread."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = rec.state()
        if state.depth:
            return fn(*args, **kwargs)
        state.depth = 1
        t0 = now()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = now() - t0
            state.depth = 0
            rec.add("engine", dt)
            if state.publishing:
                rec.add("engine.in_publish", dt)

    return wrapper


def _publish_call(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = rec.state()
        state.publishing += 1
        t0 = now()
        try:
            return fn(*args, **kwargs)
        finally:
            state.publishing -= 1
            rec.add("publish", now() - t0)

    return wrapper


def _kernel_call(rec: Recorder, name: str, fn, cells):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = now()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.add(name, now() - t0)
            rec.add("kernel.dp_cells", 0, cells(*args, **kwargs))

    return wrapper


def _m1_cells(signatures, max_m):
    # layers x (cap, rem) states per signature
    return len(signatures) * max_m * (max_m + 1) ** 2


def _m2_cells(tables, boosts, max_k):
    # three min-convolutions of (max_k+1)^2 per bucket
    return len(tables) * 3 * (max_k + 1) ** 2


def _dispatch(rec: Recorder, fn):
    @functools.wraps(fn)
    async def wrapper(self, method, path, body):
        if _REQUEST.get() is not None:  # router -> in-process shard hop
            return await fn(self, method, path, body)
        request = [0, False]  # loop-children ns, cache-peek hit
        token = _REQUEST.set(request)
        t0 = now()
        try:
            return await fn(self, method, path, body)
        finally:
            dt = now() - t0
            _REQUEST.reset(token)
            kind = "warm" if request[1] else "cold"
            rec.add("dispatch", dt)
            rec.add(f"dispatch.{kind}", dt)
            rec.add(f"children.{kind}", request[0])

    return wrapper


def install() -> Recorder:
    """Wrap every traced boundary and return the recorder."""
    from repro.core import kernel
    from repro.engine.backend import PersistentBackend
    from repro.engine.engine import DisclosureEngine
    from repro.generalization import apply
    from repro.publish.engine import RepublicationEngine
    from repro.publish.ledger import ReleaseLedger
    from repro.service import httpbase, router, server

    rec = Recorder()
    httpbase.JsonHttpServer.dispatch = _dispatch(rec, httpbase.JsonHttpServer.dispatch)
    for module in (server, router):
        module.parse_json_body = _loop_child(rec, "parse", module.parse_json_body)
        module.signature_items_from_lists = _loop_child(
            rec, "keying", module.signature_items_from_lists
        )
    server.bucketization_from_payload = _loop_child(
        rec, "bucketize", server.bucketization_from_payload
    )
    server.encode_value = _loop_child(rec, "encode", server.encode_value)
    server.encode_series = _loop_child(rec, "encode", server.encode_series)
    DisclosureEngine.peek_cached = _loop_child(
        rec, "peek", DisclosureEngine.peek_cached, peek=True
    )
    for name in ("evaluate", "series", "evaluate_many", "compare"):
        setattr(DisclosureEngine, name, _engine_call(rec, getattr(DisclosureEngine, name)))
    DisclosureEngine.load_cache = _timed(rec, "load_cache", DisclosureEngine.load_cache)
    PersistentBackend.run = _timed(
        rec, "backend.run", PersistentBackend.run, errors="backend.errors"
    )
    kernel.minimize1_tables = _kernel_call(
        rec, "kernel.minimize1", kernel.minimize1_tables, _m1_cells
    )
    kernel.min_ratio_backward = _kernel_call(
        rec, "kernel.min_ratio", kernel.min_ratio_backward, _m2_cells
    )
    apply.bucketize_at = _timed(rec, "bucketize_at", apply.bucketize_at)
    RepublicationEngine.publish = _publish_call(rec, RepublicationEngine.publish)
    ReleaseLedger.record = _timed(rec, "ledger.record", ReleaseLedger.record)
    ReleaseLedger.accepted_contents = _timed(
        rec, "ledger.accepted_contents", ReleaseLedger.accepted_contents
    )
    return rec


def serve_main(argv: list[str]) -> int:
    """``repro serve`` with the wrappers installed (see module docstring)."""
    rec = install()
    out_dir = os.environ["PERFBENCH_TRACE_DIR"]
    snapshots = [0]

    def on_signal(_signum, _frame):
        snapshots[0] += 1
        rec.dump(os.path.join(out_dir, f"snap-{snapshots[0]}.json"))

    signal.signal(signal.SIGUSR1, on_signal)
    from repro.cli import main

    code = main(argv)
    rec.dump(os.path.join(out_dir, "final.json"))
    return code


if __name__ == "__main__":
    raise SystemExit(serve_main(sys.argv[1:]))
