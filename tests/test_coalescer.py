"""The serving tier's one coalescer (:class:`repro.service.httpbase.Coalescer`).

Driven on a plain event loop with a fake ``run_group`` callback held on an
:class:`asyncio.Event`, so every grouping below is decided by what is
queued while a group runs, never by a timing window.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service.httpbase import Coalescer, Unavailable


async def _until(predicate) -> None:
    """Yield to the loop until ``predicate()`` holds (bounded)."""
    async def poll() -> None:
        while not predicate():
            await asyncio.sleep(0.001)

    await asyncio.wait_for(poll(), timeout=10)


async def _settle() -> None:
    """Let freshly created submit tasks run up to their queued wait."""
    for _ in range(3):
        await asyncio.sleep(0)


def test_items_queued_while_a_group_runs_drain_as_one_group_per_key():
    async def main():
        gate = asyncio.Event()
        calls: list[tuple[str, list[int]]] = []

        async def run_group(key, items):
            calls.append((key, list(items)))
            if len(calls) == 1:
                await gate.wait()
            return [f"{key}:{item}" for item in items]

        coalescer = Coalescer(run_group, name="test-coalescer")
        coalescer.start()
        first = asyncio.create_task(coalescer.submit("a", 0))
        await _until(lambda: len(calls) == 1)
        later = [
            asyncio.create_task(coalescer.submit(key, item))
            for key, item in (("a", 1), ("b", 2), ("a", 3), ("b", 4))
        ]
        await _settle()
        gate.set()
        results = await asyncio.gather(first, *later)
        await coalescer.stop()
        return calls, results

    calls, results = asyncio.run(main())
    assert calls == [("a", [0]), ("a", [1, 3]), ("b", [2, 4])]
    assert results == ["a:0", "a:1", "b:2", "a:3", "b:4"]


def test_a_failing_group_fails_only_its_own_items():
    async def main():
        async def run_group(key, items):
            if key == "bad":
                raise ValueError("boom")
            return [item * 10 for item in items]

        coalescer = Coalescer(run_group, name="test-coalescer")
        coalescer.start()
        results = await asyncio.gather(
            coalescer.submit("bad", 1),
            coalescer.submit("good", 2),
            coalescer.submit("bad", 3),
            coalescer.submit("good", 4),
            return_exceptions=True,
        )
        # The drain task survives a failing group.
        after = await coalescer.submit("good", 5)
        await coalescer.stop()
        return results, after

    results, after = asyncio.run(main())
    assert [type(r) for r in results] == [ValueError, int, ValueError, int]
    assert results[1::2] == [20, 40]
    assert str(results[0]) == "boom"
    assert after == 50


def test_stop_fails_in_flight_and_queued_items_with_unavailable():
    async def main():
        started = asyncio.Event()
        never = asyncio.Event()

        async def run_group(key, items):
            started.set()
            await never.wait()
            return items

        coalescer = Coalescer(run_group, name="test-coalescer")
        coalescer.start()
        in_flight = asyncio.create_task(coalescer.submit("a", 1))
        await asyncio.wait_for(started.wait(), timeout=10)
        queued = asyncio.create_task(coalescer.submit("b", 2))
        await _settle()
        await asyncio.wait_for(coalescer.stop(), timeout=10)
        return await asyncio.gather(in_flight, queued, return_exceptions=True)

    results = asyncio.run(main())
    assert [type(r) for r in results] == [Unavailable, Unavailable]
    assert all(str(r) == "service is shutting down" for r in results)


def test_submit_after_stop_fails_at_once():
    async def main():
        async def run_group(key, items):
            return items

        coalescer = Coalescer(run_group, name="test-coalescer")
        coalescer.start()
        assert await coalescer.submit("a", 1) == 1
        await coalescer.stop()
        with pytest.raises(Unavailable):
            await asyncio.wait_for(coalescer.submit("a", 2), timeout=10)

    asyncio.run(main())
