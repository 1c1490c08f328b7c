"""Persistent workers: equivalence with the in-process path, and lifecycle.

The acceptance claims for the backend layer:

1. **Bit-for-bit equivalence** (property-based): the persistent workers
   return exactly the serial path's values, in float and exact modes, for
   every signature-decomposable model.
2. **Incremental shipping**: a worker receives each plane signature at most
   once; a steady-state batch whose signatures are already mirrored ships
   none.
3. **Lifecycle**: ``engine.close()`` / the engine context manager end the
   worker processes; an idle timeout shuts them down and the next batch
   respawns them; a crashed worker pool respawns transparently; a model
   that cannot pickle degrades to the serial path without poisoning the
   backend; a default engine builds no backend and never imports
   :mod:`multiprocessing`; a lattice sweep sends no batch to the workers,
   whatever the engine's ``workers``.
4. **Honest stats**: parallel batches are counted as ``parallel_hits``, so
   a cold cache with ``workers > 1`` reports a zero ``hit_rate``
   (the PR-3 ``EngineStats`` misattribution fix).
5. **Persistence fixes**: ``load_cache`` never pins what it restores, and
   raw-tagged (non-signature-decomposable) cache keys survive a
   save/load round-trip.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bucketization import Bucketization
from repro.core.kernel import numpy_available
from repro.engine import (
    CachePolicy,
    DisclosureEngine,
    ExecutionBackend,
    PersistentBackend,
    SamplingAdversary,
    get_adversary,
)

BACKENDS = ("serial", "persistent")

requires_numpy = pytest.mark.skipif(
    not numpy_available(),
    reason="the synthetic Adult generator needs numpy (repro[fast])",
)

small_bucketization_lists = st.lists(
    st.lists(
        st.lists(st.sampled_from("abcde"), min_size=1, max_size=5),
        min_size=1,
        max_size=3,
    ).map(Bucketization.from_value_lists),
    min_size=2,
    max_size=5,
)


def _src_env() -> dict[str, str]:
    """This environment with the package under test importable."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _random_bucketizations(count: int, seed: int = 11) -> list[Bucketization]:
    rng = random.Random(seed)
    result = []
    for _ in range(count):
        value_lists = [
            [rng.choice("abcdefg") for _ in range(rng.randint(2, 8))]
            for _ in range(rng.randint(1, 5))
        ]
        result.append(Bucketization.from_value_lists(value_lists))
    return result


@pytest.fixture(scope="module")
def shared_persistent():
    """One persistent backend for the whole module: spawning processes per
    test (or per hypothesis example) would dominate the suite's runtime,
    and sharing is a supported mode (mirrors reset across planes)."""
    backend = PersistentBackend()
    yield backend
    backend.close()


# ---------------------------------------------------------------------------
# 1. Bit-for-bit equivalence
# ---------------------------------------------------------------------------
class TestEquivalence:
    @given(small_bucketization_lists)
    @settings(max_examples=15, deadline=None)
    def test_persistent_equals_serial_property(self, bucketizations):
        """The acceptance property: persistent == serial, float and exact."""
        backend = _PROPERTY_BACKEND
        ks = [0, 1, 2]
        for exact in (False, True):
            serial = DisclosureEngine(
                exact=exact, backend="serial"
            ).evaluate_many(bucketizations, ks)
            engine = DisclosureEngine(exact=exact, workers=2, backend=backend)
            assert engine.evaluate_many(bucketizations, ks) == serial

    def test_all_backends_agree_across_models(self, shared_persistent):
        bucketizations = _random_bucketizations(8)
        ks = [0, 1, 3]
        for model in ("implication", "negation", "distribution"):
            for exact in (False, True):
                expected = DisclosureEngine(
                    exact=exact, backend="serial"
                ).evaluate_many(bucketizations, ks, model=model)
                engine = DisclosureEngine(
                    exact=exact, workers=2, backend=shared_persistent
                )
                result = engine.evaluate_many(bucketizations, ks, model=model)
                assert result == expected, (model, exact)
                assert engine.stats.parallel_tasks > 0

    @requires_numpy
    def test_search_prewarm_on_persistent_backend(self, shared_persistent):
        """A sweep on an engine holding a persistent backend answers as a
        serial engine does and ships the backend nothing."""
        from repro.data.adult import ADULT_SCHEMA
        from repro.data.hierarchies import adult_hierarchies
        from repro.experiments.runner import default_adult_table
        from repro.generalization.lattice import GeneralizationLattice

        table = default_adult_table(150)
        lattice = GeneralizationLattice(
            adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
        )
        serial = DisclosureEngine(backend="serial").find_minimal_safe_nodes(
            table, lattice, 0.8, 2
        )
        batches = shared_persistent.batches_run
        engine = DisclosureEngine(workers=2, backend=shared_persistent)
        assert engine.find_minimal_safe_nodes(table, lattice, 0.8, 2) == serial
        assert engine.stats.parallel_tasks == 0
        assert shared_persistent.batches_run == batches

    @requires_numpy
    def test_fig6_on_persistent_backend(self, shared_persistent):
        from repro.experiments.fig6 import run_figure6
        from repro.experiments.runner import default_adult_table

        table = default_adult_table(150)
        serial = run_figure6(table, ks=(1, 3))
        engine = DisclosureEngine(workers=2, backend=shared_persistent)
        parallel = run_figure6(table, ks=(1, 3), engine=engine)
        assert parallel.nodes == serial.nodes
        assert engine.stats.parallel_tasks > 0


#: Module-level so the hypothesis property reuses one worker pool; closed by
#: the autouse fixture below rather than leaked.
_PROPERTY_BACKEND = PersistentBackend()


@pytest.fixture(scope="module", autouse=True)
def _close_property_backend():
    yield
    _PROPERTY_BACKEND.close()


# ---------------------------------------------------------------------------
# 2. Incremental signature shipping
# ---------------------------------------------------------------------------
class TestDeltaProtocol:
    def test_each_signature_ships_at_most_once_per_worker(self):
        with DisclosureEngine(workers=2, backend="persistent") as engine:
            backend = engine.backend
            first = _random_bucketizations(8, seed=1)
            engine.evaluate_many(first, [1, 2])
            # Recombine the same signatures into *new* multisets: new cache
            # keys (so the batch really fans out) but zero new signatures.
            sigs = [engine.plane.signature(i) for i in range(len(engine.plane))]
            rng = random.Random(7)
            recombined = [
                Bucketization.from_signature_counts(
                    {
                        sig: rng.randint(1, 2)
                        for sig in rng.sample(sigs, min(4, len(sigs)))
                    }
                )
                for _ in range(8)
            ]
            engine.evaluate_many(recombined, [1, 2])
            log = backend.ship_log
            assert len(log) == 2
            assert log[0]["shipped_signatures"] > 0
            assert log[1]["shipped_signatures"] == 0  # all mirrored already
            # Global invariant: nothing ships twice to one worker.
            total = sum(entry["shipped_signatures"] for entry in log)
            workers = max(entry["workers_used"] for entry in log)
            assert total <= len(engine.plane) * workers

    def test_mirror_resets_across_planes(self, shared_persistent):
        """A backend shared by two engines must not serve one engine's ids
        against the other's signatures."""
        bs_a = _random_bucketizations(6, seed=21)
        bs_b = _random_bucketizations(6, seed=22)
        engine_a = DisclosureEngine(workers=2, backend=shared_persistent)
        engine_b = DisclosureEngine(workers=2, backend=shared_persistent)
        expected_a = DisclosureEngine(backend="serial").evaluate_many(bs_a, [1])
        expected_b = DisclosureEngine(backend="serial").evaluate_many(bs_b, [1])
        assert engine_a.evaluate_many(bs_a, [1]) == expected_a
        assert engine_b.evaluate_many(bs_b, [1]) == expected_b
        assert engine_a.evaluate_many(bs_a, [2]) == DisclosureEngine(
            backend="serial"
        ).evaluate_many(bs_a, [2])


# ---------------------------------------------------------------------------
# 3. Lifecycle
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_close_ends_workers_and_engine_is_reusable(self):
        engine = DisclosureEngine(workers=2, backend="persistent")
        bs = _random_bucketizations(6, seed=31)
        expected = DisclosureEngine(backend="serial").evaluate_many(bs, [1])
        assert engine.evaluate_many(bs, [1]) == expected
        assert engine.backend.worker_count() > 0
        engine.close()
        assert engine.backend.worker_count() == 0
        # Reusable: the next batch respawns.
        bs2 = _random_bucketizations(6, seed=32)
        assert engine.evaluate_many(bs2, [1]) == DisclosureEngine(
            backend="serial"
        ).evaluate_many(bs2, [1])
        engine.close()

    def test_context_manager_closes(self):
        with DisclosureEngine(workers=2, backend="persistent") as engine:
            engine.evaluate_many(_random_bucketizations(6, seed=33), [1])
            backend = engine.backend
            assert backend.worker_count() > 0
        assert backend.worker_count() == 0

    def test_idle_timeout_shuts_down_and_respawns(self):
        backend = PersistentBackend(idle_timeout=0.2)
        try:
            engine = DisclosureEngine(workers=2, backend=backend)
            bs = _random_bucketizations(6, seed=34)
            expected = DisclosureEngine(backend="serial").evaluate_many(bs, [1])
            assert engine.evaluate_many(bs, [1]) == expected
            assert backend.worker_count() > 0
            deadline = time.monotonic() + 5.0
            while backend.worker_count() > 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert backend.worker_count() == 0  # idle shutdown fired
            # Transparent respawn, full prefix re-shipped.
            bs2 = _random_bucketizations(6, seed=35)
            assert engine.evaluate_many(bs2, [1]) == DisclosureEngine(
                backend="serial"
            ).evaluate_many(bs2, [1])
        finally:
            backend.close()

    def test_crashed_workers_respawn_transparently(self):
        with DisclosureEngine(workers=2, backend="persistent") as engine:
            bs = _random_bucketizations(6, seed=36)
            engine.evaluate_many(bs, [1])
            for worker in list(engine.backend._workers):
                worker.process.terminate()
                worker.process.join()
            bs2 = _random_bucketizations(6, seed=37)
            assert engine.evaluate_many(bs2, [1]) == DisclosureEngine(
                backend="serial"
            ).evaluate_many(bs2, [1])

    def test_unpicklable_model_degrades_without_poisoning(self):
        implication = get_adversary("implication")

        class LocalModel(type(implication)):  # unpicklable: local class
            name = "implication"

        with DisclosureEngine(workers=2, backend="persistent") as engine:
            bs = _random_bucketizations(5, seed=38)
            expected = DisclosureEngine(backend="serial").evaluate_many(
                bs, [1]
            )
            assert engine.evaluate_many(bs, [1], model=LocalModel()) == expected
            # The backend still works for shippable models afterwards.
            bs2 = _random_bucketizations(5, seed=39)
            engine2 = DisclosureEngine(workers=2, backend=engine.backend)
            assert engine2.evaluate_many(bs2, [1]) == DisclosureEngine(
                backend="serial"
            ).evaluate_many(bs2, [1])
            assert engine2.stats.parallel_tasks > 0

    def test_midbatch_ship_failure_does_not_poison_later_batches(self):
        """Regression: a pickling failure after some workers were already
        sent their chunks used to leave those replies in flight, and the
        *next* batch consumed them as its own answers (silently wrong
        values warm-backed into the cache). The pool must go down with the
        failed batch instead."""

        def batch(sizes):
            # One bucket over three values per size: distinct signatures,
            # none certain at k = 1, so every answer depends on its size.
            return [
                Bucketization.from_value_lists([["a"] * n + ["b", "b", "c"]])
                for n in sizes
            ]

        def serial(bs):
            return DisclosureEngine(backend="serial").evaluate_many(bs, [1])

        with DisclosureEngine(workers=4, backend="persistent") as engine:
            log = engine.backend.ship_log
            model = engine.model("implication")
            bs = batch(range(3, 5))
            assert engine.evaluate_many(bs, [1], model=model) == serial(bs)
            # Two uncached keys: two workers now hold the model resident.
            assert log[-1]["tasks"] == log[-1]["workers_used"] == 2
            # Same model *identity*, now unpicklable: the two resident
            # workers accept their chunks (3 and 2 keys) with
            # ship_model=None, then pickling the instance for a newly
            # spawned third worker fails mid-loop — two replies already in
            # flight.
            model.unpicklable = lambda: None
            try:
                bs2 = batch(range(5, 14))
                flaky = engine.evaluate_many(bs2, [1], model=model)
                assert flaky == serial(bs2)  # served by the serial fallback
            finally:
                del model.unpicklable
            assert engine.stats.backend_fallbacks == 1
            # The batch after the failure must not read stale replies. Its
            # 9 keys over 4 workers make chunks of 3, 2, 2 and 2, so the
            # stale replies (3 and 2 results) would slot into its first two
            # chunks exactly — the silent-poisoning shape.
            bs3 = batch(range(14, 23))
            assert engine.evaluate_many(bs3, [1]) == serial(bs3)
            assert log[-1]["tasks"] == 9 and log[-1]["workers_used"] == 4

    def test_idle_timer_racing_a_batch_stands_down(self):
        """Regression: an idle-timer firing that raced a batch (blocked on
        the lock while the batch ran) used to kill the workers the batch
        had just warmed and orphan the freshly armed timer."""
        backend = PersistentBackend(idle_timeout=3600.0)
        try:
            engine = DisclosureEngine(workers=2, backend=backend)
            bs = _random_bucketizations(6, seed=74)
            engine.evaluate_many(bs, [1])
            assert backend.worker_count() == 2
            # Replay the race: a firing whose generation predates the
            # latest re-arm must not stop the workers.
            stale_generation = backend._timer_generation - 1
            backend._idle_shutdown(stale_generation)
            assert backend.worker_count() == 2  # stood down
            # The current generation still shuts down (the real timer).
            backend._idle_shutdown(backend._timer_generation)
            assert backend.worker_count() == 0
        finally:
            backend.close()

    def test_model_error_reproduced_serially(self, shared_persistent):
        class ExplodingModel(type(get_adversary("implication"))):
            name = "implication"

            def series(self, bucketization, ks, *, context):
                raise RuntimeError("deliberate model failure")

        engine = DisclosureEngine(workers=2, backend=shared_persistent)
        with pytest.raises(RuntimeError, match="deliberate model failure"):
            engine.evaluate_many(
                _random_bucketizations(4, seed=40), [1], model=ExplodingModel()
            )

    def test_serial_backend_never_fans_out(self):
        engine = DisclosureEngine(workers=4, backend="serial")
        bs = _random_bucketizations(6, seed=41)
        expected = DisclosureEngine().evaluate_many(bs, [1, 2])
        assert engine.evaluate_many(bs, [1, 2]) == expected
        assert engine.stats.parallel_tasks == 0
        assert engine.stats.parallel_hits == 0

    def test_backend_name_validation(self):
        for name in ("pool", "threads"):
            with pytest.raises(ValueError) as excinfo:
                DisclosureEngine(backend=name)
            message = str(excinfo.value)
            assert repr(name) in message
            assert "'persistent'" in message and "'serial'" in message
        backend = PersistentBackend()
        with DisclosureEngine(backend=backend) as engine:
            assert engine.backend is backend
        with pytest.raises(ValueError, match="idle_timeout"):
            PersistentBackend(idle_timeout=0.0)

    def test_negative_k_rejected_before_any_fan_out(self):
        """A caller error is raised before bucketization or fan-out: no
        worker starts and no backend failure is counted."""
        bs = _random_bucketizations(6, seed=42)
        with DisclosureEngine(workers=2, backend="persistent") as engine:
            for model in ("implication", "negation", "distribution"):
                with pytest.raises(
                    ValueError, match="k must be non-negative, got -1"
                ):
                    engine.evaluate_many(bs, [-1, 1], model=model)
            assert engine.stats.backend_fallbacks == 0
            assert engine.backend.batches_run == 0
            assert engine.backend.worker_count() == 0

    @requires_numpy
    def test_negative_k_search_rejected_before_any_fan_out(self):
        from repro.data.adult import ADULT_SCHEMA
        from repro.data.hierarchies import adult_hierarchies
        from repro.experiments.runner import default_adult_table
        from repro.generalization.lattice import GeneralizationLattice

        table = default_adult_table(150)
        lattice = GeneralizationLattice(
            adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
        )
        with DisclosureEngine(workers=2, backend="persistent") as engine:
            with pytest.raises(
                ValueError, match="k must be non-negative, got -1"
            ):
                engine.find_minimal_safe_nodes(table, lattice, 0.8, -1)
            assert engine.stats.backend_fallbacks == 0
            assert engine.backend.batches_run == 0
            assert engine.backend.worker_count() == 0

    def test_lattice_sweeps_send_the_workers_nothing(
        self, small_adult, adult_lattice
    ):
        """On an engine with two persistent workers, each policy of the
        ``sanitize`` benchmark sweeps in-process: the serial engine's
        minimal nodes, found with pruning, and no batch or worker."""
        from repro.generalization.search import SearchStats

        policies = (
            (0.7, 3, "implication"),
            (0.8, 3, "implication"),
            (0.7, 2, "negation"),
        )
        serial = DisclosureEngine(backend="serial")
        with DisclosureEngine(workers=2, backend="persistent") as engine:
            for c, k, model in policies:
                stats = SearchStats()
                minimal = engine.find_minimal_safe_nodes(
                    small_adult, adult_lattice, c, k, model=model, stats=stats
                )
                assert minimal == serial.find_minimal_safe_nodes(
                    small_adult, adult_lattice, c, k, model=model
                )
                assert stats.pruned > 0
            assert engine.backend.batches_run == 0
            assert engine.backend.worker_count() == 0

    def test_in_process_engine_never_imports_multiprocessing(self):
        """A default engine (workers=1) answers batches and lattice sweeps
        without building a backend, so it never imports multiprocessing."""
        script = """
import sys
from repro import Bucketization, DisclosureEngine
engine = DisclosureEngine()
bs = [Bucketization.from_value_lists([list("aab"), list("xyz" * n)])
      for n in range(1, 6)]
engine.evaluate_many(bs, [1, 2])
try:
    from repro.data.adult import ADULT_SCHEMA
    from repro.data.hierarchies import adult_hierarchies
    from repro.experiments.runner import default_adult_table
    from repro.generalization.lattice import GeneralizationLattice
    table = default_adult_table(150)
except ImportError:  # no numpy: the synthetic table is unavailable
    table = None
if table is not None:
    lattice = GeneralizationLattice(
        adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
    )
    engine.find_minimal_safe_nodes(table, lattice, 0.8, 2)
engine.close()
assert engine.backend is None
print("multiprocessing" in sys.modules)
"""
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=_src_env(),
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# 4. Honest stats (EngineStats misattribution fix)
# ---------------------------------------------------------------------------
class _FailingBackend(ExecutionBackend):
    """A parallel backend that can never run a batch."""

    name = "failing"

    def run(self, model, plane, plane_keys, ks, *, exact, workers, kernel="auto"):
        raise RuntimeError("backend unavailable")


class TestStats:
    @pytest.mark.parametrize("backend", ["persistent"])
    def test_cold_parallel_batch_reports_zero_hit_rate(self, backend):
        """Regression: parallel-warmed results used to be counted as
        cache_hits, so a cold cache with workers > 1 claimed a nonzero hit
        rate."""
        with DisclosureEngine(workers=2, backend=backend) as engine:
            bs = _random_bucketizations(8, seed=51)
            engine.evaluate_many(bs, [1, 2])
            assert engine.stats.parallel_tasks > 0
            assert engine.stats.cache_hits == 0
            assert engine.stats.hit_rate == 0.0
            assert engine.stats.parallel_hits > 0
            assert engine.stats.misses == 0  # served, just not from cache
            # The rerun finds everything cached, so it stays in-process
            # and counts genuine cache hits.
            engine.evaluate_many(bs, [1, 2])
            assert engine.stats.cache_hits > 0
            assert engine.stats.hit_rate > 0.0

    def test_parallel_hits_surfaced_in_as_dict(self):
        stats_keys = DisclosureEngine().stats.as_dict()
        assert "parallel_hits" in stats_keys

    def test_failed_backend_batch_counted_as_fallback(self):
        """A backend whose ``run`` raises leaves the answers to the serial
        path, and the fallback is counted instead of silent."""
        bs = _random_bucketizations(6, seed=53)
        expected = DisclosureEngine(backend="serial").evaluate_many(bs, [1, 2])
        engine = DisclosureEngine(workers=2, backend=_FailingBackend())
        assert engine.stats.backend_fallbacks == 0
        assert engine.evaluate_many(bs, [1, 2]) == expected
        assert engine.stats.backend_fallbacks == 1
        assert engine.stats.as_dict()["backend_fallbacks"] == 1
        assert engine.stats.parallel_tasks == 0

    @requires_numpy
    def test_failed_lattice_prewarm_counted_as_fallback(self):
        """A lattice sweep sends the backend nothing, so a backend that
        can never run a batch costs it no fallback."""
        from repro.data.adult import ADULT_SCHEMA
        from repro.data.hierarchies import adult_hierarchies
        from repro.experiments.runner import default_adult_table
        from repro.generalization.lattice import GeneralizationLattice

        table = default_adult_table(150)
        lattice = GeneralizationLattice(
            adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
        )
        serial = DisclosureEngine(backend="serial").find_minimal_safe_nodes(
            table, lattice, 0.8, 2
        )
        engine = DisclosureEngine(workers=2, backend=_FailingBackend())
        assert engine.find_minimal_safe_nodes(table, lattice, 0.8, 2) == serial
        assert engine.stats.backend_fallbacks == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cold_vs_warm_stats_per_backend(self, backend):
        """Satellite acceptance: for every backend, a cold batch reports no
        cache hits and a warm rerun is answered entirely from cache."""
        with DisclosureEngine(workers=2, backend=backend) as engine:
            bs = _random_bucketizations(6, seed=52)
            ks = [1, 2]
            engine.evaluate_many(bs, ks)
            assert engine.stats.cache_hits == 0
            assert engine.stats.hit_rate == 0.0
            evaluations = engine.stats.evaluations
            cold_misses = engine.stats.misses
            engine.evaluate_many(bs, ks)
            new = engine.stats.evaluations - evaluations
            assert engine.stats.cache_hits == new  # warm: all cache hits
            assert engine.stats.misses == cold_misses  # rerun added none


# ---------------------------------------------------------------------------
# 5. Persistence fixes
# ---------------------------------------------------------------------------
class TestPersistenceFixes:
    def test_load_cache_entries_stay_evictable_under_pinning(self, tmp_path):
        """Regression: restoring a cache inside a pinned() scope used to pin
        every loaded entry permanently."""
        bs = _random_bucketizations(8, seed=61)
        source = DisclosureEngine()
        source.evaluate_many(bs, [1])
        path = tmp_path / "cache.pkl"
        saved = source.save_cache(path)
        assert saved >= 8

        target = DisclosureEngine(
            policy=CachePolicy(max_entries=4, pin_sweeps=True)
        )
        with target.pinned():
            loaded = target.load_cache(path)
        assert loaded > 0
        assert target.pinned_count() == 0  # nothing pinned by loading
        assert target.cache_size() <= 4  # the LRU bound still applies
        # And fresh traffic can evict loaded entries.
        evictions = target.stats.evictions
        for b in _random_bucketizations(8, seed=62):
            target.evaluate(b, 2)
        assert target.stats.evictions > evictions
        assert target.cache_size() <= 4

    def test_load_cache_under_pin_sweeps_search(self, tmp_path):
        """pin_sweeps engines load caches without pinning them, but a sweep
        that later *reads* a loaded entry claims it as usual."""
        bs = _random_bucketizations(5, seed=63)
        source = DisclosureEngine()
        source.evaluate_many(bs, [1])
        path = tmp_path / "cache.pkl"
        source.save_cache(path)
        engine = DisclosureEngine(
            policy=CachePolicy(max_entries=50, pin_sweeps=True)
        )
        engine.load_cache(path)
        assert engine.pinned_count() == 0
        with engine.pinned():
            engine.evaluate(bs[0], 1)  # a pinned scope reading a loaded entry
        assert engine.pinned_count() == 1

    def test_raw_tagged_keys_round_trip(self, tmp_path):
        """Non-signature-decomposable models cache under ("raw", model key);
        those entries must survive save/load unchanged."""
        model = SamplingAdversary(samples=300, seed=7)
        assert not model.signature_decomposable()
        bs = _random_bucketizations(5, seed=64)
        source = DisclosureEngine()
        expected = [source.evaluate(b, 1, model=model) for b in bs]
        # Mix in plane-tagged entries so both tags share the file.
        source.evaluate_many(bs, [1])
        path = tmp_path / "cache.pkl"
        saved = source.save_cache(path)
        assert saved == source.cache_size()

        fresh = DisclosureEngine()
        assert fresh.load_cache(path) == saved
        result = [fresh.evaluate(b, 1, model=model) for b in bs]
        assert result == expected
        assert fresh.stats.misses == 0  # every raw-tagged lookup hit
        assert fresh.stats.cache_hits == len(bs)
