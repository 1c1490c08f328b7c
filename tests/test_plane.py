"""The signature plane, the bounded cache, and parallel batch evaluation.

Four layers of guarantees:

1. **Plane semantics**: interning is stable, encode/decode round-trips, and
   a synthetically rebuilt bucketization is evaluation-equivalent to the
   original for every signature-decomposable model (property-based).
2. **Parallel == serial**: ``evaluate_many`` on persistent worker
   processes returns bit-for-bit what the serial path returns, in float and
   exact modes, with warm-back populating the shared cache;
   non-decomposable models fall back to the serial path. Every test that
   starts workers closes its engine.
3. **Cache policy**: the LRU bound holds, evictions are counted, pinned
   entries survive eviction, and a bounded Figure-6 sweep stays within its
   limit while reporting evictions.
4. **Persistence**: save/load round-trips entries across engines (plane ids
   re-interned), and arithmetic-mode mismatches are rejected.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bucketization import Bucket, Bucketization
from repro.engine import (
    CachePolicy,
    DisclosureEngine,
    SamplingAdversary,
    SignaturePlane,
    get_adversary,
)
from repro.core.kernel import numpy_available
from repro.errors import EmptyTableError
from repro.experiments.fig6 import run_figure6
from repro.experiments.runner import default_adult_table

requires_numpy = pytest.mark.skipif(
    not numpy_available(),
    reason="the synthetic Adult generator needs numpy (repro[fast])",
)

small_bucketizations = st.lists(
    st.lists(st.sampled_from("abcde"), min_size=1, max_size=6),
    min_size=1,
    max_size=4,
).map(Bucketization.from_value_lists)

#: Models whose answers are functions of the signature multiset alone.
DECOMPOSABLE = ("implication", "negation", "distribution")


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


# ---------------------------------------------------------------------------
# 1. Plane semantics
# ---------------------------------------------------------------------------
class TestSignaturePlane:
    def test_intern_is_stable_and_dense(self):
        plane = SignaturePlane()
        assert plane.intern((2, 1)) == 0
        assert plane.intern((3,)) == 1
        assert plane.intern((2, 1)) == 0  # same signature, same id
        assert plane.signature(1) == (3,)
        assert len(plane) == 2
        assert (2, 1) in plane and (9,) not in plane

    def test_encode_counts_multiplicity(self):
        plane = SignaturePlane()
        b = Bucketization.from_value_lists([["a", "a", "b"], ["x", "x", "y"]])
        assert plane.encode(b) == ((0, 2),)
        assert plane.decode(plane.encode(b)) == (((2, 1), 2),)

    @given(small_bucketizations)
    @settings(max_examples=40, deadline=None)
    def test_encode_decode_round_trip(self, bucketization):
        plane = SignaturePlane()
        key = plane.encode(bucketization)
        assert plane.encode_counts(plane.decode(key)) == key
        # A different plane re-interns to (possibly) different ids but the
        # decoded raw multiset is identical.
        other = SignaturePlane()
        other.intern((99,))  # shift id assignment
        assert other.decode(other.encode(bucketization)) == plane.decode(key)

    @given(small_bucketizations)
    @settings(max_examples=25, deadline=None)
    def test_synthetic_rebuild_is_evaluation_equivalent(self, bucketization):
        rebuilt = Bucketization.from_signature_counts(
            dict(bucketization.signature_items())
        )
        assert rebuilt.signature_items() == bucketization.signature_items()
        ks = [0, 1, 2]
        for exact in (False, True):
            engine = DisclosureEngine(exact=exact)
            fresh = DisclosureEngine(exact=exact)
            for model in DECOMPOSABLE:
                assert engine.series(
                    bucketization, ks, model=model
                ) == fresh.series(rebuilt, ks, model=model)

    def test_bucket_from_signature_validates(self):
        assert Bucket.from_signature((3, 2, 2)).signature == (3, 2, 2)
        with pytest.raises(ValueError):
            Bucket.from_signature((1, 2))

    def test_from_signature_counts_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Bucketization.from_signature_counts({(2, 1): 0})

    @pytest.mark.parametrize(
        "counts, error",
        [
            ({(2, 0): 1}, ValueError),  # non-positive entries
            ({(2, -1): 1}, ValueError),
            ({(0,): 1}, ValueError),
            ({(1, 2): 1}, ValueError),  # increasing
            ({(2, 1): -1}, ValueError),  # negative multiplicity
            ({(): 1}, EmptyTableError),  # empty signature
            ({}, EmptyTableError),  # empty mapping
            ([], EmptyTableError),
        ],
    )
    def test_from_signature_counts_validates_before_deferring(
        self, counts, error, bucket_builds
    ):
        with pytest.raises(error):
            Bucketization.from_signature_counts(counts)
        assert bucket_builds[0] == 0


class TestSignaturesSince:
    """The delta contract behind the persistent backend's plane mirrors:
    a mirror that has replayed the first ``start`` signatures agrees with
    the source plane on every id below ``start``, and appending
    ``signatures_since(start)`` in order extends the agreement."""

    def test_empty_plane_and_caught_up_mirror_yield_empty_delta(self):
        plane = SignaturePlane()
        assert plane.signatures_since(0) == ()
        plane.intern((2, 1))
        plane.intern((3,))
        assert plane.signatures_since(len(plane)) == ()
        # Re-interning known signatures assigns no new ids: still empty.
        plane.intern((2, 1))
        assert plane.signatures_since(2) == ()

    def test_delta_replay_catches_a_mirror_up(self):
        source = SignaturePlane()
        mirror = SignaturePlane()
        for sig in ((2, 1), (3,), (1, 1, 1)):
            source.intern(sig)
        for sig in source.signatures_since(0):
            mirror.intern(sig)
        baseline = len(mirror)
        source.intern((3,))  # known: no delta growth
        source.intern((4, 4))
        source.intern((5,))
        delta = source.signatures_since(baseline)
        assert delta == ((4, 4), (5,))
        for sig in delta:
            mirror.intern(sig)
        assert len(mirror) == len(source)
        assert all(
            mirror.signature(i) == source.signature(i)
            for i in range(len(source))
        )

    def test_interleaved_interning_from_two_engines(self):
        """Two engines intern overlapping signatures in different orders;
        each plane's delta stream replays into an id-exact mirror of *that*
        plane, even though the shared signatures carry different ids in the
        two planes."""
        shared = Bucketization.from_value_lists([["a", "a", "b"]])
        only_one = Bucketization.from_value_lists([["x", "y", "z"]])
        only_two = Bucketization.from_value_lists([["p", "p", "q", "q"]])
        one, two = DisclosureEngine(), DisclosureEngine()
        mirrors = {id(one): SignaturePlane(), id(two): SignaturePlane()}
        baselines = {id(one): 0, id(two): 0}

        def sync(engine):
            mirror = mirrors[id(engine)]
            for sig in engine.plane.signatures_since(baselines[id(engine)]):
                mirror.intern(sig)
            baselines[id(engine)] = len(engine.plane)

        # Interleave: one sees its private shapes first, two sees shared
        # first — the id orders diverge but each delta stream is faithful.
        one.evaluate(only_one, 1)
        sync(one)
        two.evaluate(shared, 1)
        sync(two)
        one.evaluate(shared, 1)
        two.evaluate(only_two, 1)
        sync(one)
        sync(two)

        for engine in (one, two):
            mirror = mirrors[id(engine)]
            assert len(mirror) == len(engine.plane)
            assert all(
                mirror.signature(i) == engine.plane.signature(i)
                for i in range(len(engine.plane))
            )
        # The shared signature exists in both planes under different ids.
        shared_sig = (2, 1)
        assert shared_sig in one.plane and shared_sig in two.plane
        assert one.plane.intern(shared_sig) != two.plane.intern(shared_sig)

    def test_post_load_cache_baseline_excludes_loaded_signatures(
        self, tmp_path
    ):
        """A worker spawned after ``load_cache`` snapshots its baseline at
        the warm plane's length: the first delta it ships contains only
        signatures interned *after* the load, never the reloaded corpus."""
        warm_b = _random_bucketizations(4, seed=3)
        donor = DisclosureEngine()
        donor.evaluate_many(warm_b, [1] * len(warm_b))
        path = tmp_path / "warm.pkl"
        donor.save_cache(path)

        engine = DisclosureEngine()
        assert engine.load_cache(path) > 0
        baseline = len(engine.plane)
        assert baseline == len(donor.plane)
        assert engine.plane.signatures_since(baseline) == ()

        engine.evaluate(warm_b[0], 1)  # already loaded: no new ids
        assert engine.plane.signatures_since(baseline) == ()
        fresh = Bucketization.from_value_lists([["n1", "n2", "n2", "n3"]])
        engine.evaluate(fresh, 2)
        delta = engine.plane.signatures_since(baseline)
        assert delta and all(
            sig not in donor.plane for sig in delta
        )


# ---------------------------------------------------------------------------
# 2. Parallel == serial
# ---------------------------------------------------------------------------
class TestParallelEvaluateMany:
    def test_parallel_equals_serial_bit_for_bit(self):
        """On a set of random bucketizations, the parallel path returns
        exactly the serial result for every decomposable model, float and
        exact."""
        bucketizations = _random_bucketizations(10)
        ks = [0, 1, 2, 3]
        for exact in (False, True):
            for model in DECOMPOSABLE:
                serial = DisclosureEngine(exact=exact).evaluate_many(
                    bucketizations, ks, model=model
                )
                with DisclosureEngine(exact=exact, workers=2) as parallel_engine:
                    parallel = parallel_engine.evaluate_many(
                        bucketizations, ks, model=model
                    )
                assert parallel == serial, (model, exact)
                assert parallel_engine.stats.parallel_tasks > 0

    def test_warm_back_populates_shared_cache(self):
        bucketizations = _random_bucketizations(6, seed=3)
        ks = [1, 2]
        with DisclosureEngine(workers=2) as engine:
            engine.evaluate_many(bucketizations, ks)
            # Everything the assembly looked up arrived via warm-back.
            assert engine.stats.misses == 0
            hits = engine.stats.cache_hits
            # Nothing is left uncached, so the rerun stays in-process.
            engine.evaluate_many(bucketizations, ks)
            assert engine.stats.misses == 0
            assert engine.stats.cache_hits > hits

    def test_non_decomposable_model_falls_back_to_serial(self):
        bucketizations = _random_bucketizations(4, seed=5)
        model = SamplingAdversary(samples=200, seed=1)
        assert not model.signature_decomposable()
        with DisclosureEngine(workers=2) as engine:
            parallel = engine.evaluate_many(bucketizations, [1], model=model)
        assert engine.stats.parallel_tasks == 0  # never reached a worker
        serial = DisclosureEngine().evaluate_many(
            bucketizations, [1], model=model
        )
        assert parallel == serial

    def test_tight_cache_limit_still_uses_pool_results(self):
        """A max_entries smaller than the batch must not force serial
        recomputation: the assembly serves the workers' own results even
        after warm-back entries were evicted."""
        bucketizations = _random_bucketizations(12, seed=41)
        ks = [2, 3]
        serial = DisclosureEngine().evaluate_many(bucketizations, ks)
        with DisclosureEngine(
            policy=CachePolicy(max_entries=3), workers=2
        ) as engine:
            result = engine.evaluate_many(bucketizations, ks)
        assert result == serial
        assert engine.cache_size() <= 3
        assert engine.stats.parallel_tasks > 0
        # Every lookup was answered from the workers' shared results, not
        # recomputed serially after eviction.
        assert engine.stats.misses == 0

    def test_workers_one_never_uses_pool(self):
        engine = DisclosureEngine(workers=1)
        engine.evaluate_many(_random_bucketizations(4, seed=9), [1, 2])
        assert engine.stats.parallel_tasks == 0

    def test_unpicklable_plugin_degrades_to_serial(self):
        """A model defined in a local scope cannot cross process boundaries;
        evaluate_many must still answer (serially)."""
        implication = get_adversary("implication")

        class LocalModel(type(implication)):  # unpicklable: local class
            name = "implication"  # reuse registered name; not re-registered

        model = LocalModel()
        bucketizations = _random_bucketizations(4, seed=2)
        with DisclosureEngine(workers=2) as engine:
            result = engine.evaluate_many(bucketizations, [1], model=model)
        serial = DisclosureEngine().evaluate_many(bucketizations, [1])
        assert result == serial


# ---------------------------------------------------------------------------
# 3. Cache policy: LRU bound, eviction stats, pinning
# ---------------------------------------------------------------------------
class TestCachePolicy:
    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            CachePolicy(max_entries=0)

    def test_lru_bound_and_eviction_stats(self):
        bucketizations = _random_bucketizations(8, seed=13)
        engine = DisclosureEngine(policy=CachePolicy(max_entries=3))
        for b in bucketizations:
            engine.evaluate(b, 2)
        assert engine.cache_size() <= 3
        assert engine.stats.evictions > 0
        assert (
            engine.stats.evictions
            == engine.stats.misses - engine.cache_size()
        )

    def test_lru_evicts_least_recently_used(self):
        b1, b2, b3 = (
            Bucketization.from_value_lists([["a"] * n + ["b"]])
            for n in (1, 2, 3)
        )
        engine = DisclosureEngine(policy=CachePolicy(max_entries=2))
        engine.evaluate(b1, 1)
        engine.evaluate(b2, 1)
        engine.evaluate(b1, 1)  # refresh b1: b2 is now LRU
        engine.evaluate(b3, 1)  # evicts b2
        misses = engine.stats.misses
        engine.evaluate(b1, 1)  # still cached
        assert engine.stats.misses == misses
        engine.evaluate(b2, 1)  # was evicted: recomputed
        assert engine.stats.misses == misses + 1

    def test_pinned_entries_survive_eviction(self):
        bucketizations = _random_bucketizations(8, seed=17)
        engine = DisclosureEngine(policy=CachePolicy(max_entries=2))
        keep = bucketizations[0]
        with engine.pinned():
            engine.evaluate(keep, 1)
        assert engine.pinned_count() == 1
        for b in bucketizations[1:]:
            engine.evaluate(b, 1)
        misses = engine.stats.misses
        engine.evaluate(keep, 1)  # pinned: still a hit despite churn
        assert engine.stats.misses == misses
        engine.unpin_all()
        assert engine.pinned_count() == 0

    @requires_numpy
    def test_pin_sweeps_policy_pins_lattice_entries(self):
        table = default_adult_table(200)
        from repro.data.adult import ADULT_SCHEMA
        from repro.data.hierarchies import adult_hierarchies
        from repro.generalization.lattice import GeneralizationLattice

        lattice = GeneralizationLattice(
            adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
        )
        engine = DisclosureEngine(
            policy=CachePolicy(max_entries=100, pin_sweeps=True)
        )
        engine.find_minimal_safe_nodes(table, lattice, 0.9, 2)
        assert engine.pinned_count() > 0

    @requires_numpy
    def test_pin_sweeps_covers_parallel_prewarm(self):
        """A pin_sweeps engine pins the sweep's whole cache fill: the
        entries survive churn, and a rerun of the sweep is all cache
        hits."""
        table = default_adult_table(200)
        from repro.data.adult import ADULT_SCHEMA
        from repro.data.hierarchies import adult_hierarchies
        from repro.generalization.lattice import GeneralizationLattice

        lattice = GeneralizationLattice(
            adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
        )
        engine = DisclosureEngine(
            policy=CachePolicy(max_entries=100, pin_sweeps=True)
        )
        result = engine.find_minimal_safe_nodes(table, lattice, 0.9, 2)
        assert engine.pinned_count() > 0
        # Churn with unpinned traffic: the sweep's entries must all survive.
        for b in _random_bucketizations(120, seed=31):
            engine.evaluate(b, 2)
        misses = engine.stats.misses
        rerun = engine.find_minimal_safe_nodes(table, lattice, 0.9, 2)
        assert rerun == result
        assert engine.stats.misses == misses  # pure cache hits

    @requires_numpy
    def test_bounded_fig6_sweep_respects_limit_and_reports_evictions(self):
        """The acceptance scenario: a full Figure-6 sweep under an entry
        limit finishes within bound, with evictions > 0 in EngineStats."""
        table = default_adult_table(250)
        limit = 25
        engine = DisclosureEngine(policy=CachePolicy(max_entries=limit))
        result = run_figure6(table, ks=(1, 3), engine=engine)
        assert len(result.nodes) == 72
        assert engine.cache_size() <= limit
        assert engine.stats.evictions > 0
        # And the bounded sweep computed the same numbers as an unbounded one.
        unbounded = run_figure6(table, ks=(1, 3))
        assert result.nodes == unbounded.nodes


# ---------------------------------------------------------------------------
# 4. Persistence
# ---------------------------------------------------------------------------
class TestCachePersistence:
    def test_round_trip_across_engines(self, tmp_path):
        bucketizations = _random_bucketizations(5, seed=23)
        source = DisclosureEngine()
        expected = source.evaluate_many(
            bucketizations, [1, 2], model="implication"
        )
        source.evaluate_many(bucketizations, [1], model="negation")
        path = tmp_path / "cache.pkl"
        saved = source.save_cache(path)
        assert saved == source.cache_size()

        fresh = DisclosureEngine()
        loaded = fresh.load_cache(path)
        assert loaded == saved
        # Every lookup is now a hit, and values are identical.
        result = fresh.evaluate_many(
            bucketizations, [1, 2], model="implication"
        )
        assert result == expected
        assert fresh.stats.misses == 0

    def test_load_respects_cache_policy(self, tmp_path):
        bucketizations = _random_bucketizations(6, seed=29)
        source = DisclosureEngine()
        source.evaluate_many(bucketizations, [1, 2])
        path = tmp_path / "cache.pkl"
        source.save_cache(path)
        bounded = DisclosureEngine(policy=CachePolicy(max_entries=4))
        bounded.load_cache(path)
        assert bounded.cache_size() <= 4
        assert bounded.stats.evictions > 0

    def test_exact_mode_mismatch_rejected(self, tmp_path):
        b = Bucketization.from_value_lists([["a", "a", "b"]])
        source = DisclosureEngine(exact=True)
        source.evaluate(b, 1)
        path = tmp_path / "cache.pkl"
        source.save_cache(path)
        with pytest.raises(ValueError, match="exact"):
            DisclosureEngine(exact=False).load_cache(path)

    def test_format_version_checked(self, tmp_path):
        import pickle

        path = tmp_path / "cache.pkl"
        with open(path, "wb") as handle:
            pickle.dump({"format": 999, "exact": False, "entries": []}, handle)
        with pytest.raises(ValueError, match="format"):
            DisclosureEngine().load_cache(path)


# ---------------------------------------------------------------------------
# Consumers on the plane
# ---------------------------------------------------------------------------
@requires_numpy
class TestPlaneConsumers:
    def test_node_predicate_shares_signature_duplicates(self):
        """Two lattice nodes inducing the same signature multiset cost one
        threshold resolution (the predicate's signature memo)."""
        table = default_adult_table(150)
        from repro.data.adult import ADULT_SCHEMA
        from repro.data.hierarchies import adult_hierarchies
        from repro.generalization.lattice import GeneralizationLattice

        lattice = GeneralizationLattice(
            adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
        )
        engine = DisclosureEngine()
        predicate = engine.node_predicate(table, lattice, 0.9, 2)
        results = {node: predicate(node) for node in lattice.nodes()}
        # Consistency with direct evaluation.
        from repro.generalization.apply import bucketize_at

        threshold = engine.threshold(0.9)
        for node, safe in results.items():
            value = engine.evaluate(bucketize_at(table, lattice, node), 2)
            assert safe == (value < threshold)

    def test_parallel_search_prewarm_matches_serial(self):
        """A sweep on an engine with workers answers as a serial engine
        does, and sends no batch to the workers."""
        table = default_adult_table(150)
        from repro.data.adult import ADULT_SCHEMA
        from repro.data.hierarchies import adult_hierarchies
        from repro.generalization.lattice import GeneralizationLattice

        lattice = GeneralizationLattice(
            adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
        )
        serial = DisclosureEngine().find_minimal_safe_nodes(
            table, lattice, 0.8, 2
        )
        with DisclosureEngine(workers=2) as parallel_engine:
            parallel = parallel_engine.find_minimal_safe_nodes(
                table, lattice, 0.8, 2
            )
        assert parallel == serial
        assert parallel_engine.stats.parallel_tasks == 0

    def test_search_prewarm_skipped_for_non_decomposable_models(self):
        """An engine with workers keeps the ordinary pruned serial sweep
        for a non-decomposable model, not evaluating every node."""
        table = default_adult_table(100)
        from repro.data.adult import ADULT_SCHEMA
        from repro.data.hierarchies import adult_hierarchies
        from repro.generalization.lattice import GeneralizationLattice
        from repro.generalization.search import SearchStats

        lattice = GeneralizationLattice(
            adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
        )
        model = SamplingAdversary(samples=100, seed=0)
        stats = SearchStats()
        with DisclosureEngine(workers=2) as engine:
            engine.find_minimal_safe_nodes(
                table, lattice, 0.95, 1, model=model, stats=stats
            )
        assert engine.stats.parallel_tasks == 0  # no worker ever used
        # Pruning intact: the sweep did not evaluate the whole lattice.
        assert engine.stats.evaluations < lattice.size

    def test_fig6_parallel_matches_serial(self):
        table = default_adult_table(150)
        serial = run_figure6(table, ks=(1, 3))
        with DisclosureEngine(workers=2) as engine:
            parallel = run_figure6(table, ks=(1, 3), engine=engine)
        assert parallel.nodes == serial.nodes
        assert engine.stats.parallel_tasks > 0

    def test_fig6_with_workers_encodes_each_node_once(
        self, small_adult, monkeypatch
    ):
        """An engine with workers encodes each of the 72 nodes on the
        signature plane once, as an in-process engine does: the fan-out
        and the assembly share one key per bucketization."""
        calls = [0]
        encode = SignaturePlane.encode

        def counting(plane, bucketization):
            calls[0] += 1
            return encode(plane, bucketization)

        monkeypatch.setattr(SignaturePlane, "encode", counting)
        serial = run_figure6(small_adult, engine=DisclosureEngine())
        serial_calls, calls[0] = calls[0], 0
        with DisclosureEngine(workers=2) as engine:
            parallel = run_figure6(small_adult, engine=engine)
        assert engine.stats.parallel_tasks > 0
        assert serial_calls == calls[0] == 72
        assert parallel == serial

    def test_fig6_own_engine_leaves_no_workers(self):
        """Without an engine passed, run_figure6 sweeps in-process on a
        default engine of its own and starts no process."""
        import multiprocessing

        table = default_adult_table(150)
        before = set(multiprocessing.active_children())
        run_figure6(table, ks=(1, 3))
        assert set(multiprocessing.active_children()) <= before
