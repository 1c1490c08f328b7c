"""The unified adversary-model engine.

Three layers of guarantees:

1. **Registry**: the five built-in models are registered; lookups and
   registration errors behave.
2. **Model/legacy agreement** (property-based): every registered model,
   evaluated through the engine, returns *exactly* what its legacy function
   returns — on random bucketizations and on the paper's Figure 3 fixture,
   in float and (where supported) exact mode.
3. **Engine semantics**: the shared cache (one dict across models), batch
   APIs, uniform witnesses, safety/breach wrappers, and the rewired
   consumers (SafetyChecker, suppression, lattice search).
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bucketization import Bucketization, suppress_to_safety
from repro.core.disclosure import max_disclosure, max_disclosure_series
from repro.core.negation import (
    NegationWitness,
    max_disclosure_negations,
    negation_witness,
)
from repro.core.probabilistic import max_jeffrey_disclosure_single
from repro.core.safety import SafetyChecker, is_ck_safe
from repro.core.sampling import sample_disclosure_risk
from repro.core.weighted import weighted_negation_disclosure
from repro.core.witness import WorstCaseWitness, worst_case_witness
from repro.engine import (
    AdversaryModel,
    DisclosureEngine,
    ProbabilisticAdversary,
    SamplingAdversary,
    WeightedAdversary,
    available_adversaries,
    get_adversary,
    register_adversary,
)
from repro.engine import engine as engine_module
from repro.errors import SearchError, UnknownAdversaryError
from repro.generalization.apply import bucketize_at

# ---------------------------------------------------------------------------
# Strategies (mirroring tests/test_properties.py)
# ---------------------------------------------------------------------------
small_bucketizations = st.lists(
    st.lists(st.sampled_from("abcde"), min_size=1, max_size=6),
    min_size=1,
    max_size=4,
).map(Bucketization.from_value_lists)

tiny_bucketizations = (
    st.lists(
        st.lists(st.sampled_from("abc"), min_size=1, max_size=3),
        min_size=1,
        max_size=2,
    )
    .filter(lambda lists: sum(len(x) for x in lists) <= 5)
    .map(Bucketization.from_value_lists)
)

small_k = st.integers(min_value=0, max_value=3)


@pytest.fixture
def engine() -> DisclosureEngine:
    return DisclosureEngine()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_adversaries()) >= {
            "implication",
            "negation",
            "weighted",
            "probabilistic",
            "sampling",
        }

    def test_get_adversary_by_name_and_instance(self):
        model = get_adversary("negation")
        assert model.name == "negation"
        assert get_adversary(model) is model

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownAdversaryError, match="registered models"):
            get_adversary("telepathy")

    def test_params_forwarded(self):
        model = get_adversary("sampling", samples=10, seed=3)
        assert (model.samples, model.seed) == (10, 3)

    def test_duplicate_name_rejected(self):
        class Rogue(AdversaryModel):
            name = "negation"

            def disclosure(self, bucketization, k, *, context):
                return 0.0  # pragma: no cover

        with pytest.raises(ValueError, match="already registered"):
            register_adversary(Rogue)

    def test_registration_requires_name(self):
        class Nameless(AdversaryModel):
            def disclosure(self, bucketization, k, *, context):
                return 0.0  # pragma: no cover

        with pytest.raises(ValueError, match="name"):
            register_adversary(Nameless)


# ---------------------------------------------------------------------------
# Model/legacy agreement
# ---------------------------------------------------------------------------
class TestLegacyAgreement:
    @settings(max_examples=25, deadline=None)
    @given(b=small_bucketizations, k=small_k)
    def test_implication_matches_max_disclosure(self, b, k):
        assert DisclosureEngine().evaluate(b, k) == max_disclosure(b, k)
        assert DisclosureEngine(exact=True).evaluate(b, k) == max_disclosure(
            b, k, exact=True
        )

    @settings(max_examples=25, deadline=None)
    @given(b=small_bucketizations, k=small_k)
    def test_negation_matches_max_disclosure_negations(self, b, k):
        assert DisclosureEngine().evaluate(
            b, k, model="negation"
        ) == max_disclosure_negations(b, k)
        assert DisclosureEngine(exact=True).evaluate(
            b, k, model="negation"
        ) == max_disclosure_negations(b, k, exact=True)

    @settings(max_examples=25, deadline=None)
    @given(
        b=small_bucketizations,
        k=small_k,
        wa=st.floats(min_value=0.1, max_value=5),
        wb=st.floats(min_value=0.1, max_value=5),
    )
    def test_weighted_matches_weighted_negation(self, b, k, wa, wb):
        weights = {"a": wa, "b": wb}
        model = WeightedAdversary(weights)
        assert DisclosureEngine().evaluate(
            b, k, model=model
        ) == weighted_negation_disclosure(b, k, weights)

    @settings(max_examples=10, deadline=None)
    @given(
        b=tiny_bucketizations,
        q=st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(9, 10), Fraction(1)]),
    )
    def test_probabilistic_matches_jeffrey(self, b, q):
        model = ProbabilisticAdversary(confidence=q)
        assert DisclosureEngine(exact=True).evaluate(
            b, 1, model=model
        ) == max_jeffrey_disclosure_single(b, q)

    @settings(max_examples=10, deadline=None)
    @given(b=small_bucketizations)
    def test_sampling_matches_sample_disclosure_risk(self, b):
        model = SamplingAdversary(samples=300, seed=11)
        expected = sample_disclosure_risk(b, None, samples=300, seed=11)
        assert DisclosureEngine().evaluate(b, 0, model=model) == expected.estimate

    def test_sampling_k_conditions_on_negation_witness(self, figure3):
        model = SamplingAdversary(samples=500, seed=5)
        witness = negation_witness(figure3, 2)
        negated = frozenset(witness.negated_values)
        expected = sample_disclosure_risk(
            figure3,
            lambda world: world[witness.person] not in negated,
            samples=500,
            seed=5,
        )
        value = DisclosureEngine().evaluate(figure3, 2, model=model)
        assert value == expected.estimate

    def test_figure3_byte_identical_both_modes(self, figure3):
        for exact in (False, True):
            engine = DisclosureEngine(exact=exact)
            for k in range(5):
                assert engine.evaluate(figure3, k) == max_disclosure(
                    figure3, k, exact=exact
                )
                assert engine.evaluate(
                    figure3, k, model="negation"
                ) == max_disclosure_negations(figure3, k, exact=exact)

    def test_weighted_uniform_default_equals_negation(self, figure3):
        engine = DisclosureEngine()
        for k in range(4):
            assert engine.evaluate(figure3, k, model="weighted") == pytest.approx(
                engine.evaluate(figure3, k, model="negation")
            )

    def test_exact_engine_returns_fractions(self, figure3):
        engine = DisclosureEngine(exact=True)
        assert isinstance(engine.evaluate(figure3, 2), Fraction)
        assert isinstance(engine.evaluate(figure3, 2, model="negation"), Fraction)
        tiny = Bucketization.from_value_lists([["a", "a", "b", "c"]])
        assert isinstance(
            engine.evaluate(tiny, 1, model="probabilistic"), Fraction
        )


# ---------------------------------------------------------------------------
# Engine semantics: cache, batching, uniform queries
# ---------------------------------------------------------------------------
class TestEngineCache:
    def test_hit_on_equal_signature_multiset(self, engine, figure3):
        clone = Bucketization.from_value_lists(
            [
                ["Flu", "Flu", "Breast Cancer", "Ovarian Cancer", "Heart Disease"],
                ["Flu", "Flu", "Lung Cancer", "Lung Cancer", "Mumps"],
            ]
        )
        engine.evaluate(figure3, 2)
        assert engine.stats.cache_hits == 0
        engine.evaluate(clone, 2)
        assert engine.stats.cache_hits == 1
        assert engine.stats.evaluations == 2

    def test_cache_shared_across_models_not_per_model(self, engine):
        clone = Bucketization.from_value_lists(
            [list("aabbc"), list("aabcd")]
        )
        original = Bucketization.from_value_lists(
            [list("aabcd"), list("aabbc")]
        )
        for model in ("implication", "negation", "weighted"):
            engine.evaluate(original, 1, model=model)
        assert engine.stats.cache_hits == 0
        for model in ("implication", "negation", "weighted"):
            engine.evaluate(clone, 1, model=model)
        # One hit per model from one shared dict: same key structure,
        # disjoint per-model entries, no per-model caches.
        assert engine.stats.cache_hits == 3
        assert engine.cache_size() == 3

    def test_models_never_share_values(self, engine, figure3):
        implication = engine.evaluate(figure3, 0)
        negation = engine.evaluate(figure3, 0, model="negation")
        assert implication == negation  # k=0 coincides...
        sampled = engine.evaluate(figure3, 0, model="sampling")
        assert sampled != implication  # ...but the estimator stays distinct

    def test_weighted_cache_distinguishes_value_content(self, engine):
        # Same signature multiset {(2,1)}, different values: non-uniform
        # weights make the answers differ, so they must not share an entry.
        weights = {"hiv": 10.0}
        model = WeightedAdversary(weights)
        cheap = Bucketization.from_value_lists([["flu", "flu", "cold"]])
        costly = Bucketization.from_value_lists([["hiv", "hiv", "cold"]])
        assert engine.evaluate(cheap, 1, model=model) == pytest.approx(1.0)
        assert engine.evaluate(costly, 1, model=model) == pytest.approx(10.0)
        assert engine.stats.cache_hits == 0
        # Uniform weights still coalesce by shape.
        uniform = WeightedAdversary()
        engine.evaluate(cheap, 1, model=uniform)
        engine.evaluate(costly, 1, model=uniform)
        assert engine.stats.cache_hits == 1

    def test_differently_parameterized_models_distinct(self, engine, figure3):
        a = engine.evaluate(figure3, 1, model=SamplingAdversary(samples=100, seed=0))
        b = engine.evaluate(figure3, 1, model=SamplingAdversary(samples=100, seed=1))
        assert engine.stats.cache_hits == 0
        assert a != b

    def test_save_cache_is_atomic(self, tmp_path, figure3, monkeypatch):
        """A crash mid-dump leaves the previous file whole and loadable,
        and no temporary file behind."""
        path = tmp_path / "cache.pkl"
        engine = DisclosureEngine(backend="serial")
        engine.series(figure3, range(3))
        assert engine.save_cache(path) == 3
        engine.series(figure3, range(3, 6))

        def crash(obj, handle, protocol=None):
            handle.write(b"\x80\x05partial")
            raise OSError("disk full")

        monkeypatch.setattr(engine_module.pickle, "dump", crash)
        with pytest.raises(OSError, match="disk full"):
            engine.save_cache(path)
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.pkl"]
        restored = DisclosureEngine(backend="serial")
        assert restored.load_cache(path) == 3
        assert restored.series(figure3, range(3)) == engine.series(
            figure3, range(3)
        )
        assert restored.stats.cache_hits == 3

    def test_series_fills_cache_for_single_evaluations(self, engine, figure3):
        series = engine.series(figure3, range(5))
        assert engine.stats.cache_hits == 0
        for k in range(5):
            assert engine.evaluate(figure3, k) == series[k]
        assert engine.stats.cache_hits == 5

    def test_two_epoch_lattice_sweep(self, engine, small_adult, adult_lattice):
        """The 72 Adult lattice nodes swept twice by three models: the first
        epoch computes each (model, signature multiset, k) once, the second
        is all cache hits, and a fresh engine per node (no hits) gets the
        same values."""
        models, ks = ("implication", "negation", "weighted"), (1, 3, 5)
        bs = [
            bucketize_at(small_adult, adult_lattice, node)
            for node in adult_lattice.nodes()
        ]
        lookups = len(models) * len(ks) * len(bs)
        first = [engine.evaluate_many(bs, ks, model=m) for m in models]
        hits = engine.stats.cache_hits
        assert [engine.evaluate_many(bs, ks, model=m) for m in models] == first
        assert engine.stats.evaluations == 2 * lookups
        assert engine.stats.cache_hits - hits == lookups
        multisets = {frozenset(b.signature_multiset().items()) for b in bs}
        assert engine.stats.misses == len(models) * len(ks) * len(multisets)
        assert engine.stats.hit_rate >= 0.5
        for b, *series in zip(bs, *first):
            cold = DisclosureEngine()
            assert [cold.series(b, ks, model=m) for m in models] == series
            assert cold.stats.cache_hits == 0
            assert cold.stats.evaluations == len(models) * len(ks)


class TestEngineBatch:
    def test_series_matches_legacy_series(self, engine, figure3):
        assert engine.series(figure3, range(6)) == max_disclosure_series(
            figure3, range(6)
        )

    def test_series_partial_cache_merge(self, engine, figure3):
        engine.evaluate(figure3, 2)
        series = engine.series(figure3, [0, 2, 4])
        assert engine.stats.cache_hits == 1
        assert series == max_disclosure_series(figure3, [0, 2, 4])

    def test_evaluate_many(self, engine, figure3):
        other = Bucketization.from_value_lists([list("aabbccdd")])
        results = engine.evaluate_many([figure3, other], [0, 1, 2])
        assert results[0] == max_disclosure_series(figure3, [0, 1, 2])
        assert results[1] == max_disclosure_series(other, [0, 1, 2])

    def test_compare_is_figure5(self, engine, figure3):
        comparison = engine.compare(figure3, range(4))
        assert set(comparison) == {"implication", "negation"}
        for k in range(4):
            assert comparison["implication"][k] == max_disclosure(figure3, k)
            assert comparison["negation"][k] == max_disclosure_negations(
                figure3, k
            )

    def test_series_rejects_negative_k(self, engine, figure3):
        with pytest.raises(ValueError):
            engine.series(figure3, [-1, 0])

    def test_series_keys_ascend_in_every_cache_state(self, figure3):
        """Whatever subset of ``ks`` is cached beforehand, the series comes
        back in ascending ``k`` order — the order the wire encodes, so one
        request body always gets one byte string."""
        ks = [3, 0, 2, 1]
        for mask in range(1 << len(ks)):
            engine = DisclosureEngine(backend="serial")
            for bit, k in enumerate(ks):
                if mask >> bit & 1:
                    engine.evaluate(figure3, k)
            assert list(engine.series(figure3, ks)) == [0, 1, 2, 3]
            (many,) = engine.evaluate_many([figure3], ks)
            assert list(many) == [0, 1, 2, 3]
            for series in engine.compare(figure3, ks).values():
                assert list(series) == [0, 1, 2, 3]


class TestEngineQueries:
    def test_witness_uniform_disclosure_attribute(self, engine, figure3):
        implication = engine.witness(figure3, 2)
        negation = engine.witness(figure3, 2, model="negation")
        assert isinstance(implication, WorstCaseWitness)
        assert isinstance(negation, NegationWitness)
        assert implication.disclosure == worst_case_witness(figure3, 2).disclosure
        assert negation.disclosure == negation_witness(figure3, 2).disclosure

    def test_witness_unsupported_model_raises(self, engine, figure3):
        with pytest.raises(NotImplementedError, match="sampling"):
            engine.witness(figure3, 1, model="sampling")

    def test_weighted_thresholds_use_cost_scale(self, engine):
        # Cost-weighted disclosure is not a probability: thresholds above 1
        # must be legal for this model (and still illegal for probability
        # models).
        model = WeightedAdversary({"hiv": 10.0})
        b = Bucketization.from_value_lists([["hiv", "hiv", "cold", "flu"]])
        assert not engine.is_safe(b, 5.0, 1, model=model)
        assert engine.is_safe(b, 12.0, 1, model=model)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            engine.is_safe(b, 5.0, 1, model="implication")
        checker = SafetyChecker(5.0, 1, model=model)
        assert not checker.is_safe(b)
        with pytest.raises(ValueError):
            SafetyChecker(5.0, 1)  # implication stays probability-bounded
        result = suppress_to_safety(b, 5.0, 1, model=model)
        assert result.bucketization is not None
        assert result.disclosure < 5.0

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("model", ["implication", "weighted"])
    def test_non_finite_threshold_rejected(self, engine, figure3, model, c):
        """NaN compares false with every value and no cost reaches +inf, so
        neither is a threshold, on either scale or in either arithmetic."""
        with pytest.raises(ValueError, match="threshold c must be in"):
            engine.is_safe(figure3, c, 1, model=model)
        with pytest.raises(ValueError, match="threshold c must be in"):
            DisclosureEngine(exact=True).threshold(c, model=model)

    def test_compare_disambiguates_parameterized_duplicates(self, engine, figure3):
        cheap = WeightedAdversary({"Flu": 2.0})
        costly = WeightedAdversary({"Flu": 5.0})
        comparison = engine.compare(figure3, [1], models=(cheap, costly))
        assert set(comparison) == {"weighted", "weighted#2"}
        assert comparison["weighted"][1] != comparison["weighted#2"][1]

    def test_is_safe_matches_is_ck_safe(self, engine, figure3):
        for c in (0.3, 0.5, 0.9, 1.0):
            for k in range(3):
                assert engine.is_safe(figure3, c, k) == is_ck_safe(figure3, c, k)

    def test_min_k_to_breach_matches_legacy(self, engine, figure3):
        from repro.core.disclosure import min_k_to_breach

        for level in (0.5, 0.9, 1.0):
            assert engine.min_k_to_breach(figure3, level) == min_k_to_breach(
                figure3, level
            )

    def test_min_k_to_breach_reads_the_multiset(self, bucket_builds):
        # The bound max_b (d_b - 1) comes from the signature multiset, so a
        # deferred bucketization is never built for it; answers unchanged.
        eager = Bucketization.from_value_lists(
            [list("abcd"), list("aabbccdde"), list("aaaabbc")]
        )
        deferred = Bucketization.from_signature_counts(eager.signature_items())
        for model in ("implication", "negation"):
            for level in (0.3, 0.5, 0.8, 1.0):
                expected = DisclosureEngine().min_k_to_breach(
                    eager, level, model=model
                )
                bucket_builds[0] = 0
                assert DisclosureEngine().min_k_to_breach(
                    deferred, level, model=model
                ) == expected
                assert bucket_builds[0] == 0

    def test_min_k_to_breach_unreachable_raises(self):
        # The probabilistic attacker's power is flat in k; a level above its
        # best cannot be breached and must say so instead of looping.
        tiny = Bucketization.from_value_lists([["a", "a", "b", "c"]])
        engine = DisclosureEngine(exact=True)
        model = ProbabilisticAdversary(confidence=Fraction(1, 2))
        best = max(engine.evaluate(tiny, k, model=model) for k in range(3))
        assert best < 1
        with pytest.raises(SearchError, match="never reaches"):
            engine.min_k_to_breach(tiny, 1.0, model=model)

    def test_worst_bucket_default_and_override(self, engine, figure3):
        # Men bucket (index 0) has the skewed histogram (2,2,1) over 5 people;
        # both models should point somewhere attaining the worst case.
        index = engine.worst_bucket(figure3, 1)
        single = Bucketization([figure3.buckets[index]])
        assert max_disclosure(single, 1) == max_disclosure(figure3, 1)
        index = engine.worst_bucket(figure3, 1, model="negation")
        single = Bucketization([figure3.buckets[index]])
        assert max_disclosure_negations(single, 1) == max_disclosure_negations(
            figure3, 1
        )


# ---------------------------------------------------------------------------
# Monotonicity under merging (what adversary-parametric lattice search needs)
# ---------------------------------------------------------------------------
class TestMergeMonotonicity:
    """Theorem 14 is proved for the implication family; the searches prune on
    the same property for whichever model they are given, so the built-in
    alternates must honour it too."""

    @settings(max_examples=30, deadline=None)
    @given(
        b=small_bucketizations,
        k=st.integers(min_value=0, max_value=4),
        data=st.data(),
    )
    def test_negation_monotone_under_merge(self, b, k, data):
        if len(b) < 2:
            coarser = b
        else:
            i = data.draw(st.integers(min_value=0, max_value=len(b) - 1))
            j = data.draw(st.integers(min_value=0, max_value=len(b) - 1))
            if i == j:
                j = (j + 1) % len(b)
            coarser = b.merge_buckets([i, j])
        assert max_disclosure_negations(
            coarser, k, exact=True
        ) <= max_disclosure_negations(b, k, exact=True)

    @settings(max_examples=20, deadline=None)
    @given(
        b=small_bucketizations,
        k=st.integers(min_value=0, max_value=3),
        data=st.data(),
    )
    def test_weighted_monotone_under_merge(self, b, k, data):
        weights = {"a": 2.0, "b": 0.5}
        if len(b) < 2:
            coarser = b
        else:
            i = data.draw(st.integers(min_value=0, max_value=len(b) - 1))
            j = data.draw(st.integers(min_value=0, max_value=len(b) - 1))
            if i == j:
                j = (j + 1) % len(b)
            coarser = b.merge_buckets([i, j])
        assert (
            weighted_negation_disclosure(coarser, k, weights)
            <= weighted_negation_disclosure(b, k, weights) + 1e-12
        )


# ---------------------------------------------------------------------------
# Exact/float mode resolution (the max_disclosure_series satellite fix)
# ---------------------------------------------------------------------------
class TestExactModeResolution:
    def test_series_exact_flag_yields_fractions(self, figure3):
        series = max_disclosure_series(figure3, range(4), exact=True)
        assert all(isinstance(v, Fraction) for v in series.values())
        for k in range(4):
            assert series[k] == max_disclosure(figure3, k, exact=True)

    def test_series_conflicting_solver_raises(self, figure3):
        from repro.core.minimize1 import Minimize1Solver

        float_solver = Minimize1Solver(exact=False)
        with pytest.raises(ValueError, match="conflicts"):
            max_disclosure_series(figure3, range(3), exact=True, solver=float_solver)

    def test_single_conflicting_solver_raises(self, figure3):
        from repro.core.minimize1 import Minimize1Solver

        exact_solver = Minimize1Solver(exact=True)
        with pytest.raises(ValueError, match="conflicts"):
            max_disclosure(figure3, 1, exact=False, solver=exact_solver)

    def test_min_ratio_table_conflicting_solver_raises(self, figure3):
        from repro.core.minimize1 import Minimize1Solver
        from repro.core.minimize2 import min_ratio_table

        signatures = [b.signature for b in figure3.buckets]
        float_solver = Minimize1Solver(exact=False)
        with pytest.raises(ValueError, match="conflicts"):
            min_ratio_table(signatures, 2, solver=float_solver, exact=True)
        table = min_ratio_table(signatures, 2, exact=True)
        assert all(isinstance(v, Fraction) for v in table)

    def test_default_inherits_solver_mode(self, figure3):
        from repro.core.minimize1 import Minimize1Solver

        exact_solver = Minimize1Solver(exact=True)
        value = max_disclosure(figure3, 1, solver=exact_solver)
        assert isinstance(value, Fraction)
        series = max_disclosure_series(figure3, range(3), solver=exact_solver)
        assert all(isinstance(v, Fraction) for v in series.values())

    @settings(max_examples=15, deadline=None)
    @given(b=small_bucketizations, k=small_k)
    def test_series_and_single_agree_in_exact_mode(self, b, k):
        series = max_disclosure_series(b, [k], exact=True)
        assert series[k] == max_disclosure(b, k, exact=True)


# ---------------------------------------------------------------------------
# Rewired consumers
# ---------------------------------------------------------------------------
class TestRewiredConsumers:
    def test_safety_checker_negation_model(self, figure3):
        checker = SafetyChecker(0.7, 2, model="negation")
        assert checker.disclosure(figure3) == max_disclosure_negations(figure3, 2)
        assert checker.is_safe(figure3) == (
            max_disclosure_negations(figure3, 2) < 0.7
        )

    def test_safety_checkers_share_engine_cache(self, figure3):
        engine = DisclosureEngine()
        first = SafetyChecker(0.7, 2, engine=engine)
        second = SafetyChecker(0.9, 2, engine=engine)
        first.disclosure(figure3)
        second.disclosure(figure3)
        assert second.cache_hits == 1  # same model, same k, same shapes

    def test_suppression_negation_model_reaches_safety(self):
        b = Bucketization.from_value_lists(
            [["flu"] * 4 + ["cold"], list("abcde")]
        )
        result = suppress_to_safety(b, 0.75, 1, model="negation")
        assert result.bucketization is not None
        assert max_disclosure_negations(result.bucketization, 1) < 0.75

    def test_suppression_default_matches_implication_model(self):
        b = Bucketization.from_value_lists(
            [["flu"] * 4 + ["cold"], list("abcde")]
        )
        default = suppress_to_safety(b, 0.75, 1)
        explicit = suppress_to_safety(b, 0.75, 1, model="implication")
        assert default.suppressed == explicit.suppressed
        assert default.disclosure == explicit.disclosure

    def test_engine_lattice_search(self, small_adult, adult_lattice):
        from repro.generalization.search import (
            SearchStats,
            find_minimal_safe_nodes,
            node_safety_predicate,
        )

        engine = DisclosureEngine()
        minimal = engine.find_minimal_safe_nodes(
            small_adult, adult_lattice, 0.9, 1, model="negation"
        )
        checker = SafetyChecker(0.9, 1, model="negation")
        stats = SearchStats()
        expected = find_minimal_safe_nodes(
            adult_lattice,
            node_safety_predicate(small_adult, adult_lattice, checker),
            stats=stats,
        )
        assert sorted(minimal) == sorted(expected)
        for node in minimal:
            from repro.generalization.apply import bucketize_at

            bucketization = bucketize_at(small_adult, adult_lattice, node)
            assert max_disclosure_negations(bucketization, 1) < 0.9

    def test_engine_binary_search_chain(self, small_adult, adult_lattice):
        engine = DisclosureEngine()
        bottom = (0,) * len(adult_lattice.attributes)
        top = adult_lattice.top
        chain = [bottom, top]
        node = engine.binary_search_chain(
            small_adult, adult_lattice, chain, 0.99, 1, model="negation"
        )
        assert node in chain

    def test_fig5_engine_param_and_identical_rows(self, small_adult):
        from repro.experiments.fig5 import run_figure5

        engine = DisclosureEngine()
        first = run_figure5(small_adult, ks=range(4), engine=engine)
        second = run_figure5(small_adult, ks=range(4))
        assert first.rows == second.rows
        assert engine.stats.cache_hits > 0 or engine.stats.evaluations > 0

    def test_fig5_fixture_byte_identical_to_legacy_both_modes(self, small_adult):
        from repro.core.negation import max_disclosure_negations_series
        from repro.data.adult import ADULT_SCHEMA
        from repro.data.hierarchies import adult_hierarchies
        from repro.experiments.fig5 import FIG5_NODE
        from repro.generalization.apply import bucketize_at
        from repro.generalization.lattice import GeneralizationLattice

        lattice = GeneralizationLattice(
            adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
        )
        bucketization = bucketize_at(small_adult, lattice, FIG5_NODE)
        ks = range(6)
        for exact in (False, True):
            engine = DisclosureEngine(exact=exact)
            comparison = engine.compare(bucketization, ks)
            assert comparison["implication"] == max_disclosure_series(
                bucketization, ks, exact=exact
            )
            assert comparison["negation"] == max_disclosure_negations_series(
                bucketization, ks, exact=exact
            )

    def test_fig6_model_param(self, small_adult):
        from repro.experiments.fig6 import run_figure6

        result = run_figure6(small_adult, ks=(1, 3), model="negation")
        assert set(result.ks) == {1, 3}
        for record in result.nodes:
            assert 0 < record.disclosure[1] <= record.disclosure[3] <= 1
