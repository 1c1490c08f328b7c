"""The vectorized float kernel: numpy == scalar to the ULP, exact as oracle.

The acceptance claims for :mod:`repro.core.kernel`:

1. **Exact-ULP equivalence** (property-based): the numpy MINIMIZE1 and
   MINIMIZE2 paths return *bit-identical* floats to the scalar float path
   on random signature multisets — including singleton buckets, ``k = 0``
   and ``m > n_b`` infeasible placements — and on every bucket signature
   of the 72 Adult lattice nodes, the same style of proof
   ``test_backend.py`` gives for serial == persistent. MINIMIZE2's backward
   pass, a plain float loop that needs no numpy, is compared with the
   scalar loop at every bucket position, since witnesses walk them.
2. **Oracle tolerance**: the vectorized float results stay within float
   round-off of the exact-Fraction oracle (which always runs scalar).
3. **Selector semantics**: ``resolve_kernel`` maps exact mode to scalar,
   ``auto`` to numpy only when available, and an explicit ``numpy`` request
   without numpy installed falls back to scalar with a one-time warning.
4. **Engine integration**: every backend ships the engine's resolved
   kernel, numpy and scalar engines agree bit-for-bit, and the kernel name
   is surfaced in ``EngineStats.as_dict()``.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bucketization import Bucketization
from repro.core import kernel
from repro.core.minimize1 import Minimize1Solver
from repro.core.minimize2 import MinRatioComputation, min_ratio_table
from repro.engine import DisclosureEngine
from repro.generalization.apply import bucketize_at

requires_numpy = pytest.mark.skipif(
    not kernel.numpy_available(), reason="numpy not installed"
)

#: A random bucket signature: positive counts, non-increasing.
signatures = st.lists(
    st.integers(min_value=1, max_value=7), min_size=1, max_size=5
).map(lambda counts: tuple(sorted(counts, reverse=True)))

signature_lists = st.lists(signatures, min_size=1, max_size=5)

#: Bucket signatures in runs of equal ones, singleton ``(1,)`` buckets among
#: them.
signature_runs = st.lists(
    st.tuples(st.one_of(st.just((1,)), signatures), st.integers(1, 3)),
    min_size=1,
    max_size=4,
).map(lambda runs: [sig for sig, count in runs for _ in range(count)])


def assert_backward_identical(sigs, k):
    """``kernel.min_ratio_backward`` on scalar MINIMIZE1 tables equals the
    scalar ``_times`` loop's ``(fa, ff)`` at every position, bit for bit."""
    solver = Minimize1Solver(kernel="scalar")
    reference = MinRatioComputation(sigs, k, solver)
    tables = solver.tables(sigs, k + 1)
    after = kernel.min_ratio_backward(tables, [sum(s) / s[0] for s in sigs], k)
    after.reverse()
    assert len(after) == len(sigs) + 1
    for position, (fa, ff) in enumerate(after):
        reference_fa, reference_ff = reference.tables_at(position)
        assert [x.hex() for x in fa] == [x.hex() for x in reference_fa], position
        assert [x.hex() for x in ff] == [x.hex() for x in reference_ff], position


@requires_numpy
class TestMinimize1Equivalence:
    @given(sig=signatures, max_m=st.integers(min_value=0, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_tables_bit_identical(self, sig, max_m):
        scalar = Minimize1Solver(kernel="scalar").table(sig, max_m)
        vector = Minimize1Solver(kernel="numpy").table(sig, max_m)
        assert vector == scalar  # exact float equality, not approx

    def test_singleton_bucket(self):
        # One person, one value: any m >= 1 forces probability 0.
        solver = Minimize1Solver(kernel="numpy")
        assert solver.table((1,), 4) == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_m_exceeding_bucket_size_matches_scalar(self):
        # m > n_b: feasible only by stacking atoms on few people; the
        # infeasible sub-placements (more people than tuples) must be
        # masked identically in both kernels.
        for sig in [(1,), (2,), (1, 1), (2, 1)]:
            n = sum(sig)
            scalar = Minimize1Solver(kernel="scalar").table(sig, n + 4)
            vector = Minimize1Solver(kernel="numpy").table(sig, n + 4)
            assert vector == scalar

    def test_m_zero_is_one(self):
        assert Minimize1Solver(kernel="numpy").minimum((3, 2), 0) == 1.0

    def test_batch_matches_per_signature(self):
        solver = Minimize1Solver(kernel="numpy")
        sigs = [(3, 2, 1), (1, 1), (5,), (3, 2, 1)]
        batch = solver.tables(sigs, 5)
        fresh = [Minimize1Solver(kernel="numpy").table(s, 5) for s in sigs]
        assert batch == fresh

    def test_wider_recompute_preserves_prefix(self):
        solver = Minimize1Solver(kernel="numpy")
        narrow = solver.table((4, 3, 2), 3)
        wide = solver.table((4, 3, 2), 7)
        assert wide[:4] == narrow

    def test_memo_accounting(self):
        solver = Minimize1Solver(kernel="numpy")
        solver.table((3, 2, 1), 6)
        size = solver.memo_size()
        solver.table((3, 2, 1), 6)  # cached: no growth
        assert solver.memo_size() == size
        assert solver.known_signatures() == 1


@requires_numpy
class TestMinimize2Equivalence:
    @given(sigs=signature_lists, k=st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_ratio_tables_bit_identical(self, sigs, k):
        scalar = min_ratio_table(sigs, k, kernel="scalar")
        vector = min_ratio_table(sigs, k, kernel="numpy")
        assert vector == scalar

    @given(sigs=signature_lists, k=st.integers(min_value=0, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_float_tracks_exact_oracle(self, sigs, k):
        vector = min_ratio_table(sigs, k, kernel="numpy")
        oracle = min_ratio_table(sigs, k, exact=True)
        for approx, exact in zip(vector, oracle):
            if exact == float("inf"):
                assert approx == float("inf")
            else:
                assert approx == pytest.approx(float(exact), abs=1e-9)

    def test_k0_single_bucket(self):
        assert min_ratio_table([(2, 2, 1)], 0, kernel="numpy")[0] == 1.5

    def test_dedupe_changes_nothing(self):
        sigs = [(2, 1)] * 7 + [(3, 3)] * 5
        with_dedupe = min_ratio_table(sigs, 3, kernel="numpy", dedupe=True)
        without = min_ratio_table(sigs, 3, kernel="numpy", dedupe=False)
        assert with_dedupe == without


@requires_numpy
def test_lattice_signatures_bit_identical(small_adult, adult_lattice):
    """The real workload, not random draws: every bucket signature of the
    72 Adult lattice nodes through both kernels, MINIMIZE1's batched tables
    at ``max_m`` 8 and each node's MINIMIZE2 table at ``max_k`` 5."""
    per_node = [
        [
            sig
            for sig, count in bucketize_at(
                small_adult, adult_lattice, node
            ).signature_items()
            for _ in range(count)
        ]
        for node in adult_lattice.nodes()
    ]
    assert len(per_node) == 72
    distinct = sorted({sig for sigs in per_node for sig in sigs})
    results = {
        kern: (
            Minimize1Solver(kernel=kern).tables(distinct, 8),
            [min_ratio_table(sigs, 5, kernel=kern) for sigs in per_node],
        )
        for kern in ("scalar", "numpy")
    }
    assert results["numpy"] == results["scalar"]


class TestMinimize2BackwardIdentity:
    """Runs with or without numpy: the backward pass is plain Python."""

    @given(sigs=signature_runs, k=st.integers(min_value=0, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_every_position_bit_identical(self, sigs, k):
        assert_backward_identical(sigs, k)

    @pytest.mark.parametrize("k", range(13))  # fig5's DEFAULT_KS
    def test_singletons_and_runs(self, k):
        sigs = [(1,), (1,), (3, 2, 1), (3, 2, 1), (3, 2, 1), (2, 2), (1,)]
        sigs += [(5,), (4, 1, 1, 1), (4, 1, 1, 1), (1,)]
        assert_backward_identical(sigs, k)


class TestKernelSelector:
    def test_exact_always_scalar(self):
        assert kernel.resolve_kernel("auto", exact=True) == "scalar"
        assert kernel.resolve_kernel("numpy", exact=True) == "scalar"
        assert Minimize1Solver(exact=True, kernel="numpy").kernel == "scalar"

    def test_scalar_request_honored(self):
        assert kernel.resolve_kernel("scalar") == "scalar"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            kernel.resolve_kernel("cuda")
        with pytest.raises(ValueError):
            Minimize1Solver(kernel="fast")

    @requires_numpy
    def test_auto_picks_numpy_when_available(self):
        assert kernel.resolve_kernel("auto") == "numpy"

    def test_missing_numpy_warns_once_then_falls_back(self, monkeypatch):
        monkeypatch.setattr(kernel, "_np", None)
        monkeypatch.setattr(kernel, "_np_checked", True)
        monkeypatch.setattr(kernel, "_warned_missing", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert kernel.resolve_kernel("numpy") == "scalar"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second request: silent
            assert kernel.resolve_kernel("numpy") == "scalar"
            assert kernel.resolve_kernel("auto") == "scalar"

    def test_scalar_fallback_still_computes(self, monkeypatch):
        monkeypatch.setattr(kernel, "_np", None)
        monkeypatch.setattr(kernel, "_np_checked", True)
        monkeypatch.setattr(kernel, "_warned_missing", True)
        solver = Minimize1Solver(kernel="numpy")
        assert solver.kernel == "scalar"
        assert solver.table((2, 2, 1), 2) == [1.0, 0.6, 0.2]


class TestEngineIntegration:
    def test_stats_surface_kernel(self):
        with DisclosureEngine(kernel="scalar") as engine:
            assert engine.kernel == "scalar"
            assert engine.stats.as_dict()["kernel"] == "scalar"

    def test_exact_engine_reports_scalar(self):
        with DisclosureEngine(exact=True, kernel="auto") as engine:
            assert engine.kernel == "scalar"

    @requires_numpy
    def test_numpy_engine_bit_identical_to_scalar(self):
        bs = [
            Bucketization.from_value_lists(rows)
            for rows in (
                [["a", "a", "b", "c"], ["x", "y"]],
                [["a", "a", "a", "b"]],
                [["p", "q", "r"], ["p", "p", "q", "q"]],
            )
        ]
        ks = [0, 1, 2, 3]
        with DisclosureEngine(kernel="scalar") as scalar_engine:
            with DisclosureEngine(kernel="numpy") as numpy_engine:
                assert numpy_engine.kernel == "numpy"
                for model in ("implication", "negation", "distribution"):
                    for b in bs:
                        assert numpy_engine.series(
                            b, ks, model=model
                        ) == scalar_engine.series(b, ks, model=model)

    @requires_numpy
    @pytest.mark.parametrize("backend", ["serial", "persistent"])
    def test_backends_honor_kernel_bit_identical(self, backend):
        bs = [
            Bucketization.from_value_lists([[c * (i % 3 + 1) for c in row]])
            for i, row in enumerate(
                [["a", "a", "b"], ["x", "y", "y", "z"], ["m", "n"]]
            )
        ]
        ks = [1, 2]
        with DisclosureEngine(kernel="numpy") as serial_engine:
            expected = [serial_engine.series(b, ks) for b in bs]
        with DisclosureEngine(
            kernel="numpy", backend=backend, workers=2
        ) as engine:
            assert engine.evaluate_many(bs, ks) == expected
