"""Buckets, bucketizations, and the Section-3.4 partial order."""

from __future__ import annotations

import math
import pickle
import sys
import threading
import time

import pytest

from repro.bucketization import Bucket, Bucketization
from repro.data.schema import Schema
from repro.data.table import Table
from repro.errors import EmptyTableError


class TestBucket:
    def test_paper_notation(self):
        b = Bucket.from_values(["Flu", "Flu", "Lung", "Lung", "Mumps"])
        assert b.size == 5
        assert b.frequency("Flu") == 2
        assert b.frequency("absent") == 0
        assert b.signature == (2, 2, 1)
        assert b.top_frequency == 2
        assert b.distinct_count == 3

    def test_values_by_frequency_deterministic_ties(self):
        b = Bucket.from_values(["b", "a", "a", "b"])
        # Equal counts break ties by repr: 'a' before 'b'.
        assert b.values_by_frequency == ("a", "b")

    def test_entropy(self):
        uniform = Bucket.from_values(["a", "b", "c", "d"])
        assert uniform.entropy() == pytest.approx(math.log(4))
        assert uniform.entropy(base=2) == pytest.approx(2.0)
        constant = Bucket.from_values(["a", "a"])
        assert constant.entropy() == 0.0

    def test_top_fraction(self):
        assert Bucket.from_values(["a", "a", "b"]).top_fraction() == pytest.approx(
            2 / 3
        )

    def test_merge(self):
        a = Bucket([0, 1], ["x", "y"])
        b = Bucket([2], ["x"])
        merged = a.merge(b)
        assert merged.size == 3 and merged.frequency("x") == 2

    def test_merge_rejects_shared_person(self):
        a = Bucket([0, 1], ["x", "y"])
        b = Bucket([1], ["x"])
        with pytest.raises(ValueError):
            a.merge(b)

    def test_validation(self):
        with pytest.raises(EmptyTableError):
            Bucket([], [])
        with pytest.raises(ValueError):
            Bucket([0, 1], ["x"])
        with pytest.raises(ValueError):
            Bucket([0, 0], ["x", "y"])

    def test_equality_uses_people_and_histogram(self):
        assert Bucket([0, 1], ["x", "y"]) == Bucket([0, 1], ["y", "x"])
        assert Bucket([0, 1], ["x", "y"]) != Bucket([0, 2], ["x", "y"])


class TestBucketization:
    def test_bucket_of(self, figure3):
        assert figure3.bucket_of("Ed").frequency("Mumps") == 1
        assert figure3.bucket_index_of("Karen") == 1

    def test_total_size_and_person_ids(self, figure3):
        assert figure3.total_size == 10
        assert len(figure3.person_ids) == 10

    def test_duplicate_person_rejected(self):
        with pytest.raises(ValueError):
            Bucketization([Bucket([0], ["x"]), Bucket([0], ["y"])])

    def test_empty_rejected(self):
        with pytest.raises(EmptyTableError):
            Bucketization([])

    def test_from_table_groups_by_qi(self):
        schema = Schema(("zip",), "d")
        table = Table(
            [
                {"zip": "1", "d": "x"},
                {"zip": "2", "d": "y"},
                {"zip": "1", "d": "z"},
            ],
            schema,
        )
        b = Bucketization.from_table(table)
        assert len(b) == 2
        assert b.bucket_of(0) is b.bucket_of(2)

    def test_from_value_lists_assigns_global_ids(self):
        b = Bucketization.from_value_lists([["x", "y"], ["z"]])
        assert b.buckets[0].person_ids == (0, 1)
        assert b.buckets[1].person_ids == (2,)

    def test_signature_multiset(self):
        b = Bucketization.from_value_lists([["x", "y"], ["a", "b"], ["c", "c"]])
        assert b.signature_multiset() == {(1, 1): 2, (2,): 1}

    def test_merge_buckets(self, figure3):
        merged = figure3.merge_buckets([0, 1])
        assert len(merged) == 1
        assert merged.total_size == 10
        assert figure3.refines(merged)
        assert not merged.refines(figure3)

    def test_merge_validation(self, figure3):
        with pytest.raises(ValueError):
            figure3.merge_buckets([0])
        with pytest.raises(IndexError):
            figure3.merge_buckets([0, 5])

    def test_refines_requires_same_people(self, figure3):
        other = Bucketization.from_value_lists([["x"]])
        with pytest.raises(ValueError):
            figure3.refines(other)

    def test_refines_reflexive(self, figure3):
        assert figure3.refines(figure3)

    def test_equality_ignores_bucket_order(self):
        a = Bucketization([Bucket([0], ["x"]), Bucket([1], ["y"])])
        b = Bucketization([Bucket([1], ["y"]), Bucket([0], ["x"])])
        assert a == b

    def test_equality_needs_equal_partitions(self):
        a = Bucketization([Bucket([0, 1], ["x", "x"]), Bucket([2], ["y"])])
        b = Bucketization([Bucket([0, 2], ["x", "x"]), Bucket([1], ["y"])])
        assert a != b
        assert a != Bucketization.from_value_lists([["x", "x"], ["y"], ["z"]])

    def test_equality_needs_equal_bucket_values(self):
        # Same partition and same signature multiset; two values swapped
        # between the buckets.
        a = Bucketization([Bucket([0, 1], ["x", "y"]), Bucket([2, 3], ["z", "w"])])
        b = Bucketization([Bucket([0, 1], ["x", "z"]), Bucket([2, 3], ["y", "w"])])
        assert a.partition_frozen() == b.partition_frozen()
        assert a.signature_items() == b.signature_items()
        assert a != b

    def test_deferred_equals_eager_reference(self):
        deferred = Bucketization.from_signature_counts({(2, 1): 1, (1,): 2})
        eager = Bucketization(
            [
                Bucket.from_signature((1,)),
                Bucket.from_signature((1,), start_id=1),
                Bucket.from_signature((2, 1), start_id=2),
            ]
        )
        assert deferred == eager
        assert eager == deferred

    def test_equality_is_linear_in_bucket_size(self):
        n = 20_000
        values = [f"v{i % 7}" for i in range(n)]
        a = Bucketization([Bucket(range(n), values)])
        b = Bucketization([Bucket(reversed(range(n)), reversed(values))])
        start = time.perf_counter()
        assert a == b
        assert time.perf_counter() - start < 1.0


class TestDeferredBuild:
    """Bucketizations from ``from_signature_counts`` (and lattice roll-ups,
    see ``test_apply_search.py``) build their buckets on first read."""

    def test_signature_items_build_nothing(self, bucket_builds):
        b = Bucketization.from_signature_counts({(2, 1): 2, (1,): 1})
        assert b.signature_items() == (((1,), 1), ((2, 1), 2))
        assert b.signature_multiset() == {(1,): 1, (2, 1): 2}
        assert bucket_builds[0] == 0
        assert [bucket.person_ids for bucket in b] == [
            (0,),
            (1, 2, 3),
            (4, 5, 6),
        ]
        assert bucket_builds[0] == 3
        assert len(b) == 3 and b.bucket_index_of(5) == 2 and b.total_size == 7
        assert bucket_builds[0] == 3  # built once

    def test_duplicate_signature_pairs_merge(self):
        b = Bucketization.from_signature_counts([((2, 1), 1), ((2, 1), 2)])
        assert b.signature_items() == (((2, 1), 3),)
        assert [bucket.signature for bucket in b] == [(2, 1)] * 3
        assert b.person_ids == tuple(range(9))

    def test_pickle_round_trip_builds(self):
        b = Bucketization.from_signature_counts({(3, 1): 2})
        clone = pickle.loads(pickle.dumps(b))
        assert clone == b
        assert clone.signature_items() == b.signature_items()

    def test_racing_threads_build_equal_state(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                b = Bucketization.from_signature_counts({(3, 2, 1): 40, (1,): 30})
                barrier = threading.Barrier(8)
                seen: list = []
                errors: list = []

                def read(b=b, barrier=barrier, seen=seen, errors=errors):
                    try:
                        barrier.wait(timeout=10)
                        seen.append((len(b), b.bucket_index_of(35), b.buckets))
                    except Exception as exc:  # recorded, asserted below
                        errors.append(exc)

                threads = [threading.Thread(target=read) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert len(seen) == 8
                assert all(entry == seen[0] for entry in seen)
                assert seen[0][:2] == (70, 30)
        finally:
            sys.setswitchinterval(interval)
