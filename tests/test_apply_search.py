"""Applying lattice nodes to tables, and the safe-node searches."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.bucketization import Bucketization
from repro.core.safety import SafetyChecker
from repro.data import ADULT_SCHEMA, Schema, Table, adult_hierarchies
from repro.engine import DisclosureEngine, get_adversary
from repro.errors import EmptyTableError, LatticeError, SearchError
from repro.generalization import apply
from repro.generalization.apply import _roll_up, bucketize_at, generalize_table
from repro.generalization.hierarchy import SUPPRESSED, Hierarchy
from repro.generalization.incognito import incognito_minimal_safe_nodes
from repro.generalization.lattice import GeneralizationLattice
from repro.generalization.search import (
    SearchStats,
    binary_search_chain,
    find_best_safe_node,
    find_minimal_safe_nodes,
    node_safety_predicate,
)
from repro.utility.metrics import precision


def assert_identical(actual, expected, bucket_builds, node):
    """A fresh roll-up equals its per-record reference exactly. The
    signature multiset it computed up front is checked first, while no bucket
    is built; then bucket order, person ids and sensitive values in order."""
    assert bucket_builds[0] == 0, node
    assert actual.signature_items() == expected.signature_items(), node
    assert bucket_builds[0] == 0, node
    assert [b.person_ids for b in actual] == [b.person_ids for b in expected], node
    assert [b.sensitive_values for b in actual] == [
        b.sensitive_values for b in expected
    ], node
    assert actual == expected and expected == actual, node


def assert_identical_at_every_node(table, lattice, bucket_builds):
    """``bucketize_at`` equals the per-record reference bucketization of the
    generalized table at every node (see :func:`assert_identical`)."""
    for node in lattice.nodes():
        expected = Bucketization.from_table(generalize_table(table, lattice, node))
        bucket_builds[0] = 0
        assert_identical(
            bucketize_at(table, lattice, node), expected, bucket_builds, node
        )


def assert_sweep_identical(table, lattice, bucket_builds, monkeypatch):
    """A ``node_safety_predicate`` sweep over every node, bottom-up, hands
    its checker at each node a bucketization identical to the node's
    per-record reference (see :func:`assert_identical`). Returns the nodes
    whose grouping started from the table's ground QI classes, as levels in
    schema order."""
    ground_nodes = []
    ground_grouping = apply._ground_grouping

    def counted(table, hierarchies, attributes, levels):
        ground_nodes.append(tuple(levels))
        return ground_grouping(table, hierarchies, attributes, levels)

    monkeypatch.setattr(apply, "_ground_grouping", counted)
    checked = []
    stats = SearchStats()
    # The checker never says safe, so nothing is pruned: every node is checked.
    predicate = node_safety_predicate(table, lattice, checked.append)
    assert find_minimal_safe_nodes(lattice, predicate, stats=stats) == []
    assert len(checked) == lattice.size
    for node, actual in zip(stats.checked_nodes, checked):
        expected = Bucketization.from_table(generalize_table(table, lattice, node))
        bucket_builds[0] = 0
        assert_identical(actual, expected, bucket_builds, node)
    return ground_nodes


def shuffled_identifier_table(small_adult):
    """Shuffled rows keyed by an explicit identifier: person ids are not row
    indices, and row order differs from the generated order. Some one- and
    three-digit ages make key-repr order differ from numeric order."""
    rows = [dict(record) for record in small_adult.rows[:600]]
    random.Random(3).shuffle(rows)
    for i, record in enumerate(rows):
        record["pid"] = f"person-{(i * 7919) % 1000:03d}"
        if i % 20 == 0:
            record["age"] = i % 9 + 1 if i % 40 else 100 + i % 7
    schema = Schema(
        ADULT_SCHEMA.quasi_identifiers, ADULT_SCHEMA.sensitive, identifier="pid"
    )
    return Table(rows, schema)


class TestSweepRollsUpFromChildren:
    """Within a predicate's sweep, every node but the bottom one is rolled up
    from an already-checked child's groups, identically to the reference."""

    def test_small_adult(self, small_adult, adult_lattice, bucket_builds, monkeypatch):
        ground = assert_sweep_identical(
            small_adult, adult_lattice, bucket_builds, monkeypatch
        )
        assert ground == [adult_lattice.bottom]

    def test_shuffled_identifier_table(
        self, small_adult, adult_lattice, bucket_builds, monkeypatch
    ):
        ground = assert_sweep_identical(
            shuffled_identifier_table(small_adult),
            adult_lattice,
            bucket_builds,
            monkeypatch,
        )
        assert ground == [adult_lattice.bottom]

    def test_one_row(self, small_adult, adult_lattice, bucket_builds, monkeypatch):
        table = Table([small_adult[0]], ADULT_SCHEMA)
        ground = assert_sweep_identical(
            table, adult_lattice, bucket_builds, monkeypatch
        )
        assert ground == [adult_lattice.bottom]

    def test_lattice_order_unlike_schema(
        self, small_adult, bucket_builds, monkeypatch
    ):
        reordered = GeneralizationLattice(
            adult_hierarchies(), tuple(reversed(ADULT_SCHEMA.quasi_identifiers))
        )
        ground = assert_sweep_identical(
            small_adult.sample(500, seed=2), reordered, bucket_builds, monkeypatch
        )
        assert ground == [(0, 0, 0, 0)]

    def test_hierarchy_breaking_refinement(
        self, small_adult, bucket_builds, monkeypatch
    ):
        # Age level 1 (decade) does not determine level 2 (parity of the
        # half-decade): no roll-up may cross that step. Node (2, 0, 0, 0)
        # has no other child, so it falls back to the ground classes; every
        # other age-level-2 node rolls up along another attribute.
        hierarchies = adult_hierarchies()
        hierarchies["age"] = Hierarchy(
            "age",
            [
                lambda v: v,
                lambda v: v // 10,
                lambda v: (v // 5) % 2,
                lambda v: SUPPRESSED,
            ],
        )
        lattice = GeneralizationLattice(hierarchies, ADULT_SCHEMA.quasi_identifiers)
        ground = assert_sweep_identical(
            small_adult.sample(300, seed=4), lattice, bucket_builds, monkeypatch
        )
        assert ground == [lattice.bottom, (2, 0, 0, 0)]

    def test_binary_search_chain(self, small_adult, adult_lattice):
        # Chain nodes are checked out of height order, mostly without a
        # checked child.
        checker = SafetyChecker(0.75, 2)
        chain = adult_lattice.default_chain()

        def reference(node):
            return checker.is_safe(
                Bucketization.from_table(
                    generalize_table(small_adult, adult_lattice, node)
                )
            )

        expected = binary_search_chain(chain, reference)
        assert 0 < chain.index(expected) < len(chain) - 1
        found = binary_search_chain(
            chain, node_safety_predicate(small_adult, adult_lattice, checker)
        )
        assert found == expected


class TestApply:
    def test_generalize_table(self, small_adult, adult_lattice):
        node = (3, 1, 1, 0)
        generalized = generalize_table(small_adult, adult_lattice, node)
        record = generalized[0]
        assert record["age"].startswith("[")
        assert record["marital_status"] in {
            "Married",
            "Was-married",
            "Never-married",
        }
        assert record["race"] == SUPPRESSED
        assert record["sex"] in {"Male", "Female"}
        # Sensitive column untouched.
        assert generalized.sensitive_values() == small_adult.sensitive_values()

    def test_bucketize_at_matches_generalized_groups(
        self, small_adult, adult_lattice, bucket_builds
    ):
        assert_identical_at_every_node(small_adult, adult_lattice, bucket_builds)

    def test_bucketize_at_identical_with_identifier_column(
        self, small_adult, adult_lattice, bucket_builds
    ):
        assert_identical_at_every_node(
            shuffled_identifier_table(small_adult), adult_lattice, bucket_builds
        )

    def test_bucketize_at_identical_on_one_row(
        self, small_adult, adult_lattice, bucket_builds
    ):
        table = Table([small_adult[0]], ADULT_SCHEMA)
        assert_identical_at_every_node(table, adult_lattice, bucket_builds)
        assert len(bucketize_at(table, adult_lattice, adult_lattice.bottom)) == 1

    def test_bucketize_at_identical_with_lattice_order_unlike_schema(
        self, small_adult, bucket_builds
    ):
        # Node vectors follow the lattice's attribute order; bucket keys (and
        # so bucket order) follow the schema's.
        reordered = GeneralizationLattice(
            adult_hierarchies(), tuple(reversed(ADULT_SCHEMA.quasi_identifiers))
        )
        assert_identical_at_every_node(
            small_adult.sample(500, seed=2), reordered, bucket_builds
        )

    def test_incognito_subset_roll_up_identical(
        self, small_adult, adult_lattice, bucket_builds
    ):
        # Incognito rolls up attribute subsets, keyed in subset order; the
        # reference groups rows by that per-record key.
        table = small_adult.sample(400, seed=5)
        attributes = adult_lattice.attributes
        hierarchies = adult_lattice.hierarchies
        for size in range(1, len(attributes) + 1):
            for subset in combinations(attributes, size):
                sub_lattice = GeneralizationLattice(
                    {a: hierarchies[a] for a in subset}, subset
                )
                for node in sub_lattice.nodes():

                    def key(record, subset=subset, node=node):
                        return tuple(
                            hierarchies[a].generalize(record[a], level)
                            for a, level in zip(subset, node)
                        )

                    expected = Bucketization.from_table(table, key=key)
                    bucket_builds[0] = 0
                    actual = _roll_up(table, hierarchies, subset, node)
                    assert_identical(actual, expected, bucket_builds, (subset, node))

    def test_bucketize_at_empty_table_rejected(self, adult_lattice):
        with pytest.raises(EmptyTableError):
            bucketize_at(Table([], ADULT_SCHEMA), adult_lattice, adult_lattice.bottom)

    def test_top_node_single_bucket(self, small_adult, adult_lattice):
        b = bucketize_at(small_adult, adult_lattice, adult_lattice.top)
        assert len(b) == 1
        assert b.total_size == len(small_adult)

    def test_coarser_nodes_merge_buckets(self, small_adult, adult_lattice):
        fine = bucketize_at(small_adult, adult_lattice, (1, 0, 0, 0))
        coarse = bucketize_at(small_adult, adult_lattice, (3, 2, 1, 1))
        assert fine.refines(coarse)

    def test_attribute_mismatch_rejected(self, small_adult, adult_lattice):
        other = GeneralizationLattice(
            {"height": Hierarchy.identity_or_suppress("height")}, ("height",)
        )
        with pytest.raises(ValueError):
            generalize_table(small_adult, other, (0,))

    @pytest.mark.parametrize("direction", ["extra", "missing"])
    @pytest.mark.parametrize(
        "apply",
        [
            generalize_table,
            bucketize_at,
            lambda table, lattice, node: incognito_minimal_safe_nodes(
                table, lattice, lambda b: True
            ),
        ],
        ids=["generalize_table", "bucketize_at", "incognito"],
    )
    def test_lattice_must_cover_exactly_the_quasi_identifiers(
        self, small_adult, direction, apply
    ):
        hierarchies = adult_hierarchies()
        attributes = ADULT_SCHEMA.quasi_identifiers
        if direction == "extra":
            sensitive = ADULT_SCHEMA.sensitive
            hierarchies[sensitive] = Hierarchy.identity_or_suppress(sensitive)
            attributes += (sensitive,)
        else:
            attributes = attributes[:-1]
        lattice = GeneralizationLattice(hierarchies, attributes)
        with pytest.raises(ValueError, match="do not match"):
            apply(small_adult, lattice, lattice.bottom)


class TestSweepBuildsBucketsOnlyOnDemand:
    """An engine sweep under a signature-decomposable model reads only each
    node's signature multiset; a model that reads buckets builds them. Both
    find the minimal elements of the nodes whose per-record reference
    bucketization is safe."""

    @staticmethod
    def sweep(table, lattice, c, k, model):
        predicate = DisclosureEngine().node_predicate(
            table, lattice, c, k, model=model
        )
        stats = SearchStats()
        minimal = find_minimal_safe_nodes(lattice, predicate, stats=stats)
        return minimal, stats

    @staticmethod
    def references(table, lattice):
        return {
            node: Bucketization.from_table(generalize_table(table, lattice, node))
            for node in lattice.nodes()
        }

    @staticmethod
    def safe_minimal(lattice, references, c, k, model):
        """The minimal elements of the nodes whose reference is safe."""
        engine = DisclosureEngine()
        threshold = engine.threshold(c, model=model)
        return lattice.minimal_elements(
            [
                node
                for node, reference in references.items()
                if engine.evaluate(reference, k, model=model) < threshold
            ]
        )

    @pytest.mark.parametrize("model", ["implication", "negation", "distribution"])
    def test_signature_models_build_no_bucket(
        self, small_adult, adult_lattice, bucket_builds, model
    ):
        minimal, stats = self.sweep(small_adult, adult_lattice, 0.7, 2, model)
        assert bucket_builds[0] == 0
        assert stats.predicate_checks > 1 and minimal
        references = self.references(small_adult, adult_lattice)
        assert sorted(minimal) == self.safe_minimal(
            adult_lattice, references, 0.7, 2, model
        )

    def test_sampling_builds_buckets_with_unchanged_answers(
        self, small_adult, adult_lattice, bucket_builds
    ):
        table = small_adult.sample(300, seed=11)
        model = get_adversary("sampling", samples=50, seed=4)
        minimal, _ = self.sweep(table, adult_lattice, 0.7, 1, model)
        assert bucket_builds[0] > 0
        references = self.references(table, adult_lattice)
        assert sorted(minimal) == self.safe_minimal(
            adult_lattice, references, 0.7, 1, model
        )
        engine, reference_engine = DisclosureEngine(), DisclosureEngine()
        for node, reference in references.items():
            assert engine.evaluate(
                bucketize_at(table, adult_lattice, node), 1, model=model
            ) == reference_engine.evaluate(reference, 1, model=model), node


#: The ``sanitize`` benchmark's policies, ``(c, k, model)``. The first two
#: differ only in ``c``: on ``small_adult``, c = 0.8 adds (4, 2, 1, 0) to
#: c = 0.7's minimal nodes, so a verdict carried between their sweeps fails
#: in either order.
POLICIES = ((0.7, 3, "implication"), (0.8, 3, "implication"), (0.7, 2, "negation"))


def scan_minimal(table, lattice, policies, *, exact=False):
    """``policy -> minimal safe nodes`` from an unpruned scan: every node
    bucketized on its own, with no memo, and evaluated on a fresh engine."""
    engine = DisclosureEngine(exact=exact)
    buckets = {node: bucketize_at(table, lattice, node) for node in lattice.nodes()}
    minimal = {}
    for c, k, model in policies:
        threshold = engine.threshold(c, model=model)
        safe = [
            node
            for node, b in buckets.items()
            if engine.evaluate(b, k, model=model) < threshold
        ]
        minimal[c, k, model] = lattice.minimal_elements(safe)
    return minimal


@pytest.fixture
def bucketize_calls(monkeypatch):
    """A one-item list counting calls through the module attribute
    ``apply.bucketize_at``, which a predicate looks up when it is built."""
    calls = [0]
    original = apply.bucketize_at

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(apply, "bucketize_at", counted)
    return calls


class TestSweepsShareNodeSignatures:
    """Sweeps on one engine bucketize each node of a (table, lattice) pair
    once, and every sweep still answers as an unpruned scan."""

    @staticmethod
    def sweep(engine, table, lattice, policy, stats=None):
        c, k, model = policy
        return sorted(
            engine.find_minimal_safe_nodes(
                table, lattice, c, k, model=model, stats=stats
            )
        )

    def test_several_sweeps_give_the_unpruned_answer(
        self, small_adult, adult_lattice
    ):
        other_table = small_adult.sample(400, seed=3)
        other_lattice = GeneralizationLattice(
            adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
        )
        expected = scan_minimal(small_adult, adult_lattice, POLICIES)
        assert (4, 2, 1, 0) in set(expected[POLICIES[1]]) - set(
            expected[POLICIES[0]]
        )
        other_expected = scan_minimal(other_table, adult_lattice, POLICIES)
        engine = DisclosureEngine()
        runs = [
            (small_adult, adult_lattice, POLICIES, expected),
            (small_adult, adult_lattice, POLICIES[::-1], expected),
            (other_table, adult_lattice, POLICIES, other_expected),
            (small_adult, adult_lattice, POLICIES, expected),
            (small_adult, other_lattice, POLICIES, expected),
        ]
        for table, lattice, policies, answers in runs:
            for policy in policies:
                found = self.sweep(engine, table, lattice, policy)
                assert found == answers[policy], (len(table), policy)

    def test_exact_engine(self, small_adult, adult_lattice):
        table = small_adult.sample(400, seed=3)
        expected = scan_minimal(table, adult_lattice, POLICIES, exact=True)
        assert expected[POLICIES[0]] != expected[POLICIES[1]]
        engine = DisclosureEngine(exact=True)
        for policy in POLICIES:
            found = self.sweep(engine, table, adult_lattice, policy)
            assert found == expected[policy], policy

    def test_later_sweeps_bucketize_nothing(
        self, small_adult, adult_lattice, bucketize_calls
    ):
        engine = DisclosureEngine()
        for i, policy in enumerate(POLICIES):
            bucketize_calls[0] = 0
            stats = SearchStats()
            self.sweep(engine, small_adult, adult_lattice, policy, stats)
            expected = stats.predicate_checks if i == 0 else 0
            assert bucketize_calls[0] == expected, policy
        # Another table or lattice object replaces the memo: its first sweep
        # bucketizes every node it checks.
        other_lattice = GeneralizationLattice(
            adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
        )
        for table, lattice in [
            (small_adult.sample(400, seed=3), adult_lattice),
            (small_adult, adult_lattice),
            (small_adult, other_lattice),
        ]:
            bucketize_calls[0] = 0
            stats = SearchStats()
            self.sweep(engine, table, lattice, POLICIES[0], stats)
            assert bucketize_calls[0] == stats.predicate_checks > 0

    @pytest.mark.parametrize("model", ["implication", "negation", "distribution"])
    def test_memo_hits_build_no_bucket(
        self, small_adult, adult_lattice, bucket_builds, bucketize_calls, model
    ):
        policies = [(0.7, 2, model), (0.8, 2, model)]
        expected = [
            self.sweep(DisclosureEngine(), small_adult, adult_lattice, policy)
            for policy in policies
        ]
        bucket_builds[0] = 0
        bucketize_calls[0] = 0
        engine = DisclosureEngine()
        stats = SearchStats()
        found = self.sweep(engine, small_adult, adult_lattice, policies[0], stats)
        assert found == expected[0]
        assert bucketize_calls[0] == stats.predicate_checks
        bucketize_calls[0] = 0
        found = self.sweep(engine, small_adult, adult_lattice, policies[1])
        assert found == expected[1]
        assert bucketize_calls[0] == 0
        assert bucket_builds[0] == 0

    def test_models_that_read_buckets_keep_bucketizing(
        self, small_adult, adult_lattice, bucketize_calls
    ):
        table = small_adult.sample(300, seed=11)
        model = get_adversary("sampling", samples=10, seed=4)
        engine = DisclosureEngine()
        self.sweep(engine, table, adult_lattice, (0.7, 1, "implication"))
        bucketize_calls[0] = 0
        stats = SearchStats()
        self.sweep(engine, table, adult_lattice, (0.7, 1, model), stats)
        assert bucketize_calls[0] == stats.predicate_checks > 0

    def test_binary_search_chain_with_list_nodes(
        self, small_adult, adult_lattice, bucketize_calls
    ):
        chain = adult_lattice.default_chain()
        lists = [list(node) for node in chain]
        engine = DisclosureEngine()
        expected = engine.binary_search_chain(
            small_adult, adult_lattice, chain, 0.75, 2
        )
        assert 0 < chain.index(expected) < len(chain) - 1
        bucketize_calls[0] = 0
        found = engine.binary_search_chain(
            small_adult, adult_lattice, lists, 0.75, 2
        )
        assert tuple(found) == expected and bucketize_calls[0] == 0
        fresh = DisclosureEngine().binary_search_chain(
            small_adult, adult_lattice, lists, 0.75, 2
        )
        assert tuple(fresh) == expected and bucketize_calls[0] > 0
        predicate = engine.node_predicate(small_adult, adult_lattice, 0.75, 2)
        for malformed in [(9, 0, 0, 0), [0, 0]]:
            with pytest.raises(LatticeError):
                predicate(malformed)


class TestMinimalSafeSearch:
    def test_matches_exhaustive_scan(self, small_adult, adult_lattice):
        checker = SafetyChecker(0.7, 2)

        def is_safe(node):
            return checker.is_safe(bucketize_at(small_adult, adult_lattice, node))

        found = find_minimal_safe_nodes(adult_lattice, is_safe)
        # Exhaustive reference: evaluate safety at every node, take minima.
        safe_nodes = [n for n in adult_lattice.nodes() if is_safe(n)]
        assert set(found) == set(adult_lattice.minimal_elements(safe_nodes))

    def test_found_nodes_are_safe_and_children_unsafe(
        self, small_adult, adult_lattice
    ):
        checker = SafetyChecker(0.65, 1)

        def is_safe(node):
            return checker.is_safe(bucketize_at(small_adult, adult_lattice, node))

        for node in find_minimal_safe_nodes(adult_lattice, is_safe):
            assert is_safe(node)
            for child in adult_lattice.children(node):
                assert not is_safe(child)

    def test_pruning_reduces_checks(self, small_adult, adult_lattice):
        checker = SafetyChecker(0.9, 1)
        stats = SearchStats()
        find_minimal_safe_nodes(
            adult_lattice,
            lambda n: checker.is_safe(bucketize_at(small_adult, adult_lattice, n)),
            stats=stats,
        )
        assert stats.predicate_checks + stats.pruned == 72
        assert stats.pruned > 0

    def test_no_safe_nodes(self, adult_lattice):
        result = find_minimal_safe_nodes(adult_lattice, lambda node: False)
        assert result == []

    def test_best_safe_node_maximizes_utility(self, small_adult, adult_lattice):
        checker = SafetyChecker(0.7, 2)

        def is_safe(node):
            return checker.is_safe(bucketize_at(small_adult, adult_lattice, node))

        best = find_best_safe_node(
            adult_lattice, is_safe, lambda n: precision(adult_lattice, n)
        )
        others = find_minimal_safe_nodes(adult_lattice, is_safe)
        assert best in others
        assert all(
            precision(adult_lattice, best) >= precision(adult_lattice, n)
            for n in others
        )

    def test_best_safe_node_raises_when_none(self, adult_lattice):
        with pytest.raises(SearchError):
            find_best_safe_node(adult_lattice, lambda n: False, sum)


class TestBinarySearchChain:
    def test_finds_lowest_safe_on_chain(self, small_adult, adult_lattice):
        checker = SafetyChecker(0.75, 2)
        chain = adult_lattice.default_chain()

        def is_safe(node):
            return checker.is_safe(bucketize_at(small_adult, adult_lattice, node))

        found = binary_search_chain(chain, is_safe)
        index = chain.index(found)
        assert is_safe(found)
        assert all(not is_safe(node) for node in chain[:index])

    def test_logarithmic_checks(self, adult_lattice):
        chain = adult_lattice.default_chain()  # 10 nodes
        stats = SearchStats()
        binary_search_chain(chain, lambda n: sum(n) >= 4, stats=stats)
        assert stats.predicate_checks <= 5  # 1 top check + ceil(log2(9))

    def test_unsafe_chain_raises(self, adult_lattice):
        with pytest.raises(SearchError):
            binary_search_chain(
                adult_lattice.default_chain(), lambda n: False
            )

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            binary_search_chain([], lambda n: True)

    def test_all_safe_chain_returns_bottom(self, adult_lattice):
        chain = adult_lattice.default_chain()
        assert binary_search_chain(chain, lambda n: True) == chain[0]
