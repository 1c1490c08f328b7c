"""Every number and claim the paper states, replayed against this library.

This file is the reproduction's checklist: Section 1's Ed/Alice story,
Section 2.3's 10/19 example (and the documented discrepancy), Section 3.2's
Lemmas 10/11 on concrete instances, Theorem 9's special form, Theorem 14's
monotonicity, and the Section 3.3.2 single-bucket formula.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from repro.bucketization import Bucketization
from repro.core.disclosure import max_disclosure
from repro.core.exact import (
    exact_disclosure_risk,
    exact_max_disclosure_simple,
    probability,
)
from repro.core.minimize1 import Minimize1Solver
from repro.knowledge.atoms import Atom
from repro.knowledge.formulas import Conjunction, negation, simple_implication


class TestSection1EdStory:
    """Alice attacks Ed with successively more knowledge (Introduction)."""

    def test_no_knowledge(self, figure3):
        assert probability(figure3, Atom("Ed", "Lung Cancer")) == Fraction(2, 5)

    def test_after_ruling_out_mumps(self, figure3):
        phi = negation("Ed", "Mumps", witness_value="Flu")
        assert probability(figure3, Atom("Ed", "Lung Cancer"), phi) == Fraction(
            1, 2
        )

    def test_after_also_ruling_out_flu(self, figure3):
        phi = Conjunction(
            (
                negation("Ed", "Mumps", witness_value="Flu"),
                negation("Ed", "Flu", witness_value="Lung Cancer"),
            )
        )
        assert probability(figure3, Atom("Ed", "Lung Cancer"), phi) == 1

    def test_charlie_hannah_flu_shot_story(self, figure3):
        # "This knowledge allows her to update her probability that Charlie
        # has the flu to 10/19."
        assert probability(figure3, Atom("Charlie", "Flu")) == Fraction(2, 5)
        phi = simple_implication("Hannah", "Flu", "Charlie", "Flu")
        assert probability(figure3, Atom("Charlie", "Flu"), phi) == Fraction(
            10, 19
        )


class TestSection23MaxDisclosureExample:
    """The paper says the L^1 max disclosure of Figure 3 is 10/19 via the
    cross-bucket flu implication. Its own Definitions admit same-person
    implications (the negation encoding of Section 2.2 IS one), and those
    reach 2/3 — which MINIMIZE1/2, brute force, and the exact engine all
    agree on."""

    def test_cross_bucket_formula_reaches_10_19(self, figure3):
        phi = simple_implication("Hannah", "Flu", "Charlie", "Flu")
        assert exact_disclosure_risk(figure3, phi) == Fraction(10, 19)

    def test_true_maximum_is_two_thirds(self, figure3):
        assert max_disclosure(figure3, 1, exact=True) == Fraction(2, 3)
        assert exact_max_disclosure_simple(figure3, 1) == Fraction(2, 3)

    def test_achieved_by_same_person_implication(self, figure3):
        phi = simple_implication("Ed", "Lung Cancer", "Ed", "Flu")
        assert exact_disclosure_risk(figure3, phi) == Fraction(2, 3)


class TestLemma10:
    """Replacing all consequents by the disclosed atom never lowers the
    conditional probability."""

    @pytest.mark.parametrize(
        "antecedents, consequents",
        [
            ((("Ed", "Flu"),), (("Charlie", "Flu"),)),
            ((("Hannah", "Flu"),), (("Gloria", "Flu"),)),
            ((("Dave", "Mumps"),), (("Karen", "Heart Disease"),)),
        ],
    )
    def test_consequent_replacement(self, figure3, antecedents, consequents):
        target = Atom("Bob", "Flu")
        original = Conjunction(
            tuple(
                simple_implication(a[0], a[1], b[0], b[1])
                for a, b in zip(antecedents, consequents)
            )
        )
        replaced = Conjunction(
            tuple(
                simple_implication(a[0], a[1], target.person, target.value)
                for a in antecedents
            )
        )
        p_original = probability(figure3, target, original)
        p_replaced = probability(figure3, target, replaced)
        assert p_replaced >= p_original


class TestLemma11:
    """Conjunctive antecedents can be replaced by single atoms without
    lowering the maximum: verify the stronger statement that for each
    conjunctive-antecedent formula some atomic-antecedent formula does at
    least as well."""

    def test_atomic_antecedent_dominates(self, figure3):
        from repro.knowledge.formulas import BasicImplication

        target = Atom("Ed", "Flu")
        conj = BasicImplication(
            antecedents=(Atom("Bob", "Mumps"), Atom("Charlie", "Lung Cancer")),
            consequents=(target,),
        )
        p_conj = probability(figure3, target, Conjunction((conj,)))
        atoms = [
            Atom(person, value)
            for person in figure3.person_ids
            for value in ("Flu", "Lung Cancer", "Mumps")
            if Atom(person, value) != target
        ]
        best_atomic = max(
            probability(
                figure3,
                target,
                Conjunction(
                    (
                        BasicImplication(
                            antecedents=(atom,), consequents=(target,)
                        ),
                    )
                ),
            )
            for atom in atoms
        )
        assert best_atomic >= p_conj


class TestTheorem9:
    """Among all sets of k simple implications, some same-consequent set
    attains the maximum (checked exhaustively on a small instance)."""

    def test_same_consequent_attains_max(self):
        bucketization = Bucketization.from_value_lists([["a", "a", "b"], ["c", "b"]])
        for k in (1, 2):
            free = exact_max_disclosure_simple(bucketization, k)
            restricted = exact_max_disclosure_simple(
                bucketization, k, same_consequent_only=True
            )
            assert restricted == free


class TestTheorem14Monotonicity:
    """Merging buckets (moving up the partial order) never increases the
    maximum disclosure."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
    def test_merge_never_increases(self, figure3, k):
        merged = figure3.merge_buckets([0, 1])
        assert max_disclosure(merged, k, exact=True) <= max_disclosure(
            figure3, k, exact=True
        )

    def test_full_merge_of_many_buckets(self, k=2):
        fine = Bucketization.from_value_lists(
            [["a", "b"], ["a", "c"], ["b", "c"], ["a", "a"]]
        )
        for indices in combinations(range(4), 2):
            coarser = fine.merge_buckets(indices)
            assert max_disclosure(coarser, k, exact=True) <= max_disclosure(
                fine, k, exact=True
            )
            assert fine.refines(coarser)


class TestSection332SingleBucketFormula:
    """min ratio within one bucket = MINIMIZE1(b, k+1) * n_b / n_b(s0)."""

    @pytest.mark.parametrize("signature", [(2, 2, 1), (3, 1, 1), (4, 2)])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_formula(self, signature, k):
        from repro.core.minimize2 import min_ratio_table

        solver = Minimize1Solver(exact=True)
        expected = solver.minimum(signature, k + 1) * Fraction(
            sum(signature), signature[0]
        )
        assert min_ratio_table([signature], k, exact=True)[k] == expected


class TestFigure2Equivalence:
    """Under full identification information, the 5-anonymous generalized
    table (Figure 2) and the bucketization (Figure 3) carry the same
    information: grouping the original table by its generalized QI yields
    exactly the Figure 3 buckets."""

    def test_generalized_groups_match_buckets(self, figure1_table, figure3):
        # Figure 2 generalizes Zip->1485*, Age->2*, keeps Sex: buckets = Sex.
        groups = {}
        for record in figure1_table:
            groups.setdefault(record["Sex"], []).append(record["Name"])
        partition = frozenset(frozenset(v) for v in groups.values())
        assert partition == figure3.partition_frozen()
