"""The paper's running example (Figures 1-3), reproduced number by number.

A hospital publishes the Figure-3 bucketization of its patient table. Alice
knows the bucketization and full identification information, and we replay
every probability the paper's introduction computes:

- Ed has lung cancer with probability 2/5 with no further knowledge,
- 1/2 once Alice rules out mumps,
- 1 once she also rules out flu,
- Charlie has flu with probability 2/5, rising to 10/19 given
  "if Hannah has the flu then Charlie does too" (Section 1 / Section 3's
  cross-bucket dependency example),

and then what the paper's own algorithms add on top:

- the true maximum disclosure for L^1_basic is 2/3, achieved by a
  same-person implication, above the 10/19 of the cross-bucket one,
- the k at which the bucketization becomes fully disclosing.

Run with:  python examples/hospital_scenario.py
"""

from fractions import Fraction

from repro import Atom, Bucketization, max_disclosure, probability, worst_case_witness
from repro.knowledge.formulas import negation, simple_implication

# ---------------------------------------------------------------------------
# Figure 3: the published bucketization. Bucket 1 holds the men, bucket 2 the
# women; within each bucket the sensitive column was randomly permuted.
# ---------------------------------------------------------------------------
MEN = ["Bob", "Charlie", "Dave", "Ed", "Frank"]
MEN_DISEASES = ["Flu", "Flu", "Lung Cancer", "Lung Cancer", "Mumps"]
WOMEN = ["Gloria", "Hannah", "Irma", "Jessica", "Karen"]
WOMEN_DISEASES = ["Flu", "Flu", "Breast Cancer", "Ovarian Cancer",
                  "Heart Disease"]

from repro.bucketization import Bucket

figure3 = Bucketization([
    Bucket(MEN, MEN_DISEASES),
    Bucket(WOMEN, WOMEN_DISEASES),
])
print("published bucketization (Figure 3):")
for bucket in figure3:
    print(f"  {bucket}")

# ---------------------------------------------------------------------------
# Alice attacks Ed. No background knowledge: 2/5.
# ---------------------------------------------------------------------------
ed_lung = Atom("Ed", "Lung Cancer")
p0 = probability(figure3, ed_lung)
print(f"\nPr(Ed has lung cancer)                          = {p0}")
assert p0 == Fraction(2, 5)

# "Ed had mumps as a child" -> rule out mumps: 1/2.
no_mumps = negation("Ed", "Mumps", witness_value="Flu")
p1 = probability(figure3, ed_lung, no_mumps)
print(f"Pr(... | Ed does not have mumps)                = {p1}")
assert p1 == Fraction(1, 2)

# "Ed does not have flu" as well: certainty.
no_flu = negation("Ed", "Flu", witness_value="Lung Cancer")
both = lambda w: no_mumps.holds_in(w) and no_flu.holds_in(w)
p2 = probability(figure3, ed_lung, both)
print(f"Pr(... | and Ed does not have flu)              = {p2}")
assert p2 == Fraction(1, 1)

# ---------------------------------------------------------------------------
# Alice attacks Charlie, using Hannah (a cross-bucket dependency!).
# ---------------------------------------------------------------------------
charlie_flu = Atom("Charlie", "Flu")
p3 = probability(figure3, charlie_flu)
print(f"\nPr(Charlie has flu)                             = {p3}")
assert p3 == Fraction(2, 5)

hannah_implies_charlie = simple_implication("Hannah", "Flu", "Charlie", "Flu")
p4 = probability(figure3, charlie_flu, hannah_implies_charlie)
print(f"Pr(... | Hannah's flu implies Charlie's)        = {p4}")
assert p4 == Fraction(10, 19)  # the paper's Section-1 number

# ---------------------------------------------------------------------------
# The worst case over ALL single implications (L^1_basic): the paper's prose
# says 10/19, but its own algorithm finds 2/3 via a same-person implication
# "(Ed = flu) -> (Ed = lung cancer)", i.e. the negation of Ed's flu.
# ---------------------------------------------------------------------------
m1 = max_disclosure(figure3, 1, exact=True)
print(f"\nmax disclosure w.r.t. L^1_basic (MINIMIZE1/2)   = {m1}")
assert m1 == Fraction(2, 3)

witness = worst_case_witness(figure3, 1, exact=True)
print(f"achieved by: {witness.implications[0]}  =>  {witness.consequent}")
check = probability(figure3, witness.consequent, witness.formula)
print(f"verified against the exact engine               = {check}")
assert check == m1

# ---------------------------------------------------------------------------
# How fast does disclosure grow with attacker power?
# ---------------------------------------------------------------------------
print("\nmax disclosure by k:")
for k in range(5):
    value = max_disclosure(figure3, k, exact=True)
    print(f"  k={k}: {value}  (~{float(value):.4f})")
    if value == 1:
        print(f"  -> {k} implications already force a certain disclosure")
        break
