"""Shared fixtures: the paper's running example and small reusable objects."""

from __future__ import annotations

import pytest

from repro.bucketization import Bucket, Bucketization
from repro.data.adult import ADULT_SCHEMA
from repro.data.hierarchies import adult_hierarchies
from repro.data.schema import Schema
from repro.data.table import Table
from repro.generalization.lattice import GeneralizationLattice

MEN = ("Bob", "Charlie", "Dave", "Ed", "Frank")
MEN_DISEASES = ("Flu", "Flu", "Lung Cancer", "Lung Cancer", "Mumps")
WOMEN = ("Gloria", "Hannah", "Irma", "Jessica", "Karen")
WOMEN_DISEASES = (
    "Flu",
    "Flu",
    "Breast Cancer",
    "Ovarian Cancer",
    "Heart Disease",
)


@pytest.fixture
def figure3() -> Bucketization:
    """The paper's Figure 3 bucketization (men / women buckets)."""
    return Bucketization(
        [Bucket(MEN, MEN_DISEASES), Bucket(WOMEN, WOMEN_DISEASES)]
    )


@pytest.fixture
def hospital_schema() -> Schema:
    return Schema(
        quasi_identifiers=("Zip", "Age", "Sex"),
        sensitive="Disease",
        identifier="Name",
    )


@pytest.fixture
def figure1_table(hospital_schema) -> Table:
    """The paper's Figure 1 original table."""
    rows = [
        ("Bob", "14850", 23, "M", "Flu"),
        ("Charlie", "14850", 24, "M", "Flu"),
        ("Dave", "14850", 25, "M", "Lung Cancer"),
        ("Ed", "14850", 27, "M", "Lung Cancer"),
        ("Frank", "14853", 29, "M", "Mumps"),
        ("Gloria", "14850", 21, "F", "Flu"),
        ("Hannah", "14850", 22, "F", "Flu"),
        ("Irma", "14853", 24, "F", "Breast Cancer"),
        ("Jessica", "14853", 26, "F", "Ovarian Cancer"),
        ("Karen", "14853", 28, "F", "Heart Disease"),
    ]
    return Table(
        [
            dict(zip(("Name", "Zip", "Age", "Sex", "Disease"), row))
            for row in rows
        ],
        hospital_schema,
    )


@pytest.fixture
def adult_lattice() -> GeneralizationLattice:
    return GeneralizationLattice(
        adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
    )


@pytest.fixture(scope="session")
def small_adult():
    """A small synthetic Adult sample shared across the session."""
    pytest.importorskip("numpy", reason="the synthetic Adult generator needs numpy")
    from repro.data.adult import generate_adult

    return generate_adult(1500, seed=7)


@pytest.fixture
def bucket_builds(monkeypatch) -> list[int]:
    """A one-item list counting the :class:`Bucket` objects built while the
    test runs, in this process."""
    count = [0]
    original = Bucket.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Bucket, "__init__", counting)
    return count
