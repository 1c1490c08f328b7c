"""Shared benchmark fixtures: cached datasets and lattices.

The benchmark suite regenerates every evaluation artifact of the paper
(Figures 5 and 6) and measures the complexity claims of Section 3.3. The
files are named ``bench_*.py``, which pytest does not collect by default,
so name them:

    pytest benchmarks/bench_*.py --benchmark-only

Reported series are attached to each benchmark's ``extra_info`` (visible with
``--benchmark-json``) and asserted structurally in the benchmark bodies. Set
``BENCH_TINY=1`` (as the CI smoke job does, with ``--benchmark-disable``) to
shrink the heavier sweeps to seconds.
"""

from __future__ import annotations

import os

import pytest

from repro.data.adult import ADULT_SCHEMA, ADULT_SIZE
from repro.data.hierarchies import adult_hierarchies
from repro.experiments.runner import default_adult_table
from repro.generalization.lattice import GeneralizationLattice


def tiny_mode() -> bool:
    """Whether to shrink workloads to CI-smoke sizes (``BENCH_TINY=1``)."""
    return os.environ.get("BENCH_TINY") == "1"


@pytest.fixture(scope="session")
def adult_full():
    """The paper-sized dataset (45,222 rows)."""
    return default_adult_table(ADULT_SIZE)


@pytest.fixture(scope="session")
def adult_medium():
    """A 10k-row dataset for the heavier sweeps (800 rows in tiny mode)."""
    return default_adult_table(800 if tiny_mode() else 10_000)


@pytest.fixture(scope="session")
def lattice():
    return GeneralizationLattice(
        adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
    )
