"""Shared benchmark fixtures: cached datasets and lattices.

The benchmark suite regenerates every evaluation artifact of the paper
(Figures 5 and 6) and measures the complexity claims of Section 3.3. Run:

    pytest benchmarks/ --benchmark-only

Reported series are attached to each benchmark's ``extra_info`` (visible with
``--benchmark-json``) and asserted structurally in the benchmark bodies. The
JSON-emitting benchmarks (``bench_engine``, ``bench_service``,
``bench_publish``) also write ``BENCH_*.json`` artifacts — set
``BENCH_TINY=1`` (as the CI smoke job does) to shrink their workloads to
seconds.
"""

from __future__ import annotations

import pytest

from reporting import tiny_mode

from repro.data.adult import ADULT_SCHEMA, ADULT_SIZE
from repro.data.hierarchies import adult_hierarchies
from repro.experiments.runner import default_adult_table
from repro.generalization.lattice import GeneralizationLattice


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
