"""repro — Worst-Case Background Knowledge for Privacy-Preserving Data Publishing.

A complete, self-contained reproduction of Martin, Kifer, Machanavajjhala,
Gehrke & Halpern (ICDE 2007): the ``L^k_basic`` background-knowledge language,
the polynomial-time worst-case disclosure algorithms (MINIMIZE1/MINIMIZE2),
(c,k)-safety, lattice search for minimally sanitized generalizations, the
k-anonymity/ℓ-diversity baselines, and the paper's Adult-dataset evaluation
(Figures 5 and 6).

Quickstart
----------
>>> from repro import Bucketization, max_disclosure, is_ck_safe
>>> b = Bucketization.from_value_lists([
...     ["Flu", "Flu", "Lung Cancer", "Lung Cancer", "Mumps"],
... ])
>>> round(max_disclosure(b, k=1), 4)   # one basic implication
0.6667
>>> is_ck_safe(b, c=0.7, k=1)
True

Engine architecture
-------------------
The framework is parametric in the background-knowledge language, and so is
this package: every disclosure computation flows through
:mod:`repro.engine`, a pluggable adversary-model layer.

- :class:`AdversaryModel` is the protocol one background-knowledge language
  implements (worst-case ``disclosure``, batched ``series``, optional
  ``witness`` and ``worst_bucket``); a string-keyed registry
  (:func:`register_adversary` / :func:`get_adversary` /
  :func:`available_adversaries`) holds the built-ins — ``implication``
  (``L^k_basic``), ``negation`` (ℓ-diversity), ``weighted`` (cost-based),
  ``probabilistic`` (Jeffrey conditionalization) and ``sampling``
  (Monte Carlo).
- :class:`DisclosureEngine` evaluates any registered model with one shared
  cache keyed by ``(model, params, k, signature multiset)`` and one shared
  MINIMIZE1 solver, and offers batch APIs (``series``, ``evaluate_many``,
  ``compare``) plus uniform exact/float handling, safety checks, and
  adversary-parametric lattice search.
- Every consumer — :class:`SafetyChecker` / :func:`is_ck_safe`, greedy
  :func:`suppress_to_safety`, the lattice searches, the Figure 5/6
  experiments, and the CLI ``--adversary`` flag — is a thin wrapper over the
  engine, so registering a new model makes it available everywhere at once.

>>> from repro import DisclosureEngine
>>> engine = DisclosureEngine()
>>> round(engine.evaluate(b, 1, model="negation"), 4)
0.6667

See ``README.md`` for the architecture.
"""

from repro.bucketization import (
    Bucket,
    Bucketization,
    anatomize,
    mondrian_partition,
    suppress_to_safety,
    swap_sensitive_values,
)
from repro.core import (
    Minimize1Solver,
    SafetyChecker,
    WorstCaseWitness,
    exact_disclosure_risk,
    is_ck_safe,
    jeffrey_probability,
    max_disclosure,
    max_disclosure_negations,
    max_disclosure_series,
    min_k_to_breach,
    probability,
    sample_disclosure_risk,
    sample_probability,
    weighted_implication_bounds,
    weighted_negation_disclosure,
    worst_case_witness,
)
from repro.data import (
    ADULT_SCHEMA,
    Schema,
    Table,
    adult_hierarchies,
    generate_adult,
)
from repro.engine import (
    AdversaryModel,
    CachePolicy,
    DisclosureEngine,
    EngineStats,
    SignaturePlane,
    available_adversaries,
    get_adversary,
    register_adversary,
)
from repro.errors import ReproError, UnknownAdversaryError
from repro.generalization import (
    GeneralizationLattice,
    Hierarchy,
    binary_search_chain,
    bucketize_at,
    find_best_safe_node,
    find_minimal_safe_nodes,
    generalize_table,
    node_safety_predicate,
)
from repro.knowledge import (
    Atom,
    BasicImplication,
    Conjunction,
    parse_atom,
    parse_conjunction,
    parse_implication,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # data
    "Schema",
    "Table",
    "ADULT_SCHEMA",
    "generate_adult",
    "adult_hierarchies",
    # bucketization & sanitizers
    "Bucket",
    "Bucketization",
    "anatomize",
    "mondrian_partition",
    "suppress_to_safety",
    "swap_sensitive_values",
    # knowledge
    "Atom",
    "BasicImplication",
    "Conjunction",
    "parse_atom",
    "parse_implication",
    "parse_conjunction",
    # core
    "max_disclosure",
    "max_disclosure_series",
    "max_disclosure_negations",
    "min_k_to_breach",
    "is_ck_safe",
    "SafetyChecker",
    "Minimize1Solver",
    "probability",
    "exact_disclosure_risk",
    "sample_probability",
    "sample_disclosure_risk",
    "jeffrey_probability",
    "weighted_negation_disclosure",
    "weighted_implication_bounds",
    "worst_case_witness",
    "WorstCaseWitness",
    # engine
    "AdversaryModel",
    "DisclosureEngine",
    "EngineStats",
    "SignaturePlane",
    "CachePolicy",
    "register_adversary",
    "get_adversary",
    "available_adversaries",
    # generalization
    "Hierarchy",
    "GeneralizationLattice",
    "generalize_table",
    "bucketize_at",
    "find_minimal_safe_nodes",
    "find_best_safe_node",
    "binary_search_chain",
    "node_safety_predicate",
    # errors
    "ReproError",
    "UnknownAdversaryError",
]
