"""Unified adversary-model engine: one pluggable disclosure layer.

The framework of the paper is parametric in the background-knowledge
language; this subsystem makes that parameter a first-class runtime object.

- :mod:`repro.engine.plane` — the :class:`SignaturePlane` (bucket signatures
  interned to dense ids; any bucketization becomes a compact id-multiset —
  the single cache key and unit of work) and :class:`CachePolicy` (LRU
  bound, sweep pinning).
- :mod:`repro.engine.backend` — :class:`PersistentBackend`, the long-lived
  worker processes with incremental signature shipping that run every
  parallel batch, behind the :class:`ExecutionBackend` type.
- :mod:`repro.engine.base` — the :class:`AdversaryModel` protocol, the
  string-keyed registry, and the :class:`EngineContext` shared state.
- :mod:`repro.engine.models` — the five built-in models (``implication``,
  ``negation``, ``weighted``, ``probabilistic``, ``sampling``), each a thin
  wrapper over the corresponding :mod:`repro.core` algorithm.
- :mod:`repro.engine.models_distribution` — Wong et al.'s distribution-based
  worst-case adversary (``distribution``) as a one-file registry plugin.
- :mod:`repro.engine.engine` — the :class:`DisclosureEngine`: one bounded
  LRU cache on the signature plane shared across *all* models, batch
  evaluation over many ``k`` / bucketizations / models (on an engine built
  with ``workers > 1``, on persistent workers with cache warm-back), cache
  persistence, uniform exact-float handling and witness reconstruction,
  plus adversary-parametric lattice search, which always runs in-process.

Every consumer in this package — :class:`~repro.core.safety.SafetyChecker`,
greedy suppression, Incognito/lattice search, the Figure 5/6 experiments and
the CLI ``--adversary`` flag — goes through this layer, so a new adversary is
a one-file plugin: subclass :class:`AdversaryModel`, decorate with
:func:`register_adversary`, and it is available everywhere by name.
"""

from repro.engine.backend import (
    BackendError,
    ExecutionBackend,
    PersistentBackend,
)
from repro.engine.base import (
    AdversaryModel,
    EngineContext,
    available_adversaries,
    canonical_params,
    get_adversary,
    param_schema,
    register_adversary,
)
from repro.engine.engine import DisclosureEngine, EngineStats
from repro.engine.models import (
    ImplicationAdversary,
    NegationAdversary,
    ProbabilisticAdversary,
    SamplingAdversary,
    WeightedAdversary,
)
from repro.engine.models_distribution import (
    DistributionAdversary,
    DistributionWitness,
)
from repro.engine.plane import CachePolicy, SignaturePlane

__all__ = [
    "AdversaryModel",
    "EngineContext",
    "DisclosureEngine",
    "EngineStats",
    "SignaturePlane",
    "CachePolicy",
    "BackendError",
    "ExecutionBackend",
    "PersistentBackend",
    "register_adversary",
    "get_adversary",
    "available_adversaries",
    "canonical_params",
    "param_schema",
    "ImplicationAdversary",
    "NegationAdversary",
    "WeightedAdversary",
    "ProbabilisticAdversary",
    "SamplingAdversary",
    "DistributionAdversary",
    "DistributionWitness",
]
