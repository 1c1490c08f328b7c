"""The adversary-model protocol and its string-keyed registry.

The paper's framework is *parametric* in the background-knowledge language:
Definition 6 fixes a family of formulas and asks for the worst case over it,
and Section 6 explicitly invites other families (negated atoms, cost-weighted
atoms, probabilistic knowledge). In this package each family used to be a
disconnected function cluster; this module gives them one shape:

- :class:`AdversaryModel` — the protocol every background-knowledge language
  implements: a worst-case ``disclosure`` for attacker power ``k``, an
  optional batched ``series`` over many ``k``, an optional ``witness``
  reconstruction, and the bits the engine needs for memoization
  (:meth:`AdversaryModel.cache_key`, :meth:`AdversaryModel.params_key`).
- :class:`EngineContext` — the shared evaluation state a
  :class:`~repro.engine.engine.DisclosureEngine` threads through every model
  call: the exact/float mode and one :class:`~repro.core.minimize1.Minimize1Solver`
  whose per-signature DP memo is reused across models, bucketizations, and
  calls (the Section 3.3.3 incremental-cost remark, generalized).
- ``register_adversary`` / ``get_adversary`` / ``available_adversaries`` —
  the registry that makes a new adversary a one-file plugin: subclass,
  decorate, and every consumer (sanitizers, lattice search, experiments,
  CLI ``--adversary``) can use it by name.
"""

from __future__ import annotations

import abc
import inspect
from collections.abc import Hashable, Iterable, Mapping
from typing import Any, ClassVar

from repro.bucketization.bucketization import Bucketization
from repro.core.minimize1 import Minimize1Solver
from repro.engine.plane import SignaturePlane
from repro.errors import UnknownAdversaryError

__all__ = [
    "EngineContext",
    "AdversaryModel",
    "register_adversary",
    "get_adversary",
    "available_adversaries",
    "canonical_params",
    "param_schema",
]


class EngineContext:
    """Shared evaluation state handed to every model call by the engine.

    Attributes
    ----------
    exact:
        The engine's arithmetic mode. Models that support it return
        :class:`~fractions.Fraction` when True; models that are inherently
        floating-point (``supports_exact = False``) return floats either way.
    plane:
        The shared :class:`~repro.engine.plane.SignaturePlane`: bucket
        signatures are interned to dense integer ids once, and every layer —
        the engine cache, the MINIMIZE1 memo, batch execution — keys on the
        interned form instead of re-hashing raw tuples.
    solver:
        One shared :class:`~repro.core.minimize1.Minimize1Solver`. Its memo is
        keyed by the plane's interned signature ids, so per-bucket DP work
        done for one model or one bucketization is reused by every later call
        on the same context.
    kernel:
        The *concrete* kernel the solver resolved to (``"numpy"`` or
        ``"scalar"``). The constructor accepts the full selector
        (``auto``/``numpy``/``scalar``); exact mode always resolves to
        scalar — see :func:`repro.core.kernel.resolve_kernel`.
    scratch:
        A free-form dict for model-private cross-call state (keyed by model
        name by convention); lets plugins memoize beyond what the engine's
        whole-bucketization cache covers.
    """

    __slots__ = ("exact", "plane", "solver", "kernel", "scratch")

    def __init__(
        self,
        *,
        exact: bool = False,
        plane: SignaturePlane | None = None,
        kernel: str = "auto",
    ) -> None:
        self.exact = exact
        self.plane = plane if plane is not None else SignaturePlane()
        self.solver = Minimize1Solver(
            exact=exact, intern=self.plane.intern, kernel=kernel
        )
        self.kernel = self.solver.kernel
        self.scratch: dict[Any, Any] = {}


class AdversaryModel(abc.ABC):
    """One background-knowledge language, evaluated in the worst case.

    Subclasses wrap an algorithm computing Definition 6 (or its analogue) for
    their language and declare:

    ``name``
        The registry key (``"implication"``, ``"negation"``, ...).
    ``supports_exact``
        Whether the model honours ``context.exact`` with Fraction arithmetic.
    ``supports_witness``
        Whether :meth:`witness` reconstructs a concrete worst-case formula.
    ``unbounded_scale``
        True when :meth:`disclosure` is not a probability (e.g. cost-weighted
        models, whose scale is ``max weight``): safety thresholds are then
        validated as positive only, not clamped to (0, 1].
    ``monotone``
        Whether the worst case is (believed) monotone non-increasing under
        bucket merging — what Theorem 14 proves for implications and the
        lattice searches' pruning relies on. Estimators whose answers are
        noisy near a threshold (``sampling``) declare False so consumers can
        warn before pruning on them.
    """

    name: ClassVar[str]
    supports_exact: ClassVar[bool] = True
    supports_witness: ClassVar[bool] = False
    unbounded_scale: ClassVar[bool] = False
    monotone: ClassVar[bool] = True

    # ------------------------------------------------------------------
    # Required: the worst case itself
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def disclosure(
        self, bucketization: Bucketization, k: int, *, context: EngineContext
    ):
        """Worst-case disclosure of ``bucketization`` against this adversary
        with power ``k`` (the model-specific analogue of Definition 6)."""

    # ------------------------------------------------------------------
    # Optional: batching, witnesses, sanitizer support
    # ------------------------------------------------------------------
    def series(
        self,
        bucketization: Bucketization,
        ks: Iterable[int],
        *,
        context: EngineContext,
    ) -> dict[int, object]:
        """Worst case for several ``k`` at once.

        The default evaluates each ``k`` independently; models whose
        computation shares work across ``k`` (the implication DP computes
        every ``k' <= max k`` in one pass) override this.
        """
        return {
            k: self.disclosure(bucketization, k, context=context)
            for k in sorted(set(ks))
        }

    def witness(
        self, bucketization: Bucketization, k: int, *, context: EngineContext
    ):
        """A concrete worst-case formula object achieving :meth:`disclosure`.

        Every witness object exposes at least a ``disclosure`` attribute; the
        rest is model-specific (implications, negated atoms, ...). Models
        with ``supports_witness = False`` raise :class:`NotImplementedError`.
        """
        raise NotImplementedError(
            f"the {self.name!r} adversary model does not reconstruct witnesses"
        )

    def worst_bucket(
        self, bucketization: Bucketization, k: int, *, context: EngineContext
    ) -> int:
        """Index of a bucket whose local worst case attains the global one.

        Sanitizers (greedy suppression) use this to decide where to remove
        tuples. The default evaluates each bucket as a singleton
        bucketization and returns the first argmax — correct for any model
        whose worst case decomposes as a max over buckets.
        """
        best_index = 0
        best = None
        for index, bucket in enumerate(bucketization.buckets):
            value = self.disclosure(Bucketization([bucket]), k, context=context)
            if best is None or value > best:
                best, best_index = value, index
        return best_index

    def worst_value(self, bucket, k: int, *, context: EngineContext):
        """The sensitive value driving ``bucket``'s worst case — what a
        greedy suppression sanitizer should remove a tuple of.

        For probability-scaled models the most frequent value drives the
        worst case (Lemma 12 places the consequent there), which is the
        default; cost-weighted models override this with the cost-optimal
        target.
        """
        return bucket.top_value

    # ------------------------------------------------------------------
    # Memoization hooks
    # ------------------------------------------------------------------
    def signature_decomposable(self) -> bool:
        """Whether this instance's answers depend on the bucketization only
        through its signature multiset.

        When True (the default — every closed-form and DP model in the
        paper), the engine keys this model on the interned signature plane
        and may evaluate it in worker processes on synthetically rebuilt
        bucketizations (:class:`~repro.engine.backend.PersistentBackend`).
        Models sensitive to more — Monte Carlo draws that depend on value
        order, cost weights attached to concrete values — return False and
        are cached under :meth:`cache_key` and evaluated serially instead.
        """
        return True

    def params_key(self) -> tuple:
        """Hashable identity of the model's parameters (weights, confidence,
        sample sizes, ...) — part of the engine's cache key so differently
        parameterized instances never share entries."""
        return ()

    def cache_key(self, bucketization: Bucketization) -> Hashable:
        """What the model's answer depends on, as a hashable key.

        Only consulted when :meth:`signature_decomposable` is False —
        decomposable models are keyed on the engine's interned signature
        plane instead. The default is the signature multiset (kept for
        plugins that override decomposability without providing a finer
        key); models sensitive to more (e.g. Monte Carlo draws depend on
        value order) override this.
        """
        return bucketization.signature_items()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
_REGISTRY: dict[str, type[AdversaryModel]] = {}


def register_adversary(cls: type[AdversaryModel]) -> type[AdversaryModel]:
    """Class decorator: add an :class:`AdversaryModel` subclass under its
    ``name``. Re-registering a different class under a taken name is an
    error; re-registering the same class (module reloads) is a no-op."""
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError(f"{cls.__qualname__} must define a non-empty `name`")
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"adversary model name {name!r} already registered "
            f"by {existing.__qualname__}"
        )
    _REGISTRY[name] = cls
    return cls


def get_adversary(model: str | AdversaryModel, **params: Any) -> AdversaryModel:
    """Resolve a model name (or pass through an instance) to an
    :class:`AdversaryModel`, forwarding ``params`` to the constructor.

    Raises
    ------
    UnknownAdversaryError
        If the name is not registered.
    """
    if isinstance(model, AdversaryModel):
        if params:
            raise ValueError("params are only valid with a model *name*")
        return model
    try:
        cls = _REGISTRY[model]
    except KeyError:
        raise UnknownAdversaryError(
            f"unknown adversary model {model!r}; "
            f"registered models: {', '.join(sorted(_REGISTRY))}"
        ) from None
    return cls(**params)


def available_adversaries() -> tuple[str, ...]:
    """Registered model names, sorted (the CLI's ``--adversary`` choices)."""
    return tuple(sorted(_REGISTRY))


def _canonical_value(value: Any) -> Hashable:
    if isinstance(value, Mapping):
        # Key-sorted by repr, matching WeightedAdversary.params_key's
        # ordering, so the same weights always canonicalize identically.
        return (
            "map",
            tuple(
                sorted(
                    ((k, _canonical_value(v)) for k, v in value.items()),
                    key=lambda kv: repr(kv[0]),
                )
            ),
        )
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_value(v) for v in value)
    return value


def canonical_params(params: Mapping[str, Any] | None) -> tuple:
    """Constructor kwargs as a stable, hashable, name-sorted tuple.

    This is the *identity* of a parameterization, shared by every layer
    that keys on it: the engine's model-instance memo, the serving tier's
    coalescer groups, and the shard router's routing hash. Two kwargs
    mappings that construct interchangeable model instances (same names,
    ``==`` values) canonicalize equal; ``None`` and ``{}`` both mean
    "defaults" and canonicalize to ``()``.
    """
    if not params:
        return ()
    return tuple(
        sorted((name, _canonical_value(value)) for name, value in params.items())
    )


def param_schema(model: str | type[AdversaryModel]) -> list[dict[str, Any]]:
    """A machine-usable description of a model's constructor parameters.

    One entry per ``__init__`` parameter: ``name``, ``type`` (the
    annotation as written) and ``default`` (JSON-safe: scalars pass
    through, anything richer is stringified). ``/models`` serves this so
    clients can discover tunables without reading source, and the
    conformance suite asserts the schema round-trips through
    :func:`get_adversary` — defaults rebuilt from the schema must yield
    the default :meth:`AdversaryModel.params_key`.
    """
    cls = _REGISTRY[model] if isinstance(model, str) else model
    schema: list[dict[str, Any]] = []
    variadic = (
        inspect.Parameter.VAR_POSITIONAL,
        inspect.Parameter.VAR_KEYWORD,
    )
    for parameter in inspect.signature(cls.__init__).parameters.values():
        if parameter.name == "self" or parameter.kind in variadic:
            # ``self`` is not a tunable; *args/**kwargs are what
            # ``object.__init__`` shows for parameterless models.
            continue
        annotation = parameter.annotation
        if annotation is inspect.Parameter.empty:
            annotation = "Any"
        default: Any = None
        if parameter.default is not inspect.Parameter.empty:
            default = parameter.default
        if not isinstance(default, (str, int, float, bool, type(None))):
            default = str(default)
        schema.append(
            {
                "name": parameter.name,
                "type": str(annotation),
                "default": default,
            }
        )
    return schema
