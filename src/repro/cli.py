"""Command-line interface: ``repro-wcbk`` (or ``python -m repro.cli``).

Subcommands
-----------
``generate``
    Write the synthetic Adult projection to a CSV.
``fig5`` / ``fig6``
    Reproduce the paper's evaluation figures and print their data series.
``disclosure``
    Maximum disclosure of one anonymization (by default both the implication
    and negation adversaries; ``--adversary`` selects any registered model).
``search``
    Find all minimal (c,k)-safe lattice nodes and the best one by precision.
``witness``
    Print a concrete worst-case formula for an anonymization.
``breach``
    Minimum attacker power k whose worst case reaches a disclosure level.
``estimate``
    Monte Carlo estimate of Pr(atom | B and formula) for a *given* formula
    (the #P-hard quantity of Theorem 8), with the formula written in the
    text syntax of :mod:`repro.knowledge.parser`.
``publish``
    Check and record the next version of a named table through the
    sequential republication engine
    (:class:`repro.publish.engine.RepublicationEngine`): the paper's
    (c,k)-safety per distinct bucket signature, incremental against the
    prior accepted release in the ledger, plus the cross-release
    composition check. Prints the JSON verdict; exit 0 = accepted,
    1 = rejected.
``serve``
    Run the JSON-over-HTTP disclosure service
    (:class:`repro.service.server.DisclosureService`): long-lived engines in
    both arithmetic modes, keep-alive connections, request coalescing, cache
    persistence across restarts, graceful SIGTERM shutdown. With
    ``--shards N`` (N >= 2) it instead runs the sharded tier
    (:class:`repro.service.router.ShardRouter`): N child service shards —
    subprocesses or embedded in the router, per ``--shard-mode`` — behind
    a plane-key hash router with restart-and-replay supervision and one
    persisted cache file pair per shard.

Every command accepts ``--rows``/``--seed`` to control the synthetic dataset
or ``--csv`` to use a file produced by ``generate`` (or the real Adult data
converted with :func:`repro.data.loader.load_adult_file`). The disclosure
analysis commands (``disclosure``, ``search``, ``breach``, ``witness``)
accept ``--adversary`` with any model name from the engine registry
(:func:`repro.engine.base.available_adversaries`). ``disclosure``,
``search``, ``fig5``, ``fig6`` and ``serve`` take the engine knobs
``--kernel`` (``auto`` / ``numpy`` / ``scalar`` MINIMIZE1/MINIMIZE2 kernel
for the float path) and ``--cache-limit`` (LRU bound on the shared cache);
``disclosure --cache-stats`` prints the cache's
hit/parallel-hit/miss/eviction counters and the active kernel. Only
``serve`` runs worker processes: its ``--workers`` (default 2) gives each
engine that many persistent workers for cache-missing batches, and 1 keeps
every batch in-process. Every other command runs in-process.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.core.kernel import KERNELS
from repro.core.negation import NegationWitness
from repro.core.safety import SafetyChecker
from repro.core.sampling import sample_probability
from repro.core.witness import WorstCaseWitness
from repro.engine import CachePolicy, DisclosureEngine, available_adversaries
from repro.knowledge.parser import parse_atom, parse_conjunction
from repro.data.adult import ADULT_SCHEMA, ADULT_SIZE
from repro.data.hierarchies import adult_hierarchies
from repro.data.loader import load_csv, save_csv
from repro.data.table import Table
from repro.errors import ReproError
from repro.experiments.fig5 import FIG5_NODE, run_figure5
from repro.experiments.fig6 import run_figure6
from repro.experiments.runner import (
    default_adult_table,
    figure5_csv,
    figure6_csv,
    render_figure5,
    render_figure6,
)
from repro.generalization.apply import bucketize_at
from repro.generalization.lattice import GeneralizationLattice
from repro.generalization.search import SearchStats
from repro.utility.metrics import precision

__all__ = ["main", "build_parser"]


def _add_dataset_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rows",
        type=int,
        default=ADULT_SIZE,
        help=f"synthetic dataset size (default {ADULT_SIZE})",
    )
    parser.add_argument(
        "--seed", type=int, default=20070419, help="synthetic dataset seed"
    )
    parser.add_argument(
        "--csv", type=str, default=None, help="load this CSV instead of generating"
    )


def _add_adversary_option(
    parser: argparse.ArgumentParser, *, default: str = "implication"
) -> None:
    parser.add_argument(
        "--adversary",
        choices=available_adversaries(),
        default=default,
        help=f"background-knowledge model (default {default})",
    )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}"
        )
    return value


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-limit",
        type=_positive_int,
        default=None,
        metavar="N",
        help="bound the engine's shared cache to N entries (LRU eviction)",
    )
    parser.add_argument(
        "--kernel",
        choices=KERNELS,
        default="auto",
        help=(
            "MINIMIZE1/MINIMIZE2 kernel for the float path: 'numpy' "
            "vectorizes MINIMIZE1 and runs MINIMIZE2 as a plain float loop "
            "(bit-identical to 'scalar'), 'auto' picks it when numpy is "
            "installed; exact mode always runs scalar (default auto)"
        ),
    )


def _build_engine(args: argparse.Namespace) -> DisclosureEngine:
    """One in-process engine per command, configured from the shared
    engine flags."""
    policy = CachePolicy(max_entries=getattr(args, "cache_limit", None))
    return DisclosureEngine(
        policy=policy, kernel=getattr(args, "kernel", "auto")
    )


def _print_cache_stats(engine: DisclosureEngine) -> None:
    stats = engine.stats
    print(
        f"cache: {engine.cache_size()} entries, {stats.cache_hits} hits / "
        f"{stats.parallel_hits} parallel hits / {stats.misses} misses "
        f"(hit rate {stats.hit_rate:.2%}), {stats.evictions} evictions, "
        f"kernel {stats.kernel}"
    )


def _parse_node(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"node must be comma-separated integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and shell completion)."""
    parser = argparse.ArgumentParser(
        prog="repro-wcbk",
        description=(
            "Worst-case background knowledge for privacy-preserving data "
            "publishing (ICDE 2007) — reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write the synthetic Adult CSV")
    p_gen.add_argument("--out", required=True, help="output CSV path")
    p_gen.add_argument("--rows", type=int, default=ADULT_SIZE)
    p_gen.add_argument("--seed", type=int, default=20070419)

    p_fig5 = sub.add_parser("fig5", help="reproduce Figure 5")
    _add_dataset_options(p_fig5)
    p_fig5.add_argument(
        "--node",
        type=_parse_node,
        default=FIG5_NODE,
        help="lattice node, e.g. 3,2,1,1 (default: the paper's)",
    )
    p_fig5.add_argument(
        "--out", type=str, default=None, help="also write the series as CSV"
    )
    _add_engine_options(p_fig5)

    p_fig6 = sub.add_parser("fig6", help="reproduce Figure 6")
    _add_dataset_options(p_fig6)
    p_fig6.add_argument(
        "--per-node", action="store_true", help="also print the raw node sweep"
    )
    p_fig6.add_argument(
        "--out", type=str, default=None, help="also write the envelopes as CSV"
    )
    _add_engine_options(p_fig6)

    p_disc = sub.add_parser(
        "disclosure", help="max disclosure of one anonymization"
    )
    _add_dataset_options(p_disc)
    p_disc.add_argument("--node", type=_parse_node, default=FIG5_NODE)
    p_disc.add_argument("--k", type=int, default=3, help="attacker power")
    p_disc.add_argument(
        "--adversary",
        choices=available_adversaries(),
        default=None,
        help="report a single model (default: both implication and negation)",
    )
    p_disc.add_argument(
        "--cache-stats",
        action="store_true",
        help="print engine cache behavior (hits/misses/evictions)",
    )
    _add_engine_options(p_disc)

    p_search = sub.add_parser(
        "search", help="find minimal (c,k)-safe lattice nodes"
    )
    _add_dataset_options(p_search)
    p_search.add_argument("--c", type=float, default=0.7, help="threshold")
    p_search.add_argument("--k", type=int, default=3, help="attacker power")
    p_search.add_argument(
        "--incognito",
        action="store_true",
        help="use the multi-phase Incognito search (subset pruning)",
    )
    _add_adversary_option(p_search)
    _add_engine_options(p_search)

    p_wit = sub.add_parser(
        "witness", help="print a worst-case formula for an anonymization"
    )
    _add_dataset_options(p_wit)
    p_wit.add_argument("--node", type=_parse_node, default=FIG5_NODE)
    p_wit.add_argument("--k", type=int, default=2, help="attacker power")
    _add_adversary_option(p_wit)

    p_breach = sub.add_parser(
        "breach", help="min attacker power reaching a disclosure level"
    )
    _add_dataset_options(p_breach)
    p_breach.add_argument("--node", type=_parse_node, default=FIG5_NODE)
    p_breach.add_argument(
        "--level", type=float, default=1.0, help="disclosure level to reach"
    )
    _add_adversary_option(p_breach)

    p_est = sub.add_parser(
        "estimate",
        help="Monte Carlo Pr(atom | B and formula) for a given formula",
    )
    _add_dataset_options(p_est)
    p_est.add_argument("--node", type=_parse_node, default=FIG5_NODE)
    p_est.add_argument(
        "--atom", required=True, help="target, e.g. 't[17] = Sales'"
    )
    p_est.add_argument(
        "--formula",
        default="",
        help="';'-joined implications, e.g. 't[3] = Sales -> t[17] = Sales'",
    )
    p_est.add_argument("--samples", type=int, default=20000)
    p_est.add_argument("--sample-seed", type=int, default=0)

    p_pub = sub.add_parser(
        "publish",
        help="check + record the next version of a table (release ledger)",
    )
    p_pub.add_argument(
        "table", help="table name (the ledger key, e.g. 'census')"
    )
    p_pub.add_argument(
        "--buckets",
        required=True,
        metavar="FILE",
        help="JSON file: a list of per-bucket sensitive-value lists",
    )
    p_pub.add_argument(
        "--c",
        required=True,
        help="safety threshold input (decimal like 0.9, or exact like 9/10)",
    )
    p_pub.add_argument("--k", type=int, default=1, help="attacker power")
    p_pub.add_argument(
        "--model",
        choices=available_adversaries(),
        default="implication",
        help="background-knowledge model (default implication)",
    )
    p_pub.add_argument(
        "--params",
        default=None,
        metavar="JSON",
        help='model parameters as a JSON object, e.g. \'{"weight": 2}\'',
    )
    p_pub.add_argument(
        "--exact",
        action="store_true",
        help="exact rational arithmetic (default: float)",
    )
    p_pub.add_argument(
        "--ledger-file",
        default=None,
        metavar="PATH",
        help=(
            "SQLite release ledger; versions accumulate across invocations "
            "(default: in-memory, i.e. a one-shot v1 check)"
        ),
    )
    p_pub.add_argument(
        "--tenant", default="", help="ledger tenant namespace (default none)"
    )
    p_pub.add_argument(
        "--full",
        action="store_true",
        help="force a from-scratch re-check (ignore reusable ledger values)",
    )
    p_pub.add_argument(
        "--witness",
        action="store_true",
        help="attach a worst-case formula to each violation",
    )

    p_serve = sub.add_parser(
        "serve", help="run the JSON-over-HTTP disclosure service"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8707,
        help="bind port; 0 picks an ephemeral port (default 8707)",
    )
    p_serve.add_argument(
        "--cache-file",
        default=None,
        metavar="PREFIX",
        help=(
            "persist engine caches across restarts: loads "
            "PREFIX.float.pkl / PREFIX.exact.pkl on boot (when present) "
            "and writes them back on shutdown"
        ),
    )
    p_serve.add_argument(
        "--ledger-file",
        default=None,
        metavar="PATH",
        help=(
            "persist the release ledger (POST /publish history) to this "
            "SQLite file; with --shards N each shard gets "
            "PATH.shard<i>.sqlite (default: in-memory, lost on shutdown)"
        ),
    )
    p_serve.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        metavar="N",
        help=(
            "run N service shards behind a plane-key hash router "
            "(cache-affinity routing, restart-and-replay supervision, "
            "per-shard cache files); 1 = a single in-process service "
            "(default 1)"
        ),
    )
    p_serve.add_argument(
        "--shard-mode",
        choices=("auto", "process", "inproc"),
        default="auto",
        help=(
            "how --shards N shards run: 'process' = one subprocess per "
            "shard (the multi-core topology), 'inproc' = shards embedded "
            "in the router process (no socket hop; right when cores <= "
            "shards), 'auto' = process only when this host has more cores "
            "than shards (default auto)"
        ),
    )
    p_serve.add_argument(
        "--max-connections",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "cap concurrently open client connections (503 beyond the cap; "
            "default unbounded)"
        ),
    )
    p_serve.add_argument(
        "--tenants",
        default=None,
        metavar="FILE",
        help=(
            "serve multiple tenants from one process: FILE is a JSON "
            'object {tenant: {"model": name, "params": {...}}} giving '
            "each tenant its default threat model; every tenant gets its "
            "own engines, /stats counters and cache files "
            "(PREFIX.<tenant>[.shard<i>].<mode>.pkl); validated at boot"
        ),
    )
    p_serve.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help=(
            "persistent worker processes per engine for cache-missing "
            "batches; 1 keeps every batch in-process (default 2)"
        ),
    )
    _add_engine_options(p_serve)

    p_lint = sub.add_parser(
        "lint",
        help="run the invariant linter (REP001-REP005) over the tree",
    )
    p_lint.add_argument(
        "--root",
        default=".",
        help="project root to scan (default: current directory)",
    )
    p_lint.add_argument(
        "--rules",
        nargs="+",
        metavar="RULE",
        default=None,
        help="run only these rule ids (default: all registered rules)",
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="report format (default text)",
    )
    p_lint.add_argument(
        "--baseline",
        default="lint-baseline.json",
        metavar="PATH",
        help=(
            "baseline file of grandfathered findings, relative to --root "
            "(default lint-baseline.json; missing file = empty baseline)"
        ),
    )
    p_lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report every finding as active",
    )
    p_lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate the baseline from the current findings and exit 0",
    )
    p_lint.add_argument(
        "--verbose",
        action="store_true",
        help="also list baselined findings in the text report",
    )

    return parser


def _load_table(args: argparse.Namespace) -> Table:
    if args.csv:
        return load_csv(args.csv, ADULT_SCHEMA)
    return default_adult_table(args.rows, args.seed)


def _adult_lattice() -> GeneralizationLattice:
    return GeneralizationLattice(
        adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    table = default_adult_table(args.rows, args.seed)
    save_csv(table, args.out)
    print(f"wrote {len(table)} rows to {args.out}")
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    with _build_engine(args) as engine:
        result = run_figure5(_load_table(args), node=args.node, engine=engine)
    print(render_figure5(result))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(figure5_csv(result))
        print(f"series written to {args.out}")
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    with _build_engine(args) as engine:
        result = run_figure6(_load_table(args), engine=engine)
    print(render_figure6(result, per_node=args.per_node))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(figure6_csv(result))
        print(f"envelopes written to {args.out}")
    return 0


def _cmd_disclosure(args: argparse.Namespace) -> int:
    table = _load_table(args)
    bucketization = bucketize_at(table, _adult_lattice(), args.node)
    with _build_engine(args) as engine:
        print(f"node {tuple(args.node)}: {len(bucketization)} buckets")
        if args.adversary is None:
            comparison = engine.compare(
                bucketization, [args.k], models=("implication", "negation")
            )
            implication = comparison["implication"][args.k]
            negation = comparison["negation"][args.k]
            print(f"max disclosure, {args.k} implications : {implication:.6f}")
            print(f"max disclosure, {args.k} negations    : {negation:.6f}")
            print(f"kernel: {engine.kernel}")
        else:
            value = engine.evaluate(bucketization, args.k, model=args.adversary)
            print(
                f"max disclosure, {args.adversary} adversary, k={args.k} : "
                f"{float(value):.6f}"
            )
        if args.cache_stats:
            _print_cache_stats(engine)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    table = _load_table(args)
    lattice = _adult_lattice()
    with _build_engine(args) as engine:
        return _run_search(args, table, lattice, engine)


def _run_search(args, table, lattice, engine: DisclosureEngine) -> int:
    checker = SafetyChecker(args.c, args.k, model=args.adversary, engine=engine)
    if not checker.model.monotone:
        print(
            f"warning: the {checker.model.name!r} adversary is not monotone "
            f"under generalization; pruning may misreport minimal nodes",
            file=sys.stderr,
        )
    if args.incognito:
        from repro.generalization.incognito import (
            IncognitoStats,
            incognito_minimal_safe_nodes,
        )

        incognito_stats = IncognitoStats()
        minimal = sorted(
            incognito_minimal_safe_nodes(
                table, lattice, checker.is_safe, stats=incognito_stats
            )
        )
        print(
            f"(c={args.c}, k={args.k})-safety [{args.adversary}] via "
            f"multi-phase Incognito: {len(minimal)} minimal safe node(s); "
            f"{incognito_stats.final_phase_evaluated} full-lattice checks "
            f"({incognito_stats.evaluated} incl. subset phases)"
        )
    else:
        stats = SearchStats()
        minimal = engine.find_minimal_safe_nodes(
            table, lattice, args.c, args.k, model=args.adversary, stats=stats
        )
        print(
            f"(c={args.c}, k={args.k})-safety [{args.adversary}]: "
            f"{len(minimal)} minimal safe "
            f"node(s); {stats.predicate_checks} checks, {stats.pruned} pruned "
            f"of {stats.nodes_total} nodes"
        )
    if not minimal:
        print("no safe node exists in this lattice", file=sys.stderr)
        return 1
    for node in minimal:
        disclosure = checker.disclosure(bucketize_at(table, lattice, node))
        print(
            f"  node {node}  disclosure={disclosure:.6f}  "
            f"precision={precision(lattice, node):.4f}"
        )
    best = max(minimal, key=lambda node: precision(lattice, node))
    print(f"best by precision: {best}")
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    table = _load_table(args)
    bucketization = bucketize_at(table, _adult_lattice(), args.node)
    engine = DisclosureEngine()
    try:
        witness = engine.witness(bucketization, args.k, model=args.adversary)
    except NotImplementedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(witness, WorstCaseWitness):
        print(
            f"disclosure {witness.disclosure:.6f} via consequent "
            f"{witness.consequent}"
        )
        for implication in witness.implications:
            print(f"  {implication}")
    elif isinstance(witness, NegationWitness):
        print(
            f"disclosure {witness.disclosure:.6f} via target "
            f"t[{witness.person}] = {witness.target_value} "
            f"(bucket {witness.bucket_index})"
        )
        for value in witness.negated_values:
            print(f"  NOT t[{witness.person}] = {value}")
    else:  # future plugins: rely on the uniform `disclosure` attribute
        print(f"disclosure {float(witness.disclosure):.6f}")
        print(f"  {witness}")
    return 0


def _cmd_breach(args: argparse.Namespace) -> int:
    table = _load_table(args)
    bucketization = bucketize_at(table, _adult_lattice(), args.node)
    engine = DisclosureEngine()
    k = engine.min_k_to_breach(bucketization, args.level, model=args.adversary)
    pieces = {
        "implication": "basic implication(s)",
        "negation": "negated atom(s)",
    }.get(args.adversary, f"piece(s) of {args.adversary} knowledge")
    print(
        f"node {tuple(args.node)}: {k} {pieces} suffice to reach "
        f"disclosure >= {args.level}"
    )
    return 0


def _coerce_person(atom):
    """Person ids in generated tables are integer row indices; parsed atoms
    carry strings. Coerce when the text is an integer literal."""
    from repro.knowledge.atoms import Atom

    try:
        return Atom(int(atom.person), atom.value)
    except (TypeError, ValueError):
        return atom


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.knowledge.formulas import BasicImplication, Conjunction

    table = _load_table(args)
    bucketization = bucketize_at(table, _adult_lattice(), args.node)
    atom = _coerce_person(parse_atom(args.atom))
    phi = parse_conjunction(args.formula)
    phi = Conjunction(
        tuple(
            BasicImplication(
                antecedents=tuple(_coerce_person(a) for a in imp.antecedents),
                consequents=tuple(_coerce_person(b) for b in imp.consequents),
            )
            for imp in phi.implications
        )
    )
    result = sample_probability(
        bucketization,
        atom,
        phi if phi.k else None,
        samples=args.samples,
        seed=args.sample_seed,
    )
    print(
        f"Pr({atom} | B{' and ' + str(phi) if phi.k else ''}) "
        f"~ {result.estimate:.4f}  "
        f"(95% CI [{result.low:.4f}, {result.high:.4f}], "
        f"{result.accepted}/{result.samples} worlds accepted)"
    )
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    import json
    from fractions import Fraction

    from repro.publish import ReleaseLedger, RepublicationEngine
    from repro.service.wire import bucketization_from_payload

    with open(args.buckets) as handle:
        payload = json.load(handle)
    # Accept the endpoint's envelope form ({"buckets": [...]}) as well as
    # a bare list of value lists, so a /publish request body works as-is.
    if isinstance(payload, dict) and "buckets" in payload:
        payload = payload["buckets"]
    bucketization = bucketization_from_payload(payload)
    try:
        c = Fraction(args.c)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"--c must be a decimal or a fraction, got {args.c!r}"
        ) from None
    if not args.exact:
        c = float(c)
    params = json.loads(args.params) if args.params else None
    if params is not None and not isinstance(params, dict):
        raise ValueError("--params must be a JSON object")
    engine = DisclosureEngine(exact=args.exact)
    with ReleaseLedger(args.ledger_file or ":memory:") as ledger:
        republisher = RepublicationEngine(engine, ledger, tenant=args.tenant)
        verdict = republisher.publish(
            args.table,
            bucketization,
            c=c,
            k=args.k,
            model=args.model,
            params=params,
            full=args.full,
            with_witness=args.witness,
        )
    print(json.dumps(verdict, indent=2, sort_keys=True))
    return 0 if verdict["accepted"] else 1


async def _serve_until_signalled(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    if args.shards > 1:
        from repro.service.router import ShardRouter

        service = ShardRouter(
            host=args.host,
            port=args.port,
            shards=args.shards,
            shard_mode=args.shard_mode,
            workers=args.workers,
            kernel=args.kernel,
            cache_limit=args.cache_limit,
            cache_path=args.cache_file,
            max_connections=args.max_connections,
            tenants=args.tenants,
            ledger_file=args.ledger_file,
        )
    else:
        from repro.service.server import DisclosureService

        service = DisclosureService(
            host=args.host,
            port=args.port,
            workers=args.workers,
            kernel=args.kernel,
            cache_limit=args.cache_limit,
            cache_path=args.cache_file,
            max_connections=args.max_connections,
            tenants=args.tenants,
            ledger_file=args.ledger_file,
        )
    # Handlers go in BEFORE the port line is printed: a supervisor (the
    # shard router, a test harness) treats the port line as "booted" and
    # may SIGTERM immediately — which must always mean a graceful,
    # cache-saving shutdown, never the default handler.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # non-Unix event loops
            signal.signal(signum, lambda *_: stop.set())

    await service.start()
    # The port line goes out first (and flushed) so wrappers binding
    # --port 0 can read the ephemeral port back.
    print(f"serving on http://{service.host}:{service.port}", flush=True)
    if args.shards > 1:
        if service.shard_mode == "inproc":
            print(
                f"router: {args.shards} in-process shards; "
                f"workers={args.workers} per shard",
                flush=True,
            )
        else:
            ports = [shard.port for shard in service.shards]
            print(
                f"router: {args.shards} shards on ports {ports}; "
                f"workers={args.workers} per shard",
                flush=True,
            )
    else:
        loaded = service.loaded_entries
        print(
            f"cache: loaded {loaded['float']} float / {loaded['exact']} exact "
            f"entries; workers={args.workers}",
            flush=True,
        )

    await stop.wait()
    print("shutting down...", flush=True)
    await service.stop()
    if args.shards > 1:
        if args.cache_file is not None:
            print(
                f"cache: each shard saved to "
                f"{args.cache_file}.shard<i>.*.pkl",
                flush=True,
            )
    elif args.cache_file is not None:
        saved = service.saved_entries
        print(
            f"cache: saved {saved['float']} float / {saved['exact']} exact "
            f"entries to {args.cache_file}.*.pkl",
            flush=True,
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    try:
        return asyncio.run(_serve_until_signalled(args))
    except KeyboardInterrupt:  # Ctrl-C before the handler was installed
        return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the analysis framework is a dev/CI tool and should
    # add nothing to the cost of the numeric commands.
    from pathlib import Path

    from repro.analysis import (
        Baseline,
        Project,
        get_rules,
        render_json,
        render_text,
        run_rules,
    )

    root = Path(args.root).resolve()
    if not root.is_dir():
        raise ValueError(f"--root {args.root!r} is not a directory")
    project = Project(root)
    rules = get_rules(args.rules)
    baseline_path = root / args.baseline
    if args.write_baseline:
        findings, _ = run_rules(project, rules, baseline=None)
        Baseline.from_findings(findings).save(baseline_path)
        print(
            f"wrote {len(findings)} grandfathered finding(s) to "
            f"{baseline_path}"
        )
        return 0
    baseline = None
    if not args.no_baseline and baseline_path.is_file():
        baseline = Baseline.load(baseline_path)
    active, baselined = run_rules(project, rules, baseline=baseline)
    if args.output_format == "json":
        print(render_json(active, baselined))
    else:
        print(render_text(active, baselined, verbose=args.verbose))
    return 1 if active else 0


_COMMANDS = {
    "generate": _cmd_generate,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "disclosure": _cmd_disclosure,
    "search": _cmd_search,
    "witness": _cmd_witness,
    "breach": _cmd_breach,
    "estimate": _cmd_estimate,
    "publish": _cmd_publish,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, ValueError, ModuleNotFoundError) as exc:
        # Library errors (no safe node, oracle guard tripped by an
        # oracle-only adversary, inconsistent knowledge), argument
        # validation, and a missing optional dependency (numpy for the
        # synthetic Adult generator) all surface as one clean diagnostic.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
