"""Seeded workload inputs: every request body is built and encoded here,
before any timing starts, from ``--seed`` alone.

All workloads draw from one population: the program's default synthetic
Adult table (45,222 rows, data seed 20070419). The workload seed picks
the samples -- table slices, classes, row samples -- so every seed gives
inputs with the same statistics. Questions are bucketizations at lattice
nodes: a slice of the population is grouped by its generalized
quasi-identifiers, exactly the equivalence classes ``bucketize_at`` forms,
and each class becomes one bucket of sensitive values. Grouping here, not
through the program, keeps input generation cheap and out of the
program's own counters.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field

from repro import ADULT_SCHEMA, GeneralizationLattice, adult_hierarchies
from repro.data import generate_adult

#: Default workload seed when ``--seed`` is not given.
DEFAULT_SEED = 20070419
#: The population every workload samples from.
POPULATION_ROWS, POPULATION_SEED = 45222, 20070419


def population():
    return generate_adult(POPULATION_ROWS, seed=POPULATION_SEED)

#: Endpoint mix of ``lookup`` questions: single, safety, batch, compare.
LOOKUP_ENDPOINTS = (("single", 0.60), ("safety", 0.30), ("batch", 0.05), ("compare", 0.05))
#: Model mix; ``distribution`` is always sent with explicit params.
LOOKUP_MODELS = (("implication", 0.50), ("negation", 0.35), ("distribution", 0.15))
DISTRIBUTION_PARAMS = {"tilt": 2.5}
EXACT_SHARE = 0.05
#: Question kinds of the timed sequence. Cold stays well above 1% so that
#: the p99 falls inside the cold population, not on its boundary.
KIND_SHARES = (("repeat", 0.75), ("variant", 0.20), ("cold", 0.05))
CORPUS_SIZE = 240
WARMUP_OPS = 3000
SAFETY_C = 0.7
BATCH_SIZE = 4
BATCH_KS = [1, 2, 3]
COMPARE_KS = [1, 2, 3, 4]
COMPARE_MODELS = ["implication", "negation"]


def request_bytes(method: str, path: str, body: bytes = b"") -> bytes:
    """One pre-encoded keep-alive HTTP/1.1 request."""
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
    if method == "POST":
        head += (
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
    return (head + "\r\n").encode("latin-1") + body


def multiset_key(buckets) -> tuple:
    """The signature multiset of raw value lists (the engine's cache key)."""
    sigs = Counter(
        tuple(sorted(Counter(values).values(), reverse=True)) for values in buckets
    )
    return tuple(sorted(sigs.items()))


def _pick(rng: random.Random, shares) -> str:
    x = rng.random()
    for name, share in shares:
        x -= share
        if x < 0:
            return name
    return shares[-1][0]


class AdultSlicer:
    """Bucketizations of slices of a synthetic Adult table at lattice nodes."""

    def __init__(self, table) -> None:
        self.lattice = GeneralizationLattice(
            adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
        )
        self.nodes = list(self.lattice.nodes())
        attrs = ADULT_SCHEMA.quasi_identifiers
        self.qi = [tuple(r[a] for a in attrs) for r in table]
        self.sensitive = [r[ADULT_SCHEMA.sensitive] for r in table]
        self.domain = sorted(set(self.sensitive))
        # generalized value per (attribute, level, ground value)
        self._maps = []
        for index, attribute in enumerate(attrs):
            levels = max(node[index] for node in self.nodes) + 1
            values = sorted({q[index] for q in self.qi}, key=repr)
            per_level = []
            for level in range(levels):
                node = tuple(level if i == index else 0 for i in range(len(attrs)))
                per_level.append(
                    {v: self.lattice.generalize_value(attribute, v, node) for v in values}
                )
            self._maps.append(per_level)

    def classes(self, start: int, size: int, node) -> list[list[str]]:
        """Equivalence classes of rows ``[start, start+size)`` at ``node``."""
        maps = [self._maps[i][level] for i, level in enumerate(node)]
        groups: dict[tuple, list[str]] = {}
        for row in range(start, start + size):
            q = self.qi[row]
            key = tuple(m[v] for m, v in zip(maps, q))
            groups.setdefault(key, []).append(self.sensitive[row])
        return list(groups.values())

    def question(self, rng: random.Random, lo: int = 40, hi: int = 120):
        size = rng.randint(lo, hi)
        start = rng.randrange(len(self.qi) - size)
        return self.classes(start, size, rng.choice(self.nodes))


# ----------------------------------------------------------------------
# lookup / lookup-sharded
# ----------------------------------------------------------------------
@dataclass
class Question:
    """One request identity: endpoint, threat model and bucketization(s)."""

    endpoint: str
    model: str
    exact: bool
    k: int
    buckets: list  # one bucketization, or BATCH_SIZE of them for "batch"
    key: int | None = None  # hash of identity(), filled when first encoded

    def payload(self, buckets=None) -> dict:
        buckets = self.buckets if buckets is None else buckets
        if self.endpoint == "compare":
            payload = {"buckets": buckets, "ks": COMPARE_KS, "models": COMPARE_MODELS}
        elif self.endpoint == "batch":
            payload = {"bucketizations": buckets, "ks": BATCH_KS, "model": self.model}
        else:
            payload = {"buckets": buckets, "k": self.k, "model": self.model}
            if self.endpoint == "safety":
                payload["c"] = SAFETY_C
        if self.model == "distribution" and self.endpoint != "compare":
            payload["params"] = DISTRIBUTION_PARAMS
        if self.exact:
            payload["exact"] = True
        return payload

    @property
    def path(self) -> str:
        return "/compare" if self.endpoint == "compare" else (
            "/safety" if self.endpoint == "safety" else "/disclosure"
        )

    def bucketizations(self) -> list:
        return self.buckets if self.endpoint == "batch" else [self.buckets]

    def identity(self) -> tuple:
        """Everything the answer depends on: equal for variants."""
        return (self.endpoint, self.model, self.exact, self.k) + tuple(
            multiset_key(b) for b in self.bucketizations()
        )


@dataclass
class LookupInputs:
    """Pre-encoded requests plus the sequences that index into them."""

    requests: list = field(default_factory=list)  # request bytes
    meta: list = field(default_factory=list)  # (kind, endpoint, model, exact, identity)
    corpus: list = field(default_factory=list)  # request ids primed first
    warmup: list = field(default_factory=list)  # untimed, before the timed phase
    timed: list = field(default_factory=list)  # the timed closed-loop sequence


class _LookupBuilder:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.slicer = AdultSlicer(population())
        self.seen: set = set()
        self.out = LookupInputs()

    def fresh_buckets(self) -> list:
        while True:
            buckets = self.slicer.question(self.rng)
            key = multiset_key(buckets)
            if key not in self.seen:
                self.seen.add(key)
                return buckets

    def fresh_question(self, endpoint: str | None = None) -> Question:
        rng = self.rng
        endpoint = endpoint or _pick(rng, LOOKUP_ENDPOINTS)
        model = "implication" if endpoint == "compare" else _pick(rng, LOOKUP_MODELS)
        exact = rng.random() < EXACT_SHARE
        if endpoint == "batch":
            buckets = [self.fresh_buckets() for _ in range(BATCH_SIZE)]
        else:
            buckets = self.fresh_buckets()
        return Question(endpoint, model, exact, rng.randint(1, 4), buckets)

    def add(self, question: Question, kind: str, buckets=None) -> int:
        body = json.dumps(question.payload(buckets), separators=(",", ":")).encode()
        self.out.requests.append(request_bytes("POST", question.path, body))
        if question.key is None:
            question.key = hash(question.identity())
        self.out.meta.append((kind, question.endpoint, question.model, question.exact, question.key))
        return len(self.out.requests) - 1

    def variant(self, question: Question) -> list:
        """Equal signatures, different bytes: relabel values and/or
        reorder buckets."""
        rng = self.rng
        domain = self.slicer.domain
        while True:
            how = rng.randrange(3)
            relabel = dict(zip(domain, rng.sample(domain, len(domain))))

            def one(buckets):
                out = [list(b) for b in buckets]
                if how != 1:
                    out = [[relabel[v] for v in b] for b in out]
                if how != 0:
                    rng.shuffle(out)
                return out

            if question.endpoint == "batch":
                new = [one(b) for b in question.buckets]
            else:
                new = one(question.buckets)
            if new != question.buckets:
                return new


def build_lookup(seed: int, max_ops: int) -> LookupInputs:
    """The ``lookup`` traffic: a primed corpus, an untimed warm-up, and a
    timed sequence of ``max_ops`` repeats, variants and cold questions."""
    b = _LookupBuilder(seed)
    corpus_questions = []
    for _ in range(CORPUS_SIZE):
        question = b.fresh_question()
        corpus_questions.append(question)
        b.out.corpus.append(b.add(question, "corpus"))
    # Warm-up: cold batches of 8 in both modes fork the persistent workers
    # of every engine (of every shard: the router splits batches by plane
    # key) before timing; then a slice of ordinary warm traffic.
    for exact in (False, True) * 3:
        buckets = [b.fresh_buckets() for _ in range(8)]
        question = Question("batch", "implication", exact, 1, buckets)
        b.out.warmup.append(b.add(question, "warmup"))
    for _ in range(WARMUP_OPS):
        if b.rng.random() < 0.8:
            b.out.warmup.append(b.rng.choice(b.out.corpus))
        else:
            base = b.rng.randrange(CORPUS_SIZE)
            q = corpus_questions[base]
            b.out.warmup.append(b.add(q, "warmup", b.variant(q)))
    for _ in range(max_ops):
        kind = _pick(b.rng, KIND_SHARES)
        if kind == "repeat":
            b.out.timed.append(b.out.corpus[b.rng.randrange(CORPUS_SIZE)])
        elif kind == "variant":
            q = corpus_questions[b.rng.randrange(CORPUS_SIZE)]
            b.out.timed.append(b.add(q, "variant", b.variant(q)))
        else:
            b.out.timed.append(b.add(b.fresh_question(), "cold"))
    return b.out


# ----------------------------------------------------------------------
# publish
# ----------------------------------------------------------------------
#: Classes kept for releases: 30-80 records over at least 9 occupations,
#: none above a quarter -- safe at every effective k a chain reaches.
CLASS_SIZE = (30, 80)
RELEASE_CLASSES = 40
CHANGED_PER_VERSION = 5  # 12.5% of a release's buckets
TABLES_PER_CONNECTION = 3
#: One table's chain of versions within an epoch:
#: (model, c, change buckets?, add an unsafe class?, base version)
CHAIN = (
    ("implication", 0.9, False, False, None),  # v1 first release
    ("implication", 0.9, True, False, 1),  # v2 incremental
    ("implication", 0.9, False, True, 2),  # v3 rejected: unsuppressed class
    ("negation", 0.9, True, False, 2),  # v4 policy change: full re-check
    ("negation", 0.85, True, False, 4),  # v5 c change: still incremental
)
PUBLISH_K = 1
#: After these versions' round, read back the previous round's release.
READ_AFTER = (2, 4)
HISTORY_TABLES = 2


@dataclass
class PublishInputs:
    requests: list = field(default_factory=list)
    meta: list = field(default_factory=list)  # ("publish"|"read", table, version, payload)
    prime: list = field(default_factory=list)
    warmup: list = field(default_factory=list)  # one lane per connection
    lanes: list = field(default_factory=list)  # one lane per connection


class _ClassPool:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        slicer = AdultSlicer(population())
        self.domain = slicer.domain
        self.safe: list[list[str]] = []
        self.tiny: list[list[str]] = []
        self.used: set[tuple] = set()
        for node in slicer.nodes[::6]:
            for values in slicer.classes(0, len(slicer.qi), node):
                counts = Counter(values)
                if (
                    CLASS_SIZE[0] <= len(values) <= CLASS_SIZE[1]
                    and len(counts) >= 9
                    and max(counts.values()) * 4 <= len(values)
                ):
                    self.safe.append(values)
                elif len(values) == 1:
                    self.tiny.append(values)

    def fresh(self) -> list[str]:
        """A pool class with 1-3 records added and 0-2 removed, redrawn
        until its signature is new: every release writes through the
        engine on cold signatures, so each epoch costs the same."""
        rng = self.rng
        while True:
            values = list(rng.choice(self.safe))
            for _ in range(rng.randint(0, 2)):
                values.pop(rng.randrange(len(values)))
            values += [rng.choice(self.domain) for _ in range(rng.randint(1, 3))]
            signature = tuple(sorted(Counter(values).values(), reverse=True))
            if signature not in self.used:
                self.used.add(signature)
                return values


def _chain(pool: _ClassPool) -> list[tuple[str, float, list]]:
    versions: list[list] = []
    out = []
    for model, c, change, unsafe, base in CHAIN:
        if base is None:
            buckets = [pool.fresh() for _ in range(RELEASE_CLASSES)]
        else:
            buckets = [list(b) for b in versions[base - 1]]
        if change:
            for index in pool.rng.sample(range(len(buckets)), CHANGED_PER_VERSION):
                buckets[index] = pool.fresh()
        if unsafe:
            buckets.append(list(pool.rng.choice(pool.tiny)))
        versions.append(buckets)
        out.append((model, c, buckets))
    return out


def build_publish(seed: int, epochs: int, connections: int) -> PublishInputs:
    """``epochs`` epochs per connection; an epoch runs the version chain on
    fresh tables owned by that connection, so per-table order is fixed.
    The timed phase replays every lane to its end: a fixed amount of work
    per run, so the engine cache and ledger (and so memory) end the same
    size on every run of one seed."""
    pool = _ClassPool(seed)
    out = PublishInputs()

    def add(kind: str, table: str, version: int, payload: dict | None) -> int:
        if kind == "publish":
            body = json.dumps(payload, separators=(",", ":")).encode()
            data = request_bytes("POST", "/publish", body)
        else:
            data = request_bytes("GET", f"/releases/{table}/{version}")
        out.requests.append(data)
        out.meta.append((kind, table, version, payload))
        return len(out.requests) - 1

    def publish_ops(tables: list[str]) -> list[int]:
        ops = []
        chains = [_chain(pool) for _ in tables]
        for version in range(1, len(CHAIN) + 1):
            for table, chain in zip(tables, chains):
                model, c, buckets = chain[version - 1]
                payload = {"table": table, "buckets": buckets, "c": c, "k": PUBLISH_K, "model": model}
                ops.append(add("publish", table, version, payload))
            if version in READ_AFTER:
                table = tables[version % len(tables)]
                ops.append(add("read", table, version - 1, None))
        return ops

    out.prime = publish_ops([f"h{j}" for j in range(HISTORY_TABLES)])
    out.warmup = [publish_ops([f"w{conn}"]) for conn in range(connections)]
    for conn in range(connections):
        lane = []
        for epoch in range(epochs):
            lane += publish_ops([f"c{conn}e{epoch}t{j}" for j in range(TABLES_PER_CONNECTION)])
        out.lanes.append(lane)
    return out
