"""Answer checks, run after the timed phase against direct in-process calls.

- ``lookup``: every distinct answer is recomputed by a ``DisclosureEngine``
  of the same arithmetic mode. Floats must be bit-identical through
  ``repro.codec``; exact values must be equal ``Fraction`` objects.
- ``publish``: every verdict's decision fields (everything but ``work``)
  must equal an in-process ``RepublicationEngine`` replay of the same
  per-table sequence on a fresh ledger; every read must return the
  recorded release.
- ``sanitize``: each policy's minimal nodes must equal the minimal
  elements of an unpruned scan of all lattice nodes.
"""

from __future__ import annotations

import json
import struct
from fractions import Fraction

from repro import ADULT_SCHEMA, Bucketization, DisclosureEngine, GeneralizationLattice, adult_hierarchies
from repro.codec import decode_params, decode_value, encode_series, encode_value
from repro.data import load_csv
from repro.generalization import bucketize_at
from repro.publish import ReleaseLedger, RepublicationEngine
from repro.publish.ledger import multiset_to_wire


def same(expected, actual, exact: bool) -> bool:
    """Structural equality: floats bit for bit, exact strings as Fractions."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return type(expected) is type(actual) and expected == actual
    if isinstance(expected, float):
        return isinstance(actual, float) and struct.pack("<d", expected) == struct.pack("<d", actual)
    if exact and isinstance(expected, str):
        try:
            want = decode_value(expected)
        except ValueError:  # not a number: a model name, say
            want = None
        if want is not None:
            try:
                got = decode_value(actual) if isinstance(actual, str) else None
            except ValueError:
                return False
            return isinstance(got, Fraction) and got == want
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and expected.keys() == actual.keys()
            and all(same(expected[key], actual[key], exact) for key in expected)
        )
    if isinstance(expected, (list, tuple)):
        return (
            isinstance(actual, list)
            and len(expected) == len(actual)
            and all(same(e, a, exact) for e, a in zip(expected, actual))
        )
    return type(expected) is type(actual) and expected == actual


class LookupOracle:
    """Direct engine answers for the lookup endpoints, one engine per mode."""

    def __init__(self) -> None:
        self.engines = {
            mode: DisclosureEngine(exact=(mode == "exact"), backend="serial") for mode in ("float", "exact")
        }

    def answer(self, path: str, payload: dict) -> dict:
        exact = bool(payload.get("exact", False))
        engine = self.engines["exact" if exact else "float"]
        params = decode_params(payload["params"]) if "params" in payload else {}
        if path == "/compare":
            ks = payload["ks"]
            models = [engine.model(name, params) for name in payload["models"]]
            b = Bucketization.from_value_lists(payload["buckets"])
            comparison = engine.compare(b, ks, models=models)
            return {
                "ks": sorted(set(ks)),
                "exact": exact,
                "kernel": engine.kernel,
                "series": {name: encode_series(s) for name, s in comparison.items()},
            }
        model = engine.model(payload["model"], params)
        if "bucketizations" in payload:
            ks = payload["ks"]
            bs = [Bucketization.from_value_lists(b) for b in payload["bucketizations"]]
            series = engine.evaluate_many(bs, ks, model=model)
            return {
                "model": payload["model"],
                "ks": sorted(set(ks)),
                "exact": exact,
                "series": [encode_series(s) for s in series],
            }
        k = payload["k"]
        value = engine.evaluate(Bucketization.from_value_lists(payload["buckets"]), k, model=model)
        answer = {"model": payload["model"], "k": k, "exact": exact, "value": encode_value(value)}
        if path == "/safety":
            answer["c"] = payload["c"]
            answer["safe"] = bool(value < engine.threshold(payload["c"], model=model))
            answer = {key: answer[key] for key in ("model", "k", "c", "exact", "safe", "value")}
        return answer


def split_request(data: bytes) -> tuple[str, str, dict | None]:
    head, _, body = data.partition(b"\r\n\r\n")
    method, path = head.split(b" ", 2)[:2]
    return method.decode(), path.decode(), json.loads(body) if body else None


def verify_lookup(requests: list, responses: dict) -> list[int]:
    """Request ids whose answer differs from the direct engine."""
    oracle = LookupOracle()
    bad = []
    for req, body in sorted(responses.items()):
        _method, path, payload = split_request(requests[req])
        try:
            actual = json.loads(body)
        except ValueError:
            bad.append(req)
            continue
        if not same(oracle.answer(path, payload), actual, bool(payload.get("exact"))):
            bad.append(req)
    return bad


DECISION_SKIP = ("work",)


def verify_publish(meta: list, sequences: list, responses: dict) -> tuple[list, dict]:
    """Replay each lane's publishes (in the order sent) in process.

    ``sequences`` lists request ids per lane in send order, ``responses``
    maps request id -> body. Returns the mismatching request ids and the
    verdicts (decoded) by request id.
    """
    engine = DisclosureEngine(backend="serial")
    ledger = ReleaseLedger(":memory:")
    republisher = RepublicationEngine(engine, ledger)
    bad: list[int] = []
    verdicts: dict[int, dict] = {}
    published: dict[tuple, dict] = {}
    try:
        for sequence in sequences:
            for req in sequence:
                kind, table, version, payload = meta[req]
                body = responses.get(req)
                actual = json.loads(body) if body is not None else None
                if kind == "publish":
                    expected = republisher.publish(
                        table,
                        Bucketization.from_value_lists(payload["buckets"]),
                        c=decode_value(payload["c"]),
                        k=payload["k"],
                        model=payload["model"],
                        params={},
                    )
                    if actual is None:
                        continue
                    verdicts[req] = actual
                    published[(table, version)] = actual
                    strip = {key: v for key, v in expected.items() if key not in DECISION_SKIP}
                    got = {key: v for key, v in actual.items() if key not in DECISION_SKIP}
                    if not same(strip, got, False):
                        bad.append(req)
                elif actual is not None:
                    release = ledger.get(table, version)
                    expected = {
                        "table": release.table,
                        "tenant": release.tenant or None,
                        "version": release.version,
                        "mode": release.mode,
                        "model": release.model,
                        "params": release.params,
                        "k": release.k,
                        "c": release.c,
                        "accepted": release.accepted,
                        "multiset": multiset_to_wire(release.multiset),
                        "verdict": published.get((table, version)),
                    }
                    if not same(expected, actual, False):
                        bad.append(req)
    finally:
        ledger.close()
    return bad, verdicts


def minimal_by_scan(csv_path: str, policies) -> dict:
    """Minimal safe nodes per policy from an unpruned scan of every node."""
    table = load_csv(csv_path, ADULT_SCHEMA)
    lattice = GeneralizationLattice(adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers)
    engine = DisclosureEngine(backend="serial")
    buckets = {node: bucketize_at(table, lattice, node) for node in lattice.nodes()}
    out = {}
    for c, k, model in policies:
        threshold = engine.threshold(c, model=model)
        safe = [node for node, b in buckets.items() if engine.evaluate(b, k, model=model) < threshold]
        out[(c, k, model)] = sorted(lattice.minimal_elements(safe))
    return out
