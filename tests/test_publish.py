"""Tests for the sequential republication engine and release ledger.

Covers the publish acceptance criteria:

- incremental republication is **bit-identical** to a full from-scratch
  re-check, in float and exact arithmetic, while evaluating strictly
  fewer multisets;
- the per-signature release check agrees with whole-table
  :meth:`~repro.engine.engine.DisclosureEngine.evaluate` (max over
  buckets decomposition);
- the cross-release composition check escalates the adversary only for
  *distinct* accepted contents and rejects a release whose base check
  passes;
- the ledger is persistent (reopen from the SQLite file), versions are
  immutable, and tenants are namespaced;
- the ``/publish``, ``/releases`` and ``/releases/{table}/{version}``
  endpoints round-trip verdicts through service and router with the
  usual 4xx error matrix.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.bucketization import Bucketization
from repro.engine import DisclosureEngine
from repro.publish import ReleaseLedger, RepublicationEngine
from repro.publish.ledger import (
    Release,
    multiset_from_wire,
    multiset_to_wire,
    values_from_wire,
    values_to_wire,
)
from repro.service import ServiceError
from repro.service.server import BackgroundService
from repro.service.router import BackgroundRouter

# A release history with shape-distinct buckets: every bucket of V1 has a
# different signature, V2 adds one more shape, V3 yet another. V1 and V2
# are (0.9, 1)-safe alone; V3 is safe alone but breached by composition
# (three distinct accepted contents -> effective_k = 3).
V1_LISTS = [
    ["a", "b", "c", "d"],
    ["a", "a", "b", "c", "d"],
    ["a", "b", "b", "c", "c", "d"],
    ["a", "b", "c", "d", "e"],
]
V2_LISTS = V1_LISTS + [["a", "a", "b", "b", "c", "d"]]
V3_LISTS = V2_LISTS + [["a", "b", "c", "d", "e", "f"]]


def _b(lists) -> Bucketization:
    return Bucketization.from_value_lists(lists)


def _decision(verdict: dict) -> dict:
    """The verdict minus its work counters (what bit-identity compares)."""
    return {k: v for k, v in verdict.items() if k != "work"}


@pytest.fixture()
def republisher():
    engine = DisclosureEngine()
    with ReleaseLedger() as ledger:
        yield RepublicationEngine(engine, ledger)


# ----------------------------------------------------------------------
# Ledger
# ----------------------------------------------------------------------
class TestLedger:
    def test_multiset_wire_round_trip(self):
        items = _b(V2_LISTS).signature_items()
        assert multiset_from_wire(multiset_to_wire(items)) == items

    def test_values_wire_round_trip_is_bit_identical(self):
        values = {(2, 1, 1): 0.1 + 0.2, (1, 1): Fraction(2, 3)}
        decoded = values_from_wire(values_to_wire(values))
        assert decoded == values
        assert isinstance(decoded[(2, 1, 1)], float)
        assert isinstance(decoded[(1, 1)], Fraction)

    def _release(self, version: int, accepted: bool = True) -> Release:
        return Release(
            table="t",
            version=version,
            tenant="",
            mode="float",
            model="implication",
            params={},
            k=1,
            c=0.9,
            accepted=accepted,
            multiset=(((1, 1), 2),),
            values={(1, 1): 0.5},
            verdict={"accepted": accepted},
        )

    def test_versions_are_immutable(self):
        with ReleaseLedger() as ledger:
            ledger.record(self._release(1))
            with pytest.raises(ValueError, match="immutable"):
                ledger.record(self._release(1))

    def test_latest_accepted_skips_rejections(self):
        with ReleaseLedger() as ledger:
            ledger.record(self._release(1, accepted=True))
            ledger.record(self._release(2, accepted=False))
            assert ledger.next_version("t") == 3
            latest = ledger.latest_accepted("t")
            assert latest is not None and latest.version == 1
            assert len(ledger.accepted_contents("t")) == 1
            assert ledger.counters() == {
                "releases": 2,
                "accepted": 1,
                "rejected": 1,
                "tables": 1,
            }

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        with ReleaseLedger(path) as ledger:
            ledger.record(self._release(1))
        with ReleaseLedger(path) as ledger:
            release = ledger.get("t", 1)
            assert release is not None
            assert release.values == {(1, 1): 0.5}
            assert release.multiset == (((1, 1), 2),)

    def test_tenants_are_namespaced(self):
        with ReleaseLedger() as ledger:
            ledger.record(self._release(1))
            tenant_release = Release(
                **{**self._release(1).__dict__, "tenant": "acme"}
            )
            ledger.record(tenant_release)  # same (table, version), new tenant
            assert ledger.get("t", 1, tenant="acme") is not None
            summaries = ledger.list_releases(tenant="acme")
            assert [s["tenant"] for s in summaries] == ["acme"]
            assert ledger.counters()["tables"] == 2


# ----------------------------------------------------------------------
# Republication engine
# ----------------------------------------------------------------------
class TestRepublicationEngine:
    def test_first_release_accepted(self, republisher):
        verdict = republisher.publish("t", _b(V1_LISTS), c=0.9, k=1)
        assert verdict["accepted"] and verdict["version"] == 1
        assert verdict["effective_k"] == 1
        assert not verdict["work"]["incremental"]
        assert verdict["work"]["evaluated_multisets"] == 4

    def test_release_value_matches_whole_table_evaluate(self):
        for model in ("implication", "negation"):
            for exact in (False, True):
                engine = DisclosureEngine(exact=exact)
                with ReleaseLedger() as ledger:
                    rep = RepublicationEngine(engine, ledger)
                    verdict = rep.publish(
                        "t", _b(V1_LISTS), c=0.9, k=2, model=model
                    )
                whole = engine.evaluate(_b(V1_LISTS), 2, model=model)
                from repro.codec import decode_value

                assert decode_value(verdict["value"]) == whole

    @pytest.mark.parametrize("exact", [False, True])
    def test_incremental_is_bit_identical_to_full(self, exact):
        c = Fraction(9, 10) if exact else 0.9
        verdicts = {}
        for full in (False, True):
            engine = DisclosureEngine(exact=exact)
            with ReleaseLedger() as ledger:
                rep = RepublicationEngine(engine, ledger)
                v1 = rep.publish("t", _b(V1_LISTS), c=c, k=1, full=full)
                v2 = rep.publish("t", _b(V2_LISTS), c=c, k=1, full=full)
                v3 = rep.publish("t", _b(V3_LISTS), c=c, k=1, full=full)
                verdicts[full] = (v1, v2, v3)
        for incremental, full in zip(verdicts[False], verdicts[True]):
            assert _decision(incremental) == _decision(full)
        # V2's added bucket shares an existing signature, so its release
        # stage is pure reuse; V3's added bucket is a genuinely new
        # signature and is the only release-stage evaluation.
        inc_v2, full_v2 = verdicts[False][1], verdicts[True][1]
        assert inc_v2["work"]["incremental"]
        assert inc_v2["work"]["reused_multisets"] == 4
        assert inc_v2["work"]["release_evaluated"] == 0
        inc_v3 = verdicts[False][2]
        assert inc_v3["work"]["release_evaluated"] == 1
        assert inc_v3["work"]["reused_multisets"] == 4
        assert (
            inc_v2["work"]["evaluated_multisets"]
            < full_v2["work"]["evaluated_multisets"]
        )

    def test_composition_rejects_what_release_check_accepts(self, republisher):
        assert republisher.publish("t", _b(V1_LISTS), c=0.9, k=1)["accepted"]
        assert republisher.publish("t", _b(V2_LISTS), c=0.9, k=1)["accepted"]
        verdict = republisher.publish("t", _b(V3_LISTS), c=0.9, k=1)
        assert not verdict["accepted"]
        assert verdict["effective_k"] == 3
        stages = {v["stage"] for v in verdict["violations"]}
        assert stages == {"composition"}

    def test_identical_republication_does_not_escalate(self, republisher):
        v1 = republisher.publish("t", _b(V1_LISTS), c=0.9, k=1)
        v2 = republisher.publish("t", _b(V1_LISTS), c=0.9, k=1)
        assert v2["accepted"] and v2["effective_k"] == 1
        assert v2["composition"]["multiplier"] == 1
        assert v2["work"]["reused_multisets"] == v1["distinct_multisets"]
        assert v2["work"]["evaluated_multisets"] == 0

    def test_rejected_release_is_not_a_baseline(self, republisher):
        rejected = republisher.publish("t", _b(V1_LISTS), c=0.2, k=1)
        assert not rejected["accepted"]
        verdict = republisher.publish("t", _b(V1_LISTS), c=0.9, k=1)
        assert verdict["version"] == 2  # rejections consume versions
        assert not verdict["work"]["incremental"]
        assert verdict["composition"]["prior_accepted_releases"] == 0

    def test_policy_change_falls_back_to_full(self, republisher):
        republisher.publish("t", _b(V1_LISTS), c=0.9, k=1)
        same_c = republisher.publish("t", _b(V1_LISTS), c=0.95, k=1)
        assert same_c["work"]["incremental"]  # c moves thresholds, not values
        new_k = republisher.publish("t", _b(V1_LISTS), c=0.9, k=2)
        assert not new_k["work"]["incremental"]
        new_model = republisher.publish(
            "t", _b(V1_LISTS), c=0.9, k=1, model="negation"
        )
        assert not new_model["work"]["incremental"]

    def test_witnesses_attach_to_violations(self, republisher):
        verdict = republisher.publish(
            "t", _b(V1_LISTS), c=0.5, k=2, with_witness=True
        )
        assert not verdict["accepted"]
        for violation in verdict["violations"]:
            assert violation["witness"]["disclosure"] >= 0.5

    def test_non_decomposable_model_is_rejected(self, republisher):
        with pytest.raises(ValueError, match="signature-decomposable"):
            republisher.publish(
                "t", _b(V1_LISTS), c=0.9, k=1, model="sampling"
            )

    def test_bad_inputs(self, republisher):
        with pytest.raises(ValueError, match="table name"):
            republisher.publish("bad:name", _b(V1_LISTS), c=0.9, k=1)
        with pytest.raises(ValueError, match="non-negative"):
            republisher.publish("t", _b(V1_LISTS), c=0.9, k=-1)


# ----------------------------------------------------------------------
# Service endpoints
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def service():
    with BackgroundService() as bg:
        yield bg


class TestServiceEndpoints:
    def test_publish_sequence_and_fetch(self, service):
        client = service.client()
        v1 = client.publish("seq", V1_LISTS, c=0.9, k=1)
        v2 = client.publish("seq", V2_LISTS, c=0.9, k=1)
        v3 = client.publish("seq", V3_LISTS, c=0.9, k=1)
        assert v1["accepted"] and v2["accepted"] and not v3["accepted"]
        assert v2["work"]["incremental"]
        assert v3["effective_k"] == 3

        summaries = client.releases("seq")["releases"]
        assert [(s["version"], s["accepted"]) for s in summaries] == [
            (1, True),
            (2, True),
            (3, False),
        ]
        record = client.release("seq", 3)
        assert record["accepted"] is False
        assert record["verdict"]["effective_k"] == 3

    def test_exact_mode_round_trip(self, service):
        client = service.client()
        verdict = client.publish(
            "seq-exact", V1_LISTS, c=Fraction(9, 10), k=1, exact=True
        )
        assert verdict["accepted"]
        assert isinstance(verdict["value"], Fraction)
        assert isinstance(verdict["threshold"], Fraction)

    def test_stats_expose_ledger_and_publish_counters(self, service):
        client = service.client()
        client.publish("seq-stats", V1_LISTS, c=0.9, k=1)
        stats = client.stats()
        assert stats["ledger"]["releases"] >= 1
        assert stats["service"]["publishes_total"] >= 1
        assert stats["service"]["publish_multisets_evaluated"] >= 4

    def test_error_matrix(self, service):
        client = service.client()
        ok = {"table": "seq-err", "buckets": V1_LISTS, "c": 0.9, "k": 1}
        for mutation, status in [
            ({"table": "bad:name"}, 400),
            ({"table": 7}, 400),
            ({"c": None}, 400),
            ({"c": True}, 400),
            ({"k": -1}, 400),
            ({"model": "sampling"}, 400),
            ({"buckets": []}, 400),
        ]:
            payload = {**ok, **mutation}
            if payload["c"] is None:
                del payload["c"]
            with pytest.raises(ServiceError) as err:
                client.request("POST", "/publish", payload)
            assert err.value.status == status, mutation
        with pytest.raises(ServiceError) as err:
            client.request("GET", "/releases/seq-err/99", None)
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.request("GET", "/releases/seq-err/two", None)
        assert err.value.status == 400

    def test_tenant_namespacing(self):
        tenants = {
            "acme": {"model": "implication"},
            "zeta": {"model": "implication"},
        }
        with BackgroundService(
            tenants=tenants
        ) as bg:
            client = bg.client()
            a = client.publish("t", V1_LISTS, c=0.9, k=1, tenant="acme")
            z = client.publish("t", V2_LISTS, c=0.9, k=1, tenant="zeta")
            assert a["version"] == 1 and z["version"] == 1
            assert client.release("t", 1, tenant="acme")["tenant"] == "acme"
            entries = client.releases(tenant="acme")["releases"]
            assert {e["tenant"] for e in entries} == {"acme"}

    def test_ledger_file_persists_across_restart(self, tmp_path):
        ledger = tmp_path / "ledger.sqlite"
        with BackgroundService(
            ledger_file=ledger
        ) as bg:
            bg.client().publish("durable", V1_LISTS, c=0.9, k=1)
        with BackgroundService(
            ledger_file=ledger
        ) as bg:
            verdict = bg.client().publish("durable", V2_LISTS, c=0.9, k=1)
            assert verdict["version"] == 2
            assert verdict["work"]["incremental"]


# ----------------------------------------------------------------------
# Router forwarding
# ----------------------------------------------------------------------
class TestRouterForwarding:
    @pytest.mark.parametrize("shard_mode", ["inproc"])
    def test_publish_affinity_and_fanout(self, shard_mode):
        with BackgroundRouter(
            shards=2,
            shard_mode=shard_mode,
        ) as bg:
            client = bg.client()
            v1 = client.publish("demo", V1_LISTS, c=0.9, k=1)
            v2 = client.publish("demo", V2_LISTS, c=0.9, k=1)
            other = client.publish("other", V1_LISTS, c=0.9, k=1)
            assert v1["accepted"] and other["accepted"]
            # v2 found v1's ledger state: same shard handled both.
            assert v2["work"]["incremental"]

            merged = client.releases()
            assert [(e["table"], e["version"]) for e in merged["releases"]] == [
                ("demo", 1),
                ("demo", 2),
                ("other", 1),
            ]
            assert merged["ledger"]["releases"] == 3
            assert client.release("demo", 2)["accepted"]

            stats = client.stats()
            assert stats["totals"]["publishes_total"] == 3
            assert stats["ledger"]["releases"] == 3
            with pytest.raises(ServiceError) as err:
                client.release("demo", 42)
            assert err.value.status == 404
