"""Property tests for the service wire format.

The wire's one promise is **losslessness**: any value an engine can
produce crosses JSON bit-identically (floats via repr round-trip,
Fractions as ``"num/den"`` strings) — and anything else is rejected with
a clear :class:`ValueError`, never silently corrupted. Non-finite floats
are the sharp edge: ``nan``/``inf`` survive Python's ``json`` emitter as
the non-standard ``NaN``/``Infinity`` tokens that strict JSON consumers
reject, so :func:`~repro.service.wire.encode_value` refuses them at
encode time and the endpoint layer turns that into a 400.
"""

from __future__ import annotations

import json
import struct
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service import BackgroundService, ServiceError
from repro.service.wire import (
    bucketization_from_payload,
    decode_params,
    decode_series,
    decode_value,
    encode_params,
    encode_series,
    encode_value,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
fractions = st.fractions()


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


# ---------------------------------------------------------------------------
# Round-trip properties (through a real JSON serialization, as on the wire)
# ---------------------------------------------------------------------------
class TestRoundTrip:
    @given(finite_floats)
    def test_floats_bit_identical(self, value):
        over_the_wire = json.loads(json.dumps(encode_value(value)))
        decoded = decode_value(over_the_wire)
        assert _bits(decoded) == _bits(value)

    @given(fractions)
    def test_fractions_exact(self, value):
        over_the_wire = json.loads(json.dumps(encode_value(value)))
        decoded = decode_value(over_the_wire)
        assert isinstance(decoded, Fraction)
        assert decoded == value

    @given(st.fractions(max_denominator=10**6))
    def test_negative_fractions_survive(self, value):
        assert decode_value(encode_value(-abs(value))) == -abs(value)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=50),
            st.one_of(finite_floats, fractions),
            min_size=1,
            max_size=8,
        )
    )
    def test_series_round_trip(self, series):
        over_the_wire = json.loads(json.dumps(encode_series(series)))
        decoded = decode_series(over_the_wire)
        assert set(decoded) == set(series)
        for k, value in series.items():
            if isinstance(value, Fraction):
                assert decoded[k] == value
            else:
                assert _bits(decoded[k]) == _bits(value)

    def test_integer_payload_becomes_float(self):
        decoded = decode_value(1)
        assert isinstance(decoded, float) and decoded == 1.0


# ---------------------------------------------------------------------------
# Non-finite floats are rejected at encode time
# ---------------------------------------------------------------------------
class TestNonFinite:
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    def test_encode_rejects(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            encode_value(value)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    def test_decode_rejects(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            decode_value(value)

    def test_endpoint_layer_maps_encode_error_to_400(self, monkeypatch):
        """A model that somehow produces nan must surface as a clean 400,
        not a 500 or a broken-JSON body."""
        import repro.service.server as server_module

        def bad_encode(value):
            raise ValueError("non-finite value nan cannot cross the wire")

        b = [["flu", "flu", "cold", "mumps"]]
        with BackgroundService() as bg:
            client = bg.client()
            monkeypatch.setattr(server_module, "encode_value", bad_encode)
            with pytest.raises(ServiceError) as excinfo:
                client.request(
                    "POST", "/disclosure", {"buckets": b, "k": 1}
                )
            assert excinfo.value.status == 400
            assert "non-finite" in excinfo.value.message
            monkeypatch.undo()
            # The service is not poisoned: the same request now succeeds.
            answer = client.request(
                "POST", "/disclosure", {"buckets": b, "k": 1}
            )
            assert answer["value"] == 0.75


# ---------------------------------------------------------------------------
# Malformed payloads decode to clear errors
# ---------------------------------------------------------------------------
class TestMalformedPayloads:
    @pytest.mark.parametrize(
        "payload",
        [
            "not-a-fraction",
            "1/0",  # zero denominator must not raise ZeroDivisionError
            "one/two",
            "1/2/3",
            "",
            True,
            None,
            [1, 2],
            {"num": 1, "den": 2},
        ],
    )
    def test_decode_value_raises_value_error(self, payload):
        with pytest.raises(ValueError):
            decode_value(payload)

    def test_decode_series_bad_key(self):
        with pytest.raises(ValueError):
            decode_series({"not-an-int": 0.5})

    @pytest.mark.parametrize(
        "buckets",
        [
            "nope",
            [],
            [[]],
            [["a"], []],
            [[{"v": 1}]],
            [["a"], "b"],
        ],
    )
    def test_bucketization_from_payload_raises(self, buckets):
        with pytest.raises(ValueError):
            bucketization_from_payload(buckets)

    def test_valid_fraction_strings_still_decode(self):
        assert decode_value("3/4") == Fraction(3, 4)
        assert decode_value("-7/2") == Fraction(-7, 2)
        assert decode_value("5") == Fraction(5)


# ---------------------------------------------------------------------------
# The params codec: model constructor kwargs cross the wire losslessly
# ---------------------------------------------------------------------------
class TestParamsCodec:
    def test_exact_fraction_round_trips_untouched(self):
        # Denominator beyond any limit_denominator cap: the codec must not
        # approximate — an exact confidence IS the threat model.
        q = Fraction(10**9 + 7, 10**9 + 9)
        params = {"confidence": q}
        over_the_wire = json.loads(json.dumps(encode_params(params)))
        decoded = decode_params(over_the_wire)
        assert decoded == {"confidence": q}
        assert isinstance(decoded["confidence"], Fraction)

    @given(finite_floats)
    def test_float_params_bit_identical(self, value):
        over_the_wire = json.loads(json.dumps(encode_params({"x": value})))
        decoded = decode_params(over_the_wire)
        assert _bits(decoded["x"]) == _bits(value)

    def test_ints_stay_ints(self):
        decoded = decode_params(
            json.loads(json.dumps(encode_params({"samples": 512, "seed": 7})))
        )
        assert decoded == {"samples": 512, "seed": 7}
        assert isinstance(decoded["samples"], int)
        assert isinstance(decoded["seed"], int)

    def test_weight_maps_round_trip(self):
        params = {"weights": {"a": 2.5, "b": Fraction(1, 3), "c": 1}}
        decoded = decode_params(
            json.loads(json.dumps(encode_params(params)))
        )
        assert decoded["weights"]["a"] == 2.5
        assert decoded["weights"]["b"] == Fraction(1, 3)
        assert decoded["weights"]["c"] == 1

    def test_none_passes_through(self):
        assert decode_params(encode_params({"weights": None})) == {
            "weights": None
        }

    @pytest.mark.parametrize(
        "params",
        [
            {"flag": True},  # bools are ambiguous on the wire
            {"x": float("nan")},
            {"x": float("inf")},
            {"x": object()},
            {"x": [1, 2]},
        ],
    )
    def test_encode_rejects(self, params):
        with pytest.raises(ValueError):
            encode_params(params)

    def test_encode_rejects_non_mapping(self):
        with pytest.raises(ValueError):
            encode_params([("a", 1)])

    @pytest.mark.parametrize(
        "raw",
        [
            5,  # not an object
            [1, 2],
            "confidence=1/2",
            {"confidence": "one/two"},  # malformed fraction string
            {"confidence": "1/0"},  # zero denominator
            {"flag": True},
            {"x": [1, 2]},
            {"x": float("inf")},
        ],
    )
    def test_decode_rejects(self, raw):
        with pytest.raises(ValueError):
            decode_params(raw)
