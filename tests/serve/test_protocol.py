"""Tests for the serving wire protocol: resolution, encoding, payloads.

Served and direct answers share one resolution route and one payload
builder; the byte equivalence of the two is asserted end to end in
``test_server.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.arch.presets import edge
from repro.core.dataflow import flat_r, parse_dataflow
from repro.core.perf import cost_scope
from repro.models.configs import model_config
from repro.ops.attention import Scope
from repro.serve.protocol import (
    PROTOCOL,
    Encoded,
    Memo,
    ProtocolError,
    cost_payload,
    encode_line,
    ok_response,
    resolve_deadline_s,
    resolve_query,
    resolve_sweep,
    scaleout_payload,
    search_payload,
)


class TestResolveQuery:
    def test_cost_query_resolves_defaults(self):
        query = resolve_query(
            {"op": "cost", "model": "bert", "dataflow": "flat-r64"}
        )
        assert query.kind == "cost"
        assert query.cfg == model_config("bert", seq=4096, batch=64)
        assert query.accel == edge()
        assert query.scope is Scope.LA
        assert query.dataflow == parse_dataflow("flat-r64")

    def test_search_query_resolves_defaults(self):
        query = resolve_query({"op": "search", "model": "bert"})
        assert query.kind == "search"
        assert query.objective.value == "runtime"

    def test_workload_dict_overrides_model(self):
        query = resolve_query({
            "op": "search",
            "model": "bert",
            "workload": {
                "name": "custom", "batch": 2, "heads": 4, "d_model": 64,
                "seq_q": 32, "seq_kv": 32, "d_ff": 128, "num_blocks": 2,
            },
        })
        assert query.cfg.name == "custom"

    @pytest.mark.parametrize("req,fragment", [
        ({"op": "nope"}, "not a query"),
        ({"op": "cost", "model": "bert"}, "needs 'dataflow'"),
        ({"op": "cost", "dataflow": "base"}, "'workload' or 'model'"),
        ({"op": "cost", "model": "zz", "dataflow": "base"}, "unknown model"),
        ({"op": "cost", "model": "bert", "dataflow": "zz"}, "dataflow"),
        ({"op": "search", "model": "bert", "platform": "tpu"},
         "unknown platform"),
        ({"op": "search", "model": "bert", "scope": "zz"}, "unknown scope"),
        ({"op": "search", "model": "bert", "objective": "zz"},
         "unknown objective"),
        ({"op": "search", "workload": "not-a-dict"}, "must be an object"),
        ({"op": "search", "model": "bert", "accel": 3}, "must be an object"),
        ({"op": "search", "model": "bert", "seq": True}, "must be an integer"),
        ({"op": "search", "model": "bert", "seq": 512.0},
         "must be an integer"),
        ({"op": "search", "model": "bert", "seq": "512"},
         "must be an integer"),
        ({"op": "search", "model": "bert", "batch": 4.5},
         "must be an integer"),
        ({"op": "search", "model": "bert", "batch": False},
         "must be an integer"),
        ({"op": "decode", "model": "bert", "kv_len": 2048.5},
         "must be an integer"),
        ({"op": "decode", "model": "bert", "kv_len": True},
         "must be an integer"),
        ({"op": ["cost"], "model": "bert"}, "not a query"),
    ])
    def test_malformed_requests_rejected(self, req, fragment):
        with pytest.raises(ProtocolError) as excinfo:
            resolve_query(req)
        assert fragment in str(excinfo.value)
        assert excinfo.value.code == "bad_request"

    def test_accelerators_differing_only_in_name_share_group_key(self):
        import dataclasses

        base_req = {"op": "cost", "model": "bert", "seq": 512,
                    "dataflow": "base"}
        query = resolve_query(base_req)
        renamed = dataclasses.replace(query.accel, name="other")
        other = dataclasses.replace(query, accel=renamed)
        assert query.group_key() == other.group_key()
        assert query.dedupe_key() == other.dedupe_key()

    def test_dedupe_key_distinguishes_dataflows(self):
        req = {"op": "cost", "model": "bert", "seq": 512}
        a = resolve_query(dict(req, dataflow="base"))
        b = resolve_query(dict(req, dataflow="flat-r64"))
        assert a.group_key() == b.group_key()
        assert a.dedupe_key() != b.dedupe_key()


class TestResolveScaleout:
    REQ = {"op": "scaleout", "model": "bert", "seq": 512, "batch": 8,
           "chips": 8}

    def test_resolves_defaults(self):
        query = resolve_query(self.REQ)
        assert query.kind == "scaleout"
        assert query.chips == 8
        assert query.system.chip == edge()
        assert query.system.chips_per_channel == 1
        assert query.system.channel_contention == 1.0

    def test_fabric_overrides(self):
        query = resolve_query(dict(
            self.REQ, fabric="torus", link_gbs=8, hop_ns=50,
            chips_per_channel=4, contention=1.25,
        ))
        fabric = query.system.fabric
        assert fabric.kind.value == "torus"
        assert fabric.link_bytes_per_sec == pytest.approx(8e9)
        assert fabric.hop_latency_s == pytest.approx(50e-9)
        assert query.system.chips_per_channel == 4
        assert query.system.channel_contention == 1.25

    @pytest.mark.parametrize("req,fragment", [
        ({"op": "scaleout", "model": "bert"}, "needs 'chips'"),
        ({"op": "scaleout", "model": "bert", "chips": "zz"},
         "must be an integer"),
        ({"op": "scaleout", "model": "bert", "chips": 0}, ">= 1"),
        ({"op": "scaleout", "model": "bert", "chips": 4, "fabric": "ring"},
         "unknown fabric"),
        ({"op": "scaleout", "model": "bert", "chips": 4,
          "contention": 0.5}, "scaleout system invalid"),
        ({"op": "scaleout", "model": "bert", "chips": 4, "link_gbs": 0},
         "scaleout system invalid"),
        ({"op": "scaleout", "model": "bert", "chips": 8.5},
         "must be an integer"),
        ({"op": "scaleout", "model": "bert", "chips": True},
         "must be an integer"),
        ({"op": "scaleout", "model": "bert", "chips": 4,
          "chips_per_channel": 2.5}, "must be an integer"),
        ({"op": "scaleout", "model": "bert", "chips": 4,
          "chips_per_channel": True}, "must be an integer"),
    ])
    def test_malformed_requests_rejected(self, req, fragment):
        with pytest.raises(ProtocolError) as excinfo:
            resolve_query(req)
        assert fragment in str(excinfo.value)
        assert excinfo.value.code == "bad_request"

    def test_dedupe_key_distinguishes_chip_counts_and_fabrics(self):
        a = resolve_query(self.REQ)
        b = resolve_query(dict(self.REQ, chips=16))
        c = resolve_query(dict(self.REQ, link_gbs=8))
        d = resolve_query(dict(self.REQ))
        assert a.group_key() == b.group_key()
        assert a.dedupe_key() != b.dedupe_key()
        assert a.dedupe_key() != c.dedupe_key()
        assert a.dedupe_key() == d.dedupe_key()


class TestDeadline:
    def test_absent_is_none(self):
        assert resolve_deadline_s({"op": "cost"}) is None

    def test_milliseconds_to_seconds(self):
        assert resolve_deadline_s({"deadline_ms": 1500}) == 1.5

    @pytest.mark.parametrize("raw", [
        "soon", -1, "nan", "5", True, False, [5], float("nan"),
        float("inf"), float("-inf"), 10 ** 400,
    ])
    def test_invalid_rejected(self, raw):
        with pytest.raises(ProtocolError):
            resolve_deadline_s({"deadline_ms": raw})


class TestCanonicalEncoding:
    def test_sorted_keys_minimal_separators_newline(self):
        line = encode_line({"b": 1, "a": {"z": 2.5, "y": [1, 2]}})
        assert line == b'{"a":{"y":[1,2],"z":2.5},"b":1}\n'

    def test_equal_values_encode_to_equal_bytes(self):
        a = {"id": "x", "ok": True, "result": {"v": 1.0 / 3.0}}
        b = json.loads(encode_line(a))
        assert encode_line(b) == encode_line(a)


_COST = {"op": "cost", "model": "bert", "seq": 512, "batch": 4,
         "dataflow": "flat-r64"}
_WORKLOAD = {
    "name": "custom", "batch": 2, "heads": 4, "d_model": 64,
    "seq_q": 32, "seq_kv": 32, "d_ff": 128, "num_blocks": 2,
}


class TestResolveMemo:
    def test_repeat_returns_the_identical_query(self):
        memo = Memo(8)
        first = resolve_query(dict(_COST, id="a", deadline_ms=5), memo)
        second = resolve_query(dict(_COST, id=7), memo)
        assert second is first
        assert (memo.hits, memo.misses, len(memo)) == (1, 1, 1)

    def test_memoized_query_equals_a_full_resolution(self):
        memo = Memo(8)
        resolve_query(dict(_COST), memo)
        assert resolve_query(dict(_COST), memo) == resolve_query(_COST)

    @pytest.mark.parametrize("raw", [True, 1.0, "1"])
    def test_json_types_never_collide(self, raw):
        memo = Memo(8)
        resolve_query({"op": "search", "model": "bert", "seq": 1}, memo)
        with pytest.raises(ProtocolError, match="must be an integer"):
            resolve_query({"op": "search", "model": "bert", "seq": raw}, memo)
        assert memo.hits == 0

    def test_negative_zero_is_not_zero(self):
        memo = Memo(8)
        base = {"op": "scaleout", "model": "bert", "seq": 512, "batch": 4,
                "chips": 8}
        zero = resolve_query(dict(base, hop_ns=0.0), memo)
        assert resolve_query(dict(base, hop_ns=-0.0), memo) is not zero
        assert memo.hits == 0

    def test_an_error_is_never_memoized(self):
        memo = Memo(8)
        bad = {"op": "cost", "model": "bert"}
        for _ in range(2):
            with pytest.raises(ProtocolError, match="needs 'dataflow'"):
                resolve_query(dict(bad), memo)
        assert (memo.hits, memo.misses, len(memo)) == (0, 2, 0)

    def test_nested_objects_resolve_in_full(self):
        memo = Memo(8)
        req = {"op": "search", "workload": _WORKLOAD,
               "accel": {"pe_rows": 8, "pe_cols": 8, "sg_bytes": 65536,
                         "onchip_gbps": 100.0, "offchip_gbps": 25.0}}
        expected = resolve_query(req)
        first = resolve_query(req, memo)
        second = resolve_query(req, memo)
        assert first == second == expected and first is not second
        assert (memo.hits, memo.misses, len(memo)) == (0, 2, 0)

    @pytest.mark.parametrize("extra", [
        {"note": "x" * 65}, {"note": 2 ** 64},
        {f"f{i}": i for i in range(32)},
    ])
    def test_large_requests_are_never_kept(self, extra):
        memo = Memo(8)
        req = dict(_COST, **extra)
        first = resolve_query(req, memo)
        assert resolve_query(req, memo) == first
        assert (memo.hits, len(memo)) == (0, 0)

    def test_sweep_resolves_as_before(self):
        memo = Memo(8)
        req = {"op": "sweep", "requests": [
            dict(_COST, dataflow=d) for d in ("base", "flat-r16", "base")
        ]}
        queries = resolve_sweep(req, memo)
        assert queries == resolve_sweep(req)
        assert queries[2] is queries[0]
        assert (memo.hits, memo.misses, len(memo)) == (1, 2, 2)

    def test_memo_is_bounded_least_recently_used(self):
        memo = Memo(1)
        resolve_query(dict(_COST), memo)
        resolve_query(dict(_COST, dataflow="base"), memo)
        resolve_query(dict(_COST), memo)
        assert (memo.hits, memo.misses, len(memo)) == (0, 3, 1)
        assert len(Memo(0)) == 0


def _plain(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


class TestSplicedEncoding:
    PAYLOAD = {"total_cycles": 1.0 / 3.0, "name": "flat", "z": [1, 2],
               "a": {"y": None, "x": True}}

    @pytest.mark.parametrize("req_id", [
        "q\u00e9\u4e2d\U0001f600", 7, -2.5, None, True, False,
        [1, "a", None], {"z": 1, "a": [2], "m": {"b": 1, "a": 0}},
    ])
    def test_spliced_line_equals_the_plain_envelope(self, req_id):
        answer = Encoded(self.PAYLOAD)
        assert encode_line(ok_response(req_id, answer)) == _plain(
            ok_response(req_id, self.PAYLOAD))

    def test_sweep_envelope(self):
        payloads = [self.PAYLOAD, dict(self.PAYLOAD, name="base")]
        # Keys out of order: the splice sorts them as json.dumps does.
        result = {"total": 2, "results": [Encoded(p) for p in payloads]}
        plain = {"total": 2, "results": payloads}
        assert encode_line(ok_response("s", result)) == _plain(
            ok_response("s", plain))

    def test_reads_as_its_payload(self):
        answer = Encoded(self.PAYLOAD)
        assert answer == self.PAYLOAD and self.PAYLOAD == answer
        assert answer["name"] == "flat" and len(answer) == 4
        assert answer == Encoded(dict(self.PAYLOAD))


class TestPayloadEquivalence:
    def test_payload_types_are_stable(self):
        cfg = model_config("bert", seq=512, batch=4)
        payload = cost_payload(cost_scope(cfg, Scope.LA, edge(), flat_r(64)))
        assert isinstance(payload["footprint_bytes"], int)
        for key, value in payload.items():
            if key != "footprint_bytes":
                assert isinstance(value, float), key

    def test_search_payload_has_only_deterministic_fields(self, bert_512):
        from repro.core.dse import search

        result = search(bert_512, edge(), retain_points=False)
        payload = search_payload(result)
        assert set(payload) == {"objective", "dataflow", "cost"}
        assert payload["objective"] == "runtime"
        # Re-running must produce the identical payload (no wall times,
        # no engine statistics).
        again = search_payload(
            search(bert_512, edge(), retain_points=False)
        )
        assert encode_line(again) == encode_line(payload)

    def test_scaleout_payload_is_mode_invariant(self):
        """Cold and memo-served searches serve the same bytes — stats
        and bound grids stay out of the payload by design."""
        from repro.core.engine import clear_evaluation_cache
        from repro.core.scaleout import ScaleoutSystem, search_scaleout

        cfg = model_config("bert", seq=512, batch=8)
        system = ScaleoutSystem(chip=edge(), chips_per_channel=2)
        clear_evaluation_cache()
        hier = scaleout_payload(search_scaleout(cfg, system, 8))
        memo = search_scaleout(cfg, system, 8)
        assert memo.stats.memo_hits == 1
        ref = scaleout_payload(memo)
        assert encode_line(hier) == encode_line(ref)
        assert set(hier) == {
            "chips", "partition", "schedule", "dataflow",
            "chip_cycles", "fabric_cycles", "total_cycles", "chip_cost",
        }

    def test_scaleout_direct_answer_round_trips(self):
        from repro.serve.service import answer_direct

        req = {"op": "scaleout", "model": "bert", "seq": 512, "batch": 8,
               "chips": 8, "chips_per_channel": 2, "id": "q1"}
        resp = answer_direct(req)
        assert resp["ok"] is True
        result = resp["result"]
        part = result["partition"]
        assert (
            part["batch_ways"] * part["head_ways"] * part["seq_ways"] == 8
        )
        assert result["total_cycles"] == pytest.approx(
            result["chip_cycles"] + result["fabric_cycles"]
        )
        # The same request again serves the identical bytes (memo or
        # not — the payload may not depend on cache warmth).
        assert encode_line(answer_direct(req)) == encode_line(resp)


NON_FINITE_FABRIC = [
    {"link_gbs": "nan"},
    {"link_gbs": "inf"},
    {"hop_ns": "nan"},
    {"hop_ns": "inf"},
    {"contention": "nan"},
]


@pytest.mark.parametrize(
    "override", NON_FINITE_FABRIC,
    ids=[f"{k}={v}" for o in NON_FINITE_FABRIC for k, v in o.items()],
)
def test_non_finite_fabric_is_bad_request(server, override):
    """A NaN/inf fabric parameter is rejected up front, both served and
    direct, rather than crashing the search or answering nonsense."""
    from repro.serve import ServeClient, answer_direct

    req = dict(TestResolveScaleout.REQ, id="nf", **override)
    direct = answer_direct(req)
    assert direct["ok"] is False
    assert direct["code"] == "bad_request"
    assert "scaleout system invalid" in direct["error"]
    with ServeClient(*server) as client:
        served = client.request(req)
    assert encode_line(served) == encode_line(direct)


def test_protocol_version_is_pinned():
    assert PROTOCOL == "repro-serve/1"
