"""End-to-end tests of the serving daemon over a real TCP socket.

A :class:`ServerThread` hosts the full stack (listener, scheduler,
engine) in-process; :class:`ServeClient` drives it exactly like the
CLI, the benchmark and the CI equivalence job do.  The headline
property — served responses are byte-identical to the direct
in-process path, cold and warm — is asserted here at test scale and
again in CI at replay scale.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.cache import default_cache_dir
from repro.core.engine import clear_evaluation_cache
from repro.serve import (
    SchedulerConfig,
    ServeClient,
    ServerThread,
    answer_direct,
    encode_line,
)
from repro.serve.protocol import PROTOCOL

MIXED_REQUESTS = [
    {"op": "ping", "id": "q1"},
    {"op": "cost", "id": "q2", "model": "bert", "seq": 512, "batch": 4,
     "dataflow": "base"},
    {"op": "cost", "id": "q3", "model": "bert", "seq": 512, "batch": 4,
     "dataflow": "flat-r64"},
    {"op": "search", "id": "q4", "model": "xlm", "seq": 512, "batch": 4},
    {"op": "sweep", "id": "q5", "requests": [
        {"op": "cost", "model": "bert", "seq": 256, "batch": 4,
         "dataflow": dataflow}
        for dataflow in ("base", "base-h", "flat-r2", "flat-r4", "flat-r8",
                         "flat-r16", "flat-r32", "flat-r64", "flat-r128",
                         "flat-r256")
    ]},
    {"op": "cost", "id": "q6", "model": "bert", "seq": 512, "batch": 4,
     "dataflow": "flat-r64"},  # repeat of q3: the warm path
]


class TestLifecycleAndOps:
    def test_ping_reports_protocol(self, server):
        with ServeClient(*server) as client:
            response = client.ping()
        assert response["ok"] and response["result"]["protocol"] == PROTOCOL

    def test_stats_exposes_scheduler_and_engine(self, server):
        with ServeClient(*server) as client:
            stats = client.stats()
        assert stats["protocol"] == PROTOCOL
        assert stats["draining"] is False
        for key in ("requests", "evaluations", "memo_hits", "coalesced",
                    "grid_calls", "grid_rows", "shed", "deadline_expired",
                    "resolves", "resolve_hits", "resolve_misses",
                    "encodings_reused"):
            assert key in stats["scheduler"], key
        assert set(stats["engine_lru"]) == {
            "entries", "maxsize", "hits", "misses",
        }

    def test_served_responses_match_direct_bytes_cold_and_warm(self, server):
        direct = {
            req["id"]: encode_line(answer_direct(req))
            for req in MIXED_REQUESTS
        }
        host, port = server
        for attempt in ("cold", "warm"):
            with ServeClient(host, port) as client:
                responses = client.request_many(MIXED_REQUESTS)
            served = {
                req["id"]: encode_line(response)
                for req, response in zip(MIXED_REQUESTS, responses)
            }
            assert served == direct, attempt

    def test_sweep_streams_progress_events(self, server):
        events = []
        sweep = {"op": "sweep", "id": "g1", "requests": [
            {"op": "cost", "model": "bert", "seq": 128, "batch": 2,
             "dataflow": f"flat-r{2 ** i}"}
            for i in range(1, 9)
        ] * 3}  # 24 sub-queries over sweep_chunk=8 -> progress at 8, 16
        with ServeClient(*server) as client:
            response = client.request(sweep, on_event=events.append)
        assert response["ok"]
        assert response["result"]["total"] == 24
        assert len(response["result"]["results"]) == 24
        assert [e["done"] for e in events] == [8, 16]
        assert all(e["total"] == 24 for e in events)

    def test_pipelined_requests_answer_out_of_order_safely(self, server):
        requests = [
            {"op": "cost", "id": f"p{i}", "model": "bert", "seq": 512,
             "batch": 4, "dataflow": "flat-r64"}
            for i in range(10)
        ]
        with ServeClient(*server) as client:
            responses = client.request_many(requests)
        assert [r["id"] for r in responses] == [r["id"] for r in requests]
        assert all(r["ok"] for r in responses)
        payloads = [encode_line(r["result"]) for r in responses]
        assert len(set(payloads)) == 1

    def test_concurrent_clients_get_identical_answers(self, server):
        host, port = server
        request = {"op": "cost", "model": "t5", "seq": 512, "batch": 4,
                   "dataflow": "flat-r32"}
        results, errors = [], []

        def hit():
            try:
                with ServeClient(host, port) as client:
                    results.append(client.request(dict(request)))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hit) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert len(results) == 6 and all(r["ok"] for r in results)
        assert len({encode_line(r["result"]) for r in results}) == 1


    def test_experiment_ignores_unknown_jobs_field(self, server):
        """``experiment`` has no ``jobs`` field: any value, even one
        that is not a number, is ignored like other unknown keys."""
        plain = {"op": "experiment", "name": "table1"}
        with ServeClient(*server) as client:
            base = client.request(dict(plain))
            for jobs in ("x", 0):
                response = client.request(dict(plain, jobs=jobs))
                assert response["ok"] is True, response
                assert response["result"]["status"] == "ok"
                assert response["result"]["report"] == (
                    base["result"]["report"]
                )
        assert base["ok"] is True


class TestErrors:
    @pytest.mark.parametrize("req,code,fragment", [
        ({"op": "nope"}, "bad_request", "unknown op"),
        ({"op": "cost", "model": "bert"}, "bad_request", "dataflow"),
        ({"op": "cost", "model": "zz", "dataflow": "base"}, "bad_request",
         "unknown model"),
        ({"op": "sweep", "requests": []}, "bad_request", "non-empty"),
        ({"op": "experiment", "name": "zz"}, "bad_request",
         "unknown experiment"),
    ])
    def test_typed_error_envelopes(self, server, req, code, fragment):
        with ServeClient(*server) as client:
            response = client.request(req)
        assert response["ok"] is False
        assert response["code"] == code
        assert fragment in response["error"]

    def test_invalid_json_line_gets_bad_request_with_null_id(self, server):
        with ServeClient(*server) as client:
            client._sock.sendall(b"this is not json\n")
            response = client._read()
        assert response["ok"] is False
        assert response["code"] == "bad_request"
        assert response["id"] is None

    @pytest.mark.parametrize("bad", [
        {"op": "cost", "model": "bert", "scope": "zz", "dataflow": "base"},
        {"op": "search", "model": "bert", "seq": 512, "batch": 4,
         "deadline_ms": "x"},
        {"op": "cost", "model": "bert", "seq": 512, "batch": 4,
         "dataflow": "base", "deadline_ms": -5},
        {"op": "sweep", "requests": [{"op": "cost", "model": "bert",
                                      "seq": 512, "batch": 4,
                                      "dataflow": "base"}],
         "deadline_ms": "x"},
        {"op": "sweep", "requests": [5]},
        {"op": "search", "model": "bert", "seq": True},
        {"op": "nope"},
        {"op": ["cost"]},
        {"op": "cost", "model": "bert", "seq": 512, "batch": 4,
         "dataflow": "base", "deadline_ms": "nan"},
        {"op": "cost", "model": "bert", "seq": 512, "batch": 4,
         "dataflow": "base", "deadline_ms": float("nan")},
        {"op": "cost", "model": "bert", "seq": 512, "batch": 4,
         "dataflow": "base", "deadline_ms": float("inf")},
        {"op": "search", "model": "bert", "seq": 512, "batch": 4,
         "deadline_ms": True},
        {"op": "search", "model": "bert", "seq": 512, "batch": 4,
         "deadline_ms": "5"},
    ], ids=["scope", "deadline-text", "deadline-negative", "sweep-deadline",
            "sweep-entry", "seq-bool", "unknown-op", "list-op",
            "deadline-nan-text", "deadline-nan", "deadline-infinity",
            "deadline-bool", "deadline-numeric-text"])
    def test_error_responses_match_direct_bytes(self, server, bad):
        bad = dict(bad, id="e1")
        with ServeClient(*server) as client:
            response = client.request(bad)
        assert response["code"] == "bad_request"
        assert encode_line(response) == encode_line(answer_direct(bad))


class TestSharedCache:
    def test_coalesced_identical_requests_write_disk_once(self, tmp_path):
        """N identical pipelined requests: one evaluation, one disk
        write — dedup happens before the engine, so the persistent
        cache never sees the same key computed twice."""
        request = {"op": "cost", "model": "trxl", "seq": 512, "batch": 4,
                   "dataflow": "flat-r64"}
        total = 8
        clear_evaluation_cache()
        with default_cache_dir(str(tmp_path)):
            config = SchedulerConfig(window_ms=50.0)
            with ServerThread(config) as (host, port):
                with ServeClient(host, port) as client:
                    responses = client.request_many(
                        [dict(request, id=f"d{i}") for i in range(total)]
                    )
                    stats = client.stats()
        assert all(r["ok"] for r in responses)
        assert len({encode_line(r["result"]) for r in responses}) == 1
        scheduler = stats["scheduler"]
        assert scheduler["evaluations"] == 1
        assert scheduler["coalesced"] + scheduler["memo_hits"] == total - 1
        disk = stats["disk_cache"]
        assert disk["writes"] == 1, disk
        assert disk["corrupt"] == 0


    def test_coalesced_cost_group_is_one_lineup_memoized(
        self, tmp_path, monkeypatch
    ):
        """A cold group of k distinct cost dataflows is one grid call of
        k rows, and its answers land in the engine LRU and on disk."""
        from repro.core import engine
        from repro.core.engine import evaluation_cache_info

        rows = []
        real = engine.evaluate_grid

        def counting(cfg, scope, accel, dataflows, options):
            rows.append(len(dataflows))
            return real(cfg, scope, accel, dataflows, options)

        monkeypatch.setattr(engine, "evaluate_grid", counting)
        dataflows = ("base", "flat-r16", "flat-r32", "flat-r64", "flat-r128")
        sweep = {"op": "sweep", "id": "g1", "requests": [
            {"op": "cost", "model": "xlm", "seq": 256, "batch": 2,
             "dataflow": dataflow} for dataflow in dataflows
        ]}
        clear_evaluation_cache()
        with default_cache_dir(str(tmp_path)):
            with ServerThread(SchedulerConfig(window_ms=50.0)) as address:
                with ServeClient(*address) as client:
                    response = client.request(sweep)
                    stats = client.stats()
            direct = answer_direct(sweep)
        assert response["ok"] is True
        assert encode_line(response) == encode_line(direct)
        assert rows == [len(dataflows)]
        assert stats["scheduler"]["grid_calls"] == 1
        assert stats["scheduler"]["grid_rows"] == len(dataflows)
        assert stats["engine_lru"]["entries"] == len(dataflows)
        assert stats["disk_cache"]["writes"] == len(dataflows)
        # The direct answers were the daemon's LRU hits: nothing new.
        assert evaluation_cache_info()["entries"] == len(dataflows)


class TestObservability:
    def test_op_metric_names_are_bounded_by_the_op_table(self):
        from repro import obs

        ops = ["ping", "nope", "zz-1", "zz-2", ["x"], None, "ping"]
        with obs.observed() as session:
            with ServerThread(SchedulerConfig(window_ms=0.0)) as address:
                with ServeClient(*address) as client:
                    for op in ops:
                        client.request({"op": op})
            counters = {
                name: data["value"]
                for name, data in session.registry.snapshot().items()
                if name.startswith("serve.op[")
            }
        assert counters == {"serve.op[ping]": 2, "serve.op[unknown]": 5}


    def test_repeats_reuse_resolution_and_encoding(self):
        from repro import obs

        req = {"op": "cost", "model": "bert", "seq": 256, "batch": 2,
               "dataflow": "flat-r8"}
        requests = [dict(req, id=f"r{i}") for i in range(3)] + [
            {"op": "sweep", "id": "s", "requests": [dict(req), dict(req)]},
        ]
        with obs.observed() as session:
            with ServerThread(SchedulerConfig(window_ms=0.0)) as address:
                with ServeClient(*address) as client:
                    responses = [client.request(r) for r in requests]
                    stats = client.stats()["scheduler"]
            counters = {
                name: data["value"]
                for name, data in session.registry.snapshot().items()
                if name.startswith(("serve.resolve_", "serve.encodings"))
            }
        assert [encode_line(r) for r in responses] == [
            encode_line(answer_direct(r)) for r in requests
        ]
        assert stats["resolves"] == 5
        assert (stats["resolve_hits"], stats["resolve_misses"]) == (4, 1)
        assert stats["resolve_entries"] == 1
        assert stats["encodings_reused"] == stats["memo_hits"] == 4
        assert counters == {"serve.resolve_hits": 4,
                            "serve.resolve_misses": 1,
                            "serve.encodings_reused": 4}


class TestShutdown:
    def test_graceful_drain_on_shutdown_op(self):
        clear_evaluation_cache()
        thread = ServerThread(SchedulerConfig(window_ms=0.0))
        host, port = thread.start()
        with ServeClient(host, port) as client:
            response = client.shutdown_server()
        assert response["ok"] and response["result"]["draining"] is True
        thread.stop(timeout=30)
        with pytest.raises((ConnectionError, OSError)):
            ServeClient(host, port, timeout=2.0).connect().ping()
