"""End-to-end tests of the serving daemon over a real TCP socket.

A :class:`ServerThread` hosts the full stack (listener, scheduler,
engine) in-process; :class:`ServeClient` drives it exactly like the
CLI, the benchmark and the CI equivalence job do.  The headline
property — served responses are byte-identical to the direct
in-process path, cold and warm — is asserted here at test scale and
again in CI at replay scale.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import threading
import time

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
from repro.serve.scheduler import CoalescingScheduler
from repro.serve.server import MAX_LINE, DSEServer, _Connection

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


class TestErrors:
    @pytest.mark.parametrize("req,code,fragment", [
        ({"op": "nope"}, "bad_request", "unknown op"),
        ({"op": "cost", "model": "bert"}, "bad_request", "dataflow"),
        ({"op": "cost", "model": "zz", "dataflow": "base"}, "bad_request",
         "unknown model"),
        ({"op": "sweep", "requests": []}, "bad_request", "non-empty"),
        ({"op": "experiment", "name": "table1"}, "bad_request",
         "unknown op"),
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


    def test_callback_answers_are_timed_from_receipt_to_write(self):
        """A queued query is answered by a done-callback: its span and
        its ``serve.request_s`` sample still cover the micro-batch
        window it waited in, and an error it gets there is booked."""
        from repro import obs

        window_s = 0.05
        req = {"op": "cost", "model": "xlm", "seq": 256, "batch": 2,
               "dataflow": "flat-r16"}
        requests = [dict(req, id="miss"),
                    dict(req, id="expired", dataflow="base",
                         deadline_ms=1)]
        with obs.observed() as session:
            config = SchedulerConfig(window_ms=window_s * 1e3)
            with ServerThread(config) as address:
                with ServeClient(*address) as client:
                    responses = client.request_many(requests)
            snap = session.registry.snapshot()
            spans = [event for event in session.collector.events
                     if event["name"] == "serve.request"]
        assert [r["ok"] for r in responses] == [True, False]
        assert responses[1]["code"] == "deadline_exceeded"
        assert len(spans) == 2
        # The second line arrives within the first one's window.
        assert min(event["dur_s"] for event in spans) > window_s * 0.8
        assert sorted(event.get("error", "") for event in spans) == [
            "", "DeadlineExceeded"]
        assert all(event["depth"] == 0 and event["parent"] == 0
                   for event in spans)
        latency = snap["serve.request_s"]
        assert latency["count"] == 2 and latency["min"] > window_s * 0.8
        assert snap["serve.error[deadline_exceeded]"]["value"] == 1
        assert snap["serve.op[cost]"]["value"] == 2

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


def _cost(req_id, dataflow="flat-r64", model="bert"):
    return {"op": "cost", "id": req_id, "model": model, "seq": 512,
            "batch": 4, "dataflow": dataflow}


class _Gate:
    """A group function that blocks until released and answers with a
    payload of ``pad`` bytes."""

    def __init__(self, pad: int = 0) -> None:
        self.release = threading.Event()
        self.started = threading.Event()
        self.pad = pad

    def __call__(self, queries):
        self.started.set()
        self.release.wait(timeout=30)
        return [{"pad": "x" * self.pad} for _ in queries], False


def _serve(gate, scenario, config=SchedulerConfig(window_ms=1.0)):
    """Run ``scenario(server, reader, writer, errors)`` against an
    in-process daemon whose evaluator is ``gate``; ``errors`` collects
    what the event loop's exception handler sees."""

    async def main():
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context)
        )
        server = DSEServer(config=config)
        server.scheduler = CoalescingScheduler(config, group_fn=gate)
        host, port = await server.start()
        # A client buffer of a few lines: past it, the client's
        # transport stops reading until the scenario reads.
        reader, writer = await asyncio.open_connection(
            host, port, limit=1 << 17
        )
        try:
            return await scenario(server, reader, writer, errors)
        finally:
            gate.release.set()
            writer.close()
            await server.shutdown()

    return asyncio.run(main())


async def _send(writer, requests):
    for req in requests:
        writer.write(encode_line(req))
    await writer.drain()


async def _wait_for(predicate, timeout=30.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "timed out"
        await asyncio.sleep(0.005)


def _exchange(address, chunks, pause_s=0.0):
    """Send ``chunks`` as separate sends, half-close, and return every
    response line the daemon writes before it hangs up."""
    with socket.create_connection(address, timeout=60) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for chunk in chunks:
            sock.sendall(chunk)
            if pause_s:
                time.sleep(pause_s)
        sock.shutdown(socket.SHUT_WR)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    return [json.loads(line) for line in received.splitlines()]


def _ping(req_id):
    return encode_line({"op": "ping", "id": req_id})


def _long_ping():
    """A ping line longer than the daemon reads."""
    return encode_line({"op": "ping", "id": "long", "pad": "x" * MAX_LINE})


class _Transport(asyncio.Transport):
    """Records what a connection writes; reads and writes never pause."""

    def __init__(self):
        super().__init__()
        self.written = bytearray()
        self.closing = False

    def write(self, data):
        self.written += data

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True


class _PausingTransport(_Transport):
    """Each write passes the high-water mark while ``pausing`` is set."""

    def __init__(self, protocol):
        super().__init__()
        self.protocol = protocol
        self.pausing = True
        self.reading = True

    def write(self, data):
        super().write(data)
        if self.pausing:
            self.protocol.pause_writing()

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True


def _feed(data, size):
    """Hand ``data`` to a fresh connection ``size`` bytes per read, then
    EOF; returns the response lines it wrote."""

    async def main():
        server = DSEServer()
        conn = _Connection(server)
        transport = _Transport()
        conn.connection_made(transport)
        for lo in range(0, len(data), size):
            conn.data_received(data[lo:lo + size])
        conn.eof_received()
        await conn.settled()
        assert transport.closing, "hung up once every answer is written"
        return [json.loads(line) for line in transport.written.splitlines()]

    return asyncio.run(main())


def _outcomes(responses):
    return sorted((str(r["id"]), r["ok"]) for r in responses)


_REFUSED_BETWEEN_PINGS = [("None", False), ("p1", True), ("p2", True)]


class TestConnections:
    def test_half_closed_client_receives_every_answer(self):
        dataflows = ("base", "flat-r8", "flat-r16", "flat-r32", "flat-r64")
        requests = [_cost(f"h{i}", dataflow, model="flaubert")
                    for i, dataflow in enumerate(dataflows)]
        clear_evaluation_cache()
        with ServerThread(SchedulerConfig(window_ms=20.0)) as address:
            with socket.create_connection(address, timeout=60) as sock:
                for req in requests:
                    sock.sendall(encode_line(req))
                sock.shutdown(socket.SHUT_WR)
                received = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    received += chunk
        responses = [json.loads(line) for line in received.splitlines()]
        assert sorted(r["id"] for r in responses) == [
            req["id"] for req in requests
        ]
        by_id = {r["id"]: encode_line(r) for r in responses}
        for req in requests:
            assert by_id[req["id"]] == encode_line(answer_direct(req))

    def test_client_that_stops_reading_pauses_reads_until_it_reads(self):
        total = 400

        async def scenario(server, reader, writer, errors):
            gate.release.set()
            await _send(writer, [_cost("warm")])
            await reader.readline()
            # Memo hits of a 64 KB answer, each written on the read
            # loop's pass.
            await _send(writer, [_cost(f"s{i}") for i in range(total)])
            stats = server.scheduler.stats
            await _wait_for(lambda: stats()["requests"] > 1)
            await asyncio.sleep(0.3)
            paused = stats()["requests"]
            await asyncio.sleep(0.2)
            still = stats()["requests"]
            lines = [await reader.readline() for _ in range(total)]
            return paused, still, lines, stats()["requests"], errors

        gate = _Gate(pad=64 * 1024)
        paused, still, lines, final, errors = _serve(gate, scenario)
        assert paused == still < total, "reads stay paused"
        assert final == total + 1, "reads resume once the client reads"
        assert sorted(json.loads(line)["id"] for line in lines) == sorted(
            f"s{i}" for i in range(total))
        assert errors == []

    def test_disconnect_with_misses_in_flight_raises_nothing(self):
        requests = [_cost(f"d{i}", dataflow) for i, dataflow in
                    enumerate(("base", "flat-r8", "flat-r16", "flat-r16"))]

        async def scenario(server, reader, writer, errors):
            await _send(writer, requests)
            await _wait_for(gate.started.is_set)
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.05)
            gate.release.set()
            await server.shutdown()
            return server.scheduler.stats(), errors

        gate = _Gate()
        stats, errors = _serve(gate, scenario)
        assert errors == []
        assert stats["requests"] == len(requests)
        assert stats["evaluations"] == 3 and stats["coalesced"] == 1
        assert (stats["requests"] - stats["memo_hits"] - stats["coalesced"]
                - stats["shed"] - stats["deadline_expired"]
                == stats["evaluations"]), stats

    def test_shutdown_answers_queued_and_in_flight_work(self):
        config = SchedulerConfig(window_ms=60_000.0, max_batch=2)

        async def scenario(server, reader, writer, errors):
            # A full batch flushes at once and blocks the evaluator; the
            # next request waits out a window that shutdown cuts short.
            await _send(writer, [_cost("a", "base"), _cost("b", "flat-r8")])
            await _wait_for(gate.started.is_set)
            await _send(writer, [_cost("queued", "flat-r16")])
            await _wait_for(lambda: server.scheduler.stats()["queued"])
            shutdown = asyncio.ensure_future(server.shutdown())
            asyncio.get_running_loop().call_later(0.05, gate.release.set)
            lines = [await reader.readline() for _ in range(3)]
            eof = await reader.readline()
            await shutdown
            return lines, eof, errors

        gate = _Gate()
        lines, eof, errors = _serve(gate, scenario, config)
        responses = [json.loads(line) for line in lines]
        assert [r["id"] for r in responses] == ["a", "b", "queued"]
        assert all(r["ok"] for r in responses)
        assert eof == b"", "the daemon hangs up once its answers are out"
        assert errors == []

    def test_request_split_across_byte_sized_sends(self, server):
        line = _ping("split")
        responses = _exchange(server, [line[i:i + 1]
                                       for i in range(len(line))],
                              pause_s=0.0005)
        assert [(r["id"], r["ok"]) for r in responses] == [("split", True)]

    def test_many_requests_in_one_send(self, server):
        ids = [f"m{i}" for i in range(50)]
        responses = _exchange(server,
                              [b"".join(_ping(req_id) for req_id in ids)])
        assert sorted(r["id"] for r in responses) == sorted(ids)
        assert all(r["ok"] for r in responses)

    def test_blank_lines_are_skipped(self, server):
        responses = _exchange(server, [
            b"\n", b"   \n\r\n", _ping("b1"), b"\n\t\n", _ping("b2"),
        ])
        assert sorted(r["id"] for r in responses) == ["b1", "b2"]

    def test_final_line_without_newline_is_answered_at_eof(self, server):
        responses = _exchange(server, [_ping("first"),
                                       _ping("last").rstrip(b"\n")])
        assert sorted(r["id"] for r in responses) == ["first", "last"]

    def test_long_line_is_refused_and_the_connection_goes_on(
        self, server, caplog
    ):
        with caplog.at_level(logging.ERROR):
            responses = _exchange(server, [_ping("p1"), _long_ping(),
                                           _ping("p2")])
        # A ping is answered by a task, so the refusal may come first.
        assert _outcomes(responses) == _REFUSED_BETWEEN_PINGS
        refusal, = [r for r in responses if r["id"] is None]
        assert refusal["code"] == "bad_request"
        assert str(MAX_LINE) in refusal["error"]
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] \
            == []

    @pytest.mark.parametrize("size", [None, 4096, 1])
    def test_long_line_gets_one_refusal_in_one_read_or_many(self, size):
        data = _ping("p1") + _long_ping() + _ping("p2")
        assert _outcomes(_feed(data, size or len(data))) == (
            _REFUSED_BETWEEN_PINGS)

    def test_line_of_max_length_is_read(self):
        line = b'{"op": "ping", "id": "edge", "pad": "'
        line += b"x" * (MAX_LINE - len(line) - 2) + b'"}\n'
        assert len(line) == MAX_LINE + 1
        for size in (len(line), 1000):
            responses = _feed(line + _ping("next"), size)
            assert _outcomes(responses) == [("edge", True), ("next", True)]

    def test_paused_writing_holds_lines_and_reads_until_resumed(self):
        async def main():
            conn = _Connection(DSEServer())
            transport = _PausingTransport(conn)
            conn.connection_made(transport)
            # A line that is not JSON is answered on the spot.
            conn.data_received(b"bad 1\nbad 2\n\nbad 3\n")
            seen = [(transport.written.count(b"\n"), transport.reading)]
            for _ in range(2):
                conn.resume_writing()
                seen.append((transport.written.count(b"\n"),
                             transport.reading))
            transport.pausing = False
            conn.resume_writing()
            seen.append((transport.written.count(b"\n"), transport.reading))
            return seen

        assert asyncio.run(main()) == [(1, False), (2, False), (3, False),
                                       (3, True)]
