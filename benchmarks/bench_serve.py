"""Benchmark: the DSE service under mixed concurrent load.

Fires >= 1000 mixed queries (cost lookups, full DSE searches, dataflow
sweeps) at a live in-process daemon from several client connections and
asserts the serving PR's acceptance criteria:

* served throughput is >= 3x the serial per-request baseline,
* the p99 response latency stays under an SLA bound,
* the coalescing scheduler actually merged work: at least one
  multi-request ``evaluate_grid`` call (sweep chunks land in one
  micro-batch) and warm-path savings (memo hits) > 0,
* every served response is byte-identical to the direct in-process
  answer for the same request,
* the scheduler's work accounting balances:
  ``requests - memo_hits - coalesced - shed - expired == evaluations``,
* what the daemon avoided, from its own counters and so independent of
  the host's speed: every distinct query is evaluated at least once and
  at most once per client connection (a repeat either waits in the
  memo or coalesces), which bounds the memo-hit plus coalesced share of
  the submits from below and the evaluations per submit from above.

The baseline models what exists without the daemon: each query pays a
cold engine (one CLI process per query), simulated by clearing the
evaluation LRU before every request.  It is *generous* to the baseline
— a real process-per-query run would additionally pay interpreter
startup and imports (~100x the evaluation itself).

Knobs for CI smoke runs: ``BENCH_SERVE_QUERIES`` (default 1200),
``BENCH_SERVE_MIN_SPEEDUP`` (default 3.0), ``BENCH_SERVE_P99_MS``
(default 250).  The measured numbers are recorded on this benchmark's
trajectory row (schema v3 serving fields) via ``record_serving``.
"""

import os
import threading
import time

from repro.core.engine import clear_evaluation_cache
from repro.serve import (
    SchedulerConfig,
    ServeClient,
    ServerThread,
    answer_direct,
    encode_line,
    resolve_query,
)
from repro.sim.batching import nearest_rank_percentile

CLIENTS = 4

_SWEEP_DATAFLOWS = (
    "base", "base-h", "flat-r2", "flat-r4", "flat-r8",
    "flat-r16", "flat-r32", "flat-r64", "flat-r128", "flat-r256",
)
_COST_KEYS = tuple(
    (model, seq, dataflow)
    for model, seq in (("bert", 512), ("bert", 2048), ("xlm", 1024),
                       ("trxl", 512), ("t5", 1024), ("flaubert", 512))
    for dataflow in ("base", "flat-r32", "flat-r64", "flat-r128")
)
_SEARCH_KEYS = (
    ("bert", 512, "L-A"), ("bert", 2048, "L-A"), ("bert", 1024, "Model"),
    ("xlm", 512, "L-A"), ("xlm", 1024, "L-A"), ("trxl", 512, "L-A"),
    ("t5", 1024, "L-A"), ("flaubert", 512, "Model"),
)


def _request(index):
    """Deterministic mixed workload: mostly repeated cost lookups (the
    memo/coalescing case), every 4th a search, every 50th a sweep."""
    if index % 50 == 7:
        model, seq = (("bert", 512), ("xlm", 1024))[index % 2]
        return {
            "op": "sweep",
            "id": f"r{index}",
            "requests": [
                {"op": "cost", "model": model, "seq": seq, "batch": 8,
                 "dataflow": dataflow}
                for dataflow in _SWEEP_DATAFLOWS
            ],
        }
    if index % 4 == 1:
        model, seq, scope = _SEARCH_KEYS[index % len(_SEARCH_KEYS)]
        return {"op": "search", "id": f"r{index}", "model": model,
                "seq": seq, "batch": 8, "scope": scope}
    model, seq, dataflow = _COST_KEYS[index % len(_COST_KEYS)]
    return {"op": "cost", "id": f"r{index}", "model": model, "seq": seq,
            "batch": 8, "dataflow": dataflow}


def _distinct_queries(requests):
    """How many distinct scheduler identities the requests submit."""
    subs = [sub for req in requests
            for sub in req.get("requests", [req])]
    return len({resolve_query(sub).dedupe_key() for sub in subs})


def _serial_baseline(requests):
    """Answer every request on a cold engine, one at a time."""
    answers = {}
    start = time.perf_counter()
    for req in requests:
        clear_evaluation_cache()
        answers[req["id"]] = encode_line(answer_direct(req))
    return time.perf_counter() - start, answers


def _served_load(host, port, requests):
    """Drive the daemon from ``CLIENTS`` connections; per-request wall
    times are measured client-side (they include the coalescing
    window, i.e. what a caller actually observes)."""
    answers = {}
    latencies = []
    errors = []
    lock = threading.Lock()

    def _client(shard):
        try:
            with ServeClient(host, port) as client:
                for req in shard:
                    t0 = time.perf_counter()
                    response = client.request(req)
                    wall = time.perf_counter() - t0
                    with lock:
                        answers[req["id"]] = encode_line(response)
                        latencies.append(wall)
        except Exception as exc:  # noqa: BLE001 - surfaced to the test
            with lock:
                errors.append(exc)

    shards = [requests[i::CLIENTS] for i in range(CLIENTS)]
    threads = [
        threading.Thread(target=_client, args=(shard,), daemon=True)
        for shard in shards
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    assert not errors, errors
    return wall, answers, sorted(latencies)


def test_serve_load_speedup_and_sla(
    benchmark, report_printer, record_serving, monkeypatch
):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    total = int(os.environ.get("BENCH_SERVE_QUERIES", "1200"))
    min_speedup = float(os.environ.get("BENCH_SERVE_MIN_SPEEDUP", "3.0"))
    p99_bound_ms = float(os.environ.get("BENCH_SERVE_P99_MS", "250"))
    requests = [_request(i) for i in range(total)]

    baseline_s, direct_answers = _serial_baseline(requests)

    clear_evaluation_cache()  # the daemon starts as cold as the baseline
    config = SchedulerConfig(window_ms=1.0)
    with ServerThread(config) as (host, port):
        served_s, served_answers, latencies = benchmark.pedantic(
            lambda: _served_load(host, port, requests),
            rounds=1, iterations=1,
        )
        with ServeClient(host, port) as client:
            stats = client.stats()["scheduler"]

    p50_ms = nearest_rank_percentile(latencies, 0.50) * 1e3
    p99_ms = nearest_rank_percentile(latencies, 0.99) * 1e3
    qps = total / served_s
    speedup = baseline_s / served_s
    coalesce_ratio = stats["requests"] / max(1, stats["evaluations"])
    distinct = _distinct_queries(requests)
    avoided_share = (
        (stats["memo_hits"] + stats["coalesced"]) / stats["requests"]
    )
    evals_per_request = stats["evaluations"] / stats["requests"]
    report_printer("\n".join([
        f"queries: {total} mixed ({CLIENTS} client connections)",
        f"serial baseline : {baseline_s * 1e3:9.1f} ms",
        f"served          : {served_s * 1e3:9.1f} ms "
        f"({speedup:.1f}x, {qps:.0f} qps)",
        f"latency         : p50 {p50_ms:.2f} ms, p99 {p99_ms:.2f} ms "
        f"(bound {p99_bound_ms:.0f} ms)",
        f"scheduler       : {stats['requests']} submits, "
        f"{stats['evaluations']} evaluations, "
        f"{stats['memo_hits']} memo hits, {stats['coalesced']} coalesced, "
        f"{stats['grid_calls']} grid calls ({stats['grid_rows']} rows)",
        f"avoided         : {avoided_share:.1%} of submits memo hits or "
        f"coalesced, {evals_per_request:.3f} evaluations per submit "
        f"({distinct} distinct queries)",
    ]))

    # Byte-identical to the direct reference path, response by response.
    assert set(served_answers) == set(direct_answers)
    for req_id, payload in direct_answers.items():
        assert served_answers[req_id] == payload, req_id

    # The coalescer really batched: sweep chunks became multi-row grid
    # calls, and the shared warm path absorbed the repeats.
    assert stats["grid_calls"] >= 1
    assert stats["grid_rows"] > stats["grid_calls"]
    assert stats["memo_hits"] > 0
    assert stats["shed"] == 0 and stats["deadline_expired"] == 0
    # Work accounting balances after drain-level quiescence.
    assert (
        stats["requests"] - stats["memo_hits"] - stats["coalesced"]
        - stats["shed"] - stats["deadline_expired"]
        == stats["evaluations"]
    )

    # What the daemon avoided, independent of the host: each distinct
    # query is evaluated at least once (the stream starts cold) and at
    # most once per connection, so every other submit was a memo hit or
    # coalesced.
    most_evaluated = CLIENTS * distinct / stats["requests"]
    assert stats["evaluations"] >= distinct
    assert evals_per_request <= most_evaluated, (
        f"{stats['evaluations']} evaluations of {distinct} distinct queries"
    )
    assert avoided_share >= 1 - most_evaluated

    # The SLA: throughput versus the per-request baseline, and tail
    # latency under concurrent load.
    assert speedup >= min_speedup, (
        f"served only {speedup:.2f}x the serial baseline"
    )
    assert p99_ms <= p99_bound_ms, (
        f"p99 {p99_ms:.1f} ms exceeds {p99_bound_ms:.0f} ms"
    )

    record_serving(
        qps=qps, p50_ms=p50_ms, p99_ms=p99_ms,
        coalesce_ratio=coalesce_ratio,
        speedup_vs_serial=speedup,
        scheduler=dict(stats),
    )
