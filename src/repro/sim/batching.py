"""Request-level continuous batching over the tile engine (ROADMAP item 3).

Production attention traffic is a *mix*: new requests arrive with a
prompt to prefill while admitted requests decode one token per step
against their growing KV caches.  This module multiplexes that mix the
way a continuous-batching server does and replays every engine step
through the discrete tile engine (:mod:`repro.sim.engine`), so step
latencies inherit the double-buffered prefetch overlap and the shared
DRAM channel rather than being summed analytically.

The pieces:

* :class:`ServeRequest` — one request: arrival cycle, prompt length,
  output-token budget.
* :class:`BatchingPolicy` — prefill chunking (long prompts are split
  into chunks so decodes are never starved for a whole prompt) and the
  decode piggyback width (how many decode requests ride along with
  each step).
* :func:`step_passes` — the :class:`~repro.sim.schedule.TilePass` list
  of one engine step: at most one prefill chunk plus the piggybacked
  single-token decodes, under a fused dataflow (with its attention
  variant) or the three-phase unfused baseline.
* :func:`run_serving` — the deterministic event loop: admit arrivals,
  compose a step, replay it through :func:`~repro.sim.engine.simulate`,
  advance the clock, track per-request TTFT/TPOT, and report SLA
  percentiles (p50/p99) plus throughput.
* :func:`synthetic_trace` — a seeded request mix for benchmarks and
  equivalence jobs (``random.Random(seed)``; byte-stable across runs).

Costing covers the attention L-A pair of one layer — the decode-side
bottleneck this tier exists to rank dataflows on; projections and FFNs
are dataflow-invariant at ``seq_q=1`` and would scale every step
equally.  TTFT is the cycle the request's *final prefill chunk*
completes, minus arrival; TPOT is the remaining time to finish divided
by the output-token budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.accelerator import Accelerator
from repro.core.dataflow import AttentionVariant, Dataflow
from repro.core.perf import PerfOptions, _compute_cycles
from repro.ops.attention import AttentionConfig
from repro.sim.engine import simulate
from repro.sim.schedule import TilePass

__all__ = [
    "ServeRequest",
    "BatchingPolicy",
    "RequestMetrics",
    "ServingReport",
    "step_passes",
    "run_serving",
    "synthetic_trace",
]


@dataclass(frozen=True)
class ServeRequest:
    """One serving request of the prefill+decode mix."""

    rid: int
    arrival_cycle: float
    prompt_tokens: int
    output_tokens: int

    def __post_init__(self) -> None:
        if self.arrival_cycle < 0:
            raise ValueError(f"request {self.rid}: negative arrival")
        if self.prompt_tokens < 1 or self.output_tokens < 1:
            raise ValueError(
                f"request {self.rid}: prompt and output token counts "
                "must be >= 1"
            )


@dataclass(frozen=True)
class BatchingPolicy:
    """Continuous-batching knobs.

    ``prefill_chunk`` caps the prompt tokens one engine step prefills —
    chunking keeps long prompts from head-of-line-blocking the decode
    batch (the standard chunked-prefill trade: larger chunks amortize
    K/V streaming, smaller chunks bound decode stall per step).
    ``max_decode_batch`` is the piggyback width: how many decode
    requests advance one token alongside each step.
    """

    prefill_chunk: int = 512
    max_decode_batch: int = 16

    def __post_init__(self) -> None:
        if self.prefill_chunk < 1 or self.max_decode_batch < 1:
            raise ValueError(
                "prefill_chunk and max_decode_batch must be >= 1"
            )


@dataclass(frozen=True)
class RequestMetrics:
    """Per-request SLA accounting, in accelerator cycles."""

    rid: int
    arrival_cycle: float
    first_token_cycle: float
    finish_cycle: float
    prompt_tokens: int
    output_tokens: int

    @property
    def ttft_cycles(self) -> float:
        """Time to first token: final prefill chunk done minus arrival."""
        return self.first_token_cycle - self.arrival_cycle

    @property
    def tpot_cycles(self) -> float:
        """Time per output token over the decode phase."""
        return (self.finish_cycle - self.first_token_cycle) / self.output_tokens


@dataclass(frozen=True)
class ServingReport:
    """Aggregate SLA report of one serving run."""

    completed: int
    steps: int
    makespan_cycles: float
    ttft_p50: float
    ttft_p99: float
    tpot_p50: float
    tpot_p99: float
    tokens_per_kilocycle: float
    metrics: Tuple[RequestMetrics, ...]


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the ``ceil(fraction * n)``-th smallest.

    The rank is computed in exact integers (``fraction`` in parts per
    million): in floats ``0.07 * 100`` is ``7.000000000000001``, whose
    ceil is 8.  Matches ``benchmarks/bench_serve.py``.
    """
    ppm = round(fraction * 1_000_000)
    rank = -(-ppm * len(sorted_values) // 1_000_000)
    return sorted_values[min(len(sorted_values), max(1, rank)) - 1]


def _fused_la_pass(
    index: int,
    tokens: int,
    kv_len: int,
    cold_kv: bool,
    cfg: AttentionConfig,
    dataflow: Dataflow,
    accel: Accelerator,
    options: PerfOptions,
) -> TilePass:
    """One fused L-A pass: ``tokens`` query rows over a ``kv_len`` cache.

    ``cold_kv`` charges the K/V stream (a decode step always re-reads
    the cache; a continuing prefill chunk re-reads it too — the cache
    grew since the previous chunk).  The variant's softmax term matches
    the analytical model: FLASH-D drops the division pass over the
    logits, FuseMax overlaps the SFU with the PE array, expressed to
    the engine as the *exposed* softmax ``max(0, softmax - compute)``
    so ``exec = compute + exposed = max(compute, softmax)``.
    """
    e = accel.bytes_per_element
    h, dk = cfg.heads, cfg.d_head
    reads = h * tokens * dk
    if cold_kv:
        reads += 2 * h * kv_len * dk
    macs = h * tokens * kv_len * dk
    compute = (
        _compute_cycles(
            macs, tokens, dk, kv_len, dataflow.stationarity, accel,
            options, tile_switches=0.0,
        )
        + _compute_cycles(
            macs, tokens, kv_len, dk, dataflow.stationarity, accel,
            options, tile_switches=0.0,
        )
    )
    logits = h * tokens * kv_len
    if dataflow.variant is AttentionVariant.FLASH_D:
        softmax = accel.sfu.flashd_cycles(logits, h * tokens * dk)
    else:
        softmax = accel.sfu.softmax_cycles(logits)
    if dataflow.variant is AttentionVariant.FUSEMAX:
        softmax = max(0.0, softmax - compute)
    return TilePass(
        index=index,
        read_bytes=float(reads * e),
        compute_cycles=compute,
        softmax_cycles=softmax,
        write_bytes=float(h * tokens * dk * e),
    )


def _unfused_la_passes(
    index: int,
    tokens: int,
    kv_len: int,
    cfg: AttentionConfig,
    dataflow: Dataflow,
    accel: Accelerator,
    options: PerfOptions,
) -> List[TilePass]:
    """Three baseline passes: L (raw logits out), softmax, A (re-read)."""
    e = accel.bytes_per_element
    h, dk = cfg.heads, cfg.d_head
    macs = h * tokens * kv_len * dk
    logits = h * tokens * kv_len
    compute_l = _compute_cycles(
        macs, tokens, dk, kv_len, dataflow.stationarity, accel, options,
        tile_switches=0.0,
    )
    compute_a = _compute_cycles(
        macs, tokens, kv_len, dk, dataflow.stationarity, accel, options,
        tile_switches=0.0,
    )
    return [
        TilePass(
            index=index,
            read_bytes=float(h * (tokens + 2 * kv_len) * dk * e),
            compute_cycles=compute_l,
            softmax_cycles=0.0,
            write_bytes=float(logits * e),
        ),
        TilePass(
            index=index + 1,
            read_bytes=float(logits * e),
            compute_cycles=0.0,
            softmax_cycles=accel.sfu.softmax_cycles(logits),
            write_bytes=float(logits * e),
        ),
        TilePass(
            index=index + 2,
            read_bytes=float(logits * e),
            compute_cycles=compute_a,
            softmax_cycles=0.0,
            write_bytes=float(h * tokens * dk * e),
        ),
    ]


#: One pass's cost as plain numbers, in ``TilePass`` field order after
#: ``index``: ``(read_bytes, compute_cycles, softmax_cycles,
#: write_bytes)``.
_PassCost = Tuple[float, float, float, float]


def _participant_cost(
    tokens: int,
    kv_len: int,
    cfg: AttentionConfig,
    dataflow: Dataflow,
    accel: Accelerator,
    options: PerfOptions,
) -> Tuple[_PassCost, ...]:
    """The pass costs of one step participant, in schedule order."""
    if dataflow.fused:
        passes = [_fused_la_pass(
            0, tokens, kv_len, True, cfg, dataflow, accel, options
        )]
    else:
        passes = _unfused_la_passes(
            0, tokens, kv_len, cfg, dataflow, accel, options
        )
    return tuple(
        (p.read_bytes, p.compute_cycles, p.softmax_cycles, p.write_bytes)
        for p in passes
    )


def step_passes(
    prefill: Optional[Tuple[int, int]],
    decode_kv_lens: Sequence[int],
    cfg: AttentionConfig,
    dataflow: Dataflow,
    accel: Accelerator,
    options: PerfOptions = PerfOptions(),
    *,
    _costs: Optional[Dict[Tuple[int, int], Tuple[_PassCost, ...]]] = None,
) -> List[TilePass]:
    """Tile passes of one engine step.

    ``prefill`` is ``(chunk_tokens, kv_len_after_chunk)`` or ``None``;
    ``decode_kv_lens`` lists the cache length each piggybacked decode
    request attends over.  Fused dataflows emit one pass per
    participant; the unfused baseline emits its three serial passes
    each.  The decode step schedule depends on the dataflow only
    through fusion, stationarity and variant — a single query row is
    one cross-tile under every granularity, and single-token tiles
    always fit the staging region.

    ``_costs`` is :func:`run_serving`'s per-run memo of participant
    costs keyed by ``(tokens, kv_len)``; it is only valid for one
    ``(cfg, dataflow, accel, options)``.  Fresh passes are built from
    it on every call, so each still passes ``TilePass`` validation.
    """
    if prefill is None and not decode_kv_lens:
        raise ValueError("an engine step needs a prefill chunk or a decode")
    costs = {} if _costs is None else _costs
    shapes: List[Tuple[int, int]] = []
    if prefill is not None:
        tokens, kv_len = prefill
        shapes.append((tokens, kv_len))
    shapes.extend((1, kv_len) for kv_len in decode_kv_lens)
    passes: List[TilePass] = []
    for shape in shapes:
        cost = costs.get(shape)
        if cost is None:
            cost = costs[shape] = _participant_cost(
                *shape, cfg, dataflow, accel, options
            )
        for pass_cost in cost:
            passes.append(TilePass(len(passes), *pass_cost))
    return passes


@dataclass
class _Live:
    """Mutable progress of one admitted request."""

    req: ServeRequest
    prefilled: int = 0
    generated: int = 0
    first_token_cycle: Optional[float] = None


def run_serving(
    requests: Sequence[ServeRequest],
    cfg: AttentionConfig,
    dataflow: Dataflow,
    accel: Accelerator,
    policy: BatchingPolicy = BatchingPolicy(),
    options: PerfOptions = PerfOptions(),
) -> ServingReport:
    """Serve the request mix to completion; deterministic event loop.

    Each iteration admits every request that has arrived, composes one
    engine step — the oldest request still prefilling contributes one
    prompt chunk; the oldest ``max_decode_batch`` decoding requests
    each advance one token — replays the step through the tile engine,
    and advances the clock by the step's simulated cycles.  When no
    admitted request has work, the clock jumps to the next arrival.

    ``cfg`` supplies the model's dimensions (heads, ``d_head``);
    its sequence-length fields are ignored — each request's own prompt
    and cache lengths drive the per-step shapes.

    Host cost per step is O(decode batch), plus one O(live) list splice
    on a step where a request finishes: prompts are prefilled one
    request at a time in admission order, so ``live`` is always its
    decoding requests followed by those still prefilling, and finished
    requests are retired from that prefix in place.  Participant pass
    costs are memoized for the run (see :func:`step_passes`).
    """
    if not requests:
        raise ValueError("run_serving needs at least one request")
    rids = [r.rid for r in requests]
    if len(set(rids)) != len(rids):
        raise ValueError("request ids must be unique")
    pending: List[ServeRequest] = sorted(
        requests, key=lambda r: (r.arrival_cycle, r.rid), reverse=True
    )
    live: List[_Live] = []
    decoding = 0  # live[:decoding] decode; live[decoding:] still prefill
    done: List[RequestMetrics] = []
    costs: Dict[Tuple[int, int], Tuple[_PassCost, ...]] = {}
    clock = 0.0
    steps = 0

    while pending or live:
        while pending and pending[-1].arrival_cycle <= clock:
            live.append(_Live(pending.pop()))
        if not live:
            clock = pending[-1].arrival_cycle
            continue

        prefill: Optional[Tuple[int, int]] = None
        prefill_slot: Optional[_Live] = None
        if decoding < len(live):
            prefill_slot = live[decoding]
            chunk = min(
                policy.prefill_chunk,
                prefill_slot.req.prompt_tokens - prefill_slot.prefilled,
            )
            prefill = (chunk, prefill_slot.prefilled + chunk)
        decode_slots = live[: min(decoding, policy.max_decode_batch)]
        decode_kv = [
            slot.req.prompt_tokens + slot.generated + 1
            for slot in decode_slots
        ]

        passes = step_passes(prefill, decode_kv, cfg, dataflow, accel,
                             options, _costs=costs)
        clock += simulate(passes, accel).total_cycles
        steps += 1

        if prefill_slot is not None:
            prefill_slot.prefilled = prefill[1]
            if prefill_slot.prefilled >= prefill_slot.req.prompt_tokens:
                prefill_slot.first_token_cycle = clock
                decoding += 1
        retired = False
        for slot in decode_slots:
            slot.generated += 1
            if slot.generated >= slot.req.output_tokens:
                retired = True
                done.append(RequestMetrics(
                    rid=slot.req.rid,
                    arrival_cycle=slot.req.arrival_cycle,
                    first_token_cycle=slot.first_token_cycle,
                    finish_cycle=clock,
                    prompt_tokens=slot.req.prompt_tokens,
                    output_tokens=slot.req.output_tokens,
                ))
        if retired:
            kept = [slot for slot in decode_slots
                    if slot.generated < slot.req.output_tokens]
            decoding -= len(decode_slots) - len(kept)
            live[: len(decode_slots)] = kept

    done.sort(key=lambda m: m.rid)
    ttfts = sorted(m.ttft_cycles for m in done)
    tpots = sorted(m.tpot_cycles for m in done)
    total_tokens = sum(m.output_tokens for m in done)
    return ServingReport(
        completed=len(done),
        steps=steps,
        makespan_cycles=clock,
        ttft_p50=_percentile(ttfts, 0.50),
        ttft_p99=_percentile(ttfts, 0.99),
        tpot_p50=_percentile(tpots, 0.50),
        tpot_p99=_percentile(tpots, 0.99),
        tokens_per_kilocycle=1000.0 * total_tokens / clock,
        metrics=tuple(done),
    )


def synthetic_trace(
    num_requests: int,
    seed: int = 0,
    mean_interarrival_cycles: float = 50_000.0,
    prompt_range: Tuple[int, int] = (128, 2048),
    output_range: Tuple[int, int] = (16, 128),
) -> Tuple[ServeRequest, ...]:
    """A seeded mixed prefill+decode request trace.

    Uniform prompt/output lengths and exponential inter-arrival gaps
    from ``random.Random(seed)`` — fully deterministic for a given
    argument tuple, which is what lets the decode-equivalence CI job
    and the benchmark share byte-identical traces.
    """
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    rng = random.Random(seed)
    clock = 0.0
    out: List[ServeRequest] = []
    for rid in range(num_requests):
        clock += rng.expovariate(1.0 / mean_interarrival_cycles)
        out.append(ServeRequest(
            rid=rid,
            arrival_cycle=clock,
            prompt_tokens=rng.randint(*prompt_range),
            output_tokens=rng.randint(*output_range),
        ))
    return tuple(out)
