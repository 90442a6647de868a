"""``run_serving`` against a reference copy of the original serving loop.

The reference below is the straightforward event loop ``run_serving``
started from: it rescans ``live`` for the prefill and decode
participants, rebuilds the set of finished ids on every step and costs
every participant afresh through ``_fused_la_pass`` /
``_unfused_la_passes``.  The production loop retires requests in place
and memoizes participant costs for the run; both must produce equal
``ServingReport``s, floats bit for bit.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.memory import OffChipSpec
from repro.arch.presets import get_platform
from repro.arch.sfu import SFUSpec
from repro.core.dataflow import (
    AttentionVariant,
    Granularity,
    base_x,
    flat_r,
)
from repro.core.perf import PerfOptions
from repro.models.configs import model_config
from repro.sim import batching
from repro.sim.batching import (
    BatchingPolicy,
    RequestMetrics,
    ServeRequest,
    ServingReport,
    _percentile,
    run_serving,
    step_passes,
    synthetic_trace,
)
from repro.sim.engine import simulate
from repro.sim.schedule import TilePass


def _reference_step_passes(prefill, decode_kv_lens, cfg, dataflow, accel,
                           options) -> List[TilePass]:
    passes: List[TilePass] = []
    participants = ([prefill] if prefill is not None else []) + [
        (1, kv_len) for kv_len in decode_kv_lens
    ]
    for tokens, kv_len in participants:
        if dataflow.fused:
            passes.append(batching._fused_la_pass(
                len(passes), tokens, kv_len, True, cfg, dataflow, accel,
                options,
            ))
        else:
            passes.extend(batching._unfused_la_passes(
                len(passes), tokens, kv_len, cfg, dataflow, accel, options
            ))
    return passes


class _Slot:
    def __init__(self, req: ServeRequest) -> None:
        self.req = req
        self.prefilled = 0
        self.generated = 0
        self.first_token_cycle: Optional[float] = None


def _reference_run_serving(
    requests: Sequence[ServeRequest],
    cfg,
    dataflow,
    accel,
    policy: BatchingPolicy = BatchingPolicy(),
    options: PerfOptions = PerfOptions(),
) -> ServingReport:
    pending = sorted(requests, key=lambda r: (r.arrival_cycle, r.rid),
                     reverse=True)
    live: List[_Slot] = []
    done: List[RequestMetrics] = []
    clock = 0.0
    steps = 0
    while pending or live:
        while pending and pending[-1].arrival_cycle <= clock:
            live.append(_Slot(pending.pop()))
        if not live:
            clock = pending[-1].arrival_cycle
            continue
        prefill: Optional[Tuple[int, int]] = None
        prefill_slot: Optional[_Slot] = None
        for slot in live:
            if slot.prefilled < slot.req.prompt_tokens:
                chunk = min(policy.prefill_chunk,
                            slot.req.prompt_tokens - slot.prefilled)
                prefill = (chunk, slot.prefilled + chunk)
                prefill_slot = slot
                break
        decode_slots = [
            slot for slot in live
            if slot.prefilled >= slot.req.prompt_tokens
        ][: policy.max_decode_batch]
        decode_kv = [slot.req.prompt_tokens + slot.generated + 1
                     for slot in decode_slots]
        passes = _reference_step_passes(prefill, decode_kv, cfg, dataflow,
                                        accel, options)
        clock += simulate(passes, accel).total_cycles
        steps += 1
        if prefill_slot is not None:
            prefill_slot.prefilled = prefill[1]
            if prefill_slot.prefilled >= prefill_slot.req.prompt_tokens:
                prefill_slot.first_token_cycle = clock
        for slot in decode_slots:
            slot.generated += 1
            if slot.generated >= slot.req.output_tokens:
                done.append(RequestMetrics(
                    rid=slot.req.rid,
                    arrival_cycle=slot.req.arrival_cycle,
                    first_token_cycle=slot.first_token_cycle,
                    finish_cycle=clock,
                    prompt_tokens=slot.req.prompt_tokens,
                    output_tokens=slot.req.output_tokens,
                ))
        finished = {m.rid for m in done}
        live = [slot for slot in live if slot.req.rid not in finished]
    done.sort(key=lambda m: m.rid)
    ttfts = sorted(m.ttft_cycles for m in done)
    tpots = sorted(m.tpot_cycles for m in done)
    return ServingReport(
        completed=len(done),
        steps=steps,
        makespan_cycles=clock,
        ttft_p50=_percentile(ttfts, 0.50),
        ttft_p99=_percentile(ttfts, 0.99),
        tpot_p50=_percentile(tpots, 0.50),
        tpot_p99=_percentile(tpots, 0.99),
        tokens_per_kilocycle=1000.0 * sum(m.output_tokens for m in done)
        / clock,
        metrics=tuple(done),
    )


@pytest.fixture(scope="module")
def accel():
    # The decode-tier die of test_batching.py: memory and softmax terms
    # are both visible, so every variant's pass costs differ.
    edge = get_platform("edge")
    return replace(
        edge,
        offchip=OffChipSpec(bandwidth_bytes_per_sec=2000e9),
        sfu=SFUSpec(elements_per_cycle=32),
    )


@pytest.fixture(scope="module")
def cfg():
    return model_config("bert", seq=512, batch=1)


DATAFLOWS = {
    "fused": flat_r(64),
    "unfused": base_x(Granularity.B),
    "flashd": flat_r(64, variant=AttentionVariant.FLASH_D),
    "fusemax": flat_r(64, variant=AttentionVariant.FUSEMAX),
}
POLICIES = {
    "chunk64-batch4": BatchingPolicy(prefill_chunk=64, max_decode_batch=4),
    "chunk128-batch1": BatchingPolicy(prefill_chunk=128, max_decode_batch=1),
    "chunk512-batch16": BatchingPolicy(prefill_chunk=512,
                                       max_decode_batch=16),
}


def _assert_same(trace, cfg, dataflow, accel, policy) -> ServingReport:
    got = run_serving(trace, cfg, dataflow, accel, policy)
    want = _reference_run_serving(trace, cfg, dataflow, accel, policy)
    # Dataclass equality compares floats with ==: bit-equal, not close.
    assert got == want
    return got


class TestOracleEquivalence:
    @pytest.mark.parametrize("dataflow", list(DATAFLOWS.values()),
                             ids=list(DATAFLOWS))
    @pytest.mark.parametrize("policy", list(POLICIES.values()),
                             ids=list(POLICIES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_traces(self, cfg, accel, dataflow, policy, seed):
        trace = synthetic_trace(30, seed=seed, prompt_range=(16, 300),
                                output_range=(1, 24),
                                mean_interarrival_cycles=100_000.0)
        _assert_same(trace, cfg, dataflow, accel, policy)

    @pytest.mark.parametrize("dataflow", list(DATAFLOWS.values()),
                             ids=list(DATAFLOWS))
    def test_single_output_token(self, cfg, accel, dataflow):
        # Every request retires on its first decode step.
        trace = tuple(
            replace(r, output_tokens=1)
            for r in synthetic_trace(25, seed=4, prompt_range=(8, 200))
        )
        report = _assert_same(trace, cfg, dataflow, accel,
                              POLICIES["chunk64-batch4"])
        assert report.completed == 25

    @pytest.mark.parametrize("dataflow", list(DATAFLOWS.values()),
                             ids=list(DATAFLOWS))
    def test_identical_arrivals(self, cfg, accel, dataflow):
        # One burst at cycle 0 and one later: ties break by request id.
        trace = tuple(
            ServeRequest(rid=rid, arrival_cycle=0.0 if rid < 10 else 5e5,
                         prompt_tokens=32 + 17 * rid,
                         output_tokens=1 + rid % 5)
            for rid in reversed(range(20))
        )
        _assert_same(trace, cfg, dataflow, accel, POLICIES["chunk64-batch4"])

    @pytest.mark.parametrize("dataflow", list(DATAFLOWS.values()),
                             ids=list(DATAFLOWS))
    def test_prompts_exact_multiples_of_the_chunk(self, cfg, accel,
                                                  dataflow):
        policy = POLICIES["chunk64-batch4"]
        trace = tuple(
            ServeRequest(rid=rid, arrival_cycle=3e4 * rid,
                         prompt_tokens=policy.prefill_chunk * (1 + rid % 4),
                         output_tokens=2 + rid % 3)
            for rid in range(16)
        )
        _assert_same(trace, cfg, dataflow, accel, policy)

    @settings(max_examples=40, deadline=None)
    @given(
        requests=st.lists(
            st.tuples(st.integers(0, 6), st.integers(1, 300),
                      st.integers(1, 12)),
            min_size=1, max_size=12,
        ),
        chunk=st.sampled_from([1, 16, 64, 100]),
        batch=st.integers(1, 5),
        name=st.sampled_from(sorted(DATAFLOWS)),
    )
    def test_generated_traces(self, cfg, accel, requests, chunk, batch,
                              name):
        # Arrivals on a coarse grid so that ties are common.
        trace = tuple(
            ServeRequest(rid=rid, arrival_cycle=gap * 4e4,
                         prompt_tokens=prompt, output_tokens=out)
            for rid, (gap, prompt, out) in enumerate(requests)
        )
        _assert_same(trace, cfg, DATAFLOWS[name], accel,
                     BatchingPolicy(prefill_chunk=chunk,
                                    max_decode_batch=batch))


class TestStepPassesMemo:
    @pytest.mark.parametrize("dataflow", list(DATAFLOWS.values()),
                             ids=list(DATAFLOWS))
    def test_shared_table_matches_reference(self, cfg, accel, dataflow):
        costs: dict = {}
        steps = [((64, 64), [70, 90]), (None, [71, 91, 90]),
                 ((1, 90), [90, 1]), ((64, 128), [])]
        for prefill, decodes in steps:
            want = _reference_step_passes(prefill, decodes, cfg, dataflow,
                                          accel, PerfOptions())
            assert step_passes(prefill, decodes, cfg, dataflow,
                               accel) == want
            assert step_passes(prefill, decodes, cfg, dataflow, accel,
                               _costs=costs) == want
        # One entry per distinct (tokens, kv_len); a one-token prefill
        # chunk shares its entry with a decode at the same length.
        assert sorted(costs) == [(1, 1), (1, 70), (1, 71), (1, 90),
                                 (1, 91), (64, 64), (64, 128)]


class TestCostingCount:
    def test_each_participant_shape_is_costed_once(self, cfg, accel,
                                                   monkeypatch):
        seen: List[Tuple[str, int, int]] = []

        def counting(kind, fn):
            def wrapper(index, tokens, kv_len, *rest):
                seen.append((kind, tokens, kv_len))
                return fn(index, tokens, kv_len, *rest)
            return wrapper

        monkeypatch.setattr(batching, "_fused_la_pass",
                            counting("fused", batching._fused_la_pass))
        monkeypatch.setattr(batching, "_unfused_la_passes",
                            counting("unfused", batching._unfused_la_passes))
        trace = synthetic_trace(2000, seed=11, prompt_range=(16, 1024),
                                output_range=(1, 32),
                                mean_interarrival_cycles=1e6)
        policy = BatchingPolicy(prefill_chunk=256, max_decode_batch=8)
        for dataflow in (flat_r(64, variant=AttentionVariant.FUSEMAX),
                         base_x(Granularity.B)):
            seen.clear()
            report = run_serving(trace, cfg, dataflow, accel, policy)
            assert report.completed == len(trace)
            kinds = {kind for kind, _, _ in seen}
            assert kinds == {"fused" if dataflow.fused else "unfused"}
            # At most one call per distinct (tokens, kv_len) shape...
            assert len(seen) == len(set(seen))
            # ...which is far fewer than one per step.
            assert len(seen) < report.steps / 4


class TestPercentileRank:
    def test_p99_of_twelve_is_the_maximum(self):
        values = [float(v) for v in range(1, 13)]
        assert _percentile(values, 0.99) == 12.0
        assert _percentile(values, 0.50) == 6.0

    def test_integer_ranks_are_unchanged(self):
        # The 200- and 500-sample ranks the recorded goldens rely on.
        for n in (200, 500):
            values = [float(v) for v in range(1, n + 1)]
            assert _percentile(values, 0.99) == 0.99 * n
            assert _percentile(values, 0.50) == 0.50 * n

    def test_rank_is_exact_where_float_ceil_is_not(self):
        # 0.07 * 100 == 7.000000000000001 in binary floating point; a
        # float ceil would pick the 8th value.
        values = [float(v) for v in range(1, 101)]
        assert _percentile(values, 0.07) == 7.0

    def test_extremes(self):
        assert _percentile([3.0], 0.99) == 3.0
        assert _percentile([1.0, 2.0], 0.0) == 1.0
        assert _percentile([1.0, 2.0], 1.0) == 2.0
