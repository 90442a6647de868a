"""Pipelined (spatially split) fused execution — the road not taken.

Paper section 5.1 weighs two ways to execute the fused L-A operator and
picks interleaving; this module implements the alternative so the
decision can be quantified (see ``bench_ablations``).  In pipelined
execution half the PE array computes L while the other half computes A
on the previous tile's softmaxed output.  The paper's four objections,
as they appear in this model:

1. splitting the array needs extra control (not modeled — area);
2. the pipeline pays a fill and drain latency of one full stage;
3. the split array halves peak throughput for *non-fused* operators
   (exposed via :func:`pipelined_nonfused_penalty`);
4. each half can only prefetch during its own active buffer, so the
   warm-up credit of interleaving (fetching across two stages) is lost.
"""

from __future__ import annotations

from repro.arch.accelerator import Accelerator
from repro.core.dataflow import Dataflow
from repro.core.perf import (
    FUSED_WARMUP_CREDIT,
    OperatorCost,
    PerfOptions,
    cost_la_pair,
)
from repro.core.tiling import ceil_div
from repro.ops.attention import AttentionConfig

__all__ = ["cost_fused_la_pipelined", "pipelined_nonfused_penalty"]


def cost_fused_la_pipelined(
    cfg: AttentionConfig,
    dataflow: Dataflow,
    accel: Accelerator,
    options: PerfOptions = PerfOptions(),
) -> OperatorCost:
    """Cost the fused L-A pair under spatial pipelining.

    Each stage runs on half the PEs.  The two stages overlap across
    consecutive FLAT-tiles, so steady-state throughput is set by the
    *slower* stage at half peak; the L and A GEMMs have equal MACs, so
    per-pass time doubles relative to full-array execution of one stage
    — the same steady-state MACs/cycle as interleaving — but the
    pipeline additionally pays one stage of fill and one of drain, and
    forfeits the interleaved warm-up credit.  Traffic and footprint are
    identical to the interleaved schedule, so we derive the cost from
    :func:`~repro.core.perf.cost_la_pair` and re-time it.
    """
    if not dataflow.fused:
        raise ValueError("pipelined execution applies to fused dataflows")
    interleaved = cost_la_pair(cfg, dataflow, accel, options)

    b_t, h_t, r = dataflow.cross_tile(cfg.batch, cfg.heads, cfg.seq_q)
    n_pass = (
        ceil_div(cfg.batch, b_t)
        * ceil_div(cfg.heads, h_t)
        * ceil_div(cfg.seq_q, r)
    )
    # One stage's compute on half the array equals the pair's compute
    # on the full array (equal-MAC stages), so steady-state compute
    # matches interleaving; the extra costs are the fill/drain bubble —
    # one stage-time to fill, one to drain — and the lost warm-up
    # credit.
    per_pass_stage = interleaved.compute_cycles / max(n_pass, 1)
    pipeline_bubble = per_pass_stage
    lost_credit = (
        interleaved.dram_bytes / max(n_pass, 1)
        / accel.offchip_bytes_per_cycle
        * (1.0 - FUSED_WARMUP_CREDIT)
    )
    total = interleaved.total_cycles + pipeline_bubble + lost_credit
    return OperatorCost(
        name=interleaved.name.replace("[", "[pipelined:"),
        total_cycles=total,
        ideal_cycles=interleaved.ideal_cycles,
        compute_cycles=interleaved.compute_cycles + pipeline_bubble,
        softmax_cycles=interleaved.softmax_cycles,
        dram_cycles=interleaved.dram_cycles,
        sg_cycles=interleaved.sg_cycles,
        dram_bytes=interleaved.dram_bytes,
        sg_bytes=interleaved.sg_bytes,
        footprint_bytes=interleaved.footprint_bytes,
        counts=interleaved.counts,
    )


def pipelined_nonfused_penalty(accel: Accelerator) -> float:
    """Throughput factor for non-fused operators on the split array.

    With the array statically halved, a non-fused operator (projection,
    FC) can use only one partition at a time: a 2x slowdown — the
    paper's third objection to pipelining.
    """
    del accel  # the ratio is structural
    return 2.0
