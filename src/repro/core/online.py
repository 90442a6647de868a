"""Online-softmax (column-tiled) fused dataflow — beyond the paper.

FLAT's basic execution unit is a complete ``[R, N]`` logit row block,
because softmax reduces along the key dimension (section 4.2.1).  The
streaming-softmax reformulation (verified numerically in
:mod:`repro.functional.softmax`) removes that constraint: the key
dimension can be tiled into ``C``-column chunks with per-row running
max/normalizer state, shrinking the live intermediate from O(R*N) to
O(R*C) — *independent of sequence length*.

This module prices that dataflow with the same phase machinery as
:mod:`repro.core.perf`:

* per (batch, head) pair, the cross loop visits ``ceil(N_q/R)`` row
  blocks; each row block streams all ``ceil(N_kv/C)`` K/V column tiles;
* K and V are therefore read ``ceil(N_q/R)`` times in total — the
  recompute-free but re-read-heavy trade the later fused-attention
  kernels made — while Q and the output move once;
* the rescaling work (two multiplies and an add per accumulator
  element per column tile, plus the running max/sum updates) runs on
  the SFU alongside the softmax passes;
* the live footprint is ``2*(R*dk) + 2*2*(C*dk) + R*C + R*dk + 2*R``
  elements (Q tile, double-buffered K/V tiles, the logit tile, the
  output accumulator, and the per-row max/sum state).

The ``ext-online`` experiment compares this against FLAT-R where FLAT
struggles — long sequences on buffers too small for the ``4*N*dk`` K/V
staging — quantifying why this schedule superseded FLAT in practice.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.accelerator import Accelerator
from repro.core.perf import (
    OperatorCost,
    PerfOptions,
    _assemble,
    _compute_cycles,
    _Phase,
    sg_stream_words,
)
from repro.core.dataflow import Stationarity
from repro.core.tiling import ceil_div
from repro.energy.model import ActivityCounts  # noqa: F401 (re-export path)
from repro.ops.attention import AttentionConfig

__all__ = ["OnlineDataflow", "online_footprint_elements", "cost_online_la",
           "choose_online_tile"]

_RESCALE_OPS_PER_ELEMENT = 3  # multiply-accumulate rescale of the state


@dataclass(frozen=True)
class OnlineDataflow:
    """Row x column tile of the online-softmax fused schedule."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be >= 1")

    @property
    def name(self) -> str:
        return f"ONLINE-R{self.rows}C{self.cols}"


def online_footprint_elements(df: OnlineDataflow, d_head: int) -> int:
    """Live on-chip elements of one online pass (independent of N)."""
    r, c = df.rows, df.cols
    return (
        2 * r * d_head      # Q rows, double buffered
        + 2 * 2 * c * d_head  # K and V column tiles, double buffered
        + r * c             # logit tile
        + r * d_head        # output accumulator
        + 2 * r             # running max and normalizer
    )


def choose_online_tile(
    cfg: AttentionConfig, accel: Accelerator,
    options: PerfOptions = PerfOptions(),
) -> OnlineDataflow:
    """Pick the largest square-ish (R, C) tile fitting the scratchpad.

    Larger R amortizes the K/V re-reads (traffic ~ ``N_q/R`` passes);
    larger C amortizes per-tile rescaling.  The heuristic grows R
    preferentially (it controls traffic) with C at least the head dim.
    """
    e = accel.bytes_per_element
    reserve = max(options.min_l2_reserve_bytes,
                  int(accel.sg_bytes * options.l2_reserve_fraction))
    budget = max(1, (accel.sg_bytes - min(reserve, accel.sg_bytes // 2)) // e)
    cols = min(cfg.seq_kv, max(16, cfg.d_head))
    rows = 1
    while rows < cfg.seq_q:
        candidate = OnlineDataflow(rows=rows * 2, cols=cols)
        if online_footprint_elements(candidate, cfg.d_head) > budget:
            break
        rows *= 2
    return OnlineDataflow(rows=min(rows, cfg.seq_q), cols=cols)


def cost_online_la(
    cfg: AttentionConfig,
    dataflow: OnlineDataflow,
    accel: Accelerator,
    options: PerfOptions = PerfOptions(),
) -> OperatorCost:
    """Cost the fused L-A pair under the online-softmax schedule."""
    b, h = cfg.batch, cfg.heads
    nq, nkv, dk = cfg.seq_q, cfg.seq_kv, cfg.d_head
    e = accel.bytes_per_element
    r = min(dataflow.rows, nq)
    c = min(dataflow.cols, nkv)

    footprint_bytes = online_footprint_elements(
        OnlineDataflow(rows=r, cols=c), dk
    ) * e
    row_passes = ceil_div(nq, r)
    col_passes = ceil_div(nkv, c)
    n_pass = b * h * row_passes * col_passes

    # Traffic: Q and the output move once; K and V stream once per row
    # block.  Nothing quadratic ever exists, on-chip or off.
    q_cold = b * h * nq * dk
    out_cold = b * h * nq * dk
    kv_traffic = 2.0 * b * h * row_passes * nkv * dk
    dram_elements = q_cold + out_cold + kv_traffic

    macs = 2 * b * h * nq * nkv * dk  # L and A stages
    compute = _compute_cycles(
        macs // 2, r, dk, c, Stationarity.OUTPUT, accel, options,
        tile_switches=float(n_pass),
    ) + _compute_cycles(
        macs // 2, r, c, dk, Stationarity.OUTPUT, accel, options,
        tile_switches=float(n_pass),
    )
    # Softmax work: the usual passes over every logit element, plus the
    # accumulator rescale (r * dk per column tile) on the SFU.
    logit_elements = b * h * nq * nkv
    rescale_elements = (
        _RESCALE_OPS_PER_ELEMENT * b * h * row_passes * col_passes * r * dk
    )
    softmax_cycles = accel.sfu.softmax_cycles(logit_elements) + (
        rescale_elements / accel.sfu.elements_per_cycle
    )

    phases = [
        _Phase(
            compute_cycles=compute,
            softmax_cycles=softmax_cycles,
            softmax_elements=float(logit_elements),
            dram_elements=dram_elements,
            sg_words=sg_stream_words(macs, accel) + out_cold,
        )
    ]
    return _assemble(
        name=f"{cfg.name}.logit+attend[{dataflow.name}]",
        macs=macs,
        out_elements=out_cold,
        phases=phases,
        footprint_bytes=footprint_bytes,
        n_pass=float(n_pass),
        fused=True,
        warmup_cap_bytes=float(footprint_bytes),
        accel=accel,
        options=options,
    )
