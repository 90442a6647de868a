"""Tile-pass schedule construction for the simulator.

Expands a dataflow into the explicit sequence of cross-loop passes the
accelerator would execute — per-pass DRAM reads (including the staging
pattern: K/V fetched only when the (batch, head) group changes), compute
cycles for the L and A stages, SFU softmax cycles, and output writeback.
The discrete engine (:mod:`repro.sim.engine`) then replays this schedule
with double buffering and a shared DRAM channel, providing an
independent cross-check of the closed-form model in
:mod:`repro.core.perf`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.arch.accelerator import Accelerator
from repro.core.dataflow import Dataflow
from repro.core.footprint import fused_la_footprint
from repro.core.perf import (  # noqa: F401
    PerfOptions,
    _compute_cycles,
    l2_reserve_bytes,
)
from repro.core.tiling import ceil_div
from repro.ops.attention import AttentionConfig

__all__ = ["TilePass", "build_la_schedule", "build_unfused_la_schedule"]


@dataclass(frozen=True)
class TilePass:
    """One cross-loop pass of the (fused) L-A operator."""

    index: int
    read_bytes: float
    compute_cycles: float
    softmax_cycles: float
    write_bytes: float

    def __post_init__(self) -> None:
        if self.read_bytes < 0 or self.write_bytes < 0:
            raise ValueError("byte counts must be non-negative")
        if self.compute_cycles < 0 or self.softmax_cycles < 0:
            raise ValueError("cycle counts must be non-negative")


def build_la_schedule(
    cfg: AttentionConfig,
    dataflow: Dataflow,
    accel: Accelerator,
    options: PerfOptions = PerfOptions(),
) -> List[TilePass]:
    """Expand a *fused, fully staged, fitting* L-A dataflow into passes.

    The simulator validates the fitting regime — the regime in which the
    analytical model's closed forms are exact rather than blended — so
    this builder requires fusion, all FLAT-tiles enabled, and a
    footprint within the staging budget.  Anything else raises
    ``ValueError``.
    """
    if not dataflow.fused:
        raise ValueError("the simulator schedules fused L-A execution")
    if dataflow.staging.as_tuple() != (True, True, True, True, True):
        raise ValueError("the simulator requires all FLAT-tiles enabled")
    e = accel.bytes_per_element
    footprint = fused_la_footprint(cfg, dataflow).total_bytes(e)
    if footprint > accel.sg_bytes - l2_reserve_bytes(accel.sg_bytes):
        raise ValueError(
            f"footprint {footprint} B exceeds the staging budget; the "
            "simulator only validates the fitting regime"
        )

    b, h = cfg.batch, cfg.heads
    nq, nkv, dk = cfg.seq_q, cfg.seq_kv, cfg.d_head
    b_t, h_t, r = dataflow.cross_tile(b, h, nq)
    groups = ceil_div(b, b_t) * ceil_div(h, h_t)
    row_passes = ceil_div(nq, r)

    passes: List[TilePass] = []
    index = 0
    for _group in range(groups):
        for rp in range(row_passes):
            rows = min(r, nq - rp * r)
            inst = b_t * h_t
            reads = inst * rows * dk  # Q rows, every pass
            if rp == 0:
                reads += 2 * inst * nkv * dk  # K and V, once per group
            macs_l = inst * rows * nkv * dk
            macs_a = inst * rows * nkv * dk
            # Per-pass stage switches are hidden by the PEs' double-
            # buffered operands (same assumption as the analytical
            # model for flexible arrays); the pipeline fills once per
            # stage at the very start of the operator.
            fill = accel.noc.fill_drain_cycles(
                accel.pe_array.rows, accel.pe_array.cols
            )
            compute = (
                _compute_cycles(
                    macs_l, rows, dk, nkv, dataflow.stationarity, accel,
                    options, tile_switches=0.0,
                )
                + _compute_cycles(
                    macs_a, rows, nkv, dk, dataflow.stationarity, accel,
                    options, tile_switches=0.0,
                )
            )
            if index == 0:
                compute += 2.0 * fill
            softmax = accel.sfu.softmax_cycles(inst * rows * nkv)
            writes = inst * rows * dk
            passes.append(
                TilePass(
                    index=index,
                    read_bytes=float(reads * e),
                    compute_cycles=compute,
                    softmax_cycles=softmax,
                    write_bytes=float(writes * e),
                )
            )
            index += 1
    return passes


def build_unfused_la_schedule(
    cfg: AttentionConfig,
    accel: Accelerator,
    options: PerfOptions = PerfOptions(),
) -> List[TilePass]:
    """Expand the *plain baseline* (sequential L, softmax, A) into passes.

    Validates the three-phase unfused model: L executes per (batch,
    head) writing raw logits off-chip, a softmax pass streams them
    through the SFU (read + write, no PE compute), and A re-reads them.
    All tensors follow the baseline path — no staging — so every pass's
    reads and writes hit DRAM.
    """
    from repro.core.dataflow import base as base_dataflow

    dataflow = base_dataflow()
    e = accel.bytes_per_element
    b, h = cfg.batch, cfg.heads
    nq, nkv, dk = cfg.seq_q, cfg.seq_kv, cfg.d_head
    fill = accel.noc.fill_drain_cycles(
        accel.pe_array.rows, accel.pe_array.cols
    )
    passes: List[TilePass] = []
    index = 0

    # Phase 1: Logit per (b, h) — read Q and K, write raw logits.
    for _ in range(b * h):
        macs = nq * nkv * dk
        compute = _compute_cycles(
            macs, nq, dk, nkv, dataflow.stationarity, accel, options,
            tile_switches=0.0,
        )
        passes.append(
            TilePass(
                index=index,
                read_bytes=float((nq + nkv) * dk * e),
                compute_cycles=compute + (2.0 * fill if index == 0 else 0.0),
                softmax_cycles=0.0,
                write_bytes=float(nq * nkv * e),
            )
        )
        index += 1
    # Phase 2: softmax streaming pass per (b, h) — PE array idle.
    for _ in range(b * h):
        passes.append(
            TilePass(
                index=index,
                read_bytes=float(nq * nkv * e),
                compute_cycles=0.0,
                softmax_cycles=accel.sfu.softmax_cycles(nq * nkv),
                write_bytes=float(nq * nkv * e),
            )
        )
        index += 1
    # Phase 3: Attend per (b, h) — re-read probabilities and V.
    for _ in range(b * h):
        macs = nq * nkv * dk
        compute = _compute_cycles(
            macs, nq, nkv, dk, dataflow.stationarity, accel, options,
            tile_switches=0.0,
        )
        passes.append(
            TilePass(
                index=index,
                read_bytes=float((nq * nkv + nkv * dk) * e),
                compute_cycles=compute,
                softmax_cycles=0.0,
                write_bytes=float(nq * dk * e),
            )
        )
        index += 1
    return passes
