"""Iso-area provisioning study (the paper's concluding claim).

"FLAT changes how available area (energy) is provisioned and balanced
across compute/memory.  Much like CONV-accelerators for vision,
designers can now budget a much smaller on-chip buffer."

Fix the edge platform's silicon budget and sweep the fraction of it
spent on SRAM vs PEs.  For each split, find the best unfused dataflow
and the best FLAT dataflow (DSE) and report achieved throughput
(effective TOPS = utilization x peak).  The claim to verify: the
throughput-optimal split under FLAT spends markedly less area on SRAM
— and achieves more absolute throughput — than the optimal split under
the unfused baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.reports import format_bytes, format_float, format_table
from repro.arch.area import AreaModel, accelerator_area_mm2, iso_area_designs
from repro.arch.presets import get_platform
from repro.core.configs import AcceleratorPolicy, attacc, flex_accel
from repro.models.configs import model_config

__all__ = ["IsoAreaRow", "run", "format_report", "optimal_split"]


@dataclass(frozen=True)
class IsoAreaRow:
    """One compute/memory split of the fixed silicon budget."""

    sram_fraction: float
    num_pes: int
    sg_bytes: int
    area_mm2: float
    unfused_util: float
    flat_util: float
    unfused_tops: float
    flat_tops: float


def run(
    platform: str = "edge",
    model: str = "bert",
    seq: int = 4096,
    sram_fractions: Sequence[float] = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8),
    area_model: Optional[AreaModel] = None,
) -> List[IsoAreaRow]:
    reference = get_platform(platform)
    cfg = model_config(model, seq=seq)
    designs = iso_area_designs(reference, list(sram_fractions), area_model)
    flex = flex_accel()
    att = attacc()
    rows: List[IsoAreaRow] = []
    points = iter(AcceleratorPolicy.evaluate_many(
        [(policy, cfg, accel) for accel in designs for policy in (flex, att)]
    ))
    for fraction, accel in zip(sram_fractions, designs):
        unfused, flat = next(points), next(points)
        peak_tops = 2.0 * accel.peak_macs_per_cycle * accel.frequency_hz / 1e12
        rows.append(
            IsoAreaRow(
                sram_fraction=fraction,
                num_pes=accel.pe_array.num_pes,
                sg_bytes=accel.sg_bytes,
                area_mm2=accelerator_area_mm2(accel, area_model),
                unfused_util=unfused.utilization,
                flat_util=flat.utilization,
                unfused_tops=unfused.utilization * peak_tops,
                flat_tops=flat.utilization * peak_tops,
            )
        )
    return rows


def optimal_split(rows: List[IsoAreaRow]) -> tuple:
    """(best unfused row, best FLAT row) by achieved throughput."""
    if not rows:
        raise ValueError("no iso-area rows")
    best_unfused = max(rows, key=lambda r: r.unfused_tops)
    best_flat = max(rows, key=lambda r: r.flat_tops)
    return best_unfused, best_flat


def format_report(rows: List[IsoAreaRow]) -> str:
    table = format_table(
        ["SRAM share", "PEs", "Scratchpad", "Util (unfused)", "Util (FLAT)",
         "TOPS (unfused)", "TOPS (FLAT)"],
        [
            (f"{r.sram_fraction:.0%}", r.num_pes, format_bytes(r.sg_bytes),
             format_float(r.unfused_util), format_float(r.flat_util),
             format_float(r.unfused_tops, 2), format_float(r.flat_tops, 2))
            for r in rows
        ],
        title="Iso-area provisioning: same silicon, different "
              "compute/memory split",
    )
    best_unfused, best_flat = optimal_split(rows)
    footer = (
        f"\nThroughput-optimal split — unfused: {best_unfused.sram_fraction:.0%} "
        f"SRAM ({best_unfused.unfused_tops:.2f} TOPS); FLAT: "
        f"{best_flat.sram_fraction:.0%} SRAM "
        f"({best_flat.flat_tops:.2f} TOPS, "
        f"{best_flat.flat_tops / best_unfused.unfused_tops:.2f}x)"
    )
    return table + footer
