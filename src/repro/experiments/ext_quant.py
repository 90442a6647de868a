"""Extension experiment: FLAT composed with quantization (section 7).

Quantization (Q8BERT, I-BERT — both cited) halves every tensor's bytes
at 8-bit; the paper claims FLAT composes with it.  Cost the L-A pair at
16-bit and 8-bit under the best unfused and best FLAT dataflows: the
byte reduction helps the bandwidth-bound baseline the most, yet FLAT
retains a win at both precisions *and* the 8-bit FLAT footprint is
half the 16-bit one — quantization extends the sequence range FLAT's
staging covers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

from repro.analysis.reports import format_bytes, format_float, format_table
from repro.arch.presets import get_platform
from repro.core.configs import AcceleratorPolicy, attacc, flex_accel
from repro.models.configs import model_config

__all__ = ["QuantRow", "run", "format_report"]


@dataclass(frozen=True)
class QuantRow:
    bits: int
    base_util: float
    flat_util: float
    flat_speedup: float
    flat_footprint_bytes: int


def run(
    platform: str = "cloud",
    model: str = "xlm",
    seq: int = 16384,
    widths: Sequence[int] = (16, 8),
) -> List[QuantRow]:
    reference = get_platform(platform)
    cfg = model_config(model, seq=seq)
    flex = flex_accel()
    att = attacc()
    rows: List[QuantRow] = []
    if any(bits % 8 != 0 for bits in widths):
        raise ValueError("widths must be multiples of 8 bits")
    points = iter(AcceleratorPolicy.evaluate_many(
        [(policy, cfg, replace(reference, bytes_per_element=bits // 8))
         for bits in widths for policy in (flex, att)]
    ))
    for bits in widths:
        base_point, flat_point = next(points), next(points)
        rows.append(
            QuantRow(
                bits=bits,
                base_util=base_point.utilization,
                flat_util=flat_point.utilization,
                flat_speedup=(
                    base_point.cost.total_cycles
                    / flat_point.cost.total_cycles
                ),
                flat_footprint_bytes=flat_point.footprint_bytes,
            )
        )
    return rows


def format_report(rows: List[QuantRow]) -> str:
    table = format_table(
        ["Precision", "Base-opt Util", "FLAT-opt Util", "FLAT speedup",
         "FLAT footprint"],
        [
            (f"{r.bits}-bit", format_float(r.base_util),
             format_float(r.flat_util), f"{r.flat_speedup:.2f}x",
             format_bytes(r.flat_footprint_bytes))
            for r in rows
        ],
        title="Extension: FLAT x quantization (XLM-16K, cloud)",
    )
    return table + (
        "\nHalving the datatype halves every byte count — it lifts the "
        "bandwidth-bound\nbaseline and halves FLAT's staging footprint; "
        "FLAT's advantage persists at\nboth precisions (section 7's "
        "orthogonality claim, quantization edition)."
    )
