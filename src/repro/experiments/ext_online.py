"""Extension experiment: FLAT vs the online-softmax schedule.

Not a paper figure.  FLAT's row-granularity footprint carries a
``4*N*dk`` K/V staging term, so at long sequences on small buffers the
paper's dataflow must spill; the column-tiled online-softmax schedule
(:mod:`repro.core.online`) has an O(R*C) footprint *independent of N*
and keeps the accelerator compute-bound.  This experiment sweeps the
sequence length on the edge platform's 512 KB scratchpad and prints the
three-way comparison — the quantitative version of "why FlashAttention
superseded FLAT".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.reports import format_bytes, format_float, format_table
from repro.arch.presets import get_platform
from repro.core.configs import AcceleratorPolicy, attacc, flex_accel
from repro.core.online import choose_online_tile, cost_online_la
from repro.models.configs import model_config

__all__ = ["OnlineRow", "run", "format_report"]


@dataclass(frozen=True)
class OnlineRow:
    seq: int
    base_util: float
    flat_util: float
    online_util: float
    online_tile: str
    flat_footprint_bytes: int
    online_footprint_bytes: int


def run(
    platform: str = "edge",
    model: str = "bert",
    seqs: Sequence[int] = (512, 4096, 16384, 65536, 262144),
) -> List[OnlineRow]:
    accel = get_platform(platform)
    flex = flex_accel()
    att = attacc()
    rows: List[OnlineRow] = []
    configs = [model_config(model, seq=seq) for seq in seqs]
    points = iter(AcceleratorPolicy.evaluate_many(
        [(policy, cfg, accel) for cfg in configs for policy in (flex, att)]
    ))
    for seq, cfg in zip(seqs, configs):
        base_point, flat_point = next(points), next(points)
        tile = choose_online_tile(cfg, accel)
        online = cost_online_la(cfg, tile, accel)
        rows.append(
            OnlineRow(
                seq=seq,
                base_util=base_point.utilization,
                flat_util=flat_point.utilization,
                online_util=online.utilization,
                online_tile=tile.name,
                flat_footprint_bytes=flat_point.footprint_bytes,
                online_footprint_bytes=online.footprint_bytes,
            )
        )
    return rows


def format_report(rows: List[OnlineRow]) -> str:
    table = format_table(
        ["N", "Base-opt Util", "FLAT-opt Util", "Online Util",
         "Online tile", "FLAT footprint", "Online footprint"],
        [
            (r.seq, format_float(r.base_util), format_float(r.flat_util),
             format_float(r.online_util), r.online_tile,
             format_bytes(r.flat_footprint_bytes),
             format_bytes(r.online_footprint_bytes))
            for r in rows
        ],
        title="Extension: column-tiled online softmax vs FLAT "
              "(edge, 512 KB scratchpad)",
    )
    return table + (
        "\nThe online schedule's footprint is independent of N, so it "
        "holds peak\nutilization where FLAT's K/V staging no longer fits "
        "the buffer."
    )
