"""Figure 10: the FLAT design space (Util vs live memory footprint).

Enumerates the entire FLAT dataflow space — every granularity, row
count, staging combination and stationarity — for BERT at N = 512 on
the edge platform, and reports each point's utilization against its
live memory footprint, plus the Pareto front whose top-left corner is
the "high utilization at least footprint" region the paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.reports import format_bytes, format_float, format_table
from repro.arch.presets import get_platform
from repro.core.dse import DSEResult, Objective, SearchSpace, search
from repro.core.perf import PerfOptions
from repro.models.configs import model_config
from repro.ops.attention import Scope

__all__ = ["Fig10Point", "run", "format_report"]


@dataclass(frozen=True)
class Fig10Point:
    """One design point of the scatter."""

    dataflow_name: str
    granularity: str
    footprint_bytes: int
    utilization: float
    energy_j: float
    on_pareto_front: bool


def run(
    platform: str = "edge",
    model: str = "bert",
    seq: int = 512,
    scope: Scope = Scope.LA,
    row_choices: Optional[Sequence[int]] = None,
    exhaustive_staging: bool = True,
) -> Tuple[List[Fig10Point], DSEResult]:
    """Enumerate the design space and mark the Pareto front."""
    accel = get_platform(platform)
    cfg = model_config(model, seq=seq)
    rows = tuple(row_choices) if row_choices is not None else (
        1, 2, 4, 8, 16, 32, 64, 128, 256, 512
    )
    space = SearchSpace(
        allow_fused=True,
        allow_unfused=True,
        row_choices=tuple(r for r in rows if r <= seq),
        exhaustive_staging=exhaustive_staging,
    )
    result = search(
        cfg, accel, scope=scope, objective=Objective.RUNTIME, space=space,
        options=PerfOptions(), retain_points=True,
    )
    front = {id(p) for p in result.pareto_front()}
    points = [
        Fig10Point(
            dataflow_name=p.dataflow.name,
            granularity=(
                p.dataflow.granularity.value
                if p.dataflow.granularity is not None else "-"
            ),
            footprint_bytes=p.footprint_bytes,
            utilization=p.utilization,
            energy_j=p.energy.total_j,
            on_pareto_front=id(p) in front,
        )
        for p in result.points
    ]
    return points, result


def format_report(
    points: List[Fig10Point], result: DSEResult, top: int = 25
) -> str:
    front = [p for p in points if p.on_pareto_front]
    front.sort(key=lambda p: p.footprint_bytes)
    best = result.best
    header = (
        f"Figure 10: FLAT design space — {len(points)} points "
        f"enumerated, {len(front)} on the Util-vs-footprint Pareto "
        f"front.\nDSE optimum ({result.objective.value}): "
        f"{best.dataflow.name} — Util "
        f"{format_float(best.utilization)}, footprint "
        f"{format_bytes(best.footprint_bytes)}"
    )
    table = format_table(
        ["Dataflow", "Gran", "Footprint", "Util", "Energy (J)"],
        [
            (p.dataflow_name, p.granularity, format_bytes(p.footprint_bytes),
             format_float(p.utilization), format_float(p.energy_j))
            for p in front[:top]
        ],
        title="Pareto front (top-left corner of the paper's scatter)",
    )
    return header + "\n\n" + table
