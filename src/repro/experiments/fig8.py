"""Figure 8: compute utilization vs on-chip buffer size.

Sweeps the on-chip buffer (20 KB - 2 GB by default) and the sequence
length for one platform/model, evaluating the paper's full dataflow
lineup — Base, Base-M/B/H, Base-opt, FLAT-M/B/H, FLAT-Rx, FLAT-opt — at
the three scopes (L-A, Block, Model).  Panel (a) of the paper is BERT on
the edge platform; panel (b) is XLM on the cloud platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.reports import format_bytes, format_float, format_table
from repro.analysis.utilization import buffer_sweeps, default_buffer_sizes
from repro.arch.presets import get_platform
from repro.core.dataflow import Dataflow, Granularity, base, base_x, flat_r, flat_x
from repro.core.dse import SearchSpace
from repro.core.perf import PerfOptions
from repro.models.configs import model_config
from repro.ops.attention import Scope

__all__ = [
    "Fig8Cell",
    "dataflow_lineup",
    "dse_lineup",
    "run",
    "format_report",
    "PAPER_EDGE_SEQS",
    "PAPER_CLOUD_SEQS",
]

PAPER_EDGE_SEQS: Tuple[int, ...] = (512, 4096, 65536, 262144)
PAPER_CLOUD_SEQS: Tuple[int, ...] = (4096, 16384, 65536, 262144)


@dataclass(frozen=True)
class Fig8Cell:
    """One (scope, seq, dataflow, buffer) point of the figure."""

    scope: str
    seq: int
    dataflow_name: str
    buffer_bytes: int
    utilization: float
    total_cycles: float
    energy_j: float


def dataflow_lineup(seq: int, flat_rows: int) -> List[Dataflow]:
    """The fixed (non-DSE) dataflow curves of Figure 8."""
    rows = min(flat_rows, seq)
    return [
        base(),
        base_x(Granularity.M),
        base_x(Granularity.B),
        base_x(Granularity.H),
        flat_x(Granularity.M),
        flat_x(Granularity.B),
        flat_x(Granularity.H),
        flat_r(rows),
    ]


def dse_lineup(flat_rows: Sequence[int]) -> Dict[str, SearchSpace]:
    """The Base-opt and FLAT-opt curves (re-searched per buffer size)."""
    return {
        "Base-opt": SearchSpace(
            allow_fused=False,
            granularities=(Granularity.M, Granularity.B, Granularity.H),
        ),
        "FLAT-opt": SearchSpace(
            allow_fused=True,
            row_choices=tuple(flat_rows),
        ),
    }


def run(
    platform: str = "edge",
    model: Optional[str] = None,
    seqs: Optional[Sequence[int]] = None,
    scopes: Sequence[Scope] = (Scope.LA, Scope.BLOCK, Scope.MODEL),
    buffer_sizes: Optional[Sequence[int]] = None,
    include_dse: bool = True,
    flat_rows: int = 0,
) -> List[Fig8Cell]:
    """Run the Figure 8 sweep.

    Defaults follow the paper: panel (a) is ``platform="edge"`` (model
    defaults to BERT, seqs 512-256K); panel (b) is ``platform="cloud"``
    (model defaults to XLM, seqs 4K-256K).  ``flat_rows=0`` picks a
    platform-appropriate FLAT-Rx row count (paper: "for the FLAT-Rx
    configuration we pick larger Rx [on cloud], since we have a larger
    PE array").
    """
    accel = get_platform(platform)
    if model is None:
        model = "bert" if platform == "edge" else "xlm"
    if seqs is None:
        seqs = PAPER_EDGE_SEQS if platform == "edge" else PAPER_CLOUD_SEQS
    if flat_rows <= 0:
        flat_rows = 2 * accel.pe_array.rows
    sizes = (
        tuple(buffer_sizes) if buffer_sizes is not None
        else default_buffer_sizes()
    )
    row_choices = sorted(
        {max(1, flat_rows // 4), flat_rows, flat_rows * 4, flat_rows * 16}
    )
    keys = []
    cases = []
    for seq in seqs:
        cfg = model_config(model, seq=seq)
        lineup = dataflow_lineup(seq, flat_rows)
        spaces = dse_lineup([r for r in row_choices if r <= seq]) \
            if include_dse else None
        for scope in scopes:
            keys.append((seq, scope))
            cases.append((cfg, scope, lineup, spaces))
    # Size-major: at each buffer size, every (seq, scope) DSE search is
    # submitted together.
    sweeps = buffer_sweeps(cases, accel, buffer_sizes=sizes,
                           options=PerfOptions())
    cells: List[Fig8Cell] = []
    for (seq, scope), points in zip(keys, sweeps):
        for p in points:
            cells.append(
                Fig8Cell(
                    scope=scope.value,
                    seq=seq,
                    dataflow_name=p.dataflow_name,
                    buffer_bytes=p.buffer_bytes,
                    utilization=p.utilization,
                    total_cycles=p.total_cycles,
                    energy_j=p.energy_j,
                )
            )
    return cells


def format_report(cells: List[Fig8Cell], platform: str = "") -> str:
    """Render one aligned table per (scope, seq) sub-plot."""
    groups: Dict[Tuple[str, int], List[Fig8Cell]] = {}
    for c in cells:
        groups.setdefault((c.scope, c.seq), []).append(c)
    parts = []
    for (scope, seq), group in sorted(groups.items(), key=lambda g: (g[0][1], g[0][0])):
        names = sorted({c.dataflow_name for c in group})
        buffers = sorted({c.buffer_bytes for c in group})
        lookup = {(c.dataflow_name, c.buffer_bytes): c for c in group}
        rows = []
        for buf in buffers:
            row: List[object] = [format_bytes(buf)]
            for name in names:
                cell = lookup.get((name, buf))
                row.append(format_float(cell.utilization) if cell else "-")
            rows.append(row)
        parts.append(
            format_table(
                ["Buffer"] + names,
                rows,
                title=(
                    f"Figure 8 {platform} — Util, scope={scope}, "
                    f"N={seq}"
                ),
            )
        )
    return "\n\n".join(parts)
