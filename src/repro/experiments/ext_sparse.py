"""Extension experiment: FLAT composed with sparse attention (section 7).

"FLAT can also be leveraged in association with these techniques when
deployed on DNN accelerators to further improve run time/energy
performance."  Verify it: for BERT at a long sequence on the edge
platform, cost the L-A pair under {dense, local-window} x {best unfused,
best FLAT} and check the speedups compose — sparsity cuts the work,
FLAT cuts the data movement, and together they multiply (within the
bounds set by whichever resource saturates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.reports import format_float, format_table
from repro.arch.presets import get_platform
from repro.core.configs import AcceleratorPolicy, attacc, flex_accel
from repro.core.sparse_adapter import sparse_equivalent_config
from repro.models.configs import model_config
from repro.ops.sparse import SparsePatternKind, SparsityPattern

__all__ = ["SparseRow", "run", "format_report"]


@dataclass(frozen=True)
class SparseRow:
    pattern: str
    density: float
    base_cycles: float
    flat_cycles: float

    @property
    def flat_speedup(self) -> float:
        return self.base_cycles / self.flat_cycles


def run(
    platform: str = "edge",
    model: str = "bert",
    seq: int = 16384,
    patterns: Optional[Sequence[SparsityPattern]] = None,
) -> List[SparseRow]:
    accel = get_platform(platform)
    cfg = model_config(model, seq=seq)
    if patterns is None:
        patterns = (
            SparsityPattern(SparsePatternKind.DENSE),
            SparsityPattern(SparsePatternKind.LOCAL_WINDOW, window=1024),
            SparsityPattern(SparsePatternKind.LOCAL_WINDOW, window=256),
            SparsityPattern(SparsePatternKind.BLOCK_LOCAL, window=512),
        )
    flex = flex_accel()
    att = attacc()
    rows: List[SparseRow] = []
    points = iter(AcceleratorPolicy.evaluate_many(
        [(policy, sparse_equivalent_config(cfg, pattern), accel)
         for pattern in patterns for policy in (flex, att)]
    ))
    for pattern in patterns:
        base_point, flat_point = next(points), next(points)
        rows.append(
            SparseRow(
                pattern=pattern.describe(seq).split(":")[0],
                density=pattern.density(seq),
                base_cycles=base_point.cost.total_cycles,
                flat_cycles=flat_point.cost.total_cycles,
            )
        )
    return rows


def format_report(rows: List[SparseRow]) -> str:
    dense = rows[0]
    table = format_table(
        ["Attention pattern", "Density", "Base-opt cycles", "FLAT-opt cycles",
         "FLAT speedup", "Combined speedup vs dense Base"],
        [
            (r.pattern, format_float(r.density),
             format_float(r.base_cycles, 3), format_float(r.flat_cycles, 3),
             f"{r.flat_speedup:.2f}x",
             f"{dense.base_cycles / r.flat_cycles:.2f}x")
            for r in rows
        ],
        title="Extension: FLAT x sparse attention (section 7 composition)",
    )
    return table + (
        "\nSparsity removes arithmetic, FLAT removes data movement; the "
        "combined\ncolumn shows the two multiplying."
    )
