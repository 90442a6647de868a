"""Figure 11: end-to-end latency breakdown across accelerators.

For each accelerator category (BaseAccel, FlexAccel, ATTACC) and
sequence length, splits one attention block's runtime into the paper's
three operator categories — (i) L-A, (ii) Projections (K/Q/V/O), (iii)
FCs — and reports the non-stall (ideal) latency alongside.  FlexAccel
and ATTACC must agree on Projections and FCs (they share the unfused
design space); the gap is entirely in L-A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.reports import format_float, format_table
from repro.arch.presets import get_platform
from repro.core.configs import AcceleratorPolicy, attacc, base_accel, flex_accel
from repro.models.configs import model_config
from repro.ops.attention import Scope

__all__ = ["Fig11Row", "run", "format_report"]

_CATEGORIES = ("L-A", "Projection", "FC")


def _category_of(name: str) -> str:
    """Map an operator-cost name to the paper's three categories."""
    if "logit" in name or "attend" in name:
        return "L-A"
    if "ffn" in name:
        return "FC"
    return "Projection"


@dataclass(frozen=True)
class Fig11Row:
    """Latency breakdown of one (accelerator, seq) bar."""

    platform: str
    model: str
    seq: int
    accelerator: str
    la_cycles: float
    projection_cycles: float
    fc_cycles: float
    ideal_cycles: float

    @property
    def total_cycles(self) -> float:
        return self.la_cycles + self.projection_cycles + self.fc_cycles

    def category_cycles(self, category: str) -> float:
        return {
            "L-A": self.la_cycles,
            "Projection": self.projection_cycles,
            "FC": self.fc_cycles,
        }[category]


def run(
    platform: str = "edge",
    model: Optional[str] = None,
    seqs: Sequence[int] = (512, 4096, 65536),
    policies: Optional[Sequence[AcceleratorPolicy]] = None,
) -> List[Fig11Row]:
    accel = get_platform(platform)
    if model is None:
        model = "bert" if platform == "edge" else "xlm"
    if policies is None:
        policies = (base_accel(), flex_accel(), attacc())
    points = iter(AcceleratorPolicy.evaluate_many(
        [(policy, model_config(model, seq=seq), accel)
         for seq in seqs for policy in policies],
        scope=Scope.BLOCK,
    ))
    rows: List[Fig11Row] = []
    for seq in seqs:
        for policy in policies:
            best = next(points)
            by_cat: Dict[str, float] = {c: 0.0 for c in _CATEGORIES}
            for op_cost in best.cost.operator_costs:
                by_cat[_category_of(op_cost.name)] += op_cost.total_cycles
            rows.append(
                Fig11Row(
                    platform=platform,
                    model=model,
                    seq=seq,
                    accelerator=policy.name,
                    la_cycles=by_cat["L-A"],
                    projection_cycles=by_cat["Projection"],
                    fc_cycles=by_cat["FC"],
                    ideal_cycles=best.cost.ideal_cycles,
                )
            )
    return rows


def format_report(rows: List[Fig11Row]) -> str:
    if not rows:
        return "Figure 11: no rows"
    title = (
        f"Figure 11 — latency breakdown per block ({rows[0].platform}, "
        f"{rows[0].model}); cycles"
    )
    return format_table(
        ["N", "Accelerator", "L-A", "Projection", "FC", "Total",
         "Non-stall (ideal)"],
        [
            (r.seq, r.accelerator, format_float(r.la_cycles, 2),
             format_float(r.projection_cycles, 2),
             format_float(r.fc_cycles, 2),
             format_float(r.total_cycles, 2),
             format_float(r.ideal_cycles, 2))
            for r in rows
        ],
        title=title,
    )
