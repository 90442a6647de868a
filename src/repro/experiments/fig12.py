"""Figure 12: headline comparison of ATTACC against flexible baselines.

Panel (a): model-wise speedup and energy-consumption ratio of ATTACC
over FlexAccel-M and FlexAccel, across the five-model zoo, sequence
lengths 512-256K and both platforms.  The paper's headline averages:
edge 2.40x / 1.75x speedup with 0.39 / 0.56 energy ratios, cloud 2.57x
/ 1.65x with 0.28 / 0.45.

Panel (b): the off-chip bandwidth each accelerator needs to reach a
0.95 utilization on the most bandwidth-bound L-A operator (XLM, cloud),
found by bisection over the bandwidth axis.  The paper's takeaway:
ATTACC cuts the BW requirement by ~88%/82% (cloud) and ~76%/71% (edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

from repro.analysis.reports import format_float, format_table
from repro.arch.accelerator import Accelerator
from repro.arch.presets import get_platform
from repro.core.configs import (
    AcceleratorPolicy,
    attacc,
    flex_accel,
    flex_accel_m,
)
from repro.models.configs import PAPER_SEQ_LENGTHS, model_config, model_names
from repro.ops.attention import Scope

__all__ = [
    "Fig12aRow",
    "Fig12bRow",
    "run_speedup_grid",
    "run_bw_requirement",
    "required_bandwidth",
    "format_speedup_report",
    "format_bw_report",
]


@dataclass(frozen=True)
class Fig12aRow:
    """One (platform, model, seq) cell of the speedup/energy grid."""

    platform: str
    model: str
    seq: int
    speedup_vs_flex_m: float
    speedup_vs_flex: float
    energy_ratio_vs_flex_m: float
    energy_ratio_vs_flex: float


def run_speedup_grid(
    platforms: Sequence[str] = ("edge", "cloud"),
    models: Optional[Sequence[str]] = None,
    seqs: Sequence[int] = PAPER_SEQ_LENGTHS,
    scope: Scope = Scope.MODEL,
) -> List[Fig12aRow]:
    """Panel (a): ATTACC vs FlexAccel-M / FlexAccel across the zoo."""
    if models is None:
        models = model_names()
    policies = (flex_accel_m(), flex_accel(), attacc())
    rows: List[Fig12aRow] = []
    for platform in platforms:
        accel = get_platform(platform)
        cells = [(model, seq) for model in models for seq in seqs]
        points = iter(AcceleratorPolicy.evaluate_many(
            [(policy, model_config(model, seq=seq), accel)
             for model, seq in cells for policy in policies],
            scope=scope,
        ))
        for model, seq in cells:
            flex_m, flex, att = next(points), next(points), next(points)
            rows.append(
                Fig12aRow(
                    platform=platform,
                    model=model,
                    seq=seq,
                    speedup_vs_flex_m=(
                        flex_m.cost.total_cycles / att.cost.total_cycles
                    ),
                    speedup_vs_flex=(
                        flex.cost.total_cycles / att.cost.total_cycles
                    ),
                    energy_ratio_vs_flex_m=(
                        att.energy.total_j / flex_m.energy.total_j
                    ),
                    energy_ratio_vs_flex=(
                        att.energy.total_j / flex.energy.total_j
                    ),
                )
            )
    return rows


def averages(rows: List[Fig12aRow], platform: str) -> Tuple[float, float,
                                                            float, float]:
    """Arithmetic means over one platform's grid, in the paper's order:
    (speedup vs FlexM, speedup vs Flex, energy vs FlexM, energy vs Flex).
    """
    subset = [r for r in rows if r.platform == platform]
    if not subset:
        raise ValueError(f"no rows for platform {platform!r}")
    n = len(subset)
    return (
        sum(r.speedup_vs_flex_m for r in subset) / n,
        sum(r.speedup_vs_flex for r in subset) / n,
        sum(r.energy_ratio_vs_flex_m for r in subset) / n,
        sum(r.energy_ratio_vs_flex for r in subset) / n,
    )


@dataclass(frozen=True)
class Fig12bRow:
    """Required off-chip bandwidth (GB/s) to reach the target Util."""

    seq: int
    accelerator: str
    required_gbps: Optional[float]  # None = target unreachable


def _bisection(target_util: float, max_gbps: float,
               tolerance: float) -> Generator[float, float, Optional[float]]:
    """Geometric bisection over bandwidth, one probe at a time.

    Yields each bandwidth (GB/s) to probe and is sent the utilization
    measured there; returns the answer of :func:`required_bandwidth`.
    """
    if (yield max_gbps) < target_util:
        return None
    lo, hi = 0.001, max_gbps
    while hi / lo > 1.0 + tolerance:
        mid = (lo * hi) ** 0.5  # geometric bisection over decades
        if (yield mid) >= target_util:
            hi = mid
        else:
            lo = mid
    return hi


def _bisect_all(
    problems: Sequence[Tuple[AcceleratorPolicy, Accelerator, object]],
    target_util: float,
    max_gbps: float = 100_000.0,
    tolerance: float = 0.02,
) -> List[Optional[float]]:
    """:func:`required_bandwidth` of every ``(policy, accel, cfg)``.

    The bisections advance in lockstep, one probe each per round, and
    each round's probes are one
    :meth:`~repro.core.configs.AcceleratorPolicy.evaluate_many` call.
    Every bisection sees the utilizations its own probes give, so each
    answer equals the bisection run alone.
    """
    runs = [_bisection(target_util, max_gbps, tolerance) for _ in problems]
    probes = {i: next(run) for i, run in enumerate(runs)}
    answers: List[Optional[float]] = [None] * len(problems)
    while probes:
        live = list(probes)
        points = AcceleratorPolicy.evaluate_many(
            [(problems[i][0],
              problems[i][2],
              problems[i][1].with_offchip_bandwidth(probes[i] * 1e9))
             for i in live],
            scope=Scope.LA,
        )
        for i, point in zip(live, points):
            try:
                probes[i] = runs[i].send(point.cost.utilization)
            except StopIteration as done:
                answers[i] = done.value
                del probes[i]
    return answers


def required_bandwidth(
    policy: AcceleratorPolicy,
    accel: Accelerator,
    cfg,
    target_util: float = 0.95,
    max_gbps: float = 100_000.0,
    tolerance: float = 0.02,
) -> Optional[float]:
    """Bisection search for the minimum off-chip BW hitting the target.

    Utilization is monotone non-decreasing in bandwidth (more bandwidth
    never hurts in the model), so bisection applies.  Returns ``None``
    if the target is unreachable even at ``max_gbps`` — e.g. a baseline
    whose softmax serialization caps its utilization below the target.
    """
    return _bisect_all([(policy, accel, cfg)], target_util, max_gbps,
                       tolerance)[0]


def run_bw_requirement(
    platform: str = "cloud",
    model: Optional[str] = None,
    seqs: Sequence[int] = (2048, 4096, 8192, 16384, 32768, 65536,
                           131072, 262144, 524288),
    target_util: float = 0.95,
    policies: Optional[Sequence[AcceleratorPolicy]] = None,
) -> List[Fig12bRow]:
    """Panel (b): BW needed for Util >= target on the L-A operator.

    Every (seq, policy) bisection runs in lockstep (see
    :func:`_bisect_all`).
    """
    accel = get_platform(platform)
    if model is None:
        model = "xlm" if platform == "cloud" else "bert"
    if policies is None:
        policies = (flex_accel_m(), flex_accel(), attacc())
    cases = [(seq, policy) for seq in seqs for policy in policies]
    answers = _bisect_all(
        [(policy, accel, model_config(model, seq=seq))
         for seq, policy in cases],
        target_util,
    )
    return [
        Fig12bRow(seq=seq, accelerator=policy.name, required_gbps=gbps)
        for (seq, policy), gbps in zip(cases, answers)
    ]


def format_speedup_report(rows: List[Fig12aRow]) -> str:
    parts = []
    for platform in sorted({r.platform for r in rows}):
        subset = [r for r in rows if r.platform == platform]
        avg = averages(rows, platform)
        table = format_table(
            ["Model", "N", "Speedup vs FlexAccel-M", "vs FlexAccel",
             "Energy ratio vs FlexAccel-M", "vs FlexAccel"],
            [
                (r.model, r.seq, format_float(r.speedup_vs_flex_m, 2),
                 format_float(r.speedup_vs_flex, 2),
                 format_float(r.energy_ratio_vs_flex_m, 2),
                 format_float(r.energy_ratio_vs_flex, 2))
                for r in subset
            ],
            title=(
                f"Figure 12(a) {platform}: ATTACC speedup "
                f"(avg {avg[0]:.2f}x / {avg[1]:.2f}x) and energy ratio "
                f"(avg {avg[2]:.2f} / {avg[3]:.2f})"
            ),
        )
        parts.append(table)
    return "\n\n".join(parts)


def format_bw_report(rows: List[Fig12bRow], target_util: float = 0.95) -> str:
    accels = sorted({r.accelerator for r in rows})
    seqs = sorted({r.seq for r in rows})
    lookup = {(r.seq, r.accelerator): r for r in rows}
    body = []
    for seq in seqs:
        row: List[object] = [seq]
        for name in accels:
            r = lookup.get((seq, name))
            if r is None or r.required_gbps is None:
                row.append("unreachable")
            else:
                row.append(format_float(r.required_gbps, 1))
        body.append(row)
    return format_table(
        ["N"] + [f"{a} (GB/s)" for a in accels],
        body,
        title=(
            f"Figure 12(b): off-chip BW required for Util >= {target_util} "
            "on the L-A operator"
        ),
    )
