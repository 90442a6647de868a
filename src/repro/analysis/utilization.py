"""Utilization-curve helpers shared by the Figure 8/9 harnesses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.accelerator import Accelerator
from repro.core.candidates import Incumbent, make_incumbent
from repro.core.dataflow import Dataflow
from repro.core.dse import Objective, SearchSpace, search
from repro.core.engine import evaluate_cost
from repro.core.perf import PerfOptions, ScopeCost
from repro.energy.model import EnergyReport, energy_report
from repro.ops.attention import AttentionConfig, Scope

__all__ = ["SweepPoint", "buffer_sweep", "default_buffer_sizes"]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


def default_buffer_sizes() -> Tuple[int, ...]:
    """The paper's on-chip buffer sweep: 20 KB to 2 GB (Figure 8)."""
    sizes = [20 * KB]
    size = 64 * KB
    while size <= 2 * GB:
        sizes.append(size)
        size *= 4
    sizes.append(2 * GB)
    return tuple(sorted(set(sizes)))


@dataclass(frozen=True)
class SweepPoint:
    """One (dataflow, buffer size) evaluation of a sweep."""

    dataflow_name: str
    buffer_bytes: int
    utilization: float
    total_cycles: float
    energy: EnergyReport

    @property
    def energy_j(self) -> float:
        return self.energy.total_j


def buffer_sweep(
    cfg: AttentionConfig,
    scope: Scope,
    accel: Accelerator,
    dataflows: Sequence[Dataflow],
    buffer_sizes: Optional[Sequence[int]] = None,
    options: PerfOptions = PerfOptions(),
    dse_spaces: Optional[Dict[str, SearchSpace]] = None,
) -> List[SweepPoint]:
    """Evaluate fixed dataflows (and optional DSE entries) per buffer size.

    ``dse_spaces`` maps a display name (e.g. ``"Base-opt"``) to a
    :class:`SearchSpace`; for those entries the optimum is re-searched
    at every buffer size, exactly how Figure 8's ``*-opt`` curves are
    produced.

    Each re-search is seeded with the previous buffer size's winner for
    the same curve — neighboring sweep points usually share their
    optimum, so the seed lets branch-and-bound gate most families
    immediately.  The seed changes only the amount of work: the engine
    re-evaluates it under the current buffer size.
    """
    sizes = tuple(buffer_sizes) if buffer_sizes is not None else (
        default_buffer_sizes()
    )
    incumbents: Dict[str, Incumbent] = {}
    points: List[SweepPoint] = []
    for size in sizes:
        sized = accel.with_scratchpad_bytes(size)
        for dataflow in dataflows:
            # Memoized (LRU + persistent cache) fixed-point evaluation.
            cost = evaluate_cost(cfg, scope, sized, dataflow, options=options)
            points.append(_point(dataflow.name, size, cost))
        for name, space in (dse_spaces or {}).items():
            # Only the optimum matters here: let the engine prune and
            # defer energy to the winner.
            result = search(
                cfg, sized, scope=scope, objective=Objective.RUNTIME,
                space=space, options=options, retain_points=False,
                warm_start=incumbents.get(name),
            )
            incumbents[name] = make_incumbent(result, scope, sized, options)
            points.append(_point(name, size, result.best.cost))
    return points


def _point(name: str, size: int, cost: ScopeCost) -> SweepPoint:
    return SweepPoint(
        dataflow_name=name,
        buffer_bytes=size,
        utilization=cost.utilization,
        total_cycles=cost.total_cycles,
        energy=energy_report(cost.counts),
    )
