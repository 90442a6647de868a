"""Utilization-curve helpers shared by the Figure 8/9 harnesses.

A buffer sweep asks the engine one list per buffer size: the fixed
dataflows' costs, then the DSE curves' best-only searches
(:func:`buffer_sweeps`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.accelerator import Accelerator
from repro.core.dataflow import Dataflow
from repro.core.dse import Objective, SearchSpace
from repro.core.engine import (
    CostRequest,
    SearchRequest,
    run_searches,
)
from repro.core.perf import PerfOptions, ScopeCost
from repro.energy.model import EnergyReport, energy_report
from repro.ops.attention import AttentionConfig, Scope

__all__ = [
    "SweepCase",
    "SweepPoint",
    "buffer_sweep",
    "buffer_sweeps",
    "default_buffer_sizes",
]

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


#: One sweep of :func:`buffer_sweeps`: a workload, a scope, the fixed
#: dataflows to evaluate and the DSE entries (display name -> space) to
#: re-search at every buffer size.
SweepCase = Tuple[AttentionConfig, Scope, Sequence[Dataflow],
                  Optional[Dict[str, SearchSpace]]]


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
    produced.  One case of :func:`buffer_sweeps`.
    """
    (points,) = buffer_sweeps([(cfg, scope, dataflows, dse_spaces)], accel,
                              buffer_sizes, options)
    return points


def buffer_sweeps(
    cases: Sequence[SweepCase],
    accel: Accelerator,
    buffer_sizes: Optional[Sequence[int]] = None,
    options: PerfOptions = PerfOptions(),
) -> List[List[SweepPoint]]:
    """:func:`buffer_sweep` of every case, one buffer size at a time.

    At each size every case's fixed dataflows and then every case's DSE
    entries go to the engine as one
    :func:`~repro.core.engine.run_searches` list, so the lineups' misses
    and the small spaces share grid calls.  Returns each case's points,
    size-major, fixed dataflows before DSE entries at every size.
    """
    sizes = tuple(buffer_sizes) if buffer_sizes is not None else (
        default_buffer_sizes()
    )
    points: List[List[SweepPoint]] = [[] for _ in cases]
    for size in sizes:
        sized = accel.with_scratchpad_bytes(size)
        lineup = [(c, cfg, scope, dataflow)
                  for c, (cfg, scope, dataflows, _) in enumerate(cases)
                  for dataflow in dataflows]
        curves = [(c, name, cfg, scope, space)
                  for c, (cfg, scope, _, dse_spaces) in enumerate(cases)
                  for name, space in (dse_spaces or {}).items()]
        # Memoized (LRU + persistent cache) fixed-point evaluations, then
        # the curves: only their optimum matters, so the engine prunes
        # and defers energy to the winner.
        answers = run_searches([
            CostRequest(cfg, scope, sized, dataflow, options)
            for _, cfg, scope, dataflow in lineup
        ] + [
            SearchRequest(cfg, sized, scope, Objective.RUNTIME, space,
                          options)
            for _, _, cfg, scope, space in curves
        ])
        for (c, _, _, dataflow), cost in zip(lineup, answers):
            points[c].append(_point(dataflow.name, size, cost))
        for (c, name, _, _, _), result in zip(curves, answers[len(lineup):]):
            points[c].append(_point(name, size, result.best.cost))
    return points


def _point(name: str, size: int, cost: ScopeCost) -> SweepPoint:
    return SweepPoint(
        dataflow_name=name,
        buffer_bytes=size,
        utilization=cost.utilization,
        total_cycles=cost.total_cycles,
        energy=energy_report(cost.counts),
    )
