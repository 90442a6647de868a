"""Independent reference searches the engine is tested against.

``exhaustive_best`` scores every enumerated dataflow with the scalar
:func:`~repro.core.perf.cost_scope` and keeps the first minimum — no
bounds, no pruning, no caches, no vectorized backend.
``exhaustive_scaleout_best`` runs one single-chip search per
(partition, schedule) — that search is itself checked against
``exhaustive_best`` — and adds the scalar fabric time, with no outer
bounds, pruning or memo.
"""

from typing import NamedTuple, Optional, Sequence

from repro.arch.fabric import CollectiveSchedule, collective_time_s
from repro.core.dataflow import Dataflow
from repro.core.dse import Objective, SearchSpace, enumerate_dataflows, search
from repro.core.perf import PerfOptions, ScopeCost, cost_scope
from repro.core.scaleout import (
    DEFAULT_SCHEDULES,
    Partition,
    ScaleoutSystem,
    enumerate_partitions,
    induced_collectives,
    shard_config,
)
from repro.energy.model import EnergyReport, energy_report
from repro.energy.tables import EnergyTable
from repro.ops.attention import AttentionConfig, Scope


class OracleBest(NamedTuple):
    index: int
    dataflow: Dataflow
    cost: ScopeCost
    energy: EnergyReport
    value: float


def exhaustive_best(
    cfg: AttentionConfig,
    accel,
    scope: Scope = Scope.LA,
    objective: Objective = Objective.RUNTIME,
    space: SearchSpace = SearchSpace(),
    options: PerfOptions = PerfOptions(),
    energy_table: Optional[EnergyTable] = None,
) -> OracleBest:
    """Minimum of ``(objective score, enumeration index)`` over the space."""
    best = None
    for index, df in enumerate(enumerate_dataflows(cfg, accel, space)):
        cost = cost_scope(cfg, scope, accel, df, options=options)
        energy = energy_report(cost.counts, energy_table)
        value = objective.score(cost, energy)
        if best is None or (value, index) < (best.value, best.index):
            best = OracleBest(index, df, cost, energy, value)
    assert best is not None, "empty search space"
    return best


def assert_matches_oracle(result, oracle: OracleBest,
                          objective: Objective = Objective.RUNTIME) -> None:
    """A search result's winner is the oracle's, to the bit."""
    assert result.best.dataflow == oracle.dataflow
    assert result.best.cost == oracle.cost
    assert result.best.energy == oracle.energy
    assert objective.score(result.best.cost, result.best.energy) == (
        oracle.value
    )


class ScaleoutOracleBest(NamedTuple):
    flat_index: int
    partition: Partition
    schedule: CollectiveSchedule
    dataflow: Dataflow
    chip_cost: ScopeCost
    fabric_cycles: float
    total_cycles: float


def exhaustive_scaleout_best(
    cfg: AttentionConfig,
    system: ScaleoutSystem,
    chips: int,
    scope: Scope = Scope.LA,
    space: SearchSpace = SearchSpace(),
    options: PerfOptions = PerfOptions(),
    schedules: Sequence[CollectiveSchedule] = DEFAULT_SCHEDULES,
) -> ScaleoutOracleBest:
    """The scale-out cross-product, one inner search per outer point.

    Outer points are numbered partition-major, schedule-minor; the
    winner minimizes ``(chip cycles + fabric cycles, flat index)``.
    """
    view = system.chip_view()
    freq = system.chip.frequency_hz
    best = None
    flat = 0
    for part in enumerate_partitions(cfg, chips):
        collectives = induced_collectives(
            cfg, part, system.chip.bytes_per_element
        )
        for schedule in schedules:
            result = search(
                shard_config(cfg, part), view, scope=scope,
                objective=Objective.RUNTIME, space=space, options=options,
                retain_points=False,
            )
            fabric = sum(
                collective_time_s(system.fabric, schedule, coll.kind,
                                  coll.group, coll.payload_bytes)
                for coll in collectives
            ) * freq
            total = float(result.best.cost.total_cycles) + fabric
            if best is None or (total, flat) < (best.total_cycles,
                                                 best.flat_index):
                best = ScaleoutOracleBest(
                    flat, part, schedule, result.best.dataflow,
                    result.best.cost, fabric, total,
                )
            flat += 1
    assert best is not None, "no feasible partition"
    return best
