"""Independent reference searches the engine is tested against.

``exhaustive_best`` scores every enumerated dataflow with the scalar
:func:`~repro.core.perf.cost_scope` and keeps the first minimum — no
bounds, no pruning, no caches, no vectorized backend.
``exhaustive_scaleout_best`` runs one single-chip search per
(partition, schedule) — that search is itself checked against
``exhaustive_best`` — and adds the scalar fabric time, with no outer
bounds, pruning or memo.
``scalar_objective_bound`` is the per-candidate admissible bound the
vectorized :func:`~repro.core.candidates.bound_table` must equal bit for
bit: the same closed forms, evaluated one candidate at a time in plain
Python, with its own slack literal, its own operator list walk, its
own floor for the operators outside the L-A pair (``operator_floor``)
and its own roofline (a plain ``max``), so it imports no bound code.
``family_bound_rows`` builds each family's bound row from its
representative ``Dataflow`` (``family_representative``), the route the
field-read :func:`~repro.core.candidates.family_bounds` columns must
bound as.
``chained_counts`` is :attr:`~repro.core.perf.ScopeCost.counts` as a
fold of ``ActivityCounts.__add__``, the sum the one-pass property must
equal bit for bit.
``loop_tile_plan`` is the L2 tile search as a plain loop over the
candidate grid, with its own candidate ladder and reuse-pass formula:
the record :func:`~repro.core.tiling.tile_plan`'s array search must
equal, and the tile code ``la_pair_bound`` runs, so the bound oracle
shares none with the scorer.  ``la_pair_bound`` also restates the
scratchpad's staging-budget split and the fused warm-up credit with
their literal constants instead of calling the model's
``partition_scratchpad`` and ``_warmup_cycles``.
"""

from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.arch.accelerator import Accelerator
from repro.arch.fabric import CollectiveSchedule, collective_time_s
from repro.core.dataflow import (
    AttentionVariant,
    Dataflow,
    Granularity,
    StagingPolicy,
    Stationarity,
    base,
    base_x,
    flat_r,
    flat_x,
)
from repro.core.dse import (
    DataflowFamily,
    Objective,
    SearchSpace,
    enumerate_dataflows,
    search,
)
from repro.core.footprint import fused_la_footprint
from repro.core.perf import (
    PerfOptions,
    ScopeCost,
    cost_scope,
    la_pair_compute_cycles,
    sg_stream_words,
)
from repro.core.scaleout import (
    DEFAULT_SCHEDULES,
    Partition,
    ScaleoutSystem,
    enumerate_partitions,
    induced_collectives,
    shard_config,
)
from repro.core.tiling import ceil_div
from repro.energy.model import ActivityCounts, EnergyReport, energy_report
from repro.ops.attention import AttentionConfig, Scope, operators_for_scope
from repro.ops.operator import GemmOperator, OperatorKind

#: The bounds' multiplicative slack, restated.
BOUND_SLACK = 1.0 - 1e-9


class BoundTerms(NamedTuple):
    """Lower bounds on cycles and activity counts for some operators."""

    cycles: float
    counts: ActivityCounts

    def plus(self, other: "BoundTerms") -> "BoundTerms":
        return BoundTerms(self.cycles + other.cycles,
                          self.counts + other.counts)


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
) -> OracleBest:
    """Minimum of ``(objective score, enumeration index)`` over the space."""
    best = None
    for index, df in enumerate(enumerate_dataflows(cfg, accel, space)):
        cost = cost_scope(cfg, scope, accel, df, options=options)
        energy = energy_report(cost.counts)
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
        for schedule in DEFAULT_SCHEDULES:
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


# ----------------------------------------------------------------------
# the scalar admissible bound
# ----------------------------------------------------------------------
class LoopTilePlan(NamedTuple):
    """``loop_tile_plan``'s answer: the tile, its reuse passes and its
    double-buffered footprint in elements."""

    tm: int
    tk: int
    tn: int
    lhs_passes: int
    rhs_passes: int
    out_passes: int
    footprint: int


def _loop_candidates(dim: int, unit: int) -> List[int]:
    """Tile sizes along one dimension: ``unit`` doubled while below
    ``dim`` (``dim`` itself first when it is smaller), then ``dim``."""
    sizes = []
    size = min(unit, dim)
    while size < dim:
        sizes.append(size)
        size *= 2
    return sizes + [dim]


def loop_tile_plan(m: int, k: int, n: int, budget_elements: int,
                   array_rows: int, array_cols: int) -> LoopTilePlan:
    """The L2 tile search, one candidate at a time.

    Loops ``tm``, then ``tn``, then ``tk`` over the geometric grid and
    keeps the first candidate that strictly improves ``(traffic,
    -footprint)``; with no fitting candidate, the minimal array-shaped
    tile.  Each tensor's passes take the cheaper of the two loop orders
    (lhs resident or rhs resident), and the output spills a
    read-modify-write pass per extra k step.
    """

    def passes(tm: int, tk: int, tn: int) -> Tuple[int, int, int]:
        mo, no, ko = ceil_div(m, tm), ceil_div(n, tn), ceil_div(k, tk)
        out = 1 if ko == 1 else 2 * ko - 1
        if m * k + k * n * mo <= m * k * no + k * n:
            return 1, mo, out
        return no, 1, out

    k_unit = max(array_rows, array_cols)
    best = None
    for tm in _loop_candidates(m, array_rows):
        for tn in _loop_candidates(n, array_cols):
            for tk in _loop_candidates(k, k_unit):
                footprint = 2 * (tm * tk + tk * tn + tm * tn)
                if footprint > budget_elements:
                    continue
                lhs, rhs, out = passes(tm, tk, tn)
                key = (m * k * lhs + k * n * rhs + m * n * out, -footprint)
                if best is None or key < best[0]:
                    best = (key, LoopTilePlan(tm, tk, tn, lhs, rhs, out,
                                              footprint))
    if best is not None:
        return best[1]
    tm, tk, tn = min(array_rows, m), min(k_unit, k), min(array_cols, n)
    return LoopTilePlan(tm, tk, tn, *passes(tm, tk, tn),
                        2 * (tm * tk + tk * tn + tm * tn))


def la_pair_bound(
    cfg: AttentionConfig,
    accel: Accelerator,
    dataflow: Dataflow,
    options: PerfOptions,
    fused_in_family: Optional[bool] = None,
) -> BoundTerms:
    """Scalar bound for the L-A pair under one candidate dataflow.

    A roofline over floors the pair can never beat, sharing the model's
    own closed forms — the staging-budget split and the warm-up
    arithmetic are the very functions
    :func:`~repro.core.perf.cost_la_pair` calls, and the L2 tile choice
    with its reuse-pass counts is :func:`loop_tile_plan`, the loop the
    model's array search must equal.  None of them depend on the staging
    policy, so one evaluation of this bound
    is admissible for a whole *family* of staging corners at once and
    is *exact* (bit-equal to the model) whenever the binding constraint
    is one this floor captures:

    * **Serialized critical path.**  The *exact* compute-phase cycles
      of both GEMM stages (:func:`~repro.core.perf.la_pair_compute_cycles`
      — the very call :func:`~repro.core.perf.cost_la_pair` makes,
      mapping efficiency and fill/drain included), plus the parts of
      the softmax story that provably serialize with them: fused, the
      softmax is on the interleaved phase's busy time and the spilled
      intermediate's softmax round trip is a separate phase, so both
      add; unfused, the softmax phase takes at least
      ``max(softmax, spill round trip)``.
    * **Compulsory traffic.**  Each tensor pays
      ``min(l2_passes, fit_max + (1 - fit_max) * spill_passes)`` times
      its cold volume: an unstaged tensor re-streams once per L2 reuse
      pass (for K/V, once per *row pass* on top), while a staged tensor
      blends one cold pass for the fitting fraction with the spill
      accounting for the rest.  ``fit_max`` grants the single tensor
      the whole staging budget — priority allocation can only grant
      less, and the blend is decreasing in fit, so the min covers every
      staging policy.  The off-chip intermediate fraction pays its four
      passes (raw write, softmax read/write, re-read) using the exact
      budget split.
    * **Operand streaming** into the array on the SG port (plus the
      intermediate's SG round trip when no member fuses).
    * **Prefetch warm-up.**  The model's warm-up arithmetic, restated,
      applied to the traffic floor, with the fused overlap credit
      (half the warm-up) whenever any member may fuse.

    ``fused_in_family`` widens the bound to a family that mixes fused
    and unfused members (``None`` means "exactly this dataflow"): a
    fused member takes the warm-up credit and skips the intermediate's
    SG traffic, so those relaxations apply as soon as fusion is
    possible, while the stronger fused *serial* chain is only used when
    the representative itself fuses (then every member does).
    """
    b, h = cfg.batch, cfg.heads
    nq, nkv, dk = cfg.seq_q, cfg.seq_kv, cfg.d_head
    e = accel.bytes_per_element
    macs_l = b * h * nq * nkv * dk
    macs = 2 * macs_l
    int_cold = b * h * nq * nkv
    q_cold = b * h * nq * dk
    k_cold = b * h * nkv * dk
    v_cold = b * h * nkv * dk
    out_cold = b * h * nq * dk

    softmax = accel.sfu.softmax_cycles(int_cold)
    compute_l, compute_a = la_pair_compute_cycles(cfg, dataflow, accel,
                                                  options)

    s = dataflow.staging
    staged = dataflow.has_l3
    may_fuse = dataflow.fused if fused_in_family is None else fused_in_family
    b_t, h_t, r = dataflow.cross_tile(b, h, nq)
    row_passes = ceil_div(nq, r)
    n_pass = ceil_div(b, b_t) * ceil_div(h, h_t) * row_passes

    # The scratchpad split (staging-policy independent), restated: while
    # staging is active, an eighth of the scratchpad (at least 4096
    # bytes, at most half of it) stays with the double-buffered L2
    # working set and the rest is the staging budget; otherwise L2 has
    # it all.  Then the loop tile search with its reuse analysis.
    footprint = fused_la_footprint(cfg, dataflow)
    sg = accel.sg_bytes
    if staged and s.any_enabled and footprint.total_bytes(e) > 0:
        reserve = min(max(4096, int(sg * 0.125)), sg // 2)
        staging_bytes = float(sg - reserve)
        l2_elements = max(1, reserve // e)
    else:
        staging_bytes = 0.0
        l2_elements = max(1, sg // e)
    passes_l = loop_tile_plan(
        r, dk, nkv, l2_elements, accel.pe_array.rows, accel.pe_array.cols,
    )
    passes_a = loop_tile_plan(
        r, nkv, dk, l2_elements, accel.pe_array.rows, accel.pe_array.cols,
    )

    if staged and s.intermediate:
        int_bytes = footprint.intermediate_elements * e
        fit_int = (
            1.0 if int_bytes <= 0
            else min(1.0, staging_bytes / int_bytes)
        )
        int_offchip = 1.0 - fit_int
    else:
        int_offchip = 1.0

    def _tensor_floor(tile_bytes: float, l2_passes: float) -> float:
        # min over staging choices of the model's pass multiplier:
        # unstaged pays l2_passes; staged pays blend(fit) >=
        # blend(fit_max) (the blend is decreasing in fit, and priority
        # allocation can never grant more than the whole budget).
        fit_max = (
            1.0 if tile_bytes <= 0
            else min(1.0, staging_bytes / tile_bytes)
        )
        if options.spill_extra_pass_only:
            blend = fit_max * 1.0 + (1.0 - fit_max) * 2.0
        else:
            blend = fit_max * 1.0 + (1.0 - fit_max) * (l2_passes + 1.0)
        return min(float(l2_passes), blend)

    out_passes = (
        1 if dataflow.stationarity is Stationarity.OUTPUT
        else passes_a.out_passes
    )
    q_mult = _tensor_floor(footprint.lhs_elements * e, passes_l.lhs_passes)
    k_mult = _tensor_floor(
        footprint.rhs_elements * e, row_passes * passes_l.rhs_passes
    )
    v_mult = _tensor_floor(
        footprint.rhs2_elements * e, row_passes * passes_a.rhs_passes
    )
    out_mult = _tensor_floor(footprint.out_elements * e, float(out_passes))

    int_spill = int_cold * int_offchip
    dram_l_inputs = q_cold * q_mult + k_cold * k_mult
    dram_a_inputs = v_cold * v_mult + out_cold * out_mult
    dram_elements = dram_l_inputs + dram_a_inputs + 4.0 * int_spill
    spill_cycles = (
        (2.0 * int_spill) * e / accel.offchip_bytes_per_cycle
    )
    if dataflow.fused:
        # Every member fuses (the representative is the weakest corner
        # in this respect): interleaved busy time plus the serialized
        # spill round trip.  Attention variants mirror their own serial
        # term exactly: FLASH-D's softmax has one pass fewer over the
        # intermediate (plus the output rescale), FuseMax pipelines the
        # softmax against the GEMM stages, so the busy floor is the max
        # rather than the sum.
        if dataflow.variant is AttentionVariant.FLASH_D:
            sm_term = accel.sfu.flashd_cycles(int_cold, out_cold)
            serial = compute_l + compute_a + sm_term + spill_cycles
        elif dataflow.variant is AttentionVariant.FUSEMAX:
            serial = max(compute_l + compute_a, softmax) + spill_cycles
        else:
            serial = compute_l + compute_a + softmax + spill_cycles
    else:
        # Mirrors the model's three-phase sum when each phase is
        # compute-/softmax-bound; weaker than (hence admissible for)
        # fused members of a mixed family.
        serial = compute_l + max(softmax, spill_cycles) + compute_a

    sg_base_l = sg_stream_words(macs_l, accel)
    sg_base_a = sg_stream_words(macs_l, accel) + out_cold
    if may_fuse:
        sg_words = sg_base_l + sg_base_a
    else:
        sg_words = (sg_base_l + int_cold) + (sg_base_a + int_cold)

    dram_bytes = dram_elements * e
    cycles = max(
        serial,
        dram_bytes / accel.offchip_bytes_per_cycle,
        sg_words * e / accel.onchip_bytes_per_cycle,
    )
    # Exposed prefetch warm-up on the traffic floor (monotone in the
    # DRAM bytes, so a floor in, a floor out); any possibly-fused
    # member gets the overlap credit, half the warm-up.
    warmup_cap = float((passes_l.footprint + passes_a.footprint) * e)
    warmup_bytes = min(dram_bytes / max(float(n_pass), 1.0), warmup_cap)
    warmup = warmup_bytes / accel.offchip_bytes_per_cycle
    if may_fuse:
        warmup = warmup * 0.5
    cycles = cycles + warmup
    counts = ActivityCounts(
        macs=float(macs),
        sl_words=2.0 * macs + out_cold,
        sg_words=sg_words,
        dram_words=dram_elements,
        sfu_ops=float(
            accel.sfu.flashd_flops(int_cold, out_cold)
            if dataflow.variant is AttentionVariant.FLASH_D
            else accel.sfu.softmax_flops(int_cold)
        ),
    )
    return BoundTerms(cycles=cycles, counts=counts)


def operator_floor(op: GemmOperator, accel: Accelerator) -> BoundTerms:
    """Floors for one operator outside the L-A pair under any
    dataflow: its ideal MAC cycles, its compulsory (cold) traffic and
    its SG operand stream, overlapped (the max of the three)."""
    e = accel.bytes_per_element
    out = op.out.num_elements
    cold = op.lhs.num_elements + op.rhs.num_elements + out
    pe = accel.pe_array
    sg_words = op.macs * (pe.rows + pe.cols) / (pe.rows * pe.cols) + out
    cycles = max(
        op.macs / accel.peak_macs_per_cycle,
        cold * e / accel.offchip_bytes_per_cycle,
        sg_words * e / accel.onchip_bytes_per_cycle,
    )
    return BoundTerms(cycles, ActivityCounts(
        macs=float(op.macs), sl_words=2.0 * op.macs + out,
        sg_words=sg_words, dram_words=float(cold)))


def candidate_bound(
    cfg: AttentionConfig,
    scope: Scope,
    accel: Accelerator,
    dataflow: Dataflow,
    options: PerfOptions,
    fused_in_family: Optional[bool] = None,
) -> Tuple[float, ActivityCounts]:
    total = BoundTerms(0.0, ActivityCounts())
    for op in operators_for_scope(cfg, scope):
        if op.kind not in (OperatorKind.LOGIT, OperatorKind.ATTEND):
            total = total.plus(operator_floor(op, accel))
    total = total.plus(la_pair_bound(cfg, accel, dataflow, options,
                                     fused_in_family))
    replication = cfg.num_blocks if scope is Scope.MODEL else 1
    return replication * total.cycles, total.counts.scaled(replication)


def scalar_objective_bound(
    objective: Objective,
    cfg: AttentionConfig,
    scope: Scope,
    accel,
    dataflow: Dataflow,
    options: PerfOptions = PerfOptions(),
    fused_in_family: Optional[bool] = None,
) -> float:
    """One candidate's objective bound, computed scalarly."""
    cycles, counts = candidate_bound(
        cfg, scope, accel, dataflow, options, fused_in_family
    )
    if objective is Objective.RUNTIME:
        return cycles * BOUND_SLACK
    energy = energy_report(counts).total_j
    if objective is Objective.ENERGY:
        return energy * BOUND_SLACK
    return energy * cycles * BOUND_SLACK


def scalar_family_bound(
    objective: Objective,
    cfg: AttentionConfig,
    scope: Scope,
    accel,
    family: DataflowFamily,
    space: SearchSpace = SearchSpace(),
    options: PerfOptions = PerfOptions(),
) -> float:
    """A family's bound: its representative's, widened to the family."""
    return scalar_objective_bound(
        objective, cfg, scope, accel, family_representative(family, space),
        options,
        fused_in_family=family.granularity is not None and space.allow_fused,
    )


def family_representative(
    family: DataflowFamily, space: SearchSpace = SearchSpace()
) -> Dataflow:
    """The member whose bound lower-bounds the whole family, as a
    ``Dataflow`` (see :func:`repro.core.candidates.family_columns`,
    which reads its columns off the family fields instead).

    Fully enabled staging minimizes every traffic floor the bound
    charges (staged K/V stream once instead of once per row pass; the
    staged intermediate spills only its non-fitting fraction), and for
    M/B/H families the unfused variant is used whenever the space
    allows it (the unfused serialized-softmax term is never larger
    than the fused one).  The compute floor is identical across a
    family — it depends only on stationarity, granularity and row
    count, which the family fixes.  Hence ``bound(representative) <=
    bound(member) <= cost(member)`` for every member.

    A family carrying a non-default attention variant contains only
    fused members that all share the variant's (weakly smaller) serial
    softmax term, so its representative is the fused all-staged member
    with that variant — which is also member 0 of its expansion, the
    invariant the engine's representative round depends on.
    """
    stat = family.stationarity
    if family.granularity is None:
        return base(stationarity=stat)
    staging = StagingPolicy.all_enabled()
    if family.granularity is Granularity.R:
        return flat_r(family.rows, staging=staging, stationarity=stat,
                      variant=family.variant)
    if family.variant is not AttentionVariant.SOFTMAX:
        return flat_x(family.granularity, staging=staging,
                      stationarity=stat, variant=family.variant)
    if space.allow_unfused:
        return base_x(family.granularity, staging=staging,
                      stationarity=stat)
    return flat_x(family.granularity, staging=staging, stationarity=stat)


def family_bound_rows(
    cfg: AttentionConfig,
    families: Sequence[DataflowFamily],
    space: SearchSpace = SearchSpace(),
) -> List[Tuple[AttentionConfig, Dataflow, bool]]:
    """Each family's ``(cfg, representative, fused_in_family)`` row
    (see :meth:`~repro.core.candidates.BoundColumns.of_dataflows`),
    widened to the family's fused members."""
    return [
        (cfg, family_representative(family, space),
         family.granularity is not None and space.allow_fused)
        for family in families
    ]


def chained_counts(cost: ScopeCost) -> ActivityCounts:
    """A scope's activity counts folded with ``ActivityCounts.__add__``
    from ``ActivityCounts()`` over its operators, then scaled by its
    replication."""
    total = ActivityCounts()
    for op in cost.operator_costs:
        total = total + op.counts
    return total.scaled(cost.replication)
