"""Analytic candidate generation for the DSE engine (ROADMAP item 2).

The engine's historical front end enumerated the full dataflow grid
(~thousands of points per search) and let bounds/batch scoring discard
~99.8% of it.  This module moves that discard *before* generation:
FLAT's closed-form footprint and intensity formulas (paper Tables 1-2;
:mod:`repro.core.footprint`, :mod:`repro.ops.intensity`) make both tile
feasibility and win-ability analytically decidable per *family* of
candidates, so whole families are expanded only if they can still beat
the incumbent.

Four pieces:

* **The bound** (:func:`bound_table`) — every admissible-bound formula
  of the engine, in one input form (:class:`BoundColumns`): a
  vectorized roofline over floors the L-A pair can never beat, plus the
  floors of the scope's other operators, read through
  :func:`~repro.ops.attention.scope_plan`.  The engine imports only
  its slack (``_BOUND_SLACK``).
* **The space table** (:class:`SpaceTable`, :func:`space_table`) —
  the space's families with their sizes and offsets, plus the
  vectorized backend's feature columns of every member in enumeration
  order, generated from the family fields and the staging-corner table
  without building a ``Dataflow``.  The engine memoizes one table per
  ``(batch, heads, seq_q, space)`` and scores row indices of it;
  :meth:`SpaceTable.dataflow` builds a single member (the winner) and
  :meth:`SpaceTable.locate` finds one (a warm seed).
* **Family planning** (:func:`plan_candidates`) — each
  :class:`~repro.core.dse.DataflowFamily` of a space table
  (stationarity x granularity x row count) is bounded by its cheapest
  *representative member* (see :func:`family_columns`): fully staged,
  unfused where the space allows it.  Representative bounds are
  admissible for every member — staging can only add traffic floors,
  fusion can only add serialized spill terms, and the compute floor is
  shared family-wide — so a family whose bound exceeds the incumbent
  provably contains no winner.  A plan bounds all of the table's
  families in one array pass (:func:`family_bounds`: every family's
  bound row as columns, memoized per query length and space by
  :func:`family_columns`); the table already holds their sizes and
  offsets.
* **Warm seeds** (:meth:`SpaceTable.locate`) — a seed is a plain
  ``Dataflow``, a hint for the branch-and-bound incumbent.  The engine
  finds it in the table and re-scores it under the receiving search's
  own config, accelerator, scope, objective and options; any member's
  value bounds the optimum from above, whichever search won it, so a
  seed can change the amount of work but never the result.

Everything here is deterministic and feeds cached evaluations, so this
module is covered by the R3 determinism lint, the R7 bound-purity lint
(rooted at :func:`bound_table` and :func:`family_bounds`) and the disk
cache's source fingerprint (see :mod:`repro.lint.contracts`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import (
    Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.arch.accelerator import Accelerator
from repro.core.batch import (
    _STAT_INDEX,
    GridEvaluation,
    _GridFeatures,
    _l2_budget_slots,
    _la_tiles,
    _per_value,
    is_wide,
)
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
    _enabled_stagings,
    _toggles,
    family_size,
    query_families,
)
from repro.core.footprint import fused_la_elements
from repro.core.perf import (
    PerfOptions,
    _compute_cycles_from_eff,
    _psum_passes_from_ko,
    _strict_axis_eff,
    _warmup_cycles,
    partition_scratchpad,
    sg_stream_words,
)
from repro.core.tiling import ceil_div
from repro.ops.attention import AttentionConfig, Scope, scope_plan
from repro.ops.intensity import roofline_cycles
from repro.ops.operator import GemmOperator

__all__ = [
    "bound_table",
    "BoundColumns",
    "bound_flags",
    "objective_lower_bound",
    "plan_candidates",
    "family_bounds",
    "family_columns",
    "family_lower_bound",
    "SpaceTable",
    "space_table",
]


# ----------------------------------------------------------------------
# the admissible bound: closed-form floors, many candidates in one pass
# ----------------------------------------------------------------------
# Multiplicative slack shaving ~1e-9 off every bound: the bound and the
# model share their closed forms, and this keeps float rounding from
# ever nudging a bound above the true cost it underestimates.
_BOUND_SLACK = 1.0 - 1e-9


def _operator_bound(op: GemmOperator, accel: Accelerator
                    ) -> Tuple[float, float, float, float, float]:
    """Floors for one non-L-A operator, independent of its dataflow:
    ``(cycles, macs, sl_words, sg_words, dram_words)``.

    Every tensor's off-chip pass multiplier in
    :func:`~repro.core.perf.cost_operator` is >= 1 (staged-and-fitting
    tensors pay one cold pass; everything else pays at least its L2
    reuse passes), so the compulsory traffic is a true floor, as are the
    ideal MAC cycles.  No such operator is followed by a softmax (see
    :func:`~repro.ops.attention.scope_plan`): it adds no SFU term.
    """
    e = accel.bytes_per_element
    out_elements = op.out.num_elements
    cold = op.lhs.num_elements + op.rhs.num_elements + out_elements
    sg_words = sg_stream_words(op.macs, accel) + out_elements
    cycles = roofline_cycles(
        op.macs / accel.peak_macs_per_cycle,
        cold * e / accel.offchip_bytes_per_cycle,
        sg_words * e / accel.onchip_bytes_per_cycle,
    )
    return (cycles, float(op.macs), 2.0 * op.macs + out_elements, sg_words,
            float(cold))


@lru_cache(maxsize=512)
def _scope_static_bound(
    cfg: AttentionConfig, scope: Scope, accel: Accelerator
) -> Tuple[float, float, float, float, float]:
    """The candidate-independent part of a scope's lower bound.

    Sums :func:`_operator_bound` over every operator of the scope's
    :func:`~repro.ops.attention.scope_plan` but the L-A pair (whose
    bound depends on the candidate dataflow), field by field in
    execution order, as plain floats from ``0.0``.
    """
    total = (0.0,) * 5
    _, others = scope_plan(cfg, scope)
    for op in others:
        floors = _operator_bound(op, accel)
        total = tuple(a + b for a, b in zip(total, floors))
    return total


@dataclass(frozen=True, eq=False)
class BoundColumns:
    """The rows :func:`bound_table` bounds, as columns: row ``i`` is
    bounded on ``configs[workload[i]]`` with cross tile ``tiles[:, i]``
    (``b_t, h_t, r``; int64) and the :func:`bound_flags` ``flags[:, i]``
    (bool).  The family rows of a search space come this way from their
    memo (:func:`family_bounds`), with no per-row Python; single
    dataflows through :meth:`of_dataflows`."""

    configs: Tuple[AttentionConfig, ...]
    workload: np.ndarray
    tiles: np.ndarray
    flags: np.ndarray

    def __len__(self) -> int:
        return int(self.workload.shape[0])

    @classmethod
    def of_dataflows(
        cls, rows: Iterable[Tuple[AttentionConfig, Dataflow, Optional[bool]]]
    ) -> "BoundColumns":
        """The columns of ``(cfg, dataflow, fused_in_family)`` rows;
        ``fused_in_family`` widens a row to a family (``None``: exactly
        this dataflow)."""
        configs: Dict[AttentionConfig, int] = {}
        workload, tiles, flags = [], [], []
        for cfg, dataflow, fused_in_family in rows:
            workload.append(configs.setdefault(cfg, len(configs)))
            tiles.append(dataflow.cross_tile(cfg.batch, cfg.heads,
                                             cfg.seq_q))
            flags.append(bound_flags(
                dataflow.fused, dataflow.staging, dataflow.variant,
                dataflow.stationarity,
                dataflow.fused if fused_in_family is None
                else fused_in_family,
            ))
        return cls(tuple(configs), np.array(workload, dtype=np.int64),
                   np.array(tiles, dtype=np.int64).reshape(-1, 3).T,
                   np.array(flags, dtype=bool).reshape(-1, 13).T)


def bound_flags(fused: bool, staging: StagingPolicy,
                variant: AttentionVariant, stationarity: Stationarity,
                may_fuse: bool) -> Tuple[bool, ...]:
    """The 13 flags of one bound row: what the L-A pair bound reads of
    a candidate, plus whether the family it stands for may contain
    fused members."""
    return (
        (fused,) + staging.as_tuple() + (
            staging.any_enabled, variant is AttentionVariant.FLASH_D,
            variant is AttentionVariant.FUSEMAX,
            stationarity is Stationarity.OUTPUT,
            stationarity is Stationarity.WEIGHT,
            stationarity is Stationarity.INPUT, may_fuse,
        )
    )


def _config_terms(cfg: AttentionConfig, scope: Scope,
                  accel: Accelerator) -> Tuple[tuple, tuple]:
    """The candidate-independent terms of one workload's bound.

    Returns ``(ints, floats)``.  The integers (shape, MAC and cold
    volumes, replication) become integer columns; the floats are the
    terms Python computes once per workload — the SFU cycles, the SG
    stream (an int / int division), the non-L-A operators' floors
    (:func:`_scope_static_bound`) and the activity counts no dataflow
    changes, summed and scaled as ``ActivityCounts`` sums and scales
    them.
    """
    # The pair is the whole L-A scope: no other operator to bound (and
    # no operator list to build, for a shard seen once).
    static = ((0.0,) * 5 if scope is Scope.LA
              else _scope_static_bound(cfg, scope, accel))
    static_cycles, s_macs, s_sl, s_sg, s_dram = static
    replication = cfg.num_blocks if scope is Scope.MODEL else 1
    b, h = cfg.batch, cfg.heads
    nq, nkv, dk = cfg.seq_q, cfg.seq_kv, cfg.d_head
    macs_l = b * h * nq * nkv * dk
    macs = 2 * macs_l
    int_cold = b * h * nq * nkv
    # Q and the output share one cold volume, as do K and V.
    q_cold = b * h * nq * dk
    k_cold = b * h * nkv * dk
    sfu = accel.sfu
    sg_base_l = sg_stream_words(macs_l, accel)
    sg_base_a = sg_stream_words(macs_l, accel) + q_cold
    ints = (b, h, nq, nkv, dk, macs_l, int_cold, q_cold, k_cold,
            replication)
    floats = (
        sfu.softmax_cycles(int_cold),
        sfu.flashd_cycles(int_cold, q_cold),
        sg_base_l + sg_base_a,
        (sg_base_l + int_cold) + (sg_base_a + int_cold),
        static_cycles,
        s_dram,
        s_sg,
        (s_macs + float(macs)) * replication,
        (s_sl + (2.0 * macs + q_cold)) * replication,
        float(sfu.softmax_flops(int_cold)) * replication,
        float(sfu.flashd_flops(int_cold, q_cold)) * replication,
    )
    return ints, floats


def bound_table(
    objective: Objective,
    scope: Scope,
    accel: Accelerator,
    rows: BoundColumns,
    options: PerfOptions = PerfOptions(),
) -> np.ndarray:
    """Admissible objective lower bounds of many candidates, one pass.

    Each row of ``rows`` (a workload, a cross tile and the
    :func:`bound_flags`) is bounded on its own workload, so one call
    covers every family of a plan or every family of every distinct
    shard of a partition grid.  Family rows come from the memoized
    family columns (:func:`family_bounds`), a dataflow's from
    :meth:`BoundColumns.of_dataflows`.  The bound of a row is
    a roofline over floors the L-A pair can never beat, sharing the
    model's own closed forms — the L2 tile choice, the staging-budget
    split, the reuse-pass counts and the warm-up arithmetic are the
    very functions :func:`~repro.core.perf.cost_la_pair` calls, and none
    of them depend on the staging policy, so one row is admissible for a
    whole *family* of staging corners at once:
    * **Serialized critical path.**  The exact compute-phase cycles of
      both GEMM stages (mapping efficiency and fill/drain included),
      plus the parts of the softmax story that provably serialize with
      them: fused, the softmax is on the interleaved phase's busy time
      and the spilled intermediate's softmax round trip is a separate
      phase, so both add (FLASH-D swaps in its own serial term, FuseMax
      takes the max with the GEMM stages); unfused, the softmax phase
      takes at least ``max(softmax, spill round trip)``.
    * **Compulsory traffic.**  Each tensor pays
      ``min(l2_passes, fit_max + (1 - fit_max) * spill_passes)`` times
      its cold volume, where ``fit_max`` grants the single tensor the
      whole staging budget — priority allocation can only grant less,
      and the blend is decreasing in fit, so the min covers every
      staging policy.  The off-chip intermediate fraction pays its four
      passes using the exact budget split.
    * **Operand streaming** into the array on the SG port (plus the
      intermediate's SG round trip when no member fuses).
    * **Prefetch warm-up** on the traffic floor, with the fused overlap
      credit whenever any member may fuse.

    The last flag (``fused_in_family`` of
    :meth:`BoundColumns.of_dataflows`) widens a row to a family that
    mixes fused and unfused members: a fused member takes the warm-up
    credit and skips the intermediate's SG traffic, so those
    relaxations apply as soon as fusion is possible, while the stronger
    fused *serial* chain is only used when the dataflow itself fuses
    (then every member does).  The scope's other
    operators add :func:`_scope_static_bound`, and ``ENERGY``/``EDP``
    replay ``energy_report``'s arithmetic on the summed activity
    counts (:meth:`~repro.core.batch.GridEvaluation.objective_scores`).

    Every lane performs the scalar formulas' operations on their
    operand types, so each bound is the one a per-row Python evaluation
    gives, bit for bit: workload-level terms are computed in Python,
    tile choices are the model's own records
    (:func:`~repro.core.batch._la_tiles`) and
    the int / int mapping efficiencies through
    :func:`~repro.core.batch._per_value`.  Integer columns are int64;
    when a workload is past the int64 lanes' edges
    (:func:`~repro.core.batch.is_wide`) they hold Python integers
    instead (object dtype), which the same code runs on exactly, as
    the grid does.  ``FOOTPRINT``
    has no bound and is rejected.
    """
    if objective is Objective.FOOTPRINT:
        raise ValueError("FOOTPRINT objective has no candidate bound")
    if not len(rows):
        raise ValueError("bound_table needs at least one row")
    e = accel.bytes_per_element
    rows_pe, cols_pe = accel.pe_array.rows, accel.pe_array.cols
    cfg_list = rows.configs
    ci = rows.workload
    terms = [_config_terms(cfg, scope, accel) for cfg in cfg_list]
    idt = (object if any(is_wide(cfg, scope, e) for cfg in cfg_list)
           else np.int64)
    b_t, h_t, r = rows.tiles.astype(idt, copy=False)
    (fused, s_lhs, s_rhs, s_rhs2, s_out, s_int, s_any, v_flash, v_pipe,
     output, weight, inputs, may_fuse) = rows.flags
    (b, h, nq, nkv, dk, macs_l, int_cold, q_cold, k_cold,
     replication) = np.array([t[0] for t in terms], dtype=idt)[ci].T
    (softmax, flashd, sg_fused, sg_unfused, static_cycles, static_dram,
     static_sg, macs_total, sl_total, sfu_softmax,
     sfu_flashd) = np.array([t[1] for t in terms], dtype=float)[ci].T

    # A dataflow without an L3 tile stages nothing (Dataflow enforces
    # it), so each staging flag already implies the tile.
    fp = fused_la_elements(b_t, h_t, r, dk, nkv,
                           s_lhs, s_rhs, s_rhs2, s_out, s_int)
    budget = partition_scratchpad(
        (fp[0] + fp[1] + fp[2] + fp[3] + fp[4]) * e, s_any, accel,
    )
    staging_bytes = budget.staging_budget_bytes.astype(float)
    row_passes = ceil_div(nq, r)
    n_pass_f = (
        ceil_div(b, b_t) * ceil_div(h, h_t) * row_passes
    ).astype(float)

    # The model's tile records (batch._la_tiles), one per (rows,
    # seq_kv, d_head, L2 budget slot).
    l2_values, slot = _l2_budget_slots(budget, accel)
    shapes: dict = {}
    shape_of = np.array(
        [shapes.setdefault((cfg.seq_kv, cfg.d_head), len(shapes))
         for cfg in cfg_list], dtype=np.int64,
    )[ci]
    l_lhs, l_rhs, a_rhs, ko_a, warmup_cap = _la_tiles(
        r, shape_of, list(shapes), slot, l2_values, accel)

    # Each tensor's fit if it alone were granted the whole staging
    # budget (for the intermediate, its fit under the exact budget
    # split: it is first in the priority order), rows Q, K, V, O, I.
    tile_bytes = np.stack(fp) * e
    fit = np.where(
        tile_bytes <= 0, 1.0,
        np.minimum(1.0, staging_bytes / np.maximum(tile_bytes, 1)),
    )
    int_offchip = np.where(s_int, 1.0 - fit[4], 1.0)

    # min over staging choices of each tensor's pass multiplier:
    # unstaged pays its L2 passes; staged pays blend(fit) >=
    # blend(fit_max) (the blend is decreasing in fit, and priority
    # allocation can never grant more than the whole budget).
    fit_max = fit[:4]
    l2_passes = np.stack([
        l_lhs,
        row_passes * l_rhs,
        row_passes * a_rhs,
        _psum_passes_from_ko(ko_a, output),
    ])
    if options.spill_extra_pass_only:
        blend = fit_max * 1.0 + (1.0 - fit_max) * 2.0
    else:
        blend = fit_max * 1.0 + (1.0 - fit_max) * (l2_passes + 1.0)
    q_mult, k_mult, v_mult, out_mult = np.minimum(
        l2_passes.astype(float), blend
    )

    int_spill = int_cold * int_offchip
    dram_elements = (
        (q_cold * q_mult + k_cold * k_mult)
        + (k_cold * v_mult + q_cold * out_mult)
        + 4.0 * int_spill
    )
    spill_cycles = (2.0 * int_spill) * e / accel.offchip_bytes_per_cycle

    # Exact compute-phase cycles of both stages (la_pair_compute_cycles).
    if options.flexible_mapping:
        # Both stages fold the same iteration space.
        pes = accel.pe_array.num_pes
        eff_l = _per_value(r * dk * nkv * (b_t * h_t),
                           lambda v: v / (pes * ceil_div(v, pes)))
        eff_a = eff_l
    else:
        def eff(d1, d2):
            return (
                _per_value(d1, lambda v: _strict_axis_eff(v, rows_pe))
                * _per_value(d2, lambda v: _strict_axis_eff(v, cols_pe))
            )

        eff_l = eff(np.where(weight, dk, r), np.where(inputs, dk, nkv))
        eff_a = eff(np.where(weight, nkv, r), np.where(inputs, nkv, dk))
    compute_l = _compute_cycles_from_eff(macs_l, eff_l, n_pass_f, accel,
                                         options)
    compute_a = (
        compute_l if eff_a is eff_l
        else _compute_cycles_from_eff(macs_l, eff_a, n_pass_f, accel,
                                      options)
    )
    compute = compute_l + compute_a
    # Fused: every member fuses (the dataflow is the weakest corner in
    # this respect): interleaved busy time plus the serialized spill
    # round trip.  Unfused: mirrors the model's three-phase sum when
    # each phase is compute-/softmax-bound; weaker than (hence
    # admissible for) fused members of a mixed family.
    serial = np.where(
        fused,
        np.where(
            v_pipe,
            np.maximum(compute, softmax),
            compute + np.where(v_flash, flashd, softmax),
        ) + spill_cycles,
        (compute_l + np.maximum(softmax, spill_cycles)) + compute_a,
    )
    sg_words = np.where(may_fuse, sg_fused, sg_unfused)
    dram_bytes = dram_elements * e
    cycles = np.maximum(
        np.maximum(serial, dram_bytes / accel.offchip_bytes_per_cycle),
        sg_words * e / accel.onchip_bytes_per_cycle,
    )
    # Exposed prefetch warm-up on the traffic floor (monotone in the
    # DRAM bytes, so a floor in, a floor out).
    warmup = _warmup_cycles(dram_bytes, n_pass_f, warmup_cap, may_fuse,
                            accel)
    total_cycles = replication * (static_cycles + (cycles + warmup))
    if objective is Objective.RUNTIME:
        return total_cycles.astype(float) * _BOUND_SLACK
    dram_words = (static_dram + dram_elements) * replication
    scores = GridEvaluation(
        total_cycles=total_cycles,
        dram_bytes=dram_words * e,
        footprint_bytes=tile_bytes.sum(axis=0),
        macs=macs_total,
        sl_words=sl_total,
        sg_words=(static_sg + sg_words) * replication,
        dram_words=dram_words,
        sfu_ops=np.where(v_flash, sfu_flashd, sfu_softmax),
    ).objective_scores(objective)
    return scores.astype(float) * _BOUND_SLACK


def objective_lower_bound(
    objective: Objective,
    cfg: AttentionConfig,
    scope: Scope,
    accel: Accelerator,
    dataflow: Dataflow,
    options: PerfOptions = PerfOptions(),
    fused_in_family: Optional[bool] = None,
) -> Optional[float]:
    """Lower bound on the objective value, or ``None`` if unbounded.

    ``FOOTPRINT`` returns ``None`` — footprints need no cost bound and
    the engine disables pruning for that objective.

    ``fused_in_family`` (see :func:`bound_table`) widens the bound to
    cover a whole dataflow family that may mix fused and unfused
    members; ``None`` bounds exactly the given dataflow.  A one-row
    :func:`bound_table`.
    """
    if objective is Objective.FOOTPRINT:
        return None
    return float(bound_table(
        objective, scope, accel,
        BoundColumns.of_dataflows([(cfg, dataflow, fused_in_family)]),
        options,
    )[0])


@lru_cache(maxsize=4096)
def _family_flags(family: DataflowFamily, allow_unfused: bool,
                  allow_fused: bool) -> Tuple[bool, ...]:
    """The bound flags of a family's representative, widened to the
    family (see :func:`family_columns`): its warm-up credit and SG
    floor depend on whether any member fuses (a plain-Base family
    never fuses, a row family always does, and an M/B/H family fuses
    exactly when the space allows fusion)."""
    staged = family.granularity is not None
    # The representative fuses in a row family, a variant family, and
    # an M/B/H family when the space has no unfused members.
    fused = staged and (
        family.granularity is Granularity.R
        or family.variant is not AttentionVariant.SOFTMAX
        or not allow_unfused
    )
    staging = (StagingPolicy.all_enabled() if staged
               else StagingPolicy.all_disabled())
    return bound_flags(fused, staging, family.variant, family.stationarity,
                       staged and allow_fused)


# Each family's cross-tile rule (see _cross_tiles): the whole workload,
# one batch, one batch and head, or R rows of one batch and head.
_TILE_RULE = {None: 0, Granularity.M: 0, Granularity.B: 1,
              Granularity.H: 2, Granularity.R: 3}


def _cross_tiles(rule: "np.ndarray", rows: "np.ndarray", batch, heads,
                 seq_q) -> "np.ndarray":
    """The cross-loop tiles ``(b_t, h_t, r)`` of families with tile
    rules ``rule`` and R row counts ``rows`` on ``batch x heads x
    seq_q`` workloads (scalars or arrays aligned with ``rule``), as
    the rows of a ``(3, n)`` array.

    Members never set ``batch_tile``/``head_tile`` (both stay 1), so
    this is :meth:`~repro.core.dataflow.Dataflow.cross_tile` read off
    the family's granularity and row count alone.
    """
    return np.stack([
        np.where(rule == 0, batch, np.minimum(1, batch)),
        np.where(rule <= 1, heads, np.minimum(1, heads)),
        np.where(rule == 3, np.minimum(rows, seq_q), seq_q),
    ])


class FamilyColumns(NamedTuple):
    """A space's families on one query length, and the columns their
    bound rows are made of: each family's cross-tile rule and R row
    count (0 outside R), and its 13 :func:`_family_flags` as rows of
    ``flags``."""

    families: Tuple[DataflowFamily, ...]
    rule: "np.ndarray"
    rows: "np.ndarray"
    flags: "np.ndarray"


@lru_cache(maxsize=128)
def family_columns(seq_q: int, space: SearchSpace) -> FamilyColumns:
    """The :class:`FamilyColumns` of ``space`` on query length ``seq_q``.

    Each family's columns are those of its *representative*, the
    member whose bound lower-bounds the whole family: fully staged,
    and unfused wherever the space allows it.  Fully enabled staging
    minimizes every traffic floor the bound charges (staged K/V stream
    once instead of once per row pass; the staged intermediate spills
    only its non-fitting fraction), and the unfused serialized-softmax
    term is never larger than the fused one.  The compute floor is
    identical across a family — it depends only on stationarity,
    granularity and row count, which the family fixes.  Hence
    ``bound(representative) <= bound(member) <= cost(member)`` for
    every member.  A family with a non-default attention variant
    contains only fused members that all share the variant's (weakly
    smaller) serial softmax term, so its representative is the fused
    all-staged member.  Every representative is member 0 of its
    family's expansion, the invariant the engine's representative
    round depends on.  The flags are widened to the family
    (:func:`_family_flags`).  No ``Dataflow`` is built; the columns
    bound exactly as the representative ``Dataflow``'s rows
    (``tests/oracles.py::family_bound_rows``).

    Memoized: families and flags depend on nothing else of a workload,
    so every plan and every shard of one query length reads them once.
    """
    families = tuple(query_families(seq_q, space))
    unfused, fused = space.allow_unfused, space.allow_fused
    columns = FamilyColumns(
        families=families,
        rule=np.array([_TILE_RULE[f.granularity] for f in families],
                      dtype=np.int64),
        rows=np.array([f.rows or 0 for f in families], dtype=np.int64),
        flags=np.array([_family_flags(f, unfused, fused)
                        for f in families], dtype=bool).reshape(-1, 13).T,
    )
    for array in columns[1:]:
        array.flags.writeable = False
    return columns


def family_bounds(
    objective: Objective,
    scope: Scope,
    accel: Accelerator,
    configs: Sequence[AttentionConfig],
    space: SearchSpace = SearchSpace(),
    options: PerfOptions = PerfOptions(),
) -> Tuple["np.ndarray", List[int]]:
    """Every family's bound on each workload of ``configs``, workload
    after workload, and each workload's family count.

    One :func:`bound_table` pass over the bound rows of all of them,
    as columns assembled from the memoized :func:`family_columns`: the
    cross tiles are computed as arrays (:func:`_cross_tiles`), and no
    row is built in Python.
    """
    parts = [family_columns(cfg.seq_q, space) for cfg in configs]
    counts = [len(p.families) for p in parts]
    if not all(counts):
        raise ValueError("search space is empty")
    workload = np.repeat(np.arange(len(configs)), counts)
    batch, heads, seq_q = np.array(
        [(cfg.batch, cfg.heads, cfg.seq_q) for cfg in configs],
        dtype=np.int64)[workload].T
    if len(parts) == 1:
        rule, r_rows, flags = parts[0].rule, parts[0].rows, parts[0].flags
    else:
        rule = np.concatenate([p.rule for p in parts])
        r_rows = np.concatenate([p.rows for p in parts])
        flags = np.concatenate([p.flags for p in parts], axis=1)
    tiles = _cross_tiles(rule, r_rows, batch, heads, seq_q)
    columns = BoundColumns(tuple(configs), workload, tiles, flags)
    return bound_table(objective, scope, accel, columns, options), counts


def family_lower_bound(
    objective: Objective,
    cfg: AttentionConfig,
    scope: Scope,
    accel: Accelerator,
    family: DataflowFamily,
    space: SearchSpace = SearchSpace(),
    options: PerfOptions = PerfOptions(),
) -> float:
    """Admissible objective lower bound for every member of a family.

    ``family``'s entry of :func:`family_bounds` on ``cfg``; see
    :func:`family_columns` for why it bounds all members.
    ``FOOTPRINT`` has no bound and is rejected.
    """
    index = family_columns(cfg.seq_q, space).families.index(family)
    bounds, _ = family_bounds(objective, scope, accel, [cfg], space,
                              options)
    return float(bounds[index])


def plan_candidates(
    objective: Objective,
    cfg: AttentionConfig,
    scope: Scope,
    accel: Accelerator,
    table: SpaceTable,
    options: PerfOptions = PerfOptions(),
) -> Tuple[float, ...]:
    """Admissible bounds of ``table.families`` on ``cfg``, in order.

    Plans a search without expanding a single candidate: one
    :func:`family_bounds` call over the families' memoized columns —
    every family's closed-form bound in one array pass.  ``table`` is
    the space's :class:`SpaceTable` on ``cfg``'s shape; its sizes and
    offsets place each family's members.
    """

    if objective is Objective.FOOTPRINT:
        raise ValueError("FOOTPRINT searches have no candidate bounds")
    bounds, _ = family_bounds(objective, scope, accel, [cfg], table.space,
                              options)
    return tuple(bounds.tolist())


# ----------------------------------------------------------------------
# the space table: every member as columns, no Dataflow objects
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _staging_rows(exhaustive: bool) -> "np.ndarray":
    """The enabled staging corners as ``(lhs, rhs, rhs2, out,
    intermediate)`` rows in expansion order, plus a last all-disabled
    row for the plain Base."""
    corners = [s.as_tuple() for s in _enabled_stagings(exhaustive)]
    table = np.array(corners + [(False,) * 5], dtype=bool)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _staging_positions(exhaustive: bool) -> dict:
    """Staging policy -> its position among the enabled corners."""
    return {s: i for i, s in enumerate(_enabled_stagings(exhaustive))}


def _member(family: DataflowFamily, space: SearchSpace,
            position: int) -> Dataflow:
    """Member ``position`` of :func:`repro.core.dse.expand_family`,
    built alone."""
    stat = family.stationarity
    if family.granularity is None:
        return base(stationarity=stat)
    stagings = _enabled_stagings(space.exhaustive_staging)
    if family.granularity is Granularity.R:
        return flat_r(family.rows, staging=stagings[position],
                      stationarity=stat, variant=family.variant)
    toggles = _toggles(family, space)
    staging = stagings[position // toggles]
    fused = position % 2 == 1 if toggles == 2 else space.allow_fused
    if fused:
        return flat_x(family.granularity, staging=staging,
                      stationarity=stat, variant=family.variant)
    return base_x(family.granularity, staging=staging, stationarity=stat)


@dataclass(frozen=True, eq=False)
class SpaceTable:
    """A search space as one immutable column table.

    ``families``, ``sizes`` and ``offsets`` list the space's families
    in enumeration order (``offsets`` are prefix sums of ``sizes``), and
    ``features`` holds the exact :class:`~repro.core.batch._GridFeatures`
    columns of all ``total`` members in the order of
    :func:`repro.core.dse.enumerate_dataflows`: column ``i`` is member
    ``i``.  The columns are generated from the family fields and the
    staging-corner table, without building a ``Dataflow``, and depend
    only on ``(batch, heads, seq_q)`` and the space, so one table
    serves every accelerator, scope, objective and option set.
    Scoring takes row indices of ``features``
    (:class:`~repro.core.batch.GridRows`); :meth:`dataflow` builds one
    member, :meth:`locate` finds one.
    """

    space: SearchSpace
    families: Tuple[DataflowFamily, ...]
    sizes: Tuple[int, ...]
    offsets: Tuple[int, ...]
    total: int
    features: _GridFeatures
    first_family: Dict[DataflowFamily, int]

    def dataflow(self, index: int) -> Dataflow:
        """The ``Dataflow`` of member ``index``, built alone."""
        if not 0 <= index < self.total:
            raise IndexError(index)
        fi = bisect_right(self.offsets, index) - 1
        return _member(self.families[fi], self.space,
                       index - self.offsets[fi])

    def locate(self, dataflow: Dataflow) -> Optional[int]:
        """Enumeration index of ``dataflow``, or ``None`` if absent.

        The family is read off the dataflow, the member position off
        its staging corner and fused toggle; the one member built there
        must equal ``dataflow`` (full dataclass equality — a hand-built
        dataflow with non-default tiles or a foreign row count is
        simply not in the space).
        """
        rows = (dataflow.rows if dataflow.granularity is Granularity.R
                else None)
        fi = self.first_family.get(DataflowFamily(
            dataflow.stationarity, dataflow.granularity, rows,
            dataflow.variant))
        if fi is None:
            return None
        family = self.families[fi]
        position = 0
        if family.granularity is not None:
            corner = _staging_positions(self.space.exhaustive_staging).get(
                dataflow.staging)
            if corner is None:
                return None
            toggles = _toggles(family, self.space)
            position = corner * toggles + (
                int(dataflow.fused) if toggles == 2 else 0)
        if position >= self.sizes[fi]:
            return None
        index = self.offsets[fi] + position
        return index if self.dataflow(index) == dataflow else None


def space_table(cfg: AttentionConfig,
                space: SearchSpace = SearchSpace()) -> SpaceTable:
    """Build the :class:`SpaceTable` of ``space`` on ``cfg``'s shape.

    A handful of array operations for the whole space: per-family
    values (cross tile, stationarity, fused toggles, variant) are
    repeated over each family's members, and each member's staging
    corner is its position divided by its family's toggle count.  The
    families, their tile rules and R row counts come from the memoized
    :func:`family_columns`, the same listing a plan bounds.
    """
    batch = cfg.batch
    listing = family_columns(cfg.seq_q, space)
    families = listing.families
    sizes = tuple(family_size(f, space) for f in families)
    offsets = tuple(accumulate(sizes, initial=0))[:-1]
    total = sum(sizes)
    corners = _staging_rows(space.exhaustive_staging)
    plain = len(corners) - 1  # the all-disabled row
    per_family = []
    for family in families:
        staged = family.granularity is not None
        toggles = _toggles(family, space)
        per_family.append((
            _STAT_INDEX[family.stationarity], toggles,
            # every member's fused flag, in a one-toggle family
            staged and toggles == 1 and space.allow_fused,
            staged,
            family.variant is AttentionVariant.FLASH_D,
            family.variant is AttentionVariant.FUSEMAX,
        ))
    values = np.array(per_family, dtype=np.int64).reshape(-1, 6).T
    columns = np.repeat(np.concatenate([
        _cross_tiles(listing.rule, listing.rows, batch, cfg.heads,
                     cfg.seq_q),
        values,
    ]), sizes, axis=1)
    b_t, h_t, r, stat_idx, toggles = columns[:5]
    fused_one, has_l3, v_flash, v_pipe = columns[5:].astype(bool)
    position = np.arange(total) - np.repeat(
        np.array(offsets, dtype=np.int64), sizes)
    fused = np.where(toggles == 2, position % 2 == 1, fused_one)
    s = corners[np.where(has_l3, position // toggles, plain)].T
    s_any = s.any(axis=0)
    # The other dataflow is the candidate itself when it is unfused
    # with an L3 tile, otherwise plain Base (cross tile b = batch,
    # nothing staged).
    own = has_l3 & ~fused
    ints = np.stack([b_t, h_t, r, stat_idx, np.where(own, b_t, batch)])
    flags = np.stack([
        fused, has_l3, s[0], s[1], s[2], s[3], s[4], s_any, v_flash,
        v_pipe, own, own & s_any, own & s[0], own & s[1], own & s[3],
    ])
    ints.flags.writeable = flags.flags.writeable = False
    first: Dict[DataflowFamily, int] = {}
    for fi, family in enumerate(families):
        first.setdefault(family, fi)
    return SpaceTable(
        space=space,
        families=families,
        sizes=sizes,
        offsets=offsets,
        total=total,
        features=_GridFeatures.from_columns(ints, flags),
        first_family=first,
    )
