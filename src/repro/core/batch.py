"""Vectorized batch evaluation of the DSE candidate grid.

Timeloop-class cost models get their throughput from evaluating mapping
spaces as *array programs* rather than one candidate at a time.  This
module does the same for the FLAT model: :func:`evaluate_grid` takes an
:class:`~repro.ops.attention.AttentionConfig`, an
:class:`~repro.arch.accelerator.Accelerator` and the entire enumerated
candidate grid, lays the per-candidate dataflow features out as
structure-of-arrays, and computes cycles / DRAM bytes / footprint /
objective scores for all points in a handful of NumPy operations.

The contract is **bit-for-bit equality with the scalar path**: the same
ceil quantization, the same spill accounting, the same phase-max
overlap, evaluated with the very same shape-polymorphic helpers
(:mod:`repro.core.perf`, :mod:`repro.core.tiling`,
:mod:`repro.core.footprint`) the scalar model runs — one source of
truth, two execution shapes.  ``np.argmin`` over the score array picks
the first index attaining the minimum, which is exactly the engine's
index-ordered strictly-less scan, so tie-breaking is preserved too.

Why exactness holds: every elementary operation appears in the same
order with the same operands in both paths, so IEEE-754 rounds it the
same way.  The only divergence float64 arrays could introduce is in
*integer* arithmetic, where Python is arbitrary-precision: an int
product or sum above 2**53 stays exact in the scalar path but rounds
in the array path.  :class:`BatchFallback` guards that boundary — a
static MAC ceiling per operator bounds every factor, footprints are
checked before the staging division, and the aggregated DRAM element
sums are verified after the fact (sums of non-negative exact terms
whose total stays below 2**52 were themselves computed exactly).
Workloads beyond the guard simply take the scalar path.

The scalar model still exists for two reasons: it produces the full
:class:`~repro.core.perf.OperatorCost` breakdown (the batch path keeps
only what the objectives need), and it has no exactness ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.arch.accelerator import Accelerator
from repro.core.dataflow import AttentionVariant, Dataflow, Stationarity
from repro.core.dataflow import base as base_dataflow
from repro.core.footprint import fused_la_elements, operator_l3_elements
from repro.core.perf import (
    PerfOptions,
    _allocate_staging,
    _blend_passes,
    _compute_cycles_from_eff,
    _phase_time,
    _psum_passes_from_ko,
    _strict_axis_eff,
    _warmup_cycles,
    partition_scratchpad,
    sg_stream_words,
)
from repro.core.tiling import ceil_div, choose_l2_tile, reuse_passes
from repro.energy.model import _PJ
from repro.energy.tables import EnergyTable, default_table
from repro.obs.metrics import active as _metrics_active
from repro.ops.attention import AttentionConfig, Scope, operators_for_scope
from repro.ops.operator import GemmOperator, OperatorKind

__all__ = [
    "BatchFallback",
    "GridEvaluation",
    "evaluate_grid",
    "best_index",
]

# Largest per-operator MAC count the exactness argument covers: it
# bounds every cold-traffic factor below 2**53 (exact float64
# conversion) and keeps int64 intermediates far from overflow.
_MAX_EXACT_MACS = 2 ** 50
# Ceiling on the aggregated DRAM element sum (pre-replication): below
# this, every partial sum of the non-negative integer-valued terms was
# < 2**53 and therefore added exactly, matching Python's integers.
_MAX_EXACT_SUM = float(2 ** 52)
# Ceiling on footprint bytes entering the staging-fit division, where
# numpy converts the int operand to float64 before dividing.
_MAX_EXACT_INT = float(2 ** 53)

_STAT_INDEX = {
    Stationarity.OUTPUT: 0,
    Stationarity.WEIGHT: 1,
    Stationarity.INPUT: 2,
}


class BatchFallback(RuntimeError):
    """This grid cannot be batch-evaluated exactly; use the scalar path."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        # Counters only (this module is cache-fingerprinted, so no
        # timing dependencies belong here); every raise site uses a
        # fixed reason string, giving a stable per-reason breakdown.
        registry = _metrics_active()
        if registry is not None:
            registry.counter("batch.fallbacks").inc()
            registry.counter(f"batch.fallback[{reason}]").inc()


@dataclass(frozen=True)
class GridEvaluation:
    """Structure-of-arrays cost of every candidate, in enumeration order.

    Each field is a length-``n`` ndarray aligned with the dataflow list
    passed to :func:`evaluate_grid`.  The activity-count fields mirror
    :class:`~repro.energy.model.ActivityCounts` (already scaled by the
    scope's replication, like ``ScopeCost.counts``).
    """

    total_cycles: "np.ndarray"
    dram_bytes: "np.ndarray"
    footprint_bytes: "np.ndarray"
    macs: "np.ndarray"
    sl_words: "np.ndarray"
    sg_words: "np.ndarray"
    dram_words: "np.ndarray"
    sfu_ops: "np.ndarray"

    def __len__(self) -> int:
        return int(self.total_cycles.shape[0])

    def objective_scores(
        self,
        objective: "Objective",
        energy_table: Optional[EnergyTable] = None,
    ) -> "np.ndarray":
        """Per-candidate objective values, mirroring ``Objective.score``.

        The energy objectives replay ``energy_report``'s arithmetic
        term by term (same association order), so the scores equal the
        scalar path's bit for bit.
        """
        from repro.core.dse import Objective

        if objective is Objective.RUNTIME:
            return self.total_cycles
        if objective is Objective.FOOTPRINT:
            return self.footprint_bytes.astype(float)
        table = energy_table if energy_table is not None else default_table()
        compute_j = self.macs * table.pj_per_mac * _PJ
        sl_j = self.sl_words * table.pj_per_sl_word * _PJ
        sg_j = self.sg_words * table.pj_per_sg_word * _PJ
        dram_j = self.dram_words * table.pj_per_dram_word * _PJ
        sfu_j = self.sfu_ops * table.pj_per_sfu_op * _PJ
        total_j = compute_j + sl_j + sg_j + dram_j + sfu_j
        if objective is Objective.ENERGY:
            return total_j
        return total_j * self.total_cycles  # EDP


def best_index(scores: "np.ndarray") -> int:
    """First index attaining the minimum score.

    ``np.argmin`` returns the first occurrence of the minimum, which is
    identical to the engine's index-ordered scan with strictly-less
    updates — enumeration-order tie-breaking for free.
    """
    return int(np.argmin(scores))


# ----------------------------------------------------------------------
# per-candidate dataflow features (structure of arrays)
# ----------------------------------------------------------------------
class _GridFeatures:
    """Columnar view of the candidate dataflows.

    ``o_*`` columns describe the *other* dataflow the engine's default
    ``cost_scope`` call would run the non-L-A operators with: the
    candidate itself when it is unfused with an L3 tile, otherwise
    plain Base at the candidate's stationarity.
    """

    def __init__(self, cfg: AttentionConfig,
                 dataflows: Sequence[Dataflow]) -> None:
        n = len(dataflows)
        self.fused = np.empty(n, dtype=bool)
        self.has_l3 = np.empty(n, dtype=bool)
        self.b_t = np.empty(n, dtype=np.int64)
        self.h_t = np.empty(n, dtype=np.int64)
        self.r = np.empty(n, dtype=np.int64)
        self.s_lhs = np.empty(n, dtype=bool)
        self.s_rhs = np.empty(n, dtype=bool)
        self.s_rhs2 = np.empty(n, dtype=bool)
        self.s_out = np.empty(n, dtype=bool)
        self.s_int = np.empty(n, dtype=bool)
        self.s_any = np.empty(n, dtype=bool)
        self.v_flash = np.empty(n, dtype=bool)
        self.v_pipe = np.empty(n, dtype=bool)
        self.stat_idx = np.empty(n, dtype=np.int64)
        self.o_b_t = np.empty(n, dtype=np.int64)
        self.o_gran = np.empty(n, dtype=bool)
        self.o_any = np.empty(n, dtype=bool)
        self.o_lhs = np.empty(n, dtype=bool)
        self.o_rhs = np.empty(n, dtype=bool)
        self.o_out = np.empty(n, dtype=bool)
        for i, df in enumerate(dataflows):
            self.fused[i] = df.fused
            self.has_l3[i] = df.has_l3
            b_t, h_t, r = df.cross_tile(cfg.batch, cfg.heads, cfg.seq_q)
            self.b_t[i] = b_t
            self.h_t[i] = h_t
            self.r[i] = r
            s = df.staging
            self.s_lhs[i] = s.lhs
            self.s_rhs[i] = s.rhs
            self.s_rhs2[i] = s.rhs2
            self.s_out[i] = s.out
            self.s_int[i] = s.intermediate
            self.s_any[i] = s.any_enabled
            self.v_flash[i] = df.variant is AttentionVariant.FLASH_D
            self.v_pipe[i] = df.variant is AttentionVariant.FUSEMAX
            self.stat_idx[i] = _STAT_INDEX[df.stationarity]
            if df.fused or df.granularity is None:
                other = base_dataflow(df.stationarity)
            else:
                other = df
            # ``other`` is never row-granular (row granularity requires
            # fusion), so its cross tile is independent of the operator
            # m it will slice.
            o_b_t, _, _ = other.cross_tile(cfg.batch, cfg.heads, cfg.seq_q)
            self.o_b_t[i] = o_b_t
            self.o_gran[i] = other.granularity is not None
            o_s = other.staging
            self.o_any[i] = o_s.any_enabled
            self.o_lhs[i] = o_s.lhs
            self.o_rhs[i] = o_s.rhs
            self.o_out[i] = o_s.out
        self.is_output = self.stat_idx == 0


@dataclass(frozen=True)
class _OpArrays:
    """One operator's cost over all candidates (plus count constants)."""

    total_cycles: "np.ndarray"
    dram_bytes: "np.ndarray"
    dram_words: "np.ndarray"
    sg_words: object  # ndarray, or a float constant across candidates
    footprint_bytes: "np.ndarray"
    macs: float
    sl_words: float
    sfu_ops: object  # ndarray (variant-dependent), or a float constant


def _check_footprint(fp_bytes: "np.ndarray") -> None:
    if float(fp_bytes.max()) >= _MAX_EXACT_INT:
        raise BatchFallback(
            "staged footprint exceeds the float64-exact range"
        )


def _tile_luts(unique_keys, lut_index, build):
    """Fancy-index per-candidate arrays out of per-unique-key records.

    ``choose_l2_tile``/``reuse_passes`` are scalar (and lru-cached); a
    grid has only a handful of distinct ``(r, l2_budget)`` keys, so the
    tile search runs once per key and gathers back out to all lanes.
    """
    records = [build(key) for key in unique_keys]
    columns = []
    for j in range(len(records[0])):
        dtype = np.int64 if isinstance(records[0][j], int) else float
        columns.append(
            np.asarray([rec[j] for rec in records], dtype=dtype)[lut_index]
        )
    return columns


def _unique_index(keys: List) -> (
    "tuple[List, np.ndarray]"
):
    order = {}
    lut_index = np.empty(len(keys), dtype=np.intp)
    for i, key in enumerate(keys):
        slot = order.get(key)
        if slot is None:
            slot = len(order)
            order[key] = slot
        lut_index[i] = slot
    return list(order), lut_index


# ----------------------------------------------------------------------
# the L-A pair, vectorized (mirrors perf.cost_la_pair line by line)
# ----------------------------------------------------------------------
def _evaluate_la_pair(
    cfg: AttentionConfig,
    accel: Accelerator,
    options: PerfOptions,
    f: _GridFeatures,
) -> _OpArrays:
    b, h = cfg.batch, cfg.heads
    nq, nkv, dk = cfg.seq_q, cfg.seq_kv, cfg.d_head
    e = accel.bytes_per_element
    rows_pe, cols_pe = accel.pe_array.rows, accel.pe_array.cols

    staged = f.has_l3
    fp_lhs, fp_rhs, fp_rhs2, fp_out, fp_int = fused_la_elements(
        f.b_t, f.h_t, f.r, dk, nkv,
        f.s_lhs & staged, f.s_rhs & staged, f.s_rhs2 & staged,
        f.s_out & staged, f.s_int & staged,
    )
    fp_total = fp_lhs + fp_rhs + fp_rhs2 + fp_out + fp_int
    fp_bytes = fp_total * e
    _check_footprint(fp_bytes)
    budget = partition_scratchpad(
        fp_bytes, staged & f.s_any, accel, options
    )

    row_passes = ceil_div(nq, f.r)
    n_pass = ceil_div(b, f.b_t) * ceil_div(h, f.h_t) * row_passes
    n_pass_f = n_pass.astype(float)

    def build(key):
        r_i, l2_i = key
        tile_l = choose_l2_tile(r_i, dk, nkv, l2_i, rows_pe, cols_pe)
        tile_a = choose_l2_tile(r_i, nkv, dk, l2_i, rows_pe, cols_pe)
        passes_l = reuse_passes(r_i, dk, nkv, tile_l)
        passes_a = reuse_passes(r_i, nkv, dk, tile_a)
        return (
            passes_l.lhs_passes,
            passes_l.rhs_passes,
            passes_a.rhs_passes,
            ceil_div(nkv, tile_a.tk),
            float(
                (tile_l.footprint_elements() + tile_a.footprint_elements())
                * e
            ),
        )

    unique_keys, lut_index = _unique_index(
        list(zip(f.r.tolist(), budget.l2_budget_elements.tolist()))
    )
    l_lhs, l_rhs, a_rhs, ko_a, warmup_cap = _tile_luts(
        unique_keys, lut_index, build
    )

    q_cold = b * h * nq * dk
    k_cold = b * h * nkv * dk
    v_cold = b * h * nkv * dk
    out_cold = b * h * nq * dk
    int_cold = b * h * nq * nkv

    fit_int, fit_k, fit_v, fit_q, fit_out = _allocate_staging(
        [
            fp_int.astype(float) * e,
            fp_rhs.astype(float) * e,
            fp_rhs2.astype(float) * e,
            fp_lhs.astype(float) * e,
            fp_out.astype(float) * e,
        ],
        budget.staging_budget_bytes,
    )

    extra = options.spill_extra_pass_only
    q_mult = _blend_passes(staged & f.s_lhs, fit_q, l_lhs, extra)
    k_mult = _blend_passes(
        staged & f.s_rhs, fit_k, row_passes * l_rhs, extra
    )
    v_mult = _blend_passes(
        staged & f.s_rhs2, fit_v, row_passes * a_rhs, extra
    )
    out_mult = _blend_passes(
        staged & f.s_out, fit_out,
        _psum_passes_from_ko(ko_a, f.is_output).astype(float), extra,
    )
    int_offchip = np.where(staged & f.s_int, 1.0 - fit_int, 1.0)

    macs_l = b * h * nq * nkv * dk
    macs_a = b * h * nq * nkv * dk
    if options.flexible_mapping:
        # Both stages fold the same iteration space (r*dk*nkv per
        # instance), so they share one quantization efficiency.
        space = f.r * dk * nkv * (f.b_t * f.h_t)
        pes = accel.pe_array.num_pes
        eff_l = space / (pes * ceil_div(space, pes))
        eff_a = eff_l
    else:
        eff_r_rows = _strict_axis_eff(f.r, rows_pe)
        eff_l = np.where(
            f.stat_idx == 0,
            eff_r_rows * _strict_axis_eff(nkv, cols_pe),
            np.where(
                f.stat_idx == 1,
                _strict_axis_eff(dk, rows_pe)
                * _strict_axis_eff(nkv, cols_pe),
                eff_r_rows * _strict_axis_eff(dk, cols_pe),
            ),
        )
        eff_a = np.where(
            f.stat_idx == 0,
            eff_r_rows * _strict_axis_eff(dk, cols_pe),
            np.where(
                f.stat_idx == 1,
                _strict_axis_eff(nkv, rows_pe)
                * _strict_axis_eff(dk, cols_pe),
                eff_r_rows * _strict_axis_eff(nkv, cols_pe),
            ),
        )
    compute_l = _compute_cycles_from_eff(macs_l, eff_l, n_pass_f, accel,
                                         options)
    compute_a = _compute_cycles_from_eff(macs_a, eff_a, n_pass_f, accel,
                                         options)
    softmax_cycles = accel.sfu.softmax_cycles(int_cold)

    dram_l_inputs = q_cold * q_mult + k_cold * k_mult
    dram_a_inputs = v_cold * v_mult + out_cold * out_mult
    sg_base_l = sg_stream_words(macs_l, accel)
    sg_base_a = sg_stream_words(macs_a, accel) + out_cold

    # Fused: one interleaved phase plus the softmax spill phase.  The
    # spill phase contributes exactly zero time/traffic when nothing
    # spills (``x + 0.0 == x``), so it can be added unconditionally.
    # Attention variants restructure only the fused softmax term, with
    # each np.where branch computed by the exact scalar-path operations
    # (FLASH-D swaps in flashd_cycles; FuseMax takes max instead of
    # sum), so bit-equality with cost_la_pair is preserved per lane.
    flashd = accel.sfu.flashd_cycles(int_cold, out_cold)
    sm_fused = np.where(f.v_flash, flashd, softmax_cycles)
    int_spill = int_cold * int_offchip
    fused_dram_main = dram_l_inputs + dram_a_inputs + 2.0 * int_spill
    fused_sg = sg_base_l + sg_base_a
    fused_busy = np.where(
        f.v_pipe,
        np.maximum(compute_l + compute_a, sm_fused),
        (compute_l + compute_a) + sm_fused,
    )
    fused_steady = _phase_time(
        fused_busy, fused_dram_main, fused_sg, accel,
    ) + _phase_time(0.0, 2.0 * int_spill, 0.0, accel)
    fused_dram = fused_dram_main + 2.0 * int_spill

    # Unfused: three serial phases (L, softmax, A).
    unf_dram_l = dram_l_inputs + int_cold * int_offchip
    unf_dram_sm = 2.0 * int_cold * int_offchip
    unf_dram_a = dram_a_inputs + int_cold * int_offchip
    unf_steady = (
        _phase_time(compute_l, unf_dram_l, sg_base_l + int_cold, accel)
        + _phase_time(softmax_cycles, unf_dram_sm, 0.0, accel)
    ) + _phase_time(compute_a, unf_dram_a, sg_base_a + int_cold, accel)
    unf_dram = (unf_dram_l + unf_dram_sm) + unf_dram_a
    unf_sg = (sg_base_l + int_cold) + (sg_base_a + int_cold)

    steady = np.where(f.fused, fused_steady, unf_steady)
    dram_words = np.where(f.fused, fused_dram, unf_dram)
    sg_words = np.where(f.fused, fused_sg, unf_sg)
    dram_bytes = dram_words * e
    warmup = _warmup_cycles(dram_bytes, n_pass_f, warmup_cap, f.fused,
                            accel, options)
    macs = macs_l + macs_a
    # FLASH-D does less SFU arithmetic; the energy accounting mirrors
    # the scalar path's per-variant flop count (floats either way).
    sfu_ops = np.where(
        f.v_flash,
        float(accel.sfu.flashd_flops(int_cold, out_cold)),
        float(accel.sfu.softmax_flops(int_cold)),
    )
    return _OpArrays(
        total_cycles=steady + warmup,
        dram_bytes=dram_bytes,
        dram_words=dram_words,
        sg_words=sg_words,
        footprint_bytes=fp_bytes,
        macs=float(macs),
        sl_words=2.0 * macs + out_cold,
        sfu_ops=sfu_ops,
    )


# ----------------------------------------------------------------------
# non-L-A operators, vectorized (mirrors perf.cost_operator)
# ----------------------------------------------------------------------
def _evaluate_operator(
    cfg: AttentionConfig,
    op: GemmOperator,
    accel: Accelerator,
    options: PerfOptions,
    f: _GridFeatures,
) -> _OpArrays:
    e = accel.bytes_per_element
    rows_pe, cols_pe = accel.pe_array.rows, accel.pe_array.cols

    # The footprint is zero without an L3 tile or with staging fully
    # disabled (operator_l3_footprint's early return); blending below
    # uses the raw staging flags, exactly like cost_operator.
    fp_mask = f.o_gran & f.o_any
    lhs_e, rhs_e, out_e = operator_l3_elements(
        f.o_b_t, op.m, op.k, op.n, op.rhs.role.is_weight,
        f.o_lhs & fp_mask, f.o_rhs & fp_mask, f.o_out & fp_mask,
    )
    fp_total = lhs_e + rhs_e + out_e
    fp_bytes = fp_total * e
    _check_footprint(fp_bytes)
    budget = partition_scratchpad(fp_bytes, f.o_any, accel, options)

    inst_passes = ceil_div(op.instances, f.o_b_t)
    n_pass = inst_passes * ceil_div(op.m, op.m)
    n_pass_f = n_pass.astype(float)

    def build(l2_i):
        tile = choose_l2_tile(op.m, op.k, op.n, l2_i, rows_pe, cols_pe)
        passes = reuse_passes(op.m, op.k, op.n, tile)
        return (
            passes.lhs_passes,
            passes.rhs_passes,
            passes.out_passes,
            ceil_div(op.k, tile.tk),
            float(tile.footprint_elements() * e),
        )

    unique_keys, lut_index = _unique_index(
        budget.l2_budget_elements.tolist()
    )
    lhs_p, rhs_p, out_p, ko, warmup_cap = _tile_luts(
        unique_keys, lut_index, build
    )
    out_l2 = _psum_passes_from_ko(ko, f.is_output)

    fit = budget.fit_fraction
    extra = options.spill_extra_pass_only
    lhs_mult = _blend_passes(f.o_lhs, fit, lhs_p, extra)
    rhs_l2 = ceil_div(op.m, op.m) * rhs_p
    if op.rhs.role.is_weight:
        rhs_mult = _blend_passes(f.o_rhs, fit, rhs_l2 * inst_passes, extra)
    else:
        rhs_mult = _blend_passes(f.o_rhs, fit, rhs_l2, extra)
    out_mult = _blend_passes(
        f.o_out, fit, np.maximum(out_p, out_l2).astype(float), extra
    )

    dram_words = (
        op.lhs.num_elements * lhs_mult
        + op.rhs.num_elements * rhs_mult
        + op.out.num_elements * out_mult
    )
    if options.flexible_mapping:
        space = op.m * op.k * op.n * f.o_b_t
        pes = accel.pe_array.num_pes
        eff = space / (pes * ceil_div(space, pes))
    else:
        eff = np.asarray([
            _strict_axis_eff(op.m, rows_pe) * _strict_axis_eff(op.n, cols_pe),
            _strict_axis_eff(op.k, rows_pe) * _strict_axis_eff(op.n, cols_pe),
            _strict_axis_eff(op.m, rows_pe) * _strict_axis_eff(op.k, cols_pe),
        ])[f.stat_idx]
    compute = _compute_cycles_from_eff(op.macs, eff, n_pass_f, accel,
                                       options)
    sg_words = sg_stream_words(op.macs, accel) + op.out.num_elements
    steady = _phase_time(compute, dram_words, sg_words, accel)
    dram_bytes = dram_words * e
    warmup = _warmup_cycles(dram_bytes, n_pass_f, warmup_cap, False,
                            accel, options)
    return _OpArrays(
        total_cycles=steady + warmup,
        dram_bytes=dram_bytes,
        dram_words=dram_words,
        sg_words=sg_words,
        footprint_bytes=fp_bytes,
        macs=float(op.macs),
        sl_words=2.0 * op.macs + op.out.num_elements,
        sfu_ops=0.0,
    )


# ----------------------------------------------------------------------
# whole-scope grid evaluation
# ----------------------------------------------------------------------
def evaluate_grid(
    cfg: AttentionConfig,
    scope: Scope,
    accel: Accelerator,
    dataflows: Sequence[Dataflow],
    options: PerfOptions = PerfOptions(),
) -> GridEvaluation:
    """Cost every candidate dataflow of a scope in one vectorized pass.

    Mirrors ``cost_scope(cfg, scope, accel, df, options=options)`` for
    each ``df`` (with the default *other* dataflow derivation), summing
    operator costs in the same order with the same association, so the
    results equal the scalar path's bit for bit.

    Raises :class:`BatchFallback` when the scope contains operator
    shapes the vectorization does not cover, or when a workload is
    large enough that float64 could round integer arithmetic Python
    would keep exact.
    """
    dataflows = list(dataflows)
    if not dataflows:
        raise ValueError("evaluate_grid needs at least one candidate")
    registry = _metrics_active()
    if registry is not None:
        registry.counter("batch.grids").inc()
        registry.histogram("batch.grid_points").observe(len(dataflows))

    ops = operators_for_scope(cfg, scope)
    plan: List[Optional[GemmOperator]] = []
    i = 0
    while i < len(ops):
        op = ops[i]
        if (
            op.kind is OperatorKind.LOGIT
            and i + 1 < len(ops)
            and ops[i + 1].kind is OperatorKind.ATTEND
        ):
            plan.append(None)  # the L-A pair
            if 2 * op.macs >= _MAX_EXACT_MACS:
                raise BatchFallback(
                    "L-A pair exceeds the float64-exact range"
                )
            i += 2
            continue
        if op.is_activation_activation or op.softmax_after:
            # A standalone L or A (cross-scope slicing) never occurs in
            # the enumerated scopes; keep the scalar path authoritative.
            raise BatchFallback(
                "standalone activation-activation operators take the "
                "scalar path"
            )
        if op.macs >= _MAX_EXACT_MACS:
            raise BatchFallback(
                "operator exceeds the float64-exact range"
            )
        plan.append(op)
        i += 1

    f = _GridFeatures(cfg, dataflows)
    n = len(dataflows)
    total_cycles = np.zeros(n)
    dram_bytes = np.zeros(n)
    dram_words = np.zeros(n)
    sg_words = np.zeros(n)
    macs = 0.0
    sl_words = 0.0
    sfu_ops = 0.0
    footprint: Optional["np.ndarray"] = None
    for entry in plan:
        if entry is None:
            res = _evaluate_la_pair(cfg, accel, options, f)
        else:
            res = _evaluate_operator(cfg, entry, accel, options, f)
        total_cycles = total_cycles + res.total_cycles
        dram_bytes = dram_bytes + res.dram_bytes
        dram_words = dram_words + res.dram_words
        sg_words = sg_words + res.sg_words
        macs = macs + res.macs
        sl_words = sl_words + res.sl_words
        sfu_ops = sfu_ops + res.sfu_ops
        footprint = (
            res.footprint_bytes if footprint is None
            else np.maximum(footprint, res.footprint_bytes)
        )
    if float(np.max(dram_words)) >= _MAX_EXACT_SUM:
        raise BatchFallback(
            "aggregated DRAM traffic exceeds the float64-exact range"
        )

    replication = cfg.num_blocks if scope is Scope.MODEL else 1
    if isinstance(sfu_ops, np.ndarray):
        sfu_col = sfu_ops * replication
    else:
        sfu_col = np.full(n, sfu_ops * replication)
    return GridEvaluation(
        total_cycles=replication * total_cycles,
        dram_bytes=replication * dram_bytes,
        footprint_bytes=footprint,
        macs=np.full(n, macs * replication),
        sl_words=np.full(n, sl_words * replication),
        sg_words=sg_words * replication,
        dram_words=dram_words * replication,
        sfu_ops=sfu_col,
    )
