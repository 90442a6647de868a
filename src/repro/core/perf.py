"""Analytical performance model (paper section 5.3.1).

Models the runtime of attention operators on a spatial accelerator under
any :class:`~repro.core.dataflow.Dataflow`, fused or not.  The model has
the same three parts the paper describes:

* **Compute model** — MACs mapped onto the PE array with the chosen
  stationarity; quantization (ceil) losses, NoC fill/drain per tile
  switch, and the SFU softmax on the critical path between L and A.
* **Buffer model** — the scratchpad is soft-partitioned into a
  double-buffered L2 working set plus the FLAT-/L3-tile staging region;
  staged tensors that do not fit spill, and the spilled fraction incurs
  one extra off-chip pass (the Base-M-below-Base effect of Figure 8).
* **Memory-bandwidth model** — per-tensor off-chip traffic is the cold
  (compulsory) volume times a reuse-pass multiplier derived from the L2
  tiling; within an execution *phase*, compute, off-chip and on-chip
  streams overlap via double buffering, so the phase takes the max of
  the three, plus a warm-up prefetch bounded by the scratchpad capacity
  (one cannot prefetch further ahead than the buffer can hold).

Execution is phase-structured.  A fused (FLAT) L-A is **one** phase —
L-stage compute, softmax and A-stage compute interleave with the
prefetch of the next FLAT-tile.  An *unfused* L-A is **three** serial
phases — L to completion, a softmax pass (the PE array idles), then A —
which is precisely the baseline behavior FLAT removes (Figure 4).

Everything is closed-form — no loops over tiles — so a full DSE over
thousands of design points runs in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as _np

from repro.arch.accelerator import Accelerator
from repro.core.dataflow import AttentionVariant, Dataflow, Stationarity
from repro.core.footprint import fused_la_footprint, operator_l3_footprint
from repro.core.tiling import TilePlan, ceil_div, tile_plan
from repro.energy.model import ActivityCounts
from repro.ops.attention import AttentionConfig, Scope, operators_for_scope
from repro.ops.operator import GemmOperator, OperatorKind


def _any_array(*values) -> bool:
    return any(isinstance(v, _np.ndarray) for v in values)


def _where(cond, if_true, if_false):
    """``np.where`` for arrays, a plain branch for scalars."""
    if _any_array(cond, if_true, if_false):
        return _np.where(cond, if_true, if_false)
    return if_true if cond else if_false


def _minimum(a, b):
    if _any_array(a, b):
        return _np.minimum(a, b)
    return min(a, b)


def _maximum(a, b):
    if _any_array(a, b):
        return _np.maximum(a, b)
    return max(a, b)


__all__ = [
    "PerfOptions",
    "OperatorCost",
    "ScopeCost",
    "StagingBudget",
    "cost_operator",
    "cost_fused_la",
    "cost_la_pair",
    "cost_scope",
    "la_pair_compute_cycles",
    "partition_scratchpad",
    "l2_reserve_bytes",
    "sg_stream_words",
    "L2_RESERVE_FRACTION",
    "MIN_L2_RESERVE_BYTES",
    "FUSED_WARMUP_CREDIT",
]

#: Share of the scratchpad reserved for the double-buffered L2 working
#: set while L3/FLAT staging is active (see :func:`l2_reserve_bytes`).
L2_RESERVE_FRACTION = 0.125
#: Floor on that reserve, in bytes.
MIN_L2_RESERVE_BYTES = 4096
#: Interleaved execution fetches the next FLAT-tile across *two* stages
#: (paper section 5.1, feature 2), halving the exposed warm-up latency
#: of fused operators.
FUSED_WARMUP_CREDIT = 0.5


@dataclass(frozen=True)
class PerfOptions:
    """Model knobs that belong to the accelerator *policy*, not the HW.

    Parameters
    ----------
    flexible_mapping:
        Flexible accelerators (MAERI-class; FlexAccel/ATTACC in Figure
        7(c)) can fold a GEMM's output space arbitrarily onto the array,
        so spatial loss is pure ceil quantization.  Rigid accelerators
        (BaseAccel) map GEMM rows/cols onto array rows/cols directly and
        strand PEs when a dimension is smaller than the array edge.
    spill_extra_pass_only:
        Accounting for a staged tensor that does not fully fit.  The
        default (``False``) re-streams the spilled fraction once per
        reuse scope plus "one extra pass of memory access" (section
        6.2.1) — the physically honest model, which reproduces the
        Base-M-below-Base dip of Figure 8 and the post-8K bandwidth
        blow-up of Figure 12(b).  ``True`` switches to the lenient
        literal reading (the spilled fraction costs exactly one extra
        pass, two total), which flatters partially staged fine-grained
        dataflows.
    """

    flexible_mapping: bool = True
    spill_extra_pass_only: bool = False


@dataclass(frozen=True)
class OperatorCost:
    """Cost-model output for one (possibly fused) operator."""

    name: str
    total_cycles: float
    ideal_cycles: float
    compute_cycles: float
    softmax_cycles: float
    dram_cycles: float
    sg_cycles: float
    dram_bytes: float
    sg_bytes: float
    footprint_bytes: int
    counts: ActivityCounts

    def __post_init__(self) -> None:
        if self.total_cycles <= 0:
            raise ValueError(f"{self.name}: total_cycles must be positive")
        if self.ideal_cycles < 0:
            raise ValueError(f"{self.name}: ideal_cycles must be non-negative")

    @property
    def utilization(self) -> float:
        """``Util = Runtime_ideal / Runtime_actual`` (paper section 6.1)."""
        return self.ideal_cycles / self.total_cycles

    def runtime_s(self, accel: Accelerator) -> float:
        return accel.cycles_to_seconds(self.total_cycles)


@dataclass(frozen=True)
class ScopeCost:
    """Aggregated cost over a list of sequentially executed operators."""

    operator_costs: List[OperatorCost]
    replication: int = 1

    def __post_init__(self) -> None:
        if not self.operator_costs:
            raise ValueError("ScopeCost needs at least one operator")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")

    @property
    def total_cycles(self) -> float:
        return self.replication * sum(c.total_cycles for c in self.operator_costs)

    @property
    def ideal_cycles(self) -> float:
        return self.replication * sum(c.ideal_cycles for c in self.operator_costs)

    @property
    def utilization(self) -> float:
        return self.ideal_cycles / self.total_cycles

    @property
    def dram_bytes(self) -> float:
        return self.replication * sum(c.dram_bytes for c in self.operator_costs)

    @property
    def counts(self) -> ActivityCounts:
        """The operators' counts summed field by field in one pass (the
        same order and ``0.0`` start as folding ``ActivityCounts.__add__``,
        so bit-equal to it), times ``replication``."""
        macs = sl_words = sg_words = dram_words = sfu_ops = 0.0
        for c in self.operator_costs:
            k = c.counts
            macs += k.macs
            sl_words += k.sl_words
            sg_words += k.sg_words
            dram_words += k.dram_words
            sfu_ops += k.sfu_ops
        return ActivityCounts(
            macs=macs, sl_words=sl_words, sg_words=sg_words,
            dram_words=dram_words, sfu_ops=sfu_ops,
        ).scaled(self.replication)

    @property
    def max_footprint_bytes(self) -> int:
        return max(c.footprint_bytes for c in self.operator_costs)

    def runtime_s(self, accel: Accelerator) -> float:
        return accel.cycles_to_seconds(self.total_cycles)


# ----------------------------------------------------------------------
# compute model
# ----------------------------------------------------------------------
def _strict_axis_eff(dim, phys):
    """Spatial efficiency of mapping ``dim`` onto a ``phys``-wide axis.

    One formula covers both regimes (shape-polymorphic in ``dim``):
    when ``dim < phys`` the ceil term is 1 and this reduces to the
    partial-fill ratio ``dim / phys``.
    """
    return dim / (phys * ceil_div(dim, phys))


def _spatial_dims(m: int, k: int, n: int, stationarity: Stationarity):
    """The two GEMM dims mapped spatially under each stationarity."""
    if stationarity is Stationarity.OUTPUT:
        return m, n
    if stationarity is Stationarity.WEIGHT:
        return k, n
    return m, k


def _mapping_efficiency(
    m: int, k: int, n: int, stationarity: Stationarity,
    accel: Accelerator, options: PerfOptions, instances: int = 1,
) -> float:
    """Fraction of peak MACs the array sustains on this GEMM.

    Flexible (MAERI-class) arrays fold the *entire* per-pass iteration
    space — including the reduction (k) dimension, parallelized through
    the reduction tree, and multiple GEMM instances side by side — so
    their only loss is ceil quantization of that space over the PEs.
    Rigid arrays map two loop dimensions onto the physical grid and
    strand PEs whenever a mapped dimension is narrower than the array
    edge.
    """
    if options.flexible_mapping:
        space = m * k * n * instances
        pes = accel.pe_array.num_pes
        return space / (pes * ceil_div(space, pes))
    d1, d2 = _spatial_dims(m, k, n, stationarity)
    return _strict_axis_eff(d1, accel.pe_array.rows) * _strict_axis_eff(
        d2, accel.pe_array.cols
    )


def _compute_cycles(
    macs: int, m: int, k: int, n: int, stationarity: Stationarity,
    accel: Accelerator, options: PerfOptions, tile_switches: float,
    instances: int = 1,
) -> float:
    """Cycles of PE-array time for ``macs`` total MACs plus fill/drain.

    Flexible accelerators double-buffer operands inside the PEs, so the
    array pipeline refills only once per operator stage; rigid arrays
    drain and refill on every tile switch ("the cold start and tailing
    effect", section 5.3.1).
    """
    eff = _mapping_efficiency(m, k, n, stationarity, accel, options,
                              instances)
    return _compute_cycles_from_eff(macs, eff, tile_switches, accel, options)


def _compute_cycles_from_eff(macs, eff, tile_switches, accel, options):
    """Compute-phase cycles given a mapping efficiency (polymorphic core)."""
    fill = accel.noc.fill_drain_cycles(accel.pe_array.rows, accel.pe_array.cols)
    switches = (
        _minimum(1.0, tile_switches) if options.flexible_mapping
        else tile_switches
    )
    return macs / (accel.peak_macs_per_cycle * eff) + switches * fill


def _psum_out_passes(k: int, tile: TilePlan,
                     stationarity: Stationarity) -> int:
    """Output read-modify-write passes due to partial-sum spilling.

    With an output-stationary array the accumulator lives in the PE for
    the whole temporal k loop — one write, ever.  Weight-/input-
    stationary arrays spill partial sums per k-tile ("the space for the
    partial sum is often an unignorable overhead", section 5.3.1).
    """
    return _psum_passes_from_ko(
        ceil_div(k, tile.tk), stationarity is Stationarity.OUTPUT
    )


def _psum_passes_from_ko(ko, output_stationary):
    """Partial-sum output passes from the temporal k split (polymorphic)."""
    if _any_array(ko, output_stationary):
        return _np.where(
            output_stationary, 1, _np.where(ko == 1, 1, 2 * ko - 1)
        )
    if output_stationary:
        return 1
    return 1 if ko == 1 else 2 * ko - 1


# ----------------------------------------------------------------------
# buffer / staging model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StagingBudget:
    """SG partition for one operator execution."""

    l2_budget_elements: int
    staging_budget_bytes: int
    fit_fraction: float  # 1.0 = everything staged fits


def l2_reserve_bytes(sg_bytes: int) -> int:
    """Scratchpad bytes kept for the double-buffered L2 working set
    while L3/FLAT staging is active: :data:`L2_RESERVE_FRACTION` of the
    scratchpad, at least :data:`MIN_L2_RESERVE_BYTES`, and never more
    than half of it."""
    reserve = max(MIN_L2_RESERVE_BYTES, int(sg_bytes * L2_RESERVE_FRACTION))
    return min(reserve, sg_bytes // 2)


def partition_scratchpad(
    footprint_bytes: int, staging_active: bool, accel: Accelerator,
) -> StagingBudget:
    """Split the scratchpad into L2 working set and staging region
    (:func:`l2_reserve_bytes` goes to L2 while staging is active).

    Public because the DSE engine's admissible lower bounds
    (:mod:`repro.core.engine`) reuse the exact partition arithmetic to
    price intermediate spills without running the full model.

    Shape-polymorphic: ``footprint_bytes`` / ``staging_active`` may be
    ndarrays, giving a :class:`StagingBudget` of per-candidate arrays.
    """
    sg = accel.sg_bytes
    e = accel.bytes_per_element
    reserve = l2_reserve_bytes(sg)
    if _any_array(footprint_bytes, staging_active):
        active = staging_active & (footprint_bytes > 0)
        return StagingBudget(
            l2_budget_elements=_np.where(
                active, max(1, reserve // e), max(1, sg // e)
            ),
            staging_budget_bytes=_np.where(active, sg - reserve, 0),
            fit_fraction=_np.where(
                active,
                _np.minimum(
                    1.0, (sg - reserve) / _np.maximum(footprint_bytes, 1)
                ),
                1.0,
            ),
        )
    if staging_active and footprint_bytes > 0:
        staging_budget = sg - reserve
        fit = min(1.0, staging_budget / footprint_bytes)
        return StagingBudget(
            l2_budget_elements=max(1, reserve // e),
            staging_budget_bytes=staging_budget,
            fit_fraction=fit,
        )
    return StagingBudget(
        l2_budget_elements=max(1, sg // e),
        staging_budget_bytes=0,
        fit_fraction=1.0,
    )


def _blend_passes(
    staged: bool, fit: float, l2_passes: float, extra_pass_only: bool = True
) -> float:
    """Effective off-chip passes for one tensor.

    Staged and fitting: one cold pass.  Not staged: the L2 reuse-pass
    count.  Staged but spilling: under the paper's accounting
    (``extra_pass_only``) the spilled fraction costs "one extra pass of
    memory access" — two passes total; under the stricter reuse model
    it is re-streamed once per reuse scope, like an unstaged tensor,
    plus the extra pass.

    Shape-polymorphic: ``staged`` / ``fit`` / ``l2_passes`` may be
    ndarrays.
    """
    if _any_array(staged, fit, l2_passes):
        spilled = (1.0 - fit)
        if extra_pass_only:
            staged_passes = fit * 1.0 + spilled * 2.0
        else:
            staged_passes = fit * 1.0 + spilled * (l2_passes + 1.0)
        return _np.where(staged, staged_passes, l2_passes)
    if not staged:
        return l2_passes
    spilled = (1.0 - fit)
    if extra_pass_only:
        return fit * 1.0 + spilled * 2.0
    return fit * 1.0 + spilled * (l2_passes + 1.0)


def _allocate_staging(
    sizes_bytes: Sequence[float], budget_bytes: float
) -> List[float]:
    """Greedy priority allocation of the staging budget.

    The soft-partitioned scratchpad (ATTACC feature 1) lets the
    controller place tensors independently, so a spill need not be
    uniform: tensors are listed in priority order (highest traffic
    saved per byte first) and each claims as much of the remaining
    budget as it needs.  Returns the per-tensor fit fraction in the
    same order.

    Shape-polymorphic: with ndarray sizes/budget the allocation runs
    per-candidate.  A zero-size lane keeps ``fit = 1.0`` and leaves the
    remaining budget untouched, exactly like the scalar branch.
    """
    if _any_array(budget_bytes, *sizes_bytes):
        remaining = _np.asarray(budget_bytes, dtype=float)
        fits = []
        for size in sizes_bytes:
            granted = _np.minimum(remaining, size)
            fits.append(
                _np.where(size <= 0, 1.0, granted / _np.maximum(size, 1.0))
            )
            remaining = remaining - granted
        return fits
    remaining = float(budget_bytes)
    fits: List[float] = []
    for size in sizes_bytes:
        if size <= 0:
            fits.append(1.0)
            continue
        granted = min(remaining, size)
        fits.append(granted / size)
        remaining -= granted
    return fits


# ----------------------------------------------------------------------
# phase assembly
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Phase:
    """One serial execution phase with internally overlapped streams.

    ``sg_words`` counts traffic on the *array-facing* scratchpad port:
    operand streaming into the PE array plus output collection.  DMA
    transfers between DRAM and the SG use dedicated fill ports, and the
    SFU streams softmax operands from its own SG banks (priced by
    ``softmax_cycles``), so neither is charged against this port.

    ``pipelined`` marks a FuseMax-style phase whose softmax passes
    overlap the PE array's compute: the busy term becomes
    ``max(compute, softmax)`` instead of their sum.
    """

    compute_cycles: float = 0.0
    softmax_cycles: float = 0.0
    softmax_elements: float = 0.0
    dram_elements: float = 0.0
    sg_words: float = 0.0
    pipelined: bool = False

    def time(self, accel: Accelerator) -> float:
        if self.pipelined:
            busy = max(self.compute_cycles, self.softmax_cycles)
        else:
            busy = self.compute_cycles + self.softmax_cycles
        return _phase_time(busy, self.dram_elements, self.sg_words, accel)


def _phase_time(busy_cycles, dram_elements, sg_words, accel):
    """Overlapped phase latency: max of the three streams (polymorphic)."""
    e = accel.bytes_per_element
    dram = dram_elements * e / accel.offchip_bytes_per_cycle
    sg = sg_words * e / accel.onchip_bytes_per_cycle
    return _maximum(_maximum(busy_cycles, dram), sg)


def sg_stream_words(macs: float, accel: Accelerator) -> float:
    """SG->array operand streaming, in words.

    For each output tile the array consumes one operand word per spatial
    row and column per temporal step: ``(rows + cols) / (rows * cols)``
    words per MAC, the standard systolic operand-injection rate.
    """
    pe = accel.pe_array
    return macs * (pe.rows + pe.cols) / (pe.rows * pe.cols)


def _warmup_cycles(dram_bytes, n_pass, warmup_cap_bytes, fused, accel):
    """Exposed prefetch warm-up (polymorphic core of :func:`_assemble`).

    Only the pipeline fill is exposed — the first L2 working set of the
    first pass must land on-chip before compute starts; after that,
    double buffering hides the fetch stream.  Fused operators prefetch
    across two stages and get the overlap credit
    (:data:`FUSED_WARMUP_CREDIT`).
    """
    warmup_bytes = _minimum(
        dram_bytes / _maximum(n_pass, 1.0), warmup_cap_bytes
    )
    warmup = warmup_bytes / accel.offchip_bytes_per_cycle
    return _where(fused, warmup * FUSED_WARMUP_CREDIT, warmup)


def _assemble(
    name: str,
    macs: int,
    out_elements: int,
    phases: Sequence[_Phase],
    footprint_bytes: int,
    n_pass: float,
    fused: bool,
    warmup_cap_bytes: float,
    accel: Accelerator,
    sfu_ops: Optional[float] = None,
) -> OperatorCost:
    """Combine serial phases into an OperatorCost.

    ``sfu_ops`` overrides the default four-pass softmax flop count —
    attention variants (FLASH-D) do less arithmetic per logit element
    and their energy accounting must reflect that.
    """
    e = accel.bytes_per_element
    compute_cycles = sum(p.compute_cycles for p in phases)
    softmax_cycles = sum(p.softmax_cycles for p in phases)
    softmax_elements = sum(p.softmax_elements for p in phases)
    dram_elements = sum(p.dram_elements for p in phases)
    sg_words = sum(p.sg_words for p in phases)
    dram_bytes = dram_elements * e
    sg_bytes = sg_words * e
    dram_cycles = dram_bytes / accel.offchip_bytes_per_cycle
    sg_cycles = sg_bytes / accel.onchip_bytes_per_cycle

    steady = sum(p.time(accel) for p in phases)
    warmup = _warmup_cycles(dram_bytes, n_pass, warmup_cap_bytes, fused,
                            accel)
    total = steady + warmup
    ideal = macs / accel.peak_macs_per_cycle

    if sfu_ops is None:
        sfu_ops = accel.sfu.softmax_flops(int(softmax_elements))
    counts = ActivityCounts(
        macs=float(macs),
        sl_words=2.0 * macs + out_elements,
        sg_words=sg_words,
        dram_words=dram_elements,
        sfu_ops=float(sfu_ops),
    )
    return OperatorCost(
        name=name,
        total_cycles=total,
        ideal_cycles=ideal,
        compute_cycles=compute_cycles,
        softmax_cycles=softmax_cycles,
        dram_cycles=dram_cycles,
        sg_cycles=sg_cycles,
        dram_bytes=dram_bytes,
        sg_bytes=sg_bytes,
        footprint_bytes=footprint_bytes,
        counts=counts,
    )


# ----------------------------------------------------------------------
# unfused single-operator cost
# ----------------------------------------------------------------------
def cost_operator(
    cfg: AttentionConfig,
    op: GemmOperator,
    dataflow: Dataflow,
    accel: Accelerator,
    options: PerfOptions = PerfOptions(),
) -> OperatorCost:
    """Cost one operator executed alone (the sequential baseline path).

    Handles both activation-weight operators (Q/K/V/O/FFN) and a
    standalone L or A.  If the operator is Logit, the trailing softmax
    is charged as a separate serial phase: SFU cycles always, plus a
    DRAM round trip over whatever fraction of the logits is off-chip.
    """
    if dataflow.fused:
        raise ValueError(
            "cost_operator costs unfused execution; use cost_la_pair"
        )
    footprint = operator_l3_footprint(op, dataflow, cfg.batch, cfg.heads)
    e = accel.bytes_per_element
    budget = partition_scratchpad(
        footprint.total_bytes(e), dataflow.staging.any_enabled, accel
    )
    # Per-pass GEMM rows: granularity slices the m dimension / instances.
    b_t, h_t, r = dataflow.cross_tile(cfg.batch, cfg.heads, op.m)
    if op.is_activation_activation:
        inst_per_pass = b_t * h_t
    else:
        inst_per_pass = b_t
    total_inst = op.instances
    n_pass = ceil_div(total_inst, inst_per_pass) * ceil_div(op.m, r)

    passes = tile_plan(
        r, op.k, op.n, budget.l2_budget_elements,
        accel.pe_array.rows, accel.pe_array.cols,
    )
    out_l2_passes = _psum_out_passes(op.k, passes, dataflow.stationarity)

    s = dataflow.staging
    fit = budget.fit_fraction
    extra = options.spill_extra_pass_only
    lhs_mult = _blend_passes(s.lhs, fit, passes.lhs_passes, extra)
    # Non-staged rhs is re-streamed for every pass over its reuse scope:
    # each of the ceil(m/r) row passes re-reads it with its L2 pass count.
    rhs_l2 = ceil_div(op.m, r) * passes.rhs_passes
    if op.rhs.role.is_weight:
        # Weights are shared across instances; staging pins them once.
        rhs_mult = _blend_passes(
            s.rhs, fit, rhs_l2 * ceil_div(total_inst, inst_per_pass),
            extra,
        )
    else:
        rhs_mult = _blend_passes(s.rhs, fit, rhs_l2, extra)
    out_mult = _blend_passes(
        s.out, fit, float(max(passes.out_passes, out_l2_passes)), extra
    )

    dram_elements = (
        op.lhs.num_elements * lhs_mult
        + op.rhs.num_elements * rhs_mult
        + op.out.num_elements * out_mult
    )
    compute = _compute_cycles(
        op.macs, r, op.k, op.n, dataflow.stationarity, accel, options,
        tile_switches=float(n_pass), instances=inst_per_pass,
    )
    gemm_phase = _Phase(
        compute_cycles=compute,
        dram_elements=dram_elements,
        sg_words=sg_stream_words(op.macs, accel) + op.out.num_elements,  # repro-lint: ignore[R5] -- the SG drains one word per output element; intended 1:1 elements->words cast
    )
    phases = [gemm_phase]
    if op.softmax_after:
        offchip_fraction = (1.0 - fit) if s.out else 1.0
        sm_dram = 2.0 * op.out.num_elements * offchip_fraction
        phases.append(
            _Phase(
                softmax_cycles=accel.sfu.softmax_cycles(op.out.num_elements),
                softmax_elements=float(op.out.num_elements),
                dram_elements=sm_dram,
            )
        )
    return _assemble(
        name=f"{op.name}[{dataflow.name}]",
        macs=op.macs,
        out_elements=op.out.num_elements,
        phases=phases,
        footprint_bytes=footprint.total_bytes(e),
        n_pass=float(n_pass),
        fused=False,
        warmup_cap_bytes=float(passes.footprint_elements() * e),
        accel=accel,
    )


# ----------------------------------------------------------------------
# L-A pair cost (fused and unfused)
# ----------------------------------------------------------------------
def la_pair_compute_cycles(
    cfg: AttentionConfig,
    dataflow: Dataflow,
    accel: Accelerator,
    options: PerfOptions = PerfOptions(),
) -> tuple:
    """Exact ``(L, A)`` compute-phase cycles of :func:`cost_la_pair`.

    The compute model is closed-form and independent of the L2 tiling,
    so the pair's compute-phase cycles are decided entirely by the
    dataflow's cross-loop tile.  Public because the DSE engine's
    admissible lower bounds (:mod:`repro.core.engine`) use these exact
    values as the compute floor — :func:`cost_la_pair` calls this same
    function, so model and bound cannot drift apart.
    """
    b, h = cfg.batch, cfg.heads
    nq, nkv, dk = cfg.seq_q, cfg.seq_kv, cfg.d_head
    b_t, h_t, r = dataflow.cross_tile(b, h, nq)
    n_pass = ceil_div(b, b_t) * ceil_div(h, h_t) * ceil_div(nq, r)
    macs = b * h * nq * nkv * dk
    compute_l = _compute_cycles(
        macs, r, dk, nkv, dataflow.stationarity, accel, options,
        tile_switches=float(n_pass), instances=b_t * h_t,
    )
    compute_a = _compute_cycles(
        macs, r, nkv, dk, dataflow.stationarity, accel, options,
        tile_switches=float(n_pass), instances=b_t * h_t,
    )
    return compute_l, compute_a


def cost_la_pair(
    cfg: AttentionConfig,
    dataflow: Dataflow,
    accel: Accelerator,
    options: PerfOptions = PerfOptions(),
) -> OperatorCost:
    """Cost the Logit-softmax-Attend pair under any dataflow.

    Fused (FLAT): one interleaved phase — the cross loop iterates
    ``(batch / B_t) * (heads / H_t) * (N_q / R)`` passes; each computes
    an L stage, softmaxes the FLAT-tile on the SFU, then runs the A
    stage, with double-buffered prefetch of the next tile (Figure 4(b)).

    Unfused (Base / Base-X): three serial phases — L runs to completion
    for each L3 tile before A starts (paper footnote 4), with a softmax
    pass between them during which the PE array idles.  A staged-and-
    fitting intermediate passes through the scratchpad; the spilled (or
    unstaged) fraction pays the full baseline price of four off-chip
    passes over an O(N^2) tensor (raw write, softmax read + write,
    Attend re-read).  Row granularity is rejected for unfused dataflows
    by :class:`Dataflow` itself.
    """
    b, h = cfg.batch, cfg.heads
    nq, nkv, dk = cfg.seq_q, cfg.seq_kv, cfg.d_head
    e = accel.bytes_per_element

    footprint = fused_la_footprint(cfg, dataflow)
    budget = partition_scratchpad(
        footprint.total_bytes(e),
        dataflow.has_l3 and dataflow.staging.any_enabled,
        accel,
    )
    fit = budget.fit_fraction

    b_t, h_t, r = dataflow.cross_tile(b, h, nq)
    row_passes = ceil_div(nq, r)
    n_pass = ceil_div(b, b_t) * ceil_div(h, h_t) * row_passes

    # L2 tiles for each stage's per-pass GEMM.
    passes_l = tile_plan(
        r, dk, nkv, budget.l2_budget_elements,
        accel.pe_array.rows, accel.pe_array.cols,
    )
    passes_a = tile_plan(
        r, nkv, dk, budget.l2_budget_elements,
        accel.pe_array.rows, accel.pe_array.cols,
    )

    s = dataflow.staging
    staged = dataflow.has_l3
    # Cold volumes over the whole operator (elements).
    q_cold = b * h * nq * dk
    k_cold = b * h * nkv * dk
    v_cold = b * h * nkv * dk
    out_cold = b * h * nq * dk
    int_cold = b * h * nq * nkv

    # Per-tensor staging fits via priority allocation: the intermediate
    # saves the most traffic per staged byte (it would otherwise
    # round-trip an O(N^2) tensor), then the K/V operands reused across
    # row passes, then the streaming Q and output tiles.
    fit_int, fit_k, fit_v, fit_q, fit_out = _allocate_staging(
        [
            float(footprint.intermediate_elements) * e,
            float(footprint.rhs_elements) * e,
            float(footprint.rhs2_elements) * e,
            float(footprint.lhs_elements) * e,
            float(footprint.out_elements) * e,
        ],
        budget.staging_budget_bytes,
    )
    del fit

    # Q rows are consumed once per pass; with no staging the L2 loop
    # re-reads them per column block of K.
    extra = options.spill_extra_pass_only
    q_mult = _blend_passes(staged and s.lhs, fit_q, passes_l.lhs_passes,
                           extra)
    # K/V are reused across the row passes of their (b, h) pair; without
    # FLAT staging each row pass streams them again.
    k_mult = _blend_passes(
        staged and s.rhs, fit_k, row_passes * passes_l.rhs_passes, extra
    )
    v_mult = _blend_passes(
        staged and s.rhs2, fit_v, row_passes * passes_a.rhs_passes,
        extra,
    )
    out_mult = _blend_passes(
        staged and s.out, fit_out,
        float(_psum_out_passes(nkv, passes_a, dataflow.stationarity)),
        extra,
    )
    # The intermediate: on-chip when staged and fitting.
    if staged and s.intermediate:
        int_offchip = 1.0 - fit_int
    else:
        int_offchip = 1.0

    macs_l = b * h * nq * nkv * dk
    macs_a = b * h * nq * nkv * dk
    compute_l, compute_a = la_pair_compute_cycles(cfg, dataflow, accel,
                                                  options)
    softmax_cycles = accel.sfu.softmax_cycles(int_cold)

    dram_l_inputs = q_cold * q_mult + k_cold * k_mult
    dram_a_inputs = v_cold * v_mult + out_cold * out_mult
    sg_base_l = sg_stream_words(macs_l, accel)
    sg_base_a = sg_stream_words(macs_a, accel) + out_cold

    sfu_ops_override: Optional[float] = None
    if dataflow.fused:
        # The fitting fraction of the FLAT-tile executes as one
        # interleaved phase: compute, softmax and prefetch overlap.
        # The spilled fraction *cannot* be interleaved — the tile never
        # fully forms on-chip — so it behaves like the baseline: its
        # raw write and re-read overlap with the surrounding compute,
        # but its softmax round trip (read + write) serializes into a
        # spill phase that compute cannot hide.  This degradation is
        # why FLAT-M/B/H fall back toward Base at small buffers in
        # Figure 8 while a fitting FLAT-R does not.
        # Attention variants restructure only this softmax term:
        # FLASH-D hides the division pass inside the output rescale
        # (fewer serial SFU cycles *and* fewer flops); FuseMax keeps
        # the four passes but pipelines them with the PE compute.
        sm_fused = softmax_cycles
        if dataflow.variant is AttentionVariant.FLASH_D:
            sm_fused = accel.sfu.flashd_cycles(int_cold, out_cold)
            sfu_ops_override = float(
                accel.sfu.flashd_flops(int_cold, out_cold)
            )
        int_spill = int_cold * int_offchip
        phases = [
            _Phase(
                compute_cycles=compute_l + compute_a,
                softmax_cycles=sm_fused,
                softmax_elements=float(int_cold),
                dram_elements=dram_l_inputs + dram_a_inputs + 2.0 * int_spill,
                sg_words=sg_base_l + sg_base_a,
                pipelined=dataflow.variant is AttentionVariant.FUSEMAX,
            )
        ]
        if int_spill > 0:
            phases.append(_Phase(dram_elements=2.0 * int_spill))
    else:
        # Three serial phases: L (raw logit write for the off-chip
        # fraction), softmax pass (read + write), A (re-read).
        dram_l = dram_l_inputs + int_cold * int_offchip
        dram_sm = 2.0 * int_cold * int_offchip
        dram_a = dram_a_inputs + int_cold * int_offchip
        phases = [
            _Phase(
                compute_cycles=compute_l,
                dram_elements=dram_l,
                sg_words=sg_base_l + int_cold,
            ),
            _Phase(
                softmax_cycles=softmax_cycles,
                softmax_elements=float(int_cold),
                dram_elements=dram_sm,
            ),
            _Phase(
                compute_cycles=compute_a,
                dram_elements=dram_a,
                sg_words=sg_base_a + int_cold,
            ),
        ]

    warmup_cap = float(
        (passes_l.footprint_elements() + passes_a.footprint_elements()) * e
    )
    return _assemble(
        name=f"{cfg.name}.logit+attend[{dataflow.name}]",
        macs=macs_l + macs_a,
        out_elements=out_cold,
        phases=phases,
        footprint_bytes=footprint.total_bytes(e),
        n_pass=float(n_pass),
        fused=dataflow.fused,
        warmup_cap_bytes=warmup_cap,
        accel=accel,
        sfu_ops=sfu_ops_override,
    )


def cost_fused_la(
    cfg: AttentionConfig,
    dataflow: Dataflow,
    accel: Accelerator,
    options: PerfOptions = PerfOptions(),
) -> OperatorCost:
    """Cost the fused L-A operator (FLAT dataflows only).

    Thin wrapper over :func:`cost_la_pair` that insists on fusion; kept
    as the explicit FLAT entry point.
    """
    if not dataflow.fused:
        raise ValueError("cost_fused_la requires a fused dataflow")
    return cost_la_pair(cfg, dataflow, accel, options)


# ----------------------------------------------------------------------
# scope aggregation
# ----------------------------------------------------------------------
def cost_scope(
    cfg: AttentionConfig,
    scope: Scope,
    accel: Accelerator,
    la_dataflow: Dataflow,
    other_dataflow: Optional[Dataflow] = None,
    options: PerfOptions = PerfOptions(),
) -> ScopeCost:
    """Cost all operators a scope covers, sequentially executed.

    ``la_dataflow`` drives the L/A pair (fused or not); the remaining
    operators run with ``other_dataflow`` (default: the same dataflow
    with fusion dropped, or plain Base when that is not expressible).
    Model scope replicates the block ``cfg.num_blocks`` times.
    """
    from repro.core.dataflow import base as base_dataflow

    if other_dataflow is None:
        if la_dataflow.fused or la_dataflow.granularity is None:
            other_dataflow = base_dataflow(la_dataflow.stationarity)
        else:
            other_dataflow = la_dataflow

    if scope is Scope.LA:
        # The pair is the whole scope: no operator list to build.
        return ScopeCost(operator_costs=[
            cost_la_pair(cfg, la_dataflow, accel, options)])
    ops = operators_for_scope(cfg, scope)
    costs: List[OperatorCost] = []
    i = 0
    while i < len(ops):
        op = ops[i]
        is_la_head = (
            op.kind is OperatorKind.LOGIT
            and i + 1 < len(ops)
            and ops[i + 1].kind is OperatorKind.ATTEND
        )
        if is_la_head:
            costs.append(cost_la_pair(cfg, la_dataflow, accel, options))
            i += 2
            continue
        if op.is_activation_activation:
            # An L or A without its partner (cross-scope slicing):
            # cost it alone with the unfused machinery.
            standalone = la_dataflow if not la_dataflow.fused else other_dataflow
            costs.append(cost_operator(cfg, op, standalone, accel, options))
        else:
            costs.append(cost_operator(cfg, op, other_dataflow, accel, options))
        i += 1
    replication = cfg.num_blocks if scope is Scope.MODEL else 1
    return ScopeCost(operator_costs=costs, replication=replication)
