"""Vectorized batch evaluation of the DSE candidate grid.

Timeloop-class cost models get their throughput from evaluating mapping
spaces as *array programs* rather than one candidate at a time.  This
module does the same for the FLAT model: :func:`evaluate_grid` takes an
:class:`~repro.ops.attention.AttentionConfig`, an
:class:`~repro.arch.accelerator.Accelerator` and a set of candidates —
``Dataflow`` objects, whose features it lays out as structure-of-arrays
(:class:`_GridFeatures`), or :class:`GridRows`, row indices into the
prebuilt feature columns of a search space's table
(:class:`repro.core.candidates.SpaceTable`) — and computes cycles /
DRAM bytes / footprint / objective scores for all of them in a handful
of NumPy operations.  Both kinds of candidate run the same kernel, and
so does a third: :class:`GridLanes`, the rows of several searches'
tables, one segment per search, each scored on its own workload, so
one call answers many searches whose workloads differ
(:func:`repro.core.engine.run_searches`).  The
L-A pair is one pass over the candidates; the other operators of a
BLOCK/MODEL scope (projections, FFN) are stacked into one
(operator x candidate) pass, whose rows are summed in execution order,
as ``ScopeCost`` sums its operators.  Per-operator values the scalar
path computes in Python (``sg_stream_words(op.macs)``, the count
constants, the mapping efficiencies) are still computed in Python and
enter as per-operator columns.

The contract is **bit-for-bit equality with the scalar path**: the same
ceil quantization, the same spill accounting, the same phase-max
overlap, evaluated with the very same shape-polymorphic helpers
(:mod:`repro.core.perf`, :mod:`repro.core.tiling`,
:mod:`repro.core.footprint`) the scalar model runs — one source of
truth, two execution shapes.  ``np.argmin`` over the score array picks
the first index attaining the minimum, which is exactly the engine's
index-ordered strictly-less scan, so tie-breaking is preserved too.

Why exactness holds: every elementary operation appears in the same
order with the same operands in both paths, and each operand has the
same type — a Python ``int`` in the scalar path is an integer lane
here, a ``float`` is a float64 lane.  Float operations then round alike
(IEEE-754), int operations are exact in both, and an int meets a float
through the same single correctly-rounded conversion.  The argument is
per lane, so it spans workloads: the terms that depend only on the
workload (cold volumes, MAC counts, SFU cycles and flops, the SG
stream, the strict-axis efficiencies, the MODEL replication, each
operator's shape and counts) are computed in Python once per distinct
workload of a call, exactly as the scalar path computes them, and
gathered to the lanes by workload index (:class:`_Workloads`).  A
one-workload call keeps them as Python scalars, which broadcast; a
merged call holds the same values in integer / float64 lanes.  Tile
lookup tables are keyed on the workload's shape as well, so every lane
of a merged call equals its one-workload call bit for bit.  Three
places need care, because there the two paths could still part:

* **Integer traffic terms.**  An unstaged tensor's pass multiplier is
  an int in the scalar model, so ``cold * passes`` is an exact int,
  and two such terms (Q and K of the L-A pair, lhs and rhs of an
  operator) add exactly before the sum meets its first float.  Those
  products and sums are formed in integer lanes here
  (:func:`_traffic_sum`) and converted once, where the scalar path
  converts.  Every other traffic term is a float product in both paths.
* **int / int true division.**  Python rounds the exact quotient once;
  numpy rounds both int64 operands to float64 first, which is inexact
  past 2**53.  The mapping efficiencies are therefore divided in Python
  once per distinct iteration space (:func:`_per_value`); the staged
  footprint entering the staging-fit division is the one int / int
  division left to the arrays.
* **int64 overflow.**  Every int64 intermediate — footprints in bytes,
  pass counts, iteration spaces, integer traffic terms — is at most
  ``9 * bytes_per_element`` times an operator's MAC count.

The last two hold in int64 lanes only below two static edges per
workload (:func:`is_wide`): every operator's ``macs *
bytes_per_element`` below 2**58 keeps every intermediate below 2**62,
and twice the scope's full tensor volume in bytes below 2**53 bounds
every candidate's staged footprint (a staged tile is at most its
tensor, double-buffered).  Past either edge the integer columns are
Python ints (object lanes): the same kernel on the scalar path's
operand type, exact at every size, only slower.  No paper workload
reaches either edge (XLM at 512K tokens, fig12b, peaks at 2**56
MAC-bytes and ~2**49 staged bytes).

The kernel keeps its per-operator arrays (:class:`_OpArrays`) on the
:class:`GridEvaluation`, so :meth:`GridEvaluation.scope_cost` rebuilds
any lane's full :class:`~repro.core.perf.ScopeCost` — every
:class:`~repro.core.perf.OperatorCost` field, as Python scalars, equal
to ``cost_scope``'s and pickled to the same bytes — without running
the scalar model.  The scalar model remains the reference the kernel
mirrors and the cheaper route for a single point (one ``cost_scope``
call beats a one-row grid call).

What a call costs beyond its rows is kept small.  L2 tiles come from
the memoized records of :func:`repro.core.tiling.tile_plan` (one
``(tile, reuse passes)`` record per GEMM shape, budget and array, which
the scalar model reads too), gathered once per distinct (tile shape,
budget slot) code; the two L2 budgets are memoized per scratchpad and
option set.  Per-tensor formulas are stacked calls of the shared cores:
the L-A pair's four pass blends are one ``_blend_passes`` call on
``(4, n)`` rows and its five phases one ``_phase_time`` call, and the
operators' three blends one call on ``(3, operators, n)`` planes.  An
L-A scope builds no operator list.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.arch.accelerator import Accelerator
from repro.core.dataflow import AttentionVariant, Dataflow, Stationarity
from repro.core.dataflow import base as base_dataflow
from repro.core.footprint import fused_la_elements, operator_l3_elements
from repro.core.perf import (
    OperatorCost,
    PerfOptions,
    ScopeCost,
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
from repro.core.tiling import ceil_div, tile_plan
from repro.energy.model import _PJ, ActivityCounts
from repro.energy.tables import default_table
from repro.obs.metrics import active as _metrics_active
from repro.ops.attention import AttentionConfig, Scope, operators_for_scope
from repro.ops.operator import GemmOperator, OperatorKind

__all__ = [
    "GridEvaluation",
    "GridLanes",
    "GridRows",
    "evaluate_grid",
    "best_index",
    "is_wide",
]

# Ceiling on ``macs * bytes_per_element`` of any operator: every int64
# intermediate of the array path is at most nine times that product,
# so below 2**58 none comes near int64 overflow.
_MAX_INT64_MAC_BYTES = 2 ** 58
# Integers below 2**53 convert to float64 exactly, so numpy's int / int
# true division of such operands rounds the exact quotient, as Python's
# does.
_MAX_EXACT_INT = 2 ** 53

_STAT_INDEX = {
    Stationarity.OUTPUT: 0,
    Stationarity.WEIGHT: 1,
    Stationarity.INPUT: 2,
}


@dataclass(frozen=True)
class GridEvaluation:
    """Structure-of-arrays cost of every candidate, in enumeration order.

    Each field is a length-``n`` ndarray aligned with the candidates
    (dataflows or table rows) passed to :func:`evaluate_grid`.  The
    activity-count fields mirror
    :class:`~repro.energy.model.ActivityCounts` (already scaled by the
    scope's replication, like ``ScopeCost.counts``).  An evaluation
    made by :func:`evaluate_grid` also keeps its per-operator arrays,
    from which :meth:`scope_cost` rebuilds any lane's full breakdown.
    """

    total_cycles: "np.ndarray"
    dram_bytes: "np.ndarray"
    footprint_bytes: "np.ndarray"
    macs: "np.ndarray"
    sl_words: "np.ndarray"
    sg_words: "np.ndarray"
    dram_words: "np.ndarray"
    sfu_ops: "np.ndarray"
    # Not a field: equality, repr and ``dataclasses.fields`` see the
    # arrays only.
    breakdown: InitVar[Optional["_Breakdown"]] = None

    def __post_init__(self, breakdown: Optional["_Breakdown"]) -> None:
        object.__setattr__(self, "_breakdown", breakdown)

    def __len__(self) -> int:
        return int(self.total_cycles.shape[0])

    def scope_cost(self, i: int, dataflow: Dataflow) -> ScopeCost:
        """Lane ``i``'s :class:`~repro.core.perf.ScopeCost`, equal to
        ``cost_scope`` of ``dataflow`` (the lane's candidate) on the
        lane's workload: every field, with the same Python types, so the
        pickled bytes match too."""
        if self._breakdown is None:
            raise ValueError("this evaluation keeps no per-operator arrays")
        return self._breakdown.scope_cost(i, dataflow)

    def objective_scores(self, objective: "Objective") -> "np.ndarray":
        """Per-candidate objective values, mirroring ``Objective.score``.

        The energy objectives replay ``energy_report``'s arithmetic on
        the default energy table term by term (same association order),
        so the scores equal the scalar path's bit for bit.
        """
        from repro.core.dse import Objective

        if objective is Objective.RUNTIME:
            return self.total_cycles
        if objective is Objective.FOOTPRINT:
            return self.footprint_bytes.astype(float)
        table = default_table()
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

    Two 2-D arrays, one row per field and one column per candidate:
    ``ints`` (int64) holds :data:`INT_FIELDS` and ``flags`` (bool)
    holds :data:`FLAG_FIELDS`; each field is also an attribute (a row
    view).  ``o_*`` columns describe the *other* dataflow the engine's
    default ``cost_scope`` call would run the non-L-A operators with:
    the candidate itself when it is unfused with an L3 tile, otherwise
    plain Base at the candidate's stationarity.  Each dataflow is read
    once into one tuple; Base's columns are per-stationarity constants.
    A search space's table (:class:`repro.core.candidates.SpaceTable`)
    builds the same columns from family fields, without any dataflow
    (:meth:`from_columns`).
    """

    INT_FIELDS = ("b_t", "h_t", "r", "stat_idx", "o_b_t")
    FLAG_FIELDS = (
        "fused", "has_l3", "s_lhs", "s_rhs", "s_rhs2", "s_out", "s_int",
        "s_any", "v_flash", "v_pipe", "o_gran", "o_any", "o_lhs", "o_rhs",
        "o_out",
    )

    def __init__(self, cfg: AttentionConfig,
                 dataflows: Sequence[Dataflow]) -> None:
        bases: dict = {}
        ints = []
        flags = []
        for df in dataflows:
            b_t, h_t, r = df.cross_tile(cfg.batch, cfg.heads, cfg.seq_q)
            s = df.staging
            if df.fused or df.granularity is None:
                other = bases.get(df.stationarity)
                if other is None:
                    other = bases[df.stationarity] = _other_columns(
                        cfg, base_dataflow(df.stationarity))
            else:
                other = (b_t, True, s.any_enabled, s.lhs, s.rhs, s.out)
            ints.append((b_t, h_t, r, _STAT_INDEX[df.stationarity],
                         other[0]))
            flags.append((
                df.fused, df.has_l3, s.lhs, s.rhs, s.rhs2, s.out,
                s.intermediate, s.any_enabled,
                df.variant is AttentionVariant.FLASH_D,
                df.variant is AttentionVariant.FUSEMAX,
            ) + other[1:])
        self._set(np.array(list(zip(*ints)), dtype=np.int64),
                  np.array(list(zip(*flags)), dtype=bool))

    @classmethod
    def from_columns(cls, ints: "np.ndarray",
                     flags: "np.ndarray") -> "_GridFeatures":
        """Features over prebuilt ``ints``/``flags`` arrays."""
        features = cls.__new__(cls)
        features._set(ints, flags)
        return features

    def _set(self, ints: "np.ndarray", flags: "np.ndarray") -> None:
        self.ints = ints
        self.flags = flags
        for names, rows in ((self.INT_FIELDS, ints),
                            (self.FLAG_FIELDS, flags)):
            for name, row in zip(names, rows, strict=True):
                setattr(self, name, row)
        self.is_output = self.stat_idx == 0

    def __len__(self) -> int:
        return int(self.ints.shape[1])


@dataclass(frozen=True)
class GridRows:
    """Candidates given as rows of a prebuilt column table.

    ``index`` selects (and orders) columns of ``features``; ``None``
    takes every column.  :func:`evaluate_grid` scores these exactly as
    it scores the dataflows the columns were built from.
    """

    features: _GridFeatures
    index: Optional["np.ndarray"] = None

    def __len__(self) -> int:
        if self.index is None:
            return len(self.features)
        return len(self.index)

    def take(self) -> _GridFeatures:
        if self.index is None:
            return self.features
        f = self.features
        return _GridFeatures.from_columns(f.ints[:, self.index],
                                          f.flags[:, self.index])


def _other_columns(cfg: AttentionConfig, other: Dataflow) -> tuple:
    """``(b_t, has L3 tile, any staged, lhs, rhs, out)`` of an *other*
    dataflow.  ``other`` is never row-granular (row granularity requires
    fusion), so its cross tile does not depend on the operator m it
    will slice."""
    s = other.staging
    return (other.cross_tile(cfg.batch, cfg.heads, cfg.seq_q)[0],
            other.granularity is not None, s.any_enabled, s.lhs, s.rhs,
            s.out)


@dataclass(frozen=True)
class _OpArrays:
    """Operator cost over all candidates (plus count constants).

    The L-A pair fills each array field with one row per candidate;
    the stacked non-L-A operators fill them with one row per operator
    (shape ``operators x candidates``; ``sg_words`` is a per-operator
    column) and the count fields with one float per operator.
    """

    total_cycles: "np.ndarray"
    dram_bytes: "np.ndarray"
    dram_words: "np.ndarray"
    sg_words: "np.ndarray"
    footprint_bytes: "np.ndarray"
    compute_cycles: "np.ndarray"
    softmax_cycles: object  # ndarray for the L-A pair, 0.0 otherwise
    macs: object  # float, or one float per operator
    sl_words: object  # float, or one float per operator
    sfu_ops: object  # ndarray (variant-dependent), or a float constant


# From this many values on, _distinct's dense remap beats its dict.
_DENSE_MIN = 128


def _distinct(values: "np.ndarray") -> tuple:
    """``(keys, inverse)``: the distinct values as Python scalars, and
    each lane's index among them (``inverse`` has ``values``' shape).

    From :data:`_DENSE_MIN` int64 values on, when they span a range no
    wider than a few times their count (tile codes of stacked
    operators, budget slots), a dense remap: a presence table over the
    range, whose running count numbers the keys in ascending order
    (~13 us flat, against ~0.12 us per value for the dict).  Fewer,
    wider or non-int64 values (iteration spaces, Python-int columns)
    go through a dict in first-seen order.  Callers gather by
    ``inverse``, so the key order does not matter.  Neither route
    sorts: ``np.unique``'s sort releases the GIL, and a thread that
    hands the GIL over mid-call can wait out a whole switch interval to
    get it back — the serve daemon's executor threads share it with the
    event loop.
    """
    flat = values.ravel()
    if flat.dtype == np.int64 and flat.size >= _DENSE_MIN:
        lo = int(flat.min())
        span = int(flat.max()) - lo + 1
        if span <= 4 * flat.size + 64:
            offset = flat - lo
            present = np.zeros(span, dtype=bool)
            present[offset] = True
            rank = np.cumsum(present, dtype=np.intp) - 1
            return ((np.flatnonzero(present) + lo).tolist(),
                    rank[offset].reshape(values.shape))
    index: dict = {}
    inverse = [index.setdefault(v, len(index)) for v in flat.tolist()]
    return (list(index),
            np.asarray(inverse, dtype=np.intp).reshape(values.shape))


def _per_value(values: "np.ndarray", fn) -> "np.ndarray":
    """``fn(v)`` for every lane, evaluated once per distinct int in Python.

    For the mapping efficiencies, an int / int true division: Python
    rounds the exact quotient once, numpy would first round both int64
    operands to float64 (inexact past 2**53).  A grid has only a
    handful of distinct values, so this costs next to nothing.
    """
    keys, inverse = _distinct(values)
    return np.asarray([fn(v) for v in keys], dtype=float)[inverse]


def _traffic_sum(x_staged, x_float, x_int, y_staged, y_float, y_int):
    """``x + y`` of two per-tensor traffic terms, typed as the scalar path.

    ``*_float`` is ``cold * multiplier`` (a float product, exact to the
    scalar path when the tensor is staged); ``*_int`` is the int64 term
    ``cold * passes`` an unstaged tensor has.  Two int terms add exactly
    and round once; an int meeting a float rounds once on conversion.
    """
    x = np.where(x_staged, x_float, x_int)
    y = np.where(y_staged, y_float, y_int)
    return np.where(x_staged | y_staged, x + y, (x_int + y_int).astype(float))


class _Scratchpad(NamedTuple):
    """What ``partition_scratchpad`` reads of an accelerator."""

    sg_bytes: int
    bytes_per_element: int


@lru_cache(maxsize=64)
def _l2_budgets(scratchpad: _Scratchpad) -> tuple:
    """``partition_scratchpad``'s staging-idle and staging-active L2
    budgets, once per scratchpad."""
    return (partition_scratchpad(0, False, scratchpad).l2_budget_elements,
            partition_scratchpad(1, True, scratchpad).l2_budget_elements)


def _l2_budget_slots(budget, accel: Accelerator) -> tuple:
    """The two L2 budgets of ``partition_scratchpad`` and each lane's slot.

    A lane's ``l2_budget_elements`` is the staging-idle budget (slot 0)
    or the staging-active one (slot 1), so a tile lookup table needs at
    most two entries per tile shape.  When both budgets coincide every
    lane reads slot 1, which holds the same value.
    """
    values = _l2_budgets(
        _Scratchpad(accel.sg_bytes, accel.bytes_per_element))
    slots = (budget.l2_budget_elements == values[1]).astype(np.int64)
    return values, slots


def _tile_luts(codes: "np.ndarray", build) -> List["np.ndarray"]:
    """Gather ``build(code)`` records out to the lanes of ``codes``.

    ``build`` reads the memoized scalar :func:`~repro.core.tiling.tile_plan`
    records of one distinct code; a grid has only a handful of distinct
    tile keys per workload, so it runs once per distinct code and
    gathers back out to all lanes.  Integer records take the codes'
    dtype, so a wide call's (Python-int) lanes stay Python ints.
    """
    keys, inverse = _distinct(codes)
    records = [build(code) for code in keys]
    return [np.asarray(column, dtype=codes.dtype
                       if isinstance(column[0], int) else float)[inverse]
            for column in zip(*records)]


def _la_tiles(r: "np.ndarray", shape_of, shapes: Sequence[Tuple[int, int]],
              slot: "np.ndarray", l2_values: tuple,
              accel: Accelerator) -> List["np.ndarray"]:
    """The L-A pair's tile columns ``(l_lhs, l_rhs, a_rhs, ko_a,
    warmup_cap)``: the L stage's lhs and rhs passes, the A stage's rhs
    passes and temporal k split, and the warm-up cap of both tiles in
    bytes.

    One record per (rows, ``shapes[shape_of]`` = (seq_kv, d_head), L2
    budget slot) code; ``shape_of`` is each lane's shape index, or 0
    when ``shapes`` has one entry.  The model and the engine's bound
    read the same records.
    """
    e = accel.bytes_per_element
    rows_pe, cols_pe = accel.pe_array.rows, accel.pe_array.cols
    n_shapes = len(shapes)

    def build(code):
        rest, l2 = code >> 1, l2_values[code & 1]
        r_i, (nkv, dk) = rest // n_shapes, shapes[rest % n_shapes]
        plan_l = tile_plan(r_i, dk, nkv, l2, rows_pe, cols_pe)
        plan_a = tile_plan(r_i, nkv, dk, l2, rows_pe, cols_pe)
        return (
            plan_l.lhs_passes,
            plan_l.rhs_passes,
            plan_a.rhs_passes,
            ceil_div(nkv, plan_a.tk),
            float(
                (plan_l.footprint_elements()
                 + plan_a.footprint_elements()) * e
            ),
        )

    return _tile_luts((r * n_shapes + shape_of) * 2 + slot, build)


# ----------------------------------------------------------------------
# the workloads of a call
# ----------------------------------------------------------------------
class _Workloads:
    """The distinct workloads of a grid call, and each lane's one.

    ``configs`` lists the distinct workloads in first-seen order;
    ``lane`` maps each lane to its index there, or is ``None`` when the
    call has a single workload.  Workload-level terms are computed in
    Python once per workload, as the scalar path computes them, and
    :meth:`gather` hands them to the lanes: a single workload's terms
    stay Python scalars (they broadcast, so a one-workload call costs
    what it always did), several workloads' become one array per term,
    gathered by ``lane``.  Either way each lane meets the same value of
    the same type — an ``int`` as an int64, a ``float`` as a float64.
    """

    def __init__(self, configs: List[AttentionConfig],
                 lane: Optional["np.ndarray"]) -> None:
        self.configs = configs
        self.lane = lane

    def gather(self, rows: Sequence[tuple], dtype) -> tuple:
        """One tuple of terms per workload -> one value per term."""
        if self.lane is None:
            return rows[0]
        return tuple(np.array(rows, dtype=dtype)[self.lane].T)

    def gather_slots(self, rows: Sequence[Sequence[tuple]],
                     dtype) -> "np.ndarray":
        """Per-operator terms, ``rows[workload][slot][term]``, as
        ``terms x operators x lanes`` (one lane column for a single
        workload)."""
        if self.lane is None:
            return np.array(rows[0], dtype=dtype).T[:, :, None]
        return np.array(rows, dtype=dtype)[self.lane].transpose(2, 1, 0)


# ----------------------------------------------------------------------
# the L-A pair, vectorized (mirrors perf.cost_la_pair line by line)
# ----------------------------------------------------------------------
def _la_terms(cfg: AttentionConfig, accel: Accelerator,
              rigid: bool) -> Tuple[tuple, tuple]:
    """One workload's candidate-independent L-A terms, ``(ints,
    floats)``, computed in Python as ``cost_la_pair`` computes them.

    The floats include the int / int divisions (the SG stream, the
    strict-axis efficiencies of a rigid array) and the SFU terms, which
    an int64 lane would round differently or cannot run at all.
    """
    rows_pe, cols_pe = accel.pe_array.rows, accel.pe_array.cols
    b, h = cfg.batch, cfg.heads
    nq, nkv, dk = cfg.seq_q, cfg.seq_kv, cfg.d_head
    # Q and the output share one cold volume, as do K and V; A has L's
    # MAC count.
    q_cold = b * h * nq * dk
    k_cold = b * h * nkv * dk
    int_cold = b * h * nq * nkv
    macs_l = b * h * nq * nkv * dk
    macs = macs_l + macs_l
    sfu = accel.sfu
    floats = (
        sfu.softmax_cycles(int_cold),
        sfu.flashd_cycles(int_cold, q_cold),
        sg_stream_words(macs_l, accel),
        sg_stream_words(macs_l, accel) + q_cold,
        float(macs),
        2.0 * macs + q_cold,
        float(sfu.flashd_flops(int_cold, q_cold)),
        float(sfu.softmax_flops(int_cold)),
    )
    if rigid:
        floats += (
            _strict_axis_eff(nkv, cols_pe),
            _strict_axis_eff(dk, cols_pe),
            _strict_axis_eff(dk, rows_pe) * _strict_axis_eff(nkv, cols_pe),
            _strict_axis_eff(nkv, rows_pe) * _strict_axis_eff(dk, cols_pe),
        )
    return (b, h, nq, nkv, dk, q_cold, k_cold, int_cold, macs_l), floats


def _evaluate_la_pair(
    w: _Workloads,
    accel: Accelerator,
    options: PerfOptions,
    f: _GridFeatures,
) -> _OpArrays:
    e = accel.bytes_per_element
    rows_pe, cols_pe = accel.pe_array.rows, accel.pe_array.cols
    rigid = not options.flexible_mapping
    terms = [_la_terms(cfg, accel, rigid) for cfg in w.configs]
    b, h, nq, nkv, dk, q_cold, k_cold, int_cold, macs_l = w.gather(
        [t[0] for t in terms], f.ints.dtype)
    floats = w.gather([t[1] for t in terms], float)
    (softmax_cycles, flashd, sg_base_l, sg_base_a, macs, sl_words,
     flashd_flops, softmax_flops) = floats[:8]

    staged = f.has_l3
    fp_lhs, fp_rhs, fp_rhs2, fp_out, fp_int = fused_la_elements(
        f.b_t, f.h_t, f.r, dk, nkv,
        f.s_lhs & staged, f.s_rhs & staged, f.s_rhs2 & staged,
        f.s_out & staged, f.s_int & staged,
    )
    fp_total = fp_lhs + fp_rhs + fp_rhs2 + fp_out + fp_int
    fp_bytes = fp_total * e
    budget = partition_scratchpad(fp_bytes, staged & f.s_any, accel)

    row_passes = ceil_div(nq, f.r)
    n_pass = ceil_div(b, f.b_t) * ceil_div(h, f.h_t) * row_passes
    n_pass_f = n_pass.astype(float)

    l2_values, slot = _l2_budget_slots(budget, accel)
    shapes: dict = {}
    shape_of = [shapes.setdefault((cfg.seq_kv, cfg.d_head), len(shapes))
                for cfg in w.configs]
    if len(shapes) > 1:
        shape_of = np.asarray(shape_of, dtype=np.int64)[w.lane]
    l_lhs, l_rhs, a_rhs, ko_a, warmup_cap = _la_tiles(
        f.r, shape_of if len(shapes) > 1 else 0, list(shapes), slot,
        l2_values, accel)

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

    q_on, k_on, v_on = staged & f.s_lhs, staged & f.s_rhs, staged & f.s_rhs2
    k_l2 = row_passes * l_rhs
    v_l2 = row_passes * a_rhs
    # One blend over the Q, K, V and output rows.  Stacked as floats,
    # the small int pass counts convert exactly, as a lone blend of an
    # int row converts them.
    q_mult, k_mult, v_mult, out_mult = _blend_passes(
        np.stack([q_on, k_on, v_on, staged & f.s_out]),
        np.stack([fit_q, fit_k, fit_v, fit_out]),
        np.stack([l_lhs, k_l2, v_l2,
                  _psum_passes_from_ko(ko_a, f.is_output)]).astype(float),
        options.spill_extra_pass_only,
    )
    int_offchip = np.where(staged & f.s_int, 1.0 - fit_int, 1.0)

    if not rigid:
        # Both stages fold the same iteration space (r*dk*nkv per
        # instance), so they share one quantization efficiency.
        space = f.r * dk * nkv * (f.b_t * f.h_t)
        pes = accel.pe_array.num_pes
        eff_l = _per_value(space, lambda v: v / (pes * ceil_div(v, pes)))
        eff_a = eff_l
    else:
        nkv_cols, dk_cols, weight_l, weight_a = floats[8:]
        eff_r_rows = _per_value(f.r, lambda v: _strict_axis_eff(v, rows_pe))
        eff_l = np.where(
            f.stat_idx == 0,
            eff_r_rows * nkv_cols,
            np.where(f.stat_idx == 1, weight_l, eff_r_rows * dk_cols),
        )
        eff_a = np.where(
            f.stat_idx == 0,
            eff_r_rows * dk_cols,
            np.where(f.stat_idx == 1, weight_a, eff_r_rows * nkv_cols),
        )
    compute_l = _compute_cycles_from_eff(macs_l, eff_l, n_pass_f, accel,
                                         options)
    compute_a = _compute_cycles_from_eff(macs_l, eff_a, n_pass_f, accel,
                                         options)

    dram_l_inputs = _traffic_sum(
        q_on, q_cold * q_mult, q_cold * l_lhs,
        k_on, k_cold * k_mult, k_cold * k_l2,
    )
    dram_a_inputs = (
        np.where(v_on, k_cold * v_mult, k_cold * v_l2)
        + q_cold * out_mult
    )

    # Fused: one interleaved phase plus the softmax spill phase.  The
    # spill phase contributes exactly zero time/traffic when nothing
    # spills (``x + 0.0 == x``), so it can be added unconditionally.
    # Attention variants restructure only the fused softmax term, with
    # each np.where branch computed by the exact scalar-path operations
    # (FLASH-D swaps in flashd_cycles; FuseMax takes max instead of
    # sum), so bit-equality with cost_la_pair is preserved per lane.
    sm_fused = np.where(f.v_flash, flashd, softmax_cycles)
    int_spill = int_cold * int_offchip
    fused_dram_main = dram_l_inputs + dram_a_inputs + 2.0 * int_spill
    fused_sg = sg_base_l + sg_base_a
    compute = compute_l + compute_a
    fused_busy = np.where(
        f.v_pipe,
        np.maximum(compute, sm_fused),
        compute + sm_fused,
    )
    fused_dram = fused_dram_main + 2.0 * int_spill

    # Unfused: three serial phases (L, softmax, A).
    unf_dram_l = dram_l_inputs + int_cold * int_offchip
    unf_dram_sm = 2.0 * int_cold * int_offchip
    unf_dram_a = dram_a_inputs + int_cold * int_offchip
    unf_dram = (unf_dram_l + unf_dram_sm) + unf_dram_a

    # Every phase of both executions in one call, one row each: the
    # fused phase and its spill phase, then the unfused L, softmax and
    # A phases.  Each (busy, DRAM, SG) term is already a float, so a
    # row holds the values the lone calls took.
    phases = np.empty((3, 5, len(f)))
    for j, terms in enumerate((
        (fused_busy, fused_dram_main, fused_sg),
        (0.0, 2.0 * int_spill, 0.0),
        (compute_l, unf_dram_l, sg_base_l + int_cold),
        (softmax_cycles, unf_dram_sm, 0.0),
        (compute_a, unf_dram_a, sg_base_a + int_cold),
    )):
        for i, term in enumerate(terms):
            phases[i, j] = term
    times = _phase_time(phases[0], phases[1], phases[2], accel)
    fused_steady = times[0] + times[1]
    unf_steady = (times[2] + times[3]) + times[4]
    unf_sg = (sg_base_l + int_cold) + (sg_base_a + int_cold)

    steady = np.where(f.fused, fused_steady, unf_steady)
    dram_words = np.where(f.fused, fused_dram, unf_dram)
    sg_words = np.where(f.fused, fused_sg, unf_sg)
    dram_bytes = dram_words * e
    warmup = _warmup_cycles(dram_bytes, n_pass_f, warmup_cap, f.fused,
                            accel)
    return _OpArrays(
        total_cycles=steady + warmup,
        dram_bytes=dram_bytes,
        dram_words=dram_words,
        sg_words=sg_words,
        footprint_bytes=fp_bytes,
        # Both the fused phase and the unfused L and A phases sum to
        # ``compute_l + compute_a``.  Only a fused dataflow carries a
        # variant (``Dataflow`` rejects the rest), so ``sm_fused`` is
        # the unfused softmax phase too.
        compute_cycles=compute,
        softmax_cycles=sm_fused,
        macs=macs,
        sl_words=sl_words,
        # FLASH-D does less SFU arithmetic; the energy accounting
        # mirrors the scalar path's per-variant flop count.
        sfu_ops=np.where(f.v_flash, flashd_flops, softmax_flops),
    )


# ----------------------------------------------------------------------
# non-L-A operators, stacked and vectorized (mirrors perf.cost_operator)
# ----------------------------------------------------------------------
def _operator_terms(ops: Sequence[GemmOperator], accel: Accelerator,
                    rigid: bool) -> Tuple[list, list, Optional[list]]:
    """One workload's per-operator terms, ``(ints, floats, effs)``:
    one tuple per operator, computed in Python as ``cost_operator``
    computes them (``effs`` is the rigid array's strict-axis efficiency
    per stationarity, ``None`` for a flexible one)."""
    rows_pe, cols_pe = accel.pe_array.rows, accel.pe_array.cols
    ints = [(op.m, op.k, op.n, op.rhs.role.is_weight, op.instances,
             op.lhs.num_elements, op.rhs.num_elements) for op in ops]
    floats = [(float(op.out.num_elements), float(op.macs),
               sg_stream_words(op.macs, accel) + op.out.num_elements,
               2.0 * op.macs + op.out.num_elements) for op in ops]
    effs = [
        (
            _strict_axis_eff(op.m, rows_pe) * _strict_axis_eff(op.n, cols_pe),
            _strict_axis_eff(op.k, rows_pe) * _strict_axis_eff(op.n, cols_pe),
            _strict_axis_eff(op.m, rows_pe) * _strict_axis_eff(op.k, cols_pe),
        )
        for op in ops
    ] if rigid else None
    return ints, floats, effs


def _evaluate_operators(
    w: _Workloads,
    ops: Sequence[Sequence[GemmOperator]],
    accel: Accelerator,
    options: PerfOptions,
    f: _GridFeatures,
) -> _OpArrays:
    """Every non-L-A operator of a scope over every candidate at once.

    Rows are operator slots and columns candidates; ``ops[i]`` is the
    slot list of workload ``i`` of ``w``.  Per-operator integers enter
    as int64 rows, and per-operator values the scalar path computes in
    Python (``sg_stream_words``, the count constants, the mapping
    efficiencies) are computed in Python here too, so each lane
    performs the scalar path's operations on its operand types.
    """
    e = accel.bytes_per_element
    rows_pe, cols_pe = accel.pe_array.rows, accel.pe_array.cols
    rigid = not options.flexible_mapping
    terms = [_operator_terms(slots, accel, rigid) for slots in ops]

    # One tile key per (GEMM shape, budget slot): the Q/K/V/O
    # projections of a block share theirs, and so do workloads that
    # share a shape.
    shapes: dict = {}
    ints = [
        [row + (shapes.setdefault(row[:3], len(shapes)),) for row in t[0]]
        for t in terms
    ]
    m, k, n, is_weight, instances, lhs_n, rhs_n, shape_index = (
        w.gather_slots(ints, f.ints.dtype))
    out_n, op_macs, sg_words, op_sl = w.gather_slots(
        [t[1] for t in terms], float)
    shape_list = list(shapes)

    # The footprint is zero without an L3 tile or with staging fully
    # disabled (operator_l3_footprint's early return); blending below
    # uses the raw staging flags, exactly like cost_operator.  Without
    # row granularity an operator's pass covers all m rows, so its row
    # pass count ``ceil_div(m, r)`` is 1.
    fp_mask = f.o_gran & f.o_any
    lhs_e, rhs_e, out_e = operator_l3_elements(
        f.o_b_t, np.where(is_weight, 1, f.o_b_t), m, k, n,
        f.o_lhs & fp_mask, f.o_rhs & fp_mask, f.o_out & fp_mask,
    )
    fp_total = lhs_e + rhs_e + out_e
    fp_bytes = fp_total * e
    budget = partition_scratchpad(fp_bytes, f.o_any, accel)

    inst_passes = ceil_div(instances, f.o_b_t)
    n_pass_f = inst_passes.astype(float)

    l2_values, slot = _l2_budget_slots(budget, accel)

    def build(code):
        (m_i, k_i, n_i), l2_i = shape_list[code >> 1], l2_values[code & 1]
        plan = tile_plan(m_i, k_i, n_i, l2_i, rows_pe, cols_pe)
        return (
            plan.lhs_passes,
            plan.rhs_passes,
            plan.out_passes,
            ceil_div(k_i, plan.tk),
            float(plan.footprint_elements() * e),
        )

    lhs_p, rhs_p, out_p, ko, warmup_cap = _tile_luts(
        shape_index * 2 + slot, build)
    out_l2 = _psum_passes_from_ko(ko, f.is_output)

    # Weights are re-streamed once per instance pass unless staged.
    rhs_l2 = np.where(is_weight, rhs_p * inst_passes, rhs_p)
    # One blend over the lhs, rhs and output planes, as in the L-A pair
    # (the small int pass counts stack as exact floats).
    lhs_mult, rhs_mult, out_mult = _blend_passes(
        np.stack([f.o_lhs, f.o_rhs, f.o_out])[:, None],
        budget.fit_fraction,
        np.stack([lhs_p, rhs_l2, np.maximum(out_p, out_l2)]).astype(float),
        options.spill_extra_pass_only,
    )

    dram_words = _traffic_sum(
        f.o_lhs, lhs_n * lhs_mult, lhs_n * lhs_p,
        f.o_rhs, rhs_n * rhs_mult, rhs_n * rhs_l2,
    ) + out_n * out_mult
    if not rigid:
        pes = accel.pe_array.num_pes
        eff = _per_value(m * k * n * f.o_b_t,
                         lambda v: v / (pes * ceil_div(v, pes)))
    else:
        # A wide call's stationarity indices are Python ints too.
        stat = f.stat_idx.astype(np.intp, copy=False)
        if w.lane is None:
            eff = np.asarray(terms[0][2])[:, stat]
        else:
            table = np.asarray([t[2] for t in terms])
            eff = table[w.lane, np.arange(table.shape[1])[:, None], stat]
    compute = _compute_cycles_from_eff(op_macs, eff, n_pass_f, accel,
                                       options)
    steady = _phase_time(compute, dram_words, sg_words, accel)
    dram_bytes = dram_words * e
    warmup = _warmup_cycles(dram_bytes, n_pass_f, warmup_cap, False,
                            accel)
    if w.lane is None:
        # Python floats, summed per operator as ScopeCost sums them.
        macs = [row[1] for row in terms[0][1]]
        sl_words = [row[3] for row in terms[0][1]]
    else:
        macs, sl_words = op_macs, op_sl
    return _OpArrays(
        total_cycles=steady + warmup,
        dram_bytes=dram_bytes,
        dram_words=dram_words,
        sg_words=sg_words,
        footprint_bytes=fp_bytes,
        compute_cycles=compute,
        softmax_cycles=0.0,
        macs=macs,
        sl_words=sl_words,
        sfu_ops=0.0,
    )


# ----------------------------------------------------------------------
# one lane's full breakdown
# ----------------------------------------------------------------------
def _lane_values(rows: "np.ndarray", i: int) -> list:
    """Lane ``i`` of an ``operators x lanes`` array (a one-lane-column
    array serves every lane) as Python scalars."""
    return rows[:, i if rows.shape[1] > 1 else 0].tolist()


class _Breakdown:
    """What :meth:`GridEvaluation.scope_cost` reads: the scope's cost
    rows (``plan``), the L-A pair's and the stacked operators'
    :class:`_OpArrays`, the call's workloads and each one's non-L-A
    operators.

    A lane's :class:`~repro.core.perf.OperatorCost` takes the values
    the kernel computed (cycles, traffic, footprint) from the arrays,
    and derives the rest in Python from them and the workload, as
    ``perf._assemble`` derives them — so every field is the scalar
    path's value, of the scalar path's type.
    """

    __slots__ = ("plan", "la", "stacked", "workloads", "others", "scope",
                 "accel", "_la_terms")

    def __init__(self, plan: Tuple[Optional[int], ...],
                 la: Optional[_OpArrays], stacked: Optional[_OpArrays],
                 workloads: _Workloads,
                 others: List[List[GemmOperator]], scope: Scope,
                 accel: Accelerator) -> None:
        self.plan = plan
        self.la = la
        self.stacked = stacked
        self.workloads = workloads
        self.others = others
        self.scope = scope
        self.accel = accel
        self._la_terms: dict = {}

    def _la_counts(self, wi: int) -> tuple:
        """Workload ``wi``'s dataflow-independent pair terms, as
        ``cost_la_pair`` computes them: ``(macs, out elements, softmax
        flops, FLASH-D flops)``."""
        terms = self._la_terms.get(wi)
        if terms is None:
            cfg = self.workloads.configs[wi]
            b, h, nq = cfg.batch, cfg.heads, cfg.seq_q
            out_cold = b * h * nq * cfg.d_head
            int_cold = b * h * nq * cfg.seq_kv
            macs_l = b * h * nq * cfg.seq_kv * cfg.d_head
            sfu = self.accel.sfu
            # Every phase list sums its softmax elements to this float.
            terms = self._la_terms[wi] = (
                macs_l + macs_l, out_cold,
                float(sfu.softmax_flops(int(float(int_cold)))),
                float(sfu.flashd_flops(int_cold, out_cold)),
            )
        return terms

    def _operator_cost(self, name: str, macs: int, out_elements: int,
                       total: float, compute: float, softmax: float,
                       dram_bytes: float, dram_words: float,
                       sg_words: float, footprint: int,
                       sfu_ops: float) -> OperatorCost:
        accel = self.accel
        sg_bytes = sg_words * accel.bytes_per_element
        return OperatorCost(
            name=name,
            total_cycles=total,
            ideal_cycles=macs / accel.peak_macs_per_cycle,
            compute_cycles=compute,
            softmax_cycles=softmax,
            dram_cycles=dram_bytes / accel.offchip_bytes_per_cycle,
            sg_cycles=sg_bytes / accel.onchip_bytes_per_cycle,
            dram_bytes=dram_bytes,
            sg_bytes=sg_bytes,
            footprint_bytes=footprint,
            counts=ActivityCounts(
                macs=float(macs),
                sl_words=2.0 * macs + out_elements,
                sg_words=sg_words,
                dram_words=dram_words,
                sfu_ops=sfu_ops,
            ),
        )

    def scope_cost(self, i: int, dataflow: Dataflow) -> ScopeCost:
        w = self.workloads
        wi = 0 if w.lane is None else int(w.lane[i])
        cfg = w.configs[wi]
        costs: List[OperatorCost] = []
        st = self.stacked
        if st is not None:
            columns = [_lane_values(rows, i) for rows in (
                st.total_cycles, st.compute_cycles, st.dram_bytes,
                st.dram_words, st.sg_words, st.footprint_bytes)]
            ops = self.others[wi]
            # cost_scope's default *other* dataflow (see _GridFeatures).
            other = ("Base" if dataflow.fused or dataflow.granularity is None
                     else dataflow.name)
        for row in self.plan:
            if row is None:
                la = self.la
                macs, out_cold, sfu_softmax, sfu_flashd = self._la_counts(wi)
                flashd = dataflow.variant is AttentionVariant.FLASH_D
                costs.append(self._operator_cost(
                    f"{cfg.name}.logit+attend[{dataflow.name}]", macs,
                    out_cold, la.total_cycles.item(i),
                    la.compute_cycles.item(i), la.softmax_cycles.item(i),
                    la.dram_bytes.item(i), la.dram_words.item(i),
                    la.sg_words.item(i), la.footprint_bytes.item(i),
                    sfu_flashd if flashd else sfu_softmax,
                ))
            else:
                op = ops[row]
                total, compute, dram_bytes, dram_words, sg_words, fp = (
                    column[row] for column in columns)
                costs.append(self._operator_cost(
                    f"{op.name}[{other}]", op.macs, op.out.num_elements,
                    total, compute, 0.0, dram_bytes, dram_words, sg_words,
                    fp, 0.0,
                ))
        return ScopeCost(
            operator_costs=costs,
            replication=cfg.num_blocks if self.scope is Scope.MODEL else 1,
        )


# ----------------------------------------------------------------------
# whole-scope grid evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridLanes:
    """The candidates of several searches, segment after segment.

    Each segment is :class:`GridRows` of one search's table; segment
    ``s`` is scored on the workload ``cfg[s]`` passed to
    :func:`evaluate_grid` alongside.  ``len`` is the total lane count.
    """

    segments: Tuple[GridRows, ...]

    def __len__(self) -> int:
        return sum(len(s) for s in self.segments)

    def take(self) -> _GridFeatures:
        parts = [s.take() for s in self.segments]
        if len(parts) == 1:
            return parts[0]
        return _GridFeatures.from_columns(
            np.concatenate([p.ints for p in parts], axis=1),
            np.concatenate([p.flags for p in parts], axis=1),
        )


def is_wide(cfg: AttentionConfig, scope: Scope, e: int) -> bool:
    """Whether grids on ``cfg`` run their integer columns as Python ints:
    past an operator's ``macs * e`` of 2**58, or twice the full volume
    of the scope's tensors, in bytes, of 2**53 (see the module
    docstring).  The L-A scope is read off the config without building
    its operator list.
    """
    if scope is Scope.LA:
        bh, nq, nkv = cfg.batch * cfg.heads, cfg.seq_q, cfg.seq_kv
        macs = bh * nq * nkv * cfg.d_head
        volume = bh * (2 * (nq + nkv) * cfg.d_head + nq * nkv)
    else:
        ops = operators_for_scope(cfg, scope)
        macs = max(op.macs for op in ops)
        volume = sum(op.min_traffic_elements() for op in ops)
    return (macs * e >= _MAX_INT64_MAC_BYTES
            or 2 * volume * e >= _MAX_EXACT_INT)


def _scope_plan(cfg: AttentionConfig, scope: Scope
                ) -> Tuple[Tuple[Optional[int], ...], List[GemmOperator]]:
    """A scope's cost rows in execution order, and its non-L-A operators.

    ``None`` is the L-A pair, an int is a row of the stacked non-L-A
    operators.  The L-A scope is the pair alone, read off the config
    without building its operator list.
    """
    if scope is Scope.LA:
        return (None,), []
    ops = operators_for_scope(cfg, scope)
    plan: List[Optional[int]] = []
    others: List[GemmOperator] = []
    i = 0
    while i < len(ops):
        op = ops[i]
        if (
            op.kind is OperatorKind.LOGIT
            and i + 1 < len(ops)
            and ops[i + 1].kind is OperatorKind.ATTEND
        ):
            plan.append(None)  # the L-A pair (A has L's MAC count)
            i += 2
            continue
        # Every scope lists L directly before A, so a standalone L or A
        # (which only the scalar path costs) never reaches this point.
        assert not (op.is_activation_activation or op.softmax_after), op
        plan.append(len(others))
        others.append(op)
        i += 1
    return tuple(plan), others


def evaluate_grid(
    cfg: "AttentionConfig | Sequence[AttentionConfig]",
    scope: Scope,
    accel: Accelerator,
    dataflows: "Sequence[Dataflow] | GridRows | GridLanes",
    options: PerfOptions = PerfOptions(),
) -> GridEvaluation:
    """Cost every candidate dataflow of a scope in one vectorized pass.

    Mirrors ``cost_scope(cfg, scope, accel, df, options=options)`` for
    each ``df`` (with the default *other* dataflow derivation), summing
    operator costs in the same order with the same association, so the
    results equal the scalar path's bit for bit.  The candidates are
    either ``Dataflow`` objects or :class:`GridRows` of a search
    space's column table; both become the same :class:`_GridFeatures`
    and run the same kernel.  For :class:`GridLanes` — the rows of
    several searches — ``cfg`` is a sequence with one workload per
    segment, and each lane is scored on its segment's workload, equal
    to a one-segment call on that workload.  The workloads must share
    their operator plan (every scope lists the same operator kinds for
    every model).

    A call with a workload past the int64 lanes' edges (:func:`is_wide`)
    runs its integer columns as Python ints, so it is exact too.
    """
    lane = None
    if isinstance(dataflows, GridLanes):
        seg_configs = tuple(cfg)
        if len(seg_configs) != len(dataflows.segments):
            raise ValueError("GridLanes needs one workload per segment")
        index: dict = {}
        seg_workload = [index.setdefault(c, len(index))
                        for c in seg_configs]
        configs = list(index)
        if len(configs) > 1:
            lane = np.repeat(np.asarray(seg_workload, dtype=np.intp),
                             [len(s) for s in dataflows.segments])
        segments = len(seg_configs)
    else:
        if not isinstance(dataflows, GridRows):
            dataflows = list(dataflows)
        configs = [cfg]
        segments = 1
    n = len(dataflows)
    if not n:
        raise ValueError("evaluate_grid needs at least one candidate")
    registry = _metrics_active()
    if registry is not None:
        registry.counter("batch.grids").inc()
        registry.histogram("batch.grid_points").observe(n)
        registry.histogram("batch.grid_segments").observe(segments)

    plans = [_scope_plan(c, scope) for c in configs]
    plan = plans[0][0]
    if any(p != plan for p, _ in plans):
        raise ValueError("grid workloads must share one operator plan")
    w = _Workloads(configs, lane)

    if isinstance(dataflows, (GridRows, GridLanes)):
        f = dataflows.take()
    else:
        f = _GridFeatures(cfg, dataflows)
    e = accel.bytes_per_element
    if any(is_wide(c, scope, e) for c in configs):
        f = _GridFeatures.from_columns(f.ints.astype(object), f.flags)
    la = _evaluate_la_pair(w, accel, options, f) if None in plan else None
    stacked = (
        _evaluate_operators(w, [others for _, others in plans], accel,
                            options, f)
        if plans[0][1] else None
    )
    total_cycles = dram_bytes = dram_words = sg_words = None
    macs = 0.0
    sl_words = 0.0
    sfu_ops = 0.0
    footprint = la.footprint_bytes if la is not None else None
    if stacked is not None:
        op_fp = stacked.footprint_bytes.max(axis=0)
        footprint = (op_fp if footprint is None
                     else np.maximum(footprint, op_fp))
    # Sum the rows in execution order, as ScopeCost sums its operators.
    for row in plan:
        if row is None:
            rows = (la.total_cycles, la.dram_bytes, la.dram_words,
                    la.sg_words)
            row_macs, row_sl, row_sfu = la.macs, la.sl_words, la.sfu_ops
        else:
            rows = (stacked.total_cycles[row], stacked.dram_bytes[row],
                    stacked.dram_words[row], stacked.sg_words[row])
            row_macs = stacked.macs[row]
            row_sl = stacked.sl_words[row]
            row_sfu = stacked.sfu_ops
        if total_cycles is None:
            total_cycles, dram_bytes, dram_words, sg_words = rows
        else:
            total_cycles = total_cycles + rows[0]
            dram_bytes = dram_bytes + rows[1]
            dram_words = dram_words + rows[2]
            sg_words = sg_words + rows[3]
        macs = macs + row_macs
        sl_words = sl_words + row_sl
        sfu_ops = sfu_ops + row_sfu

    replication = 1
    if scope is Scope.MODEL:
        (replication,) = w.gather([(c.num_blocks,) for c in configs],
                                  np.int64)
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
        sg_words=np.broadcast_to(sg_words, (n,)) * replication,
        dram_words=dram_words * replication,
        sfu_ops=sfu_col,
        breakdown=_Breakdown(plan, la, stacked, w,
                             [others for _, others in plans], scope, accel),
    )
