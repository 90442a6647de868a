"""Search engine for the dataflow DSE: generated, pruned, memoized.

:func:`repro.core.dse.search` delegates the actual work to
:func:`run_search` here.  The paper's exhaustive sweep (section 5.3.3)
is repeated across five models, sequence lengths 512 to 256K, two
platforms and several accelerator variants; a search takes one of two
paths, chosen by what the caller asks for:

* **Best only** (``retain_points=False``, any objective except
  ``FOOTPRINT``): analytic candidate generation with branch-and-bound
  (:mod:`repro.core.candidates`).  The space is planned as *families*
  (stationarity x granularity x row count; see
  :class:`repro.core.dse.DataflowFamily`) and never materialized as a
  grid.  Each family gets an admissible lower bound from its cheapest
  representative member, and families are scored best-bound-first:
  the best families' scores seed the incumbent, then every family
  whose bound exceeds the incumbent is skipped without ever expanding
  its members.  Survivors are scored by the vectorized backend
  (:func:`repro.core.batch.evaluate_grid`).  When a scoring call raises
  :class:`~repro.core.batch.BatchFallback` (a workload beyond the
  float64-exact range), that call's members are scored one by one by
  the memoized scalar model instead, so family pruning and the winner
  memo cover those searches too.  A ``warm_start``
  :class:`~repro.core.candidates.Incumbent` (the neighboring sweep
  point's winner, re-evaluated under the current config/accelerator —
  its value is never trusted) seeds the incumbent before any family is
  scored, turning most sweep searches into bound-confirmation passes.
* **Every point** (``retain_points=True``, e.g. the Figure 10 scatter,
  and the ``FOOTPRINT`` objective, which has no cost bound): the space
  is enumerated and every dataflow is scored by the memoized scalar
  model.

Both paths return the winner of a plain exhaustive loop: bounds are
admissible, skipping is strict (``bound > incumbent``), and selection
minimizes ``(value, global enumeration index)`` — the exhaustive
first-in-order tie-break.  Three more optimizations sit under both:

* **Lazy energy.**  ``energy_report`` runs only when the objective
  (``ENERGY``/``EDP``) or a ``retain_points=True`` caller actually
  needs it; a pure-runtime search computes energy once, for the winner.
* **Cross-sweep memoization.**  Scalar evaluations are cached in a
  process-wide LRU keyed on ``(AttentionConfig, accelerator
  fingerprint, Dataflow, PerfOptions, Scope)``, and every search
  remembers its answer — a best-only search its winner's index and
  cost, an every-point search its costs — so a repeat search touches
  one entry.  The cache stores only deterministic
  :class:`~repro.core.perf.ScopeCost` values; energy is derived per
  caller (it depends on the energy table).
* **Cross-run persistence.**  When a cache directory is configured
  (``--cache-dir`` / ``REPRO_CACHE_DIR``; see :mod:`repro.core.cache`),
  :func:`run_search`, :func:`evaluate_cost` and
  :func:`repro.core.scaleout.search_scaleout` look their answer up on
  disk after an LRU miss and write a fresh answer back — one entry per
  call (:func:`_memoized`).  A re-run of any sweep, in any process,
  starts warm; entries are invalidated wholesale when the cost-model
  source fingerprint changes.

Every search reports a :class:`SearchStats` (enumerated / pruned /
cached / evaluated point counts plus wall time) on its
:class:`~repro.core.dse.DSEResult` so pruning efficacy is measurable —
see ``benchmarks/bench_dse_engine.py``.  A per-process accumulator
(:func:`search_totals`) sums those stats across searches so whole
experiments and pipeline runs can report their DSE work.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.arch.accelerator import Accelerator
from repro.core.batch import BatchFallback, evaluate_grid
from repro.core.cache import PersistentCache, get_default_cache
from repro.core.candidates import (
    CandidatePlan,
    Incumbent,
    family_representative,
    locate_candidate,
    plan_candidates,
)
from repro.core.dataflow import AttentionVariant, Dataflow, Stationarity
from repro.core.dse import (
    DesignPoint,
    DSEResult,
    Objective,
    SearchSpace,
    enumerate_dataflows,
    expand_family,
)
from repro.core.footprint import fused_la_footprint
from repro.core.perf import (
    PerfOptions,
    ScopeCost,
    cost_scope,
    la_pair_compute_cycles,
    partition_scratchpad,
    sg_stream_words,
)
from repro.core.tiling import ceil_div, choose_l2_tile, reuse_passes
from repro.energy.model import ActivityCounts, energy_report
from repro.energy.tables import EnergyTable
from repro.obs.metrics import active as _metrics_active
from repro.obs.trace import span as _span
from repro.ops.attention import AttentionConfig, Scope, operators_for_scope
from repro.ops.intensity import roofline_cycles
from repro.ops.operator import GemmOperator, OperatorKind

__all__ = [
    "SearchStats",
    "run_search",
    "accelerator_fingerprint",
    "cycles_lower_bound",
    "objective_lower_bound",
    "clear_evaluation_cache",
    "evaluation_cache_info",
    "evaluate_cost",
    "reset_search_totals",
    "search_totals",
    "scoped_search_totals",
]

# Multiplicative slack shaving ~1e-9 off every bound: the bound and the
# model share their closed forms, and this keeps float rounding from
# ever nudging a bound above the true cost it underestimates.
_BOUND_SLACK = 1.0 - 1e-9

# Below this many live candidates the representative round of the
# branch-and-bound cannot recoup the fixed overhead of an extra
# vectorized batch call (~60 candidates' worth of marginal scoring):
# expand and score the live families in one call instead.
_MERGE_BATCH_LIMIT = 96


@dataclass(frozen=True)
class SearchStats:
    """Work accounting for one :func:`run_search` call.

    ``enumerated = cache_hits + pruned + evaluated`` always holds; the
    speedup story of a sweep is the fraction of ``enumerated`` that
    never reached the cost model.  ``disk_hits`` is the subset of
    ``cache_hits`` served by the persistent cross-run cache rather than
    the in-process LRU: a search answered from disk books its whole
    space there.  ``evaluated`` counts scalar cost-model runs:
    every point of an every-point search that missed the LRU, every
    member a best-only search scored through the scalar fallback, and
    the winner's scalar breakdown.  ``batch_evaluations`` counts
    candidates scored by the vectorized backend only; it sits outside
    the invariant — a batch-scored loser is accounted as ``pruned`` (it
    provably cannot win).

    The best-only path adds three counters.  ``candidates_generated``
    is how many members the generator actually materialized;
    ``candidates_skipped`` is how many it provably never had to
    construct or score (members of bound-gated families — a subset of
    ``pruned``, which also books batch-scored losers);
    ``families_pruned`` counts whole families skipped by
    branch-and-bound.  There ``candidates_generated +
    candidates_skipped == enumerated`` — the full space size — so the
    invariant above holds unchanged.
    """

    enumerated: int
    evaluated: int
    pruned: int
    cache_hits: int
    wall_time_s: float
    disk_hits: int = 0
    batch_evaluations: int = 0
    candidates_generated: int = 0
    candidates_skipped: int = 0
    families_pruned: int = 0

    def __post_init__(self) -> None:
        if self.enumerated != self.cache_hits + self.pruned + self.evaluated:
            raise ValueError(
                "stats do not add up: enumerated != hits + pruned + evaluated"
            )
        if not 0 <= self.disk_hits <= self.cache_hits:
            raise ValueError("disk_hits must lie within cache_hits")
        if self.batch_evaluations < 0:
            raise ValueError("batch_evaluations must be non-negative")
        if min(self.candidates_generated, self.candidates_skipped,
               self.families_pruned) < 0:
            raise ValueError("candidate counters must be non-negative")
        if self.candidates_skipped > self.pruned:
            raise ValueError("candidates_skipped must lie within pruned")


# ----------------------------------------------------------------------
# per-process search accounting (summed over every run_search call)
# ----------------------------------------------------------------------
_TOTALS_ZERO = {
    "searches": 0,
    "enumerated": 0,
    "evaluated": 0,
    "pruned": 0,
    "cache_hits": 0,
    "disk_hits": 0,
    "batch_evaluations": 0,
    "candidates_generated": 0,
    "candidates_skipped": 0,
    "families_pruned": 0,
    "wall_time_s": 0.0,
}
_totals = dict(_TOTALS_ZERO)

# Guards the accumulator against concurrent ``_accumulate`` calls: the
# serving layer (repro.serve) answers queries from executor threads.
# See docs/search_engine.md ("Concurrency contract").
_TOTALS_LOCK = threading.Lock()


def reset_search_totals() -> None:
    """Zero the per-process accumulated :class:`SearchStats`."""
    with _TOTALS_LOCK:
        _totals.update(_TOTALS_ZERO)


def search_totals() -> dict:
    """Accumulated stats of every search since the last reset.

    Per-process: a pipeline worker reports the experiments *it* ran.
    """
    with _TOTALS_LOCK:
        return dict(_totals)


@contextmanager
def scoped_search_totals() -> Iterator[None]:
    """Zero the accumulator for a block, then restore the caller's totals.

    The pipeline's in-process execution path (``workers=1``) measures
    per-experiment work by resetting the accumulator; doing that with
    :func:`reset_search_totals` silently destroys whatever the caller
    had accumulated.  This scope makes the measurement side-effect-free:
    on exit the accumulator holds exactly the values it held on entry.

    The save/zero and restore steps are individually atomic, but the
    scope itself is not isolated from other threads: searches run by a
    concurrent thread while the block is active land in (and are then
    discarded with) the scoped window.  Serialize callers that need an
    exact per-block attribution — the serve layer runs experiments on a
    dedicated single-thread executor for exactly this reason.
    """
    with _TOTALS_LOCK:
        saved = dict(_totals)
        _totals.update(_TOTALS_ZERO)
    try:
        yield
    finally:
        with _TOTALS_LOCK:
            _totals.clear()
            _totals.update(saved)


def _metric_inc(name: str, amount: int = 1) -> None:
    if amount:
        registry = _metrics_active()
        if registry is not None:
            registry.counter(name).inc(amount)


def _accumulate(stats: SearchStats) -> None:
    with _TOTALS_LOCK:
        _totals["searches"] += 1
        _totals["enumerated"] += stats.enumerated
        _totals["evaluated"] += stats.evaluated
        _totals["pruned"] += stats.pruned
        _totals["cache_hits"] += stats.cache_hits
        _totals["disk_hits"] += stats.disk_hits
        _totals["batch_evaluations"] += stats.batch_evaluations
        _totals["candidates_generated"] += stats.candidates_generated
        _totals["candidates_skipped"] += stats.candidates_skipped
        _totals["families_pruned"] += stats.families_pruned
        _totals["wall_time_s"] += stats.wall_time_s
    registry = _metrics_active()
    if registry is not None:
        registry.counter("engine.searches").inc()
        registry.counter("engine.enumerated").inc(stats.enumerated)
        registry.counter("engine.evaluated").inc(stats.evaluated)
        registry.counter("engine.pruned").inc(stats.pruned)
        registry.counter("engine.lru_hits").inc(
            stats.cache_hits - stats.disk_hits
        )
        registry.counter("engine.disk_hits").inc(stats.disk_hits)
        registry.counter("engine.batch_evaluations").inc(
            stats.batch_evaluations
        )
        registry.counter("engine.candidates.generated").inc(
            stats.candidates_generated
        )
        registry.counter("engine.candidates.skipped").inc(
            stats.candidates_skipped
        )
        registry.counter("engine.candidates.families_pruned").inc(
            stats.families_pruned
        )
        registry.gauge("engine.lru_entries").set(len(_CACHE))


# ----------------------------------------------------------------------
# cross-sweep evaluation cache
# ----------------------------------------------------------------------
class _LRUCache:
    """Minimal LRU mapping, lock-guarded for threaded servers.

    The serving layer (:mod:`repro.serve`) shares this process-wide
    memo across executor threads: ``move_to_end`` plus the hit/miss
    counters are read-modify-write sequences, so every public method
    holds a mutex.  Uncontended acquisition is tens of nanoseconds —
    noise next to a ``cost_scope`` evaluation.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: "OrderedDict[tuple, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> Any:
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: tuple, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


_CACHE = _LRUCache(maxsize=8192)  # process-wide evaluation memo


def clear_evaluation_cache() -> None:
    """Drop all memoized evaluations (tests, memory pressure)."""
    _CACHE.clear()


def evaluation_cache_info() -> dict:
    """Current size and lifetime hit/miss counters of the cache."""
    return {
        "entries": len(_CACHE),
        "maxsize": _CACHE.maxsize,
        "hits": _CACHE.hits,
        "misses": _CACHE.misses,
    }


def accelerator_fingerprint(accel: Accelerator) -> tuple:
    """Hashable identity of everything about an accelerator the cost
    model can observe.

    The ``name`` is deliberately excluded: two differently named but
    otherwise identical accelerators produce identical costs, and the
    buffer/bandwidth sweeps build exactly such variants.
    """
    return (
        accel.pe_array,
        accel.scratchpad,
        accel.offchip,
        accel.noc,
        accel.sfu,
        accel.frequency_hz,
        accel.bytes_per_element,
    )


@dataclass(frozen=True)
class _Evaluator:
    """Per-point costs of one search identity, memoized in the LRU only.

    Every scalar evaluation inside a search — the every-point path,
    ``BatchFallback`` scoring, the warm seed and the winner's breakdown
    — goes through :meth:`resolve`, which reports its source (``"lru"``
    or ``"model"``).  Results stay in the process-wide LRU; the disk
    tier sits one level up and stores each search's answer
    (:func:`_memoized`).
    """

    cfg: AttentionConfig
    scope: Scope
    accel: Accelerator
    accel_fp: tuple
    options: PerfOptions

    def key(self, dataflow: Dataflow) -> tuple:
        return (self.cfg, self.accel_fp, dataflow, self.options, self.scope)

    def resolve(self, dataflow: Dataflow) -> Tuple[ScopeCost, str]:
        """Cached cost of ``dataflow``, evaluating (and caching) a miss."""
        key = self.key(dataflow)
        cost = _CACHE.get(key)
        if cost is not None:
            return cost, "lru"
        cost = cost_scope(self.cfg, self.scope, self.accel, dataflow,
                          options=self.options)
        _CACHE.put(key, cost)
        return cost, "model"


def _memoized(key: tuple, compute: Callable[[], Any],
              store: Optional[PersistentCache]) -> Tuple[Any, str]:
    """The one LRU -> disk -> ``compute()`` lookup of a re-asked answer.

    :func:`run_search`, :func:`evaluate_cost` and
    :func:`repro.core.scaleout.search_scaleout` answer through here, so
    each call makes at most one disk lookup and one disk write.
    Returns the value and its source: ``"lru"``, ``"disk"`` or
    ``"model"`` (computed).
    """
    value = _CACHE.get(key)
    if value is not None:
        return value, "lru"
    if store is not None:
        value = store.get(key)
        if value is not None:
            _CACHE.put(key, value)
            return value, "disk"
    value = compute()
    _CACHE.put(key, value)
    if store is not None:
        store.put(key, value)
    return value, "model"


_SOURCE_METRIC = {
    "lru": "engine.lru_hits",
    "disk": "engine.disk_hits",
    "model": "engine.evaluated",
}


def evaluate_cost(
    cfg: AttentionConfig,
    scope: Scope,
    accel: Accelerator,
    dataflow: Dataflow,
    options: PerfOptions = PerfOptions(),
) -> ScopeCost:
    """Memoized :func:`~repro.core.perf.cost_scope` for fixed dataflows.

    The caching entry point for callers outside the search loop (the
    figure harnesses evaluate fixed dataflow lineups point by point):
    checks the in-process LRU, then the persistent cross-run cache,
    and only then runs the cost model — storing the result in both.
    Semantically identical to calling ``cost_scope`` directly.
    """
    ev = _Evaluator(cfg, scope, accel, accelerator_fingerprint(accel),
                    options)
    sources: List[str] = []

    def _cost() -> ScopeCost:
        # A search may already hold this point in the LRU; the answer's
        # own key keeps its disk entry independent of that.
        cost, source = ev.resolve(dataflow)
        sources.append(source)
        return cost

    cost, source = _memoized(("cost",) + ev.key(dataflow), _cost,
                             get_default_cache())
    _metric_inc(_SOURCE_METRIC[sources[0] if sources else source])
    return cost


# ----------------------------------------------------------------------
# admissible lower bounds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _BoundTerms:
    """Lower bounds on cycles and activity counts for some operators."""

    cycles: float
    counts: ActivityCounts

    def __add__(self, other: "_BoundTerms") -> "_BoundTerms":
        return _BoundTerms(
            cycles=self.cycles + other.cycles,
            counts=self.counts + other.counts,
        )


def _operator_bound(op: GemmOperator, accel: Accelerator) -> _BoundTerms:
    """Bound for one non-L-A operator, independent of its dataflow.

    Every tensor's off-chip pass multiplier in
    :func:`~repro.core.perf.cost_operator` is >= 1 (staged-and-fitting
    tensors pay one cold pass; everything else pays at least its L2
    reuse passes), so the compulsory traffic is a true floor, as are the
    ideal MAC cycles and the serial softmax pass.
    """
    e = accel.bytes_per_element
    out_elements = op.out.num_elements
    ideal = op.macs / accel.peak_macs_per_cycle
    softmax = (
        accel.sfu.softmax_cycles(out_elements) if op.softmax_after else 0.0
    )
    cold = op.lhs.num_elements + op.rhs.num_elements + out_elements
    sg_words = sg_stream_words(op.macs, accel) + out_elements
    cycles = roofline_cycles(
        ideal + softmax,
        cold * e / accel.offchip_bytes_per_cycle,
        sg_words * e / accel.onchip_bytes_per_cycle,
    )
    sfu_ops = accel.sfu.softmax_flops(out_elements) if op.softmax_after else 0
    counts = ActivityCounts(
        macs=float(op.macs),
        sl_words=2.0 * op.macs + out_elements,
        sg_words=sg_words,
        dram_words=float(cold),
        sfu_ops=float(sfu_ops),
    )
    return _BoundTerms(cycles=cycles, counts=counts)


@lru_cache(maxsize=512)
def _scope_static_bound(
    cfg: AttentionConfig, scope: Scope, accel: Accelerator
) -> Tuple[_BoundTerms, bool, int]:
    """The candidate-independent part of a scope's lower bound.

    Sums :func:`_operator_bound` over every operator the scope covers
    except the L-A pair (whose bound depends on the candidate dataflow)
    and reports whether such a pair is present plus the scope's
    replication factor.  Mirrors the pair detection of
    :func:`~repro.core.perf.cost_scope`.
    """
    ops = operators_for_scope(cfg, scope)
    total = _BoundTerms(cycles=0.0, counts=ActivityCounts())
    has_la = False
    i = 0
    while i < len(ops):
        op = ops[i]
        if (
            op.kind is OperatorKind.LOGIT
            and i + 1 < len(ops)
            and ops[i + 1].kind is OperatorKind.ATTEND
        ):
            has_la = True
            i += 2
            continue
        total = total + _operator_bound(op, accel)
        i += 1
    replication = cfg.num_blocks if scope is Scope.MODEL else 1
    return total, has_la, replication


def _la_pair_bound(
    cfg: AttentionConfig,
    accel: Accelerator,
    dataflow: Dataflow,
    options: PerfOptions,
    fused_in_family: Optional[bool] = None,
) -> _BoundTerms:
    """Bound for the L-A pair under one candidate dataflow.

    A roofline over floors the pair can never beat, sharing the model's
    own closed forms — the L2 tile choice, the staging-budget split,
    the reuse-pass counts and the warm-up arithmetic are the very
    functions :func:`~repro.core.perf.cost_la_pair` calls, and none of
    them depend on the staging policy, so one evaluation of this bound
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
    * **Prefetch warm-up.**  The model's own
      :func:`~repro.core.perf._warmup_cycles` arithmetic applied to the
      traffic floor, with the fused overlap credit whenever any member
      may fuse.

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

    # The model's own (staging-policy-independent) budget split, tile
    # choice and reuse analysis.
    footprint = fused_la_footprint(cfg, dataflow)
    budget = partition_scratchpad(
        footprint.total_bytes(e), staged and s.any_enabled, accel, options
    )
    staging_bytes = float(budget.staging_budget_bytes)
    tile_l = choose_l2_tile(
        r, dk, nkv, budget.l2_budget_elements,
        accel.pe_array.rows, accel.pe_array.cols,
    )
    tile_a = choose_l2_tile(
        r, nkv, dk, budget.l2_budget_elements,
        accel.pe_array.rows, accel.pe_array.cols,
    )
    passes_l = reuse_passes(r, dk, nkv, tile_l)
    passes_a = reuse_passes(r, nkv, dk, tile_a)

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
    cycles = roofline_cycles(
        serial,
        dram_bytes / accel.offchip_bytes_per_cycle,
        sg_words * e / accel.onchip_bytes_per_cycle,
    )
    # Exposed prefetch warm-up on the traffic floor (monotone in the
    # DRAM bytes, so a floor in, a floor out); any possibly-fused
    # member gets the overlap credit.
    warmup_cap = float(
        (tile_l.footprint_elements() + tile_a.footprint_elements()) * e
    )
    warmup_bytes = min(dram_bytes / max(float(n_pass), 1.0), warmup_cap)
    warmup = warmup_bytes / accel.offchip_bytes_per_cycle
    if may_fuse:
        warmup = warmup * options.fused_warmup_credit
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
    return _BoundTerms(cycles=cycles, counts=counts)


def _candidate_bound(
    cfg: AttentionConfig,
    scope: Scope,
    accel: Accelerator,
    dataflow: Dataflow,
    options: PerfOptions,
    fused_in_family: Optional[bool] = None,
) -> Tuple[float, ActivityCounts]:
    static, has_la, replication = _scope_static_bound(cfg, scope, accel)
    total = static
    if has_la:
        total = total + _la_pair_bound(
            cfg, accel, dataflow, options, fused_in_family
        )
    return replication * total.cycles, total.counts.scaled(replication)


def cycles_lower_bound(
    cfg: AttentionConfig,
    scope: Scope,
    accel: Accelerator,
    dataflow: Dataflow,
    options: PerfOptions = PerfOptions(),
) -> float:
    """Admissible lower bound on ``cost_scope(...).total_cycles``.

    Never exceeds the true cost (see ``test_engine.py``'s admissibility
    sweep), and costs ~an order of magnitude less to compute than the
    full model because it needs no L2 tile search.
    """
    cycles, _ = _candidate_bound(cfg, scope, accel, dataflow, options)
    return cycles * _BOUND_SLACK


def objective_lower_bound(
    objective: Objective,
    cfg: AttentionConfig,
    scope: Scope,
    accel: Accelerator,
    dataflow: Dataflow,
    options: PerfOptions = PerfOptions(),
    energy_table: Optional[EnergyTable] = None,
    fused_in_family: Optional[bool] = None,
) -> Optional[float]:
    """Lower bound on the objective value, or ``None`` if unbounded.

    ``FOOTPRINT`` returns ``None`` — footprints need no cost bound and
    the engine disables pruning for that objective.

    ``fused_in_family`` (see :func:`_la_pair_bound`) widens the bound
    to cover a whole dataflow family that may mix fused and unfused
    members; ``None`` bounds exactly the given dataflow.
    """
    if objective is Objective.FOOTPRINT:
        return None
    cycles, counts = _candidate_bound(
        cfg, scope, accel, dataflow, options, fused_in_family
    )
    if objective is Objective.RUNTIME:
        return cycles * _BOUND_SLACK
    energy = energy_report(counts, energy_table).total_j
    if objective is Objective.ENERGY:
        return energy * _BOUND_SLACK
    return energy * cycles * _BOUND_SLACK



# ----------------------------------------------------------------------
# the two search paths
# ----------------------------------------------------------------------
def _locate_warm_start(
    warm: Optional[Incumbent],
    cfg: AttentionConfig,
    scope: Scope,
    objective: Objective,
    space: SearchSpace,
    options: PerfOptions,
) -> Optional[int]:
    """Global enumeration index of a valid ``warm_start`` seed, or ``None``.

    An incumbent is *rejected* (``engine.warm_start.rejected`` counter)
    when it was found under a different objective, scope or model
    options, or when its dataflow is not a member of the current space
    (e.g. a row count outside this config's ladder).  A differing
    accelerator or config is *not* a rejection: the incumbent carries
    no trusted value — the engine re-evaluates the seed dataflow under
    the current config/accelerator, which is exactly what makes
    neighbor-seeding across a buffer or sequence sweep safe.
    """
    if warm is None:
        return None
    if (
        warm.objective is not objective
        or warm.scope is not scope
        or warm.options != options
    ):
        _metric_inc("engine.warm_start.rejected")
        return None
    index = locate_candidate(cfg, space, warm.dataflow)
    if index is None:
        _metric_inc("engine.warm_start.rejected")
        return None
    return index


def _candidate_search(
    ev: _Evaluator,
    objective: Objective,
    space: SearchSpace,
    energy_table: Optional[EnergyTable],
    start: float,
    warm: Optional[Incumbent],
    store: Optional[PersistentCache],
) -> DSEResult:
    """Best-only path: the memoized answer, or :func:`_branch_and_bound`.

    The answer — the winner's global enumeration index and its
    ``ScopeCost`` — is keyed on the space, not the expanded grid: the
    dse/candidates sources are in the disk-cache fingerprint, so an
    index keeps its meaning.
    """
    cfg, scope, options = ev.cfg, ev.scope, ev.options
    plan = plan_candidates(objective, cfg, scope, ev.accel, space,
                           options=options, energy_table=energy_table)
    if plan.total == 0:
        raise ValueError("search space is empty")
    searched: List[SearchStats] = []

    def _compute() -> Tuple[int, ScopeCost]:
        index, cost, stats = _branch_and_bound(ev, plan, objective, space,
                                               energy_table, start, warm)
        searched.append(stats)
        return index, cost

    key = ("search", cfg, ev.accel_fp, options, scope, objective,
           energy_table, space)
    (index, cost), source = _memoized(key, _compute, store)
    stats = searched[0] if searched else _answered(plan.total, source, start)
    _accumulate(stats)
    best = DesignPoint(dataflow=_planned_dataflow(cfg, plan, space, index),
                       cost=cost,
                       energy=energy_report(cost.counts, energy_table))
    return DSEResult(best=best, points=(), objective=objective, stats=stats)


def _answered(n: int, source: str, start: float) -> SearchStats:
    """Stats of a search answered by the LRU or the disk: all hits."""
    return SearchStats(enumerated=n, evaluated=0, pruned=0, cache_hits=n,
                       wall_time_s=time.perf_counter() - start,
                       disk_hits=n if source == "disk" else 0)


def _planned_dataflow(cfg: AttentionConfig, plan: CandidatePlan,
                      space: SearchSpace, index: int) -> Dataflow:
    """The dataflow at global enumeration ``index`` of ``plan``."""
    for fi in range(len(plan.families) - 1, -1, -1):
        if plan.offsets[fi] <= index:
            members = list(expand_family(cfg, plan.families[fi], space))
            return members[index - plan.offsets[fi]]
    raise IndexError(index)  # pragma: no cover - index always planned


def _branch_and_bound(
    ev: _Evaluator,
    plan: CandidatePlan,
    objective: Objective,
    space: SearchSpace,
    energy_table: Optional[EnergyTable],
    start: float,
    warm: Optional[Incumbent],
) -> Tuple[int, ScopeCost, SearchStats]:
    """Plan families, branch-and-bound, score survivors: the winner.

    Never expands the whole space.  :func:`repro.core.candidates.plan_candidates`
    derives one admissible bound per family from its cheapest
    representative member.  Families are gated twice — first against
    the ``warm_start`` incumbent (when one is supplied), then against the
    incumbent tightened by scoring the live families' *representatives*
    — and only the final survivors are expanded and scored.  At most
    two scoring calls run per search (representatives, then surviving
    members), so the fixed batch-call overhead cannot erase the pruning
    win.  Each call is one :func:`~repro.core.batch.evaluate_grid`; on
    :class:`~repro.core.batch.BatchFallback` the call's members go
    through the scalar model instead (bit-equal, just slower).

    Selection minimizes ``(value, global enumeration index)`` over
    every scored candidate.  A skipped candidate's true value strictly
    exceeds the final optimum (member value >= member bound >= family
    bound > incumbent >= optimum), so it can neither win nor displace a
    tie — the result is identical to an exhaustive loop, bytes
    included.
    """
    cfg, scope, accel, options = ev.cfg, ev.scope, ev.accel, ev.options
    n = plan.total
    need_energy = objective in (Objective.ENERGY, Objective.EDP)

    def _score(cost: ScopeCost) -> float:
        energy = (
            energy_report(cost.counts, energy_table) if need_energy else None
        )
        return objective.score(cost, energy)

    best_value: Optional[float] = None
    best_index: Optional[int] = None

    def _consider(value: float, index: int) -> None:
        nonlocal best_value, best_index
        if (
            best_value is None
            or value < best_value
            or (value == best_value and index < best_index)
        ):
            best_value = value
            best_index = index

    # Warm seed: re-evaluate the neighboring winner under *this*
    # config/accelerator (its carried value, if any, is never trusted)
    # and let it gate families before anything is expanded.  Not booked
    # in the stats: with caching on it resurfaces as a cache hit of
    # its own family, which can never be family-pruned (the family's
    # bound is <= the seed's value).
    warm_index = _locate_warm_start(warm, cfg, scope, objective, space,
                                    options)
    if warm_index is not None:
        cost, _ = ev.resolve(_planned_dataflow(cfg, plan, space, warm_index))
        _consider(_score(cost), warm_index)

    generated = 0
    family_skipped = 0
    families_pruned = 0
    cache_hits = 0
    evaluated = 0
    batch_evaluations = 0
    known: dict = {}  # index -> ScopeCost for members with a scalar cost

    def _scalar_scored(index: int, cost: ScopeCost) -> None:
        known[index] = cost
        _consider(_score(cost), index)

    def _score_members(members: List[Tuple[int, Dataflow]]) -> None:
        """Score members: cache hits first, then one grid call over the
        misses, or the scalar model when that call cannot be exact."""
        nonlocal cache_hits, batch_evaluations, evaluated
        misses: List[Tuple[int, Dataflow]] = []
        for index, df in members:
            cost = _CACHE.get(ev.key(df))
            if cost is None:
                misses.append((index, df))
                continue
            cache_hits += 1
            _scalar_scored(index, cost)
        if not misses:
            return
        try:
            grid = evaluate_grid(
                cfg, scope, accel, [df for _, df in misses],
                options=options,
            )
        except BatchFallback:
            for index, df in misses:
                _scalar_scored(index, ev.resolve(df)[0])
            evaluated += len(misses)
            return
        scores = grid.objective_scores(objective, energy_table)
        batch_evaluations += len(misses)
        for (index, _), value in zip(misses, scores):
            _consider(float(value), index)

    # Branch and bound in two rounds of gating and two scoring calls.
    # Round one gates on the warm incumbent (when present); the
    # *representatives* of the live families — each one is member 0 of
    # its family's expansion, see ``family_representative`` — are then
    # scored in a single call.  Representatives are the all-staged
    # (and, where allowed, unfused) corners, which in practice include
    # the optimum or something very near it, so the incumbent after
    # this round is tight.  Round two re-gates every remaining family
    # against it — those families are dropped without ever being
    # expanded — and the survivors' remaining members are scored in one
    # further call.
    def _gated(fi: int) -> bool:
        # Strictly-beaten bound, or an exact tie the family cannot win:
        # every member value >= bound >= the incumbent's value, and
        # every member index >= the family offset > the incumbent's
        # index, so no member survives the (value, index) tie-break.
        # ``plan.bounds`` carry the _BOUND_SLACK factor, so comparing
        # against ``best_value * _BOUND_SLACK`` tests the unslacked
        # ``raw_bound >= best_value`` (rounding is monotone).
        if best_value is None:
            return False
        bound = plan.bounds[fi]
        if bound > best_value:
            return True
        return (
            best_index is not None
            and bound >= best_value * _BOUND_SLACK
            and plan.offsets[fi] > best_index
        )

    with _span("candidate-score", families=len(plan.families),
               candidates=n) as sp:
        alive: List[int] = []
        for fi in plan.order:
            if _gated(fi):
                families_pruned += 1
                family_skipped += plan.sizes[fi]
                continue
            alive.append(fi)
        # The warm seed can never gate its own family (that family's
        # bound is <= the seed's re-evaluated value), so `alive` is
        # never empty and the incumbent below is always established.
        #
        # When a warm seed already gated the space down to a handful of
        # members — typical for neighbor-seeded sweeps in the saturated
        # regime — the representative round cannot pay for its own
        # fixed batch-call overhead.  Score the survivors' full
        # expansions in a single call instead; scoring a member that a
        # rep round would have skipped is exact, so the selection is
        # unchanged.  Cold searches always take the two-round path:
        # with no incumbent yet, the representative round is the only
        # thing standing between the grid and full expansion.
        total_live = sum(plan.sizes[fi] for fi in alive)
        members: List[Tuple[int, Dataflow]] = []
        if best_value is not None and total_live <= _MERGE_BATCH_LIMIT:
            alive.sort()
            for fi in alive:
                offset = plan.offsets[fi]
                for j, df in enumerate(
                    expand_family(cfg, plan.families[fi], space)
                ):
                    members.append((offset + j, df))
            generated += len(members)
            _score_members(members)
        else:
            reps = [
                (plan.offsets[fi],
                 family_representative(plan.families[fi], space))
                for fi in alive
            ]
            generated += len(reps)
            _score_members(reps)
            survivors: List[int] = []
            for fi in alive:
                if _gated(fi):
                    families_pruned += 1
                    family_skipped += plan.sizes[fi] - 1  # rep was scored
                    continue
                survivors.append(fi)
            # Expand in enumeration order for a deterministic grid
            # layout (selection is order-independent anyway).
            survivors.sort()
            for fi in survivors:
                offset = plan.offsets[fi]
                for j, df in enumerate(
                    expand_family(cfg, plan.families[fi], space)
                ):
                    if j == 0:
                        continue  # the representative, scored above
                    members.append((offset + j, df))
            generated += len(members)
            _score_members(members)
        sp.set(families_pruned=families_pruned,
               candidates_skipped=family_skipped, scalar=evaluated)

    assert best_index is not None  # first family always scores someone
    if best_index in known:
        cost = known[best_index]
        batch_losers = batch_evaluations
    else:
        # A grid-scored winner: build its scalar breakdown.  A cache
        # hit here means another thread raced the entry into the LRU
        # after the lookup missed it; book it as the hit it became.
        cost, source = ev.resolve(
            _planned_dataflow(cfg, plan, space, best_index))
        batch_losers = batch_evaluations - 1
        if source == "model":
            evaluated += 1
        else:
            cache_hits += 1

    stats = SearchStats(
        enumerated=n,
        evaluated=evaluated,
        pruned=family_skipped + batch_losers,
        cache_hits=cache_hits,
        wall_time_s=time.perf_counter() - start,
        batch_evaluations=batch_evaluations,
        candidates_generated=generated,
        candidates_skipped=family_skipped,
        families_pruned=families_pruned,
    )
    return best_index, cost, stats


def _score_all(
    ev: _Evaluator,
    objective: Objective,
    space: SearchSpace,
    energy_table: Optional[EnergyTable],
    retain_points: bool,
    start: float,
    store: Optional[PersistentCache],
) -> DSEResult:
    """Every-point path: enumerate the space, score each point scalarly.

    The answer is the tuple of costs in enumeration order, memoized
    whole (:func:`_memoized`); the objective and energy are derived
    from it per caller.  Selection keeps the first point attaining the
    minimum — exactly ``min(points, key=...)`` over the enumeration.
    """
    dataflows = list(enumerate_dataflows(ev.cfg, ev.accel, space))
    if not dataflows:
        raise ValueError("search space is empty")
    n = len(dataflows)
    lru_hits = 0

    def _costs() -> Tuple[ScopeCost, ...]:
        nonlocal lru_hits
        costs = []
        for dataflow in dataflows:
            cost, source = ev.resolve(dataflow)
            lru_hits += source == "lru"
            costs.append(cost)
        return tuple(costs)

    key = ("points", ev.cfg, ev.accel_fp, ev.options, ev.scope, space)
    costs, source = _memoized(key, _costs, store)
    need_energy = retain_points or objective in (
        Objective.ENERGY, Objective.EDP
    )
    points: List[DesignPoint] = []
    best: Optional[DesignPoint] = None
    best_value = 0.0
    for dataflow, cost in zip(dataflows, costs):
        energy = (
            energy_report(cost.counts, energy_table) if need_energy else None
        )
        point = DesignPoint(dataflow=dataflow, cost=cost, energy=energy)
        value = objective.score(cost, energy)
        if best is None or value < best_value:
            best, best_value = point, value
        if retain_points:
            points.append(point)
    assert best is not None
    if best.energy is None:
        best = replace(best, energy=energy_report(best.cost.counts,
                                                  energy_table))
    if source == "model":
        stats = SearchStats(enumerated=n, evaluated=n - lru_hits, pruned=0,
                            cache_hits=lru_hits,
                            wall_time_s=time.perf_counter() - start)
    else:
        stats = _answered(n, source, start)
    _accumulate(stats)
    return DSEResult(best=best, points=tuple(points), objective=objective,
                     stats=stats)


def run_search(
    cfg: AttentionConfig,
    accel: Accelerator,
    scope: Scope = Scope.LA,
    objective: Objective = Objective.RUNTIME,
    space: SearchSpace = SearchSpace(),
    options: PerfOptions = PerfOptions(),
    energy_table: Optional[EnergyTable] = None,
    retain_points: bool = True,
    warm_start: Optional[Incumbent] = None,
) -> DSEResult:
    """Evaluate the search space and return the optimum plus stats.

    With ``retain_points=True`` (the historical default) every design
    point is evaluated, energy included, and returned.  With
    ``retain_points=False`` only the optimum matters: candidates are
    generated family-by-family with branch-and-bound, energy is
    computed lazily, and ``DSEResult.points`` comes back empty.  The
    ``FOOTPRINT`` objective has no cost bound, so it always scores
    every point.

    ``warm_start`` optionally carries a neighboring search's winner
    (:class:`repro.core.candidates.Incumbent`); the best-only path
    re-evaluates that dataflow under the *current* config and
    accelerator and uses the resulting value as the initial incumbent.
    The incumbent's own recorded value is never reused — a stale seed
    can therefore never change the result, only the amount of work
    (see "Warm starts" in ``docs/search_engine.md``).

    Regardless of ``retain_points``, cache warmth and ``warm_start``,
    the returned best design point (dataflow and objective value) is
    identical to a naive serial full evaluation: bounds are admissible,
    pruning is strict, and ties resolve to the first candidate in
    enumeration order.
    """
    return _search(cfg, accel, scope, objective, space, options,
                   energy_table, retain_points, warm_start,
                   get_default_cache())


def _search(cfg: AttentionConfig, accel: Accelerator, scope: Scope,
            objective: Objective, space: SearchSpace, options: PerfOptions,
            energy_table: Optional[EnergyTable], retain_points: bool,
            warm_start: Optional[Incumbent],
            store: Optional[PersistentCache]) -> DSEResult:
    """:func:`run_search` against an explicit disk ``store`` (or none).

    :func:`repro.core.scaleout.search_scaleout` runs its inner searches
    with ``store=None``: it persists its own answer, one entry per call.
    """
    with _span("search", scope=scope.name, objective=objective.name):
        start = time.perf_counter()
        ev = _Evaluator(cfg, scope, accel, accelerator_fingerprint(accel),
                        options)
        if retain_points or objective is Objective.FOOTPRINT:
            return _score_all(ev, objective, space, energy_table,
                              retain_points, start, store)
        with _span("candidate-search"):
            return _candidate_search(ev, objective, space, energy_table,
                                     start, warm_start, store)
