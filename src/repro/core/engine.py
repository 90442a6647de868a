"""Search engine for the dataflow DSE: generated, pruned, memoized.

:func:`repro.core.dse.search` delegates the actual work to
:func:`run_search` here, and :func:`run_searches` answers a whole list
of searches (a :class:`SearchRequest` each) at once.  The paper's
exhaustive sweep (section 5.3.3) is repeated across five models,
sequence lengths 512 to 256K, two platforms and several accelerator
variants; a search takes one of two paths, chosen by what the caller
asks for:

* **Best only** (``retain_points=False``, the default): the space is one
  :class:`~repro.core.candidates.SpaceTable` — its *families*
  (stationarity x granularity x row count; see
  :class:`repro.core.dse.DataflowFamily`), their sizes and offsets,
  and the vectorized backend's feature columns of every member,
  generated from family fields and memoized in the LRU per
  ``(batch, heads, seq_q, space)``.  Candidates are rows of that
  table: a ``Dataflow`` is built only for the winner, a warm seed and
  members scored past a ``BatchFallback``.  A space of at most
  ``_MERGE_BATCH_LIMIT`` candidates, and a ``FOOTPRINT`` search (no
  cost bound exists) of any size, is scored whole in one call of the
  vectorized backend (:func:`repro.core.batch.evaluate_grid`): no
  plan, no bounds.  A larger space takes analytic candidate generation
  with branch-and-bound (:mod:`repro.core.candidates`): each family
  gets an admissible lower bound from its cheapest representative
  member, and families are scored best-bound-first — the best
  families' scores seed the incumbent, then every family whose bound
  exceeds the incumbent is skipped without ever scoring its members,
  and survivors' rows are scored by the vectorized backend.  When a
  scoring call raises :class:`~repro.core.batch.BatchFallback` (a
  workload past the array path's int64 headroom or float64-exact
  staged footprint, beyond every paper workload), that call's members
  are scored one by one by the memoized scalar model instead, so
  family pruning and the winner memo cover those searches too.  On a
  large space, a ``warm_start``
  :class:`~repro.core.candidates.Incumbent` (the neighboring sweep
  point's winner, re-evaluated under the current config/accelerator —
  its value is never trusted) seeds the incumbent before any family is
  scored, turning most sweep searches into bound-confirmation passes;
  a small space ignores it.
* **Every point** (``retain_points=True``, e.g. the Figure 10
  scatter): the space is enumerated and scored in one grid call, and
  every point takes its breakdown from its lane
  (:meth:`~repro.core.batch.GridEvaluation.scope_cost`).

On both paths a grid-scored point's full ``ScopeCost`` — a best-only
winner's, every point's — is built from its grid lane, equal to the
scalar model's on every field, so the scalar model runs only for warm
seeds, lone fixed-dataflow misses (:func:`evaluate_costs`) and past
the array path's edge.

**Many searches, one call.**  :func:`run_searches` checks every
request's memo first, in list order, then scores the small missed
spaces (and ``FOOTPRINT`` misses) of all requests sharing a scope,
model options and accelerator in one
:func:`~repro.core.batch.evaluate_grid` call per group — whatever
their workloads, up to ``_MERGE_LANE_LIMIT`` lanes per call — and
finishes each request in list order; larger spaces keep the
one-search branch-and-bound with their warm seed.  Each result, its
stats and the cache traffic equal those of a loop of
:func:`run_search` calls over the list; :func:`run_search` is a
one-request list.

Both paths return the winner of a plain exhaustive loop: bounds are
admissible, skipping is strict (``bound > incumbent``), and selection
minimizes ``(value, global enumeration index)`` — the exhaustive
first-in-order tie-break.  Three more optimizations sit under both:

* **Lazy energy.**  ``energy_report`` runs only when the objective
  (``ENERGY``/``EDP``) or a ``retain_points=True`` caller actually
  needs it; a pure-runtime search computes energy once, for the winner.
* **Cross-sweep memoization.**  A process-wide LRU remembers
  answers, not points: a best-only search its winning dataflow, cost
  and space size, an every-point search its costs, an
  :func:`evaluate_cost` its cost — so a repeated question touches one
  entry and plans nothing.  The same LRU holds each space's table,
  shared by every search of that space.  A point's ``ScopeCost`` comes
  from the grid lane that scored it or from the scalar model, never
  from a per-point entry.  Cached costs are deterministic
  :class:`~repro.core.perf.ScopeCost` values; energy is derived per
  caller (it depends on the energy table).
* **Cross-run persistence.**  When a cache directory is configured
  (``--cache-dir`` / ``REPRO_CACHE_DIR``; see :mod:`repro.core.cache`),
  every search, :func:`evaluate_cost` and
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
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.accelerator import Accelerator
from repro.core.batch import (
    _MAX_INT64_MAC_BYTES,
    BatchFallback,
    GridEvaluation,
    GridLanes,
    GridRows,
    _GridFeatures,
    _l2_budget_slots,
    _per_value,
    _tile_luts,
    evaluate_grid,
)
from repro.core.cache import PersistentCache, get_default_cache
from repro.core.candidates import (
    CandidatePlan,
    Incumbent,
    SpaceTable,
    plan_candidates,
    space_table,
)
from repro.core.dataflow import (
    AttentionVariant,
    Dataflow,
    StagingPolicy,
    Stationarity,
)
from repro.core.dse import (
    DesignPoint,
    DSEResult,
    Objective,
    SearchSpace,
    enumerate_dataflows,
)
from repro.core.footprint import fused_la_elements
from repro.core.perf import (
    PerfOptions,
    ScopeCost,
    _compute_cycles_from_eff,
    _strict_axis_eff,
    _warmup_cycles,
    cost_scope,
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
    "SearchRequest",
    "SearchStats",
    "run_search",
    "run_searches",
    "accelerator_fingerprint",
    "bound_table",
    "bound_flags",
    "dataflow_bound_row",
    "cycles_lower_bound",
    "objective_lower_bound",
    "clear_evaluation_cache",
    "evaluation_cache_info",
    "CostRequest",
    "evaluate_cost",
    "evaluate_costs",
    "reset_search_totals",
    "search_totals",
    "scoped_search_totals",
]

# Multiplicative slack shaving ~1e-9 off every bound: the bound and the
# model share their closed forms, and this keeps float rounding from
# ever nudging a bound above the true cost it underestimates.
_BOUND_SLACK = 1.0 - 1e-9

# Up to this many candidates, planning, bounds and the representative
# round of the branch-and-bound cannot recoup their cost: a grid call
# costs about the same for 9 rows as for 37, so a space (or, after warm
# gating, a set of live families) this small is scored in one call.
_MERGE_BATCH_LIMIT = 96


@dataclass(frozen=True)
class SearchStats:
    """Work accounting for one :func:`run_search` call.

    ``enumerated = cache_hits + pruned + evaluated`` always holds; the
    speedup story of a sweep is the fraction of ``enumerated`` that
    never reached the cost model.  ``disk_hits`` is the subset of
    ``cache_hits`` served by the persistent cross-run cache rather than
    the in-process LRU: a search answered from disk books its whole
    space there.  A search that misses its memo books no hits, and its
    ``evaluated`` counts the full breakdowns it built, from a grid lane
    or by the scalar model: every point of an every-point search, every
    member a best-only search scored through the scalar fallback, and
    otherwise the winner's breakdown.  ``batch_evaluations`` counts
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


def _breakdown(q: Any, dataflow: Dataflow,
               lane: Optional[Tuple[GridEvaluation, int]] = None,
               ) -> ScopeCost:
    """The ``ScopeCost`` of ``dataflow`` under ``q``'s workload, scope,
    accelerator and model options (a :class:`SearchRequest` or a
    :class:`CostRequest`): lane ``lane[1]`` of the grid call ``lane[0]``
    that scored it, or the scalar model.

    Both give the same value, so the source shows only in the
    ``engine.breakdowns[grid|scalar]`` counters.  Nothing is cached
    here: the answer the breakdown belongs to is (:func:`_memoized`).
    """
    if lane is None:
        _metric_inc("engine.breakdowns[scalar]")
        return cost_scope(q.cfg, q.scope, q.accel, dataflow,
                          options=q.options)
    _metric_inc("engine.breakdowns[grid]")
    return lane[0].scope_cost(lane[1], dataflow)


def _lookup(key: tuple,
            store: Optional[PersistentCache]) -> Tuple[Any, Optional[str]]:
    """The LRU, then the disk: ``(value, "lru" | "disk")``, or
    ``(None, None)`` when neither holds ``key``."""
    value = _CACHE.get(key)
    if value is not None:
        return value, "lru"
    if store is not None:
        value = store.get(key)
        if value is not None:
            _CACHE.put(key, value)
            return value, "disk"
    return None, None


def _remember(key: tuple, value: Any,
              store: Optional[PersistentCache]) -> None:
    """Keep a computed answer in the LRU and on disk."""
    _CACHE.put(key, value)
    if store is not None:
        store.put(key, value)


def _memoized(key: tuple, compute: Callable[[], Any],
              store: Optional[PersistentCache]) -> Tuple[Any, str]:
    """The one LRU -> disk -> ``compute()`` lookup of a re-asked answer.

    :func:`run_searches`, :func:`evaluate_cost` and
    :func:`repro.core.scaleout.search_scaleout` answer through
    :func:`_lookup` and :func:`_remember`, so each answer costs at most
    one disk lookup and one disk write.  Returns the value and its
    source: ``"lru"``, ``"disk"`` or ``"model"`` (computed).
    """
    value, source = _lookup(key, store)
    if value is not None:
        return value, source
    value = compute()
    _remember(key, value, store)
    return value, "model"


_SOURCE_METRIC = {
    "lru": "engine.lru_hits",
    "disk": "engine.disk_hits",
    "model": "engine.evaluated",
}


# The most lanes (candidates of several small spaces, or fixed
# dataflows) one merged scoring call holds.  Past a few hundred lanes a
# call's rows dominate its fixed cost (~6-7 us per MODEL row against
# ~0.3-0.5 ms per call), and the kernel's transient arrays grow ~2.3 KB
# per lane: a paper pass peaks +3.4% higher in RSS with 512 lanes, +1.9%
# with 256, for 10 fewer grid calls (see "Many searches, one call" in
# docs/search_engine.md).
_MERGE_LANE_LIMIT = 256


def _merge_group(cfg: AttentionConfig, scope: Scope, options: PerfOptions,
                 accel: Accelerator, accel_fp: tuple) -> Optional[tuple]:
    """The key under which grid calls on ``cfg`` merge with others', or
    ``None`` for a workload past the int64 headroom (scored alone, so
    its :class:`~repro.core.batch.BatchFallback` keeps the others on
    the grid).

    Lanes merge when they share the scope, the model options, the
    accelerator and the scope's operator kinds (one operator plan).
    """
    ops = operators_for_scope(cfg, scope)
    if (max(op.macs for op in ops) * accel.bytes_per_element
            >= _MAX_INT64_MAC_BYTES):
        return None
    return (scope, options, accel_fp, tuple(op.kind for op in ops))


@dataclass(frozen=True)
class CostRequest:
    """One fixed dataflow of an :func:`evaluate_costs` list: the
    arguments of :func:`evaluate_cost`."""

    cfg: AttentionConfig
    scope: Scope
    accel: Accelerator
    dataflow: Dataflow
    options: PerfOptions = PerfOptions()


def _lineup_lanes(chunk: List[int], requests: Sequence[CostRequest]) -> dict:
    """Score the missed requests ``chunk`` (one merge group) in one grid
    call, one segment per workload: each request's ``(grid, lane)``.

    A lone miss is left to the scalar model (no lanes): one
    ``cost_scope`` call is cheaper than a one-row grid call.  So is a
    chunk whose call raises :class:`~repro.core.batch.BatchFallback`.
    """
    if len(chunk) < 2:
        return {}
    by_cfg: dict = {}
    for r in chunk:
        by_cfg.setdefault(requests[r].cfg, []).append(r)
    first = requests[chunk[0]]
    try:
        grid = evaluate_grid(
            list(by_cfg), first.scope, first.accel,
            GridLanes(tuple(
                GridRows(_GridFeatures(cfg, [requests[r].dataflow
                                             for r in members]))
                for cfg, members in by_cfg.items())),
            options=first.options,
        )
    except BatchFallback:
        return {}
    order = [r for members in by_cfg.values() for r in members]
    return {r: (grid, lane) for lane, r in enumerate(order)}


def evaluate_costs(requests: Sequence[CostRequest]) -> List[ScopeCost]:
    """Memoized :func:`~repro.core.perf.cost_scope` of a fixed lineup.

    The caching entry point for callers outside the search loop (the
    figure harnesses evaluate fixed dataflow lineups): each request
    checks its answer memo — the in-process LRU, then the persistent
    cross-run cache — in list order.  The misses are grouped like the
    small spaces of :func:`run_searches` (scope, model options,
    accelerator, operator kinds), and each group of two or more is
    scored in one :func:`~repro.core.batch.evaluate_grid` call (at most
    :data:`_MERGE_LANE_LIMIT` lanes, one segment per workload), whose
    lanes give the breakdowns
    (:meth:`~repro.core.batch.GridEvaluation.scope_cost`); a lone miss,
    or a group the grid cannot score, takes the scalar model.  Each
    value is stored in both tiers.

    The result equals a loop of :func:`evaluate_cost` over the list:
    the same values, the same ``engine.lru_hits`` /
    ``engine.disk_hits`` / ``engine.evaluated`` counts, and the same LRU
    and disk entries; a request repeating an earlier miss is booked as
    the LRU hit it would be.
    """
    requests = list(requests)
    store = get_default_cache()
    costs: List[Optional[ScopeCost]] = [None] * len(requests)
    keys: List[tuple] = []
    pending: set = set()  # answer memo keys of the misses
    missed: set = set()
    groups: dict = {}
    for r, req in enumerate(requests):
        accel_fp = accelerator_fingerprint(req.accel)
        key = ("cost", req.cfg, accel_fp, req.dataflow, req.options,
               req.scope)
        keys.append(key)
        if pending and key in pending:
            continue  # a repeat, answered after the miss it repeats
        cost, source = _lookup(key, store)
        if cost is None:
            pending.add(key)
            missed.add(r)
            group = _merge_group(req.cfg, req.scope, req.options,
                                 req.accel, accel_fp)
            groups.setdefault(r if group is None else group, []).append(r)
            continue
        _metric_inc(_SOURCE_METRIC[source])
        costs[r] = cost
    lanes: dict = {}  # a grid-scored miss -> (grid, lane)
    for members in groups.values():
        for lo in range(0, len(members), _MERGE_LANE_LIMIT):
            lanes.update(_lineup_lanes(members[lo:lo + _MERGE_LANE_LIMIT],
                                       requests))
    for r, req in enumerate(requests):
        if costs[r] is not None:
            continue
        if r in missed:
            costs[r] = _breakdown(req, req.dataflow, lanes.pop(r, None))
            _remember(keys[r], costs[r], store)
            _metric_inc("engine.evaluated")
        else:
            # By now the repeated miss is answered: as in a loop of
            # evaluate_cost calls, this is its memo's LRU hit.
            (costs[r],) = evaluate_costs([req])
    return costs


def evaluate_cost(
    cfg: AttentionConfig,
    scope: Scope,
    accel: Accelerator,
    dataflow: Dataflow,
    options: PerfOptions = PerfOptions(),
) -> ScopeCost:
    """Memoized :func:`~repro.core.perf.cost_scope` for one fixed dataflow.

    Checks the in-process LRU, then the persistent cross-run cache, and
    only then runs the cost model — storing the result in both.
    Semantically identical to calling ``cost_scope`` directly.  A
    one-request :func:`evaluate_costs`.
    """
    return evaluate_costs([CostRequest(cfg, scope, accel, dataflow,
                                       options)])[0]


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


#: One row of :func:`bound_table`: a workload, a candidate's cross-loop
#: tile ``(b_t, h_t, r)`` on it, and the candidate's :func:`bound_flags`.
BoundRow = Tuple[AttentionConfig, Tuple[int, int, int], Tuple[bool, ...]]


def bound_flags(fused: bool, staging: StagingPolicy,
                variant: AttentionVariant, stationarity: Stationarity,
                may_fuse: bool) -> Tuple[bool, ...]:
    """The flags of one :data:`BoundRow`: what the L-A pair bound reads
    of a candidate, plus whether the family it stands for may contain
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


def dataflow_bound_row(cfg: AttentionConfig, dataflow: Dataflow,
                       fused_in_family: Optional[bool] = None) -> BoundRow:
    """The :data:`BoundRow` of one dataflow; ``fused_in_family`` widens
    it to a family (``None``: exactly this dataflow)."""
    return (
        cfg,
        dataflow.cross_tile(cfg.batch, cfg.heads, cfg.seq_q),
        bound_flags(
            dataflow.fused, dataflow.staging, dataflow.variant,
            dataflow.stationarity,
            dataflow.fused if fused_in_family is None else fused_in_family,
        ),
    )


def _config_terms(cfg: AttentionConfig, scope: Scope,
                  accel: Accelerator) -> Tuple[tuple, tuple]:
    """The candidate-independent terms of one workload's bound.

    Returns ``(ints, floats)``.  The integers (shape, MAC and cold
    volumes, replication) become integer columns; the floats are the
    terms Python computes once per workload — the SFU cycles, the SG
    stream (an int / int division), the non-L-A operators' bound
    (:func:`_scope_static_bound`) and the activity counts no dataflow
    changes, summed and scaled as ``ActivityCounts`` sums and scales
    them.
    """
    if scope is Scope.LA:
        # The pair is the whole scope: no other operator to bound (and
        # no operator list to build, for a shard seen once).
        static, replication = _BoundTerms(0.0, ActivityCounts()), 1
    else:
        static, has_la, replication = _scope_static_bound(cfg, scope,
                                                          accel)
        # Every scope lists L directly before A (see evaluate_grid).
        assert has_la, scope
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
    c = static.counts
    ints = (b, h, nq, nkv, dk, macs_l, int_cold, q_cold, k_cold,
            replication)
    floats = (
        sfu.softmax_cycles(int_cold),
        sfu.flashd_cycles(int_cold, q_cold),
        sg_base_l + sg_base_a,
        (sg_base_l + int_cold) + (sg_base_a + int_cold),
        static.cycles,
        c.dram_words,
        c.sg_words,
        (c.macs + float(macs)) * replication,
        (c.sl_words + (2.0 * macs + q_cold)) * replication,
        (c.sfu_ops + float(sfu.softmax_flops(int_cold))) * replication,
        (c.sfu_ops + float(sfu.flashd_flops(int_cold, q_cold)))
        * replication,
    )
    return ints, floats


def bound_table(
    objective: Objective,
    scope: Scope,
    accel: Accelerator,
    rows: Sequence[BoundRow],
    options: PerfOptions = PerfOptions(),
    energy_table: Optional[EnergyTable] = None,
) -> np.ndarray:
    """Admissible objective lower bounds of many candidates, one pass.

    Each :data:`BoundRow` ``(cfg, cross tile, flags)`` is bounded on
    its own workload, so one call covers every family of a plan or
    every family of every distinct shard of a partition grid.  A
    family's row comes straight from its fields
    (:func:`repro.core.candidates.bound_rows`), a dataflow's from
    :func:`dataflow_bound_row`.  The bound of a row is
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

    ``fused_in_family`` widens a row to a family that mixes fused and
    unfused members (``None`` means "exactly this dataflow"): a fused
    member takes the warm-up credit and skips the intermediate's SG
    traffic, so those relaxations apply as soon as fusion is possible,
    while the stronger fused *serial* chain is only used when the
    dataflow itself fuses (then every member does).  The scope's other
    operators add :func:`_scope_static_bound`, and ``ENERGY``/``EDP``
    replay ``energy_report``'s arithmetic on the summed activity
    counts (:meth:`~repro.core.batch.GridEvaluation.objective_scores`).

    Every lane performs the scalar formulas' operations on their
    operand types, so each bound is the one a per-row Python evaluation
    gives, bit for bit: workload-level terms are computed in Python,
    tile choices go through :func:`~repro.core.batch._tile_luts` and
    the int / int mapping efficiencies through
    :func:`~repro.core.batch._per_value`.  Integer columns are int64;
    when a workload reaches the int64 headroom (``macs *
    bytes_per_element >= 2**58``) they hold Python integers instead
    (object dtype), which the same code runs on exactly.  ``FOOTPRINT``
    has no bound and is rejected.
    """
    if objective is Objective.FOOTPRINT:
        raise ValueError("FOOTPRINT objective has no candidate bound")
    if not rows:
        raise ValueError("bound_table needs at least one row")
    configs: dict = {}  # workload -> index
    index_rows = []
    flag_rows = []
    last = ci = None
    for cfg, tile, flags in rows:
        if cfg is not last:  # rows usually come grouped by workload
            ci = configs.setdefault(cfg, len(configs))
            last = cfg
        index_rows.append((ci,) + tile)
        flag_rows.append(flags)

    e = accel.bytes_per_element
    rows_pe, cols_pe = accel.pe_array.rows, accel.pe_array.cols
    cfg_list = list(configs)
    terms = [_config_terms(cfg, scope, accel) for cfg in cfg_list]
    wide = any(t[0][5] * e >= _MAX_INT64_MAC_BYTES for t in terms)
    idt = object if wide else np.int64
    ci, b_t, h_t, r = np.array(index_rows, dtype=idt).T
    ci = ci.astype(np.int64)
    (fused, s_lhs, s_rhs, s_rhs2, s_out, s_int, s_any, v_flash, v_pipe,
     output, weight, inputs, may_fuse) = np.array(flag_rows, dtype=bool).T
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
        (fp[0] + fp[1] + fp[2] + fp[3] + fp[4]) * e, s_any, accel, options,
    )
    staging_bytes = budget.staging_budget_bytes.astype(float)
    row_passes = ceil_div(nq, r)
    n_pass_f = (
        ceil_div(b, b_t) * ceil_div(h, h_t) * row_passes
    ).astype(float)

    # One tile record per (rows, seq_kv, d_head, L2 budget slot).
    l2_values, slot = _l2_budget_slots(budget, accel, options)
    shapes: dict = {}
    shape_of = np.array(
        [shapes.setdefault((cfg.seq_kv, cfg.d_head), len(shapes))
         for cfg in cfg_list], dtype=np.int64,
    )[ci]
    shape_list = list(shapes)
    n_shapes = len(shape_list)

    def build(code):
        rest, l2_i = code >> 1, l2_values[code & 1]
        r_i, (nkv_i, dk_i) = rest // n_shapes, shape_list[rest % n_shapes]
        tile_l = choose_l2_tile(r_i, dk_i, nkv_i, l2_i, rows_pe, cols_pe)
        tile_a = choose_l2_tile(r_i, nkv_i, dk_i, l2_i, rows_pe, cols_pe)
        passes_l = reuse_passes(r_i, dk_i, nkv_i, tile_l)
        passes_a = reuse_passes(r_i, nkv_i, dk_i, tile_a)
        return (
            passes_l.lhs_passes,
            passes_l.rhs_passes,
            passes_a.rhs_passes,
            passes_a.out_passes,
            float(
                (tile_l.footprint_elements() + tile_a.footprint_elements())
                * e
            ),
        )

    l_lhs, l_rhs, a_rhs, a_out, warmup_cap = _tile_luts(
        (r * n_shapes + shape_of) * 2 + slot, build
    )

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
        np.where(output, 1, a_out),
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
                            accel, options)
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
    ).objective_scores(objective, energy_table)
    return scores.astype(float) * _BOUND_SLACK


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
    full model because it needs no L2 tile search.  A one-row
    :func:`bound_table`.
    """
    return float(bound_table(Objective.RUNTIME, scope, accel,
                             [dataflow_bound_row(cfg, dataflow)],
                             options)[0])


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

    ``fused_in_family`` (see :func:`bound_table`) widens the bound to
    cover a whole dataflow family that may mix fused and unfused
    members; ``None`` bounds exactly the given dataflow.
    """
    if objective is Objective.FOOTPRINT:
        return None
    return float(bound_table(
        objective, scope, accel,
        [dataflow_bound_row(cfg, dataflow, fused_in_family)], options,
        energy_table,
    )[0])



# ----------------------------------------------------------------------
# the two search paths
# ----------------------------------------------------------------------
def _space_table(cfg: AttentionConfig, space: SearchSpace) -> SpaceTable:
    """The memoized :class:`~repro.core.candidates.SpaceTable` of a space.

    Keyed on the only config fields the columns and the family list
    depend on, so a search of the same space on another accelerator,
    scope, objective, option set or key length finds it built.
    """
    key = ("space", cfg.batch, cfg.heads, cfg.seq_q, space)
    table = _CACHE.get(key)
    if table is None:
        table = space_table(cfg, space)
        _CACHE.put(key, table)
    return table


def _locate_warm_start(
    warm: Optional[Incumbent],
    table: SpaceTable,
    scope: Scope,
    objective: Objective,
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
    index = table.locate(warm.dataflow)
    if index is None:
        _metric_inc("engine.warm_start.rejected")
        return None
    return index


def _objective_value(objective: Objective, cost: ScopeCost,
                     energy_table: Optional[EnergyTable]) -> float:
    """``objective.score`` of one scalar cost, energy derived on demand."""
    energy = (
        energy_report(cost.counts, energy_table)
        if objective in (Objective.ENERGY, Objective.EDP) else None
    )
    return objective.score(cost, energy)


#: What a scoring call returns: the objective values of its members;
#: for a grid call, ``None`` and ``(grid, lane of the first member)``;
#: for the scalar model, each member's ``ScopeCost`` and ``None``.
_Scores = Tuple[np.ndarray, Optional[List[ScopeCost]],
                Optional[Tuple[GridEvaluation, int]]]


def _scored(
    req: SearchRequest,
    table: SpaceTable,
    index: Optional[np.ndarray],
) -> _Scores:
    """Objective values of the table's members ``index`` (every member
    for ``None``) from one scoring call.

    One :func:`~repro.core.batch.evaluate_grid` call over the table
    rows, whose values equal the scalar model's bit for bit, and which
    can rebuild any member's breakdown.  When the call raises
    :class:`~repro.core.batch.BatchFallback` (only past the array
    path's edge), the members are scored by :func:`_scalar_scored`.
    """
    try:
        grid = evaluate_grid(req.cfg, req.scope, req.accel,
                             GridRows(table.features, index),
                             options=req.options)
    except BatchFallback:
        return _scalar_scored(req, table, index)
    return (grid.objective_scores(req.objective, req.energy_table), None,
            (grid, 0))


def _scalar_scored(
    req: SearchRequest,
    table: SpaceTable,
    index: Optional[np.ndarray],
) -> _Scores:
    """:func:`_scored` by the scalar model: each member's ``Dataflow``
    is built and costed, and the second item lists the costs in
    order."""
    members = range(table.total) if index is None else index.tolist()
    costs = [_breakdown(req, table.dataflow(i)) for i in members]
    values = [_objective_value(req.objective, cost, req.energy_table)
              for cost in costs]
    return np.asarray(values, dtype=float), costs, None


def _answered(n: int, source: str, start: float) -> SearchStats:
    """Stats of a search answered by the LRU or the disk: all hits."""
    return SearchStats(enumerated=n, evaluated=0, pruned=0, cache_hits=n,
                       wall_time_s=time.perf_counter() - start,
                       disk_hits=n if source == "disk" else 0)


def _member_rows(table: SpaceTable, families: Sequence[int],
                 skip_first: bool = False) -> np.ndarray:
    """The members of ``families`` (ascending) as one index array;
    ``skip_first`` leaves out each family's member 0."""
    first = int(skip_first)
    return np.concatenate([
        np.arange(table.offsets[fi] + first,
                  table.offsets[fi] + table.sizes[fi], dtype=np.int64)
        for fi in families
    ])


def _branch_and_bound(
    req: SearchRequest,
    table: SpaceTable,
    plan: Optional[CandidatePlan],
    start: float,
    warm: Optional[Incumbent],
    whole: Optional[Callable[[], _Scores]] = None,
) -> Tuple[Dataflow, ScopeCost, SearchStats]:
    """Branch-and-bound over a planned space, score survivors: the winner.

    Candidates are rows of the space's table: every scoring call is one
    :func:`~repro.core.batch.evaluate_grid` over row indices, and a
    ``Dataflow`` is built only for the winner, a located warm seed and
    members scored past a :class:`~repro.core.batch.BatchFallback`.
    The incumbent remembers where it was scored, so the winner gets its
    breakdown from the grid lane that scored it
    (:meth:`~repro.core.batch.GridEvaluation.scope_cost`, equal to the
    scalar model's) or keeps the scalar cost it was scored with.
    Without a plan (a small space, or ``FOOTPRINT``) the whole table is
    scored in one call, or taken from ``whole()`` — :func:`_scored`'s
    result for the whole table, from a call that scored several
    searches' tables at once (see :func:`run_searches`).  With one,
    :func:`repro.core.candidates.plan_candidates` has derived one
    admissible bound per family from its cheapest representative
    member.  Families are gated twice — first against the
    ``warm_start`` incumbent (when one is supplied), then against the
    incumbent tightened by scoring the live families' *representatives*
    (member 0 of each, the rows ``offsets[alive]``) — and only the
    final survivors' remaining rows are scored.  At most two scoring
    calls run per search (representatives, then surviving members), so
    the fixed batch-call overhead cannot erase the pruning win.  On
    ``BatchFallback`` (only past the array path's edge) a call's
    members go through the scalar model instead (bit-equal, just
    slower).

    Selection minimizes ``(value, global enumeration index)`` over
    every scored candidate.  A skipped candidate's true value strictly
    exceeds the final optimum (member value >= member bound >= family
    bound > incumbent >= optimum), so it can neither win nor displace a
    tie — the result is identical to an exhaustive loop, bytes
    included.
    """
    n = table.total
    best_value: Optional[float] = None
    best_index: Optional[int] = None
    # Where the incumbent was scored: its scalar ScopeCost, or the
    # (grid, lane) that scored it.
    best_origin: Any = None

    def _consider(value: float, index: int, origin: Any) -> None:
        nonlocal best_value, best_index, best_origin
        # ``<=`` on the index: the warm seed's re-score takes its place.
        if (
            best_value is None
            or value < best_value
            or (value == best_value and index <= best_index)
        ):
            best_value = value
            best_index = index
            best_origin = origin

    # Warm seed: re-evaluate the neighboring winner under *this*
    # config/accelerator (its carried value, if any, is never trusted)
    # and let it gate families before anything is scored.  Not booked
    # in the stats: its own family can never be family-pruned (the
    # family's bound is <= the seed's value), so it is scored again
    # there, and that score (equal value, equal index) replaces it.
    warm_index = _locate_warm_start(warm, table, req.scope, req.objective,
                                    req.options)
    if warm_index is not None:
        cost = _breakdown(req, warm.dataflow)
        _consider(_objective_value(req.objective, cost, req.energy_table),
                  warm_index, None)

    generated = 0
    family_skipped = 0
    families_pruned = 0
    evaluated = 0
    batch_evaluations = 0

    def _score(index: Optional[np.ndarray]) -> None:
        """Score the members ``index`` (ascending; ``None``: all) in one
        call (see :func:`_scored`) and keep the first minimum."""
        nonlocal batch_evaluations, evaluated, generated
        members = n if index is None else len(index)
        if not members:
            return
        generated += members
        if index is None and whole is not None:
            values, costs, grid = whole()
        else:
            values, costs, grid = _scored(req, table, index)
        # Rows ascend, so the first minimum is the (value, index) one.
        k = int(np.argmin(values))
        if costs is None:
            batch_evaluations += members
            origin: Any = (grid[0], grid[1] + k)
        else:
            evaluated += members
            origin = costs[k]
        _consider(float(values[k]), k if index is None else int(index[k]),
                  origin)

    # Branch and bound in two rounds of gating and two scoring calls.
    # Round one gates on the warm incumbent (when present); the
    # *representatives* of the live families — each one is member 0 of
    # its family's expansion, see ``candidates.bound_rows`` — are then
    # scored in a single call.  Representatives are the all-staged
    # (and, where allowed, unfused) corners, which in practice include
    # the optimum or something very near it, so the incumbent after
    # this round is tight.  Round two re-gates every remaining family
    # against it — those families are dropped without ever being
    # scored — and the survivors' remaining members are scored in one
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

    with _span("candidate-score", families=len(table.families),
               candidates=n) as sp:
        if plan is None:
            _score(None)
        else:
            alive: List[int] = []
            for fi in plan.order:
                if _gated(fi):
                    families_pruned += 1
                    family_skipped += plan.sizes[fi]
                    continue
                alive.append(fi)
            # The warm seed can never gate its own family (that
            # family's bound is <= the seed's re-evaluated value), so
            # `alive` is never empty and the incumbent below is always
            # established.
            alive.sort()
            # When at most a handful of members are live — typical for
            # neighbor-seeded sweeps in the saturated regime — the
            # representative round cannot pay for its own fixed
            # batch-call overhead.  Score the live families' full
            # expansions in a single call instead; scoring a member that
            # a rep round would have skipped is exact, so the selection
            # is unchanged.
            if sum(plan.sizes[fi] for fi in alive) <= _MERGE_BATCH_LIMIT:
                _score(_member_rows(table, alive))
            else:
                _score(np.array([plan.offsets[fi] for fi in alive],
                                dtype=np.int64))
                survivors: List[int] = []
                for fi in alive:
                    if _gated(fi):
                        families_pruned += 1
                        family_skipped += plan.sizes[fi] - 1  # rep scored
                        continue
                    survivors.append(fi)
                if survivors:
                    _score(_member_rows(table, survivors, skip_first=True))
        sp.set(families_pruned=families_pruned,
               candidates_skipped=family_skipped, scalar=evaluated)

    assert best_origin is not None  # the winner was scored by a call
    winner = table.dataflow(best_index)
    if isinstance(best_origin, ScopeCost):
        cost = best_origin  # booked with its scalar call
        batch_losers = batch_evaluations
    else:
        cost = _breakdown(req, winner, best_origin)
        evaluated += 1
        batch_losers = batch_evaluations - 1

    stats = SearchStats(
        enumerated=n,
        evaluated=evaluated,
        pruned=family_skipped + batch_losers,
        cache_hits=0,
        wall_time_s=time.perf_counter() - start,
        batch_evaluations=batch_evaluations,
        candidates_generated=generated,
        candidates_skipped=family_skipped,
        families_pruned=families_pruned,
    )
    return winner, cost, stats


def _score_all(req: SearchRequest, accel_fp: tuple, start: float,
               store: Optional[PersistentCache]) -> DSEResult:
    """Every-point path: enumerate the space, cost every point.

    The whole space is scored in one
    :func:`~repro.core.batch.evaluate_grid` call, and each point gets
    its breakdown from its lane (the scalar model past a
    :class:`~repro.core.batch.BatchFallback`).  The answer is the tuple
    of costs in enumeration order, memoized whole (:func:`_memoized`);
    the objective and energy are derived from it per caller.  Selection
    keeps the first point attaining the minimum — exactly
    ``min(points, key=...)`` over the enumeration.
    """
    dataflows = list(enumerate_dataflows(req.cfg, req.accel, req.space))
    if not dataflows:
        raise ValueError("search space is empty")
    n = len(dataflows)

    def _costs() -> Tuple[ScopeCost, ...]:
        try:
            grid = evaluate_grid(req.cfg, req.scope, req.accel, dataflows,
                                 options=req.options)
        except BatchFallback:
            return tuple(_breakdown(req, df) for df in dataflows)
        return tuple(_breakdown(req, df, (grid, i))
                     for i, df in enumerate(dataflows))

    key = ("points", req.cfg, accel_fp, req.options, req.scope, req.space)
    costs, source = _memoized(key, _costs, store)
    points: List[DesignPoint] = []
    best: Optional[DesignPoint] = None
    best_value = 0.0
    for dataflow, cost in zip(dataflows, costs):
        point = DesignPoint(dataflow=dataflow, cost=cost,
                            energy=energy_report(cost.counts,
                                                 req.energy_table))
        value = req.objective.score(cost, point.energy)
        if best is None or value < best_value:
            best, best_value = point, value
        points.append(point)
    assert best is not None
    if source == "model":
        stats = SearchStats(enumerated=n, evaluated=n, pruned=0,
                            cache_hits=0,
                            wall_time_s=time.perf_counter() - start)
    else:
        stats = _answered(n, source, start)
    _accumulate(stats)
    return DSEResult(best=best, points=tuple(points),
                     objective=req.objective, stats=stats)


# ----------------------------------------------------------------------
# many searches, one call
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchRequest:
    """One search of a :func:`run_searches` list: the arguments of
    :func:`run_search`, best-only unless ``retain_points`` asks for
    every point."""

    cfg: AttentionConfig
    accel: Accelerator
    scope: Scope = Scope.LA
    objective: Objective = Objective.RUNTIME
    space: SearchSpace = SearchSpace()
    options: PerfOptions = PerfOptions()
    energy_table: Optional[EnergyTable] = None
    retain_points: bool = False
    warm_start: Optional[Incumbent] = None


class _Job:
    """One request of a :func:`run_searches` call, in flight.

    ``answer`` is a memo hit's ``(dataflow, cost, space size)`` and
    ``source`` where it came from; a miss holds its space ``table``.
    A space scored whole shares a ``chunk`` — the jobs scored by one
    grid call — and gets its objective values in ``scores`` and its
    segment of the call in ``grid`` (``(grid, first lane)``, for the
    winner's breakdown) when the chunk is first used (``scores`` is
    :data:`_PAST_EDGE` when the grid cannot score it).  A solved job
    drops both, so the chunk's call is freed with its last job.  A job
    with none of these repeats an earlier miss's key.
    """

    __slots__ = ("request", "accel_fp", "start", "key", "answer",
                 "source", "table", "chunk", "scores", "grid")

    def __init__(self, request: SearchRequest, accel_fp: tuple,
                 start: float) -> None:
        self.request = request
        self.accel_fp = accel_fp
        self.start = start
        self.key: Optional[tuple] = None
        self.answer: Optional[tuple] = None
        self.source: Optional[str] = None
        self.table: Optional[SpaceTable] = None
        self.chunk: Optional[List["_Job"]] = None
        self.scores: Any = None
        self.grid: Optional[Tuple[GridEvaluation, int]] = None


_PAST_EDGE = "past-edge"  # a grid call raised BatchFallback: go scalar


def _chunks(small: List[_Job]) -> None:
    """Assign each small missed space the chunk it is scored with.

    Spaces merge by :func:`_merge_group`; each chunk holds at most
    :data:`_MERGE_LANE_LIMIT` lanes (a larger single space gets a chunk
    of its own).  A workload past the int64 headroom is scored alone.
    """
    groups: dict = {}
    for job in small:
        req = job.request
        group = _merge_group(req.cfg, req.scope, req.options, req.accel,
                             job.accel_fp)
        groups.setdefault(job if group is None else group, []).append(job)
    for members in groups.values():
        chunk: List[_Job] = []
        lanes = 0
        for job in members:
            if chunk and lanes + job.table.total > _MERGE_LANE_LIMIT:
                chunk, lanes = [], 0
            chunk.append(job)
            lanes += job.table.total
            job.chunk = chunk


def _score_chunk(chunk: List[_Job], tally: dict) -> None:
    """Score every table of ``chunk`` in one grid call.

    Each job's values come from its own segment of the call, under its
    own objective and energy table, and equal a call on its table alone.
    When the call raises :class:`~repro.core.batch.BatchFallback` (the
    staged-footprint check, which depends on the candidates) each
    segment is scored alone, so only the offending one leaves the grid.
    """
    first = chunk[0].request
    tally["grid_calls"] += 1
    try:
        grid = evaluate_grid(
            [job.request.cfg for job in chunk], first.scope, first.accel,
            GridLanes(tuple(GridRows(job.table.features) for job in chunk)),
            options=first.options,
        )
    except BatchFallback:
        if len(chunk) == 1:
            chunk[0].scores = _PAST_EDGE
        else:
            for job in chunk:
                _score_chunk([job], tally)
        return
    tally["segments"] += len(chunk)
    scores: dict = {}
    lo = 0
    for job in chunk:
        objective = (job.request.objective, job.request.energy_table)
        values = scores.get(objective)
        if values is None:
            values = scores[objective] = grid.objective_scores(*objective)
        job.scores = values[lo:lo + job.table.total]
        job.grid = (grid, lo)
        lo += job.table.total


def _solve(job: _Job, tally: dict) -> Tuple[tuple, SearchStats]:
    """A missed best-only search: ``(dataflow, cost, space size)`` and
    its stats.

    A space in a chunk is scored whole, from its chunk's grid call; any
    other takes the one-search route — a space of at most
    ``_MERGE_BATCH_LIMIT`` candidates, or a ``FOOTPRINT`` search, in one
    call of its own, a larger one planned with bounds by
    :func:`~repro.core.candidates.plan_candidates` and seeded with its
    ``warm_start``.
    """
    req = job.request
    table = (job.table if job.table is not None
             else _space_table(req.cfg, req.space))
    if table.total == 0:
        raise ValueError("search space is empty")
    plan: Optional[CandidatePlan] = None
    seed = whole = None
    if job.chunk is not None:
        def whole() -> _Scores:
            if job.scores is None:
                _score_chunk(job.chunk, tally)
            if job.scores is _PAST_EDGE:
                return _scalar_scored(req, table, None)
            return job.scores, None, job.grid
    elif (table.total > _MERGE_BATCH_LIMIT
          and req.objective is not Objective.FOOTPRINT):
        with _span("candidate-plan", families=len(table.families)):
            plan = plan_candidates(req.objective, req.cfg, req.scope,
                                   req.accel, req.space,
                                   options=req.options,
                                   energy_table=req.energy_table)
        seed = req.warm_start
    dataflow, cost, stats = _branch_and_bound(req, table, plan, job.start,
                                              seed, whole)
    job.scores = job.grid = None  # the chunk's call lives while it is used
    return (dataflow, cost, table.total), stats


def _finish(job: _Job, store: Optional[PersistentCache],
            tally: dict) -> DSEResult:
    """The result of one request, produced in list order."""
    req = job.request
    with _span("search", scope=req.scope.name,
               objective=req.objective.name):
        if req.retain_points:
            return _score_all(req, job.accel_fp, job.start, store)
        with _span("candidate-search"):
            searched: List[SearchStats] = []

            def _compute() -> tuple:
                answer, stats = _solve(job, tally)
                searched.append(stats)
                return answer

            if job.answer is not None:
                answer, source = job.answer, job.source
            elif job.table is None:
                # A repeat of an earlier miss: by now the LRU hit it
                # is in a loop of run_search calls.
                answer, source = _memoized(job.key, _compute, store)
            else:
                answer = _compute()
                _remember(job.key, answer, store)
            dataflow, cost, total = answer
            stats = (searched[0] if searched
                     else _answered(total, source, job.start))
            _accumulate(stats)
            best = DesignPoint(dataflow=dataflow, cost=cost,
                               energy=energy_report(cost.counts,
                                                    req.energy_table))
            return DSEResult(best=best, points=(), objective=req.objective,
                             stats=stats)


def _run_searches(requests: Sequence[SearchRequest],
                  store: Optional[PersistentCache],
                  batch_span: Any = None) -> List[DSEResult]:
    """:func:`run_searches` against an explicit disk ``store`` (or none).

    First every best-only request checks its memo (LRU, then disk) in
    list order; a miss takes its space table, and a repeat of an earlier
    miss waits for that answer.  Then each request is finished in list
    order; a small space's chunk is scored when its first job needs it.
    :func:`repro.core.scaleout.search_scaleout` runs its inner searches
    with ``store=None``: it persists its own answer, one entry per call.
    """
    jobs: List[_Job] = []
    # Memo keys of the misses, when a later request may repeat one (a
    # probe hashes the whole key).
    pending: Optional[set] = set() if len(requests) > 1 else None
    small: List[_Job] = []
    memo_hits = 0
    for req in requests:
        job = _Job(req, accelerator_fingerprint(req.accel),
                   time.perf_counter())
        jobs.append(job)
        if req.retain_points:
            continue
        job.key = ("search", req.cfg, job.accel_fp, req.options, req.scope,
                   req.objective, req.energy_table, req.space)
        if pending and job.key in pending:
            memo_hits += 1
            continue
        job.answer, job.source = _lookup(job.key, store)
        if job.answer is not None:
            memo_hits += 1
            continue
        if pending is not None:
            pending.add(job.key)
        job.table = _space_table(req.cfg, req.space)
        if job.table.total and (
                job.table.total <= _MERGE_BATCH_LIMIT
                or req.objective is Objective.FOOTPRINT):
            small.append(job)
    _chunks(small)
    tally = {"grid_calls": 0, "segments": 0}
    results = [_finish(job, store, tally) for job in jobs]
    if batch_span is not None:
        batch_span.set(memo_hits=memo_hits, segments=tally["segments"],
                       grid_calls=tally["grid_calls"])
    return results


def run_searches(requests: Sequence[SearchRequest]) -> List[DSEResult]:
    """Answer a list of searches, scoring small spaces together.

    Each result equals what :func:`run_search` returns for that request
    when the requests are run one by one in list order: the same winner
    and cost, the same :class:`SearchStats` (except ``wall_time_s``),
    the same :func:`search_totals` and the same LRU and disk entries; a
    request repeating an earlier one is booked as the LRU hit it would
    be.  The difference is the number of grid calls: every missed
    best-only space of at most ``_MERGE_BATCH_LIMIT`` candidates, and
    every missed ``FOOTPRINT`` search, is scored in one
    :func:`~repro.core.batch.evaluate_grid` call per group of searches
    sharing a scope, model options and accelerator (up to
    :data:`_MERGE_LANE_LIMIT` lanes per call), whatever their workloads;
    each search's winner is the first minimum of its own segment.
    Larger spaces take the one-search branch-and-bound with their
    ``warm_start``, and ``retain_points=True`` requests score every
    point, each in its turn.
    """
    requests = list(requests)
    with _span("search-batch", requests=len(requests)) as sp:
        return _run_searches(requests, get_default_cache(), sp)


def run_search(
    cfg: AttentionConfig,
    accel: Accelerator,
    scope: Scope = Scope.LA,
    objective: Objective = Objective.RUNTIME,
    space: SearchSpace = SearchSpace(),
    options: PerfOptions = PerfOptions(),
    energy_table: Optional[EnergyTable] = None,
    retain_points: bool = False,
    warm_start: Optional[Incumbent] = None,
) -> DSEResult:
    """Evaluate the search space and return the optimum plus stats.

    With ``retain_points=False`` (the default) only the optimum
    matters: a small space is scored in one call, a larger one's
    candidates are gated family-by-family with branch-and-bound, energy
    is computed lazily, and ``DSEResult.points`` comes back empty.
    With ``retain_points=True`` every design point is evaluated, energy
    included, and returned.  The ``FOOTPRINT``
    objective has no cost bound, so its best-only search scores every
    point in one call.  A one-request :func:`run_searches`.

    ``warm_start`` optionally carries a neighboring search's winner
    (:class:`repro.core.candidates.Incumbent`); the best-only path
    re-evaluates that dataflow under the *current* config and
    accelerator and uses the resulting value as the initial incumbent
    of a branch-and-bound (a space small enough for one scoring call
    ignores it).
    The incumbent's own recorded value is never reused — a stale seed
    can therefore never change the result, only the amount of work
    (see "Warm starts" in ``docs/search_engine.md``).

    Regardless of ``retain_points``, cache warmth and ``warm_start``,
    the returned best design point (dataflow and objective value) is
    identical to a naive serial full evaluation: bounds are admissible,
    pruning is strict, and ties resolve to the first candidate in
    enumeration order.
    """
    request = SearchRequest(cfg, accel, scope, objective, space, options,
                            energy_table, retain_points, warm_start)
    return _run_searches([request], get_default_cache())[0]
