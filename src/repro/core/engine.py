"""Search engine for the dataflow DSE: generated, pruned, memoized.

:func:`repro.core.dse.search` delegates the actual work to
:func:`run_search` here, and :func:`run_searches` answers a whole list
of questions at once: searches (a :class:`SearchRequest` each) and
fixed dataflows (a :class:`CostRequest` each, the figure harnesses'
lineups).  The paper's exhaustive sweep (section 5.3.3) is repeated
across five models, sequence lengths 512 to 256K, two platforms and
several accelerator variants; a search takes one of two paths, chosen
by what the caller asks for:

* **Best only** (``retain_points=False``, the default): the space is one
  :class:`~repro.core.candidates.SpaceTable` — its *families*
  (stationarity x granularity x row count; see
  :class:`repro.core.dse.DataflowFamily`), their sizes and offsets,
  and the vectorized backend's feature columns of every member,
  generated from family fields and memoized in the LRU per
  ``(batch, heads, seq_q, space)``.  Candidates are rows of that
  table: a ``Dataflow`` is built only for the winner, a warm seed and
  a lane alone in its call.  A space of at most
  ``_MERGE_BATCH_LIMIT`` candidates, and a ``FOOTPRINT`` search (no
  cost bound exists) of any size, is scored whole by the vectorized
  backend (:func:`repro.core.batch.evaluate_grid`): no plan, no
  bounds.  A larger space takes analytic candidate generation with
  branch-and-bound (:mod:`repro.core.candidates`, the home of every
  bound formula, :func:`~repro.core.candidates.bound_table`; this
  module keeps the orchestration: memo, requests, rounds and stats):
  each family gets an
  admissible lower bound from its cheapest representative member; the
  live families' representatives are scored first, then every family
  whose bound exceeds the incumbent is skipped without ever scoring
  its members, and survivors' rows are scored next.  A workload past
  the int64 lanes' edges (:func:`~repro.core.batch.is_wide`, beyond
  every paper workload) is scored on the grid like any other, merged
  only with other wide workloads.  On a large space, a
  :class:`SearchRequest`'s ``warm_start`` dataflow (a hint: the
  previous chip count's per-chip winner in
  :func:`~repro.core.scaleout.sweep_chip_counts`) is found in the
  table and re-scored under the search's own config, accelerator,
  scope, objective and options to seed the incumbent before any family
  is scored; a seed outside the space is rejected, and a small space
  ignores it.  Any member's value bounds the optimum from above, so a
  seed changes the amount of work, never the result.  A paper registry
  pass re-scores 2 seeds (ext-scaleout's); the serve daemon and the
  decode tier pass none.
* **Every point** (``retain_points=True``, e.g. the Figure 10
  scatter): the whole space table is scored, and every point takes its
  breakdown from its lane
  (:meth:`~repro.core.batch.GridEvaluation.scope_cost`).

A fixed dataflow is one lane.  On every path a grid-scored point's
full ``ScopeCost`` — a best-only winner's, every point's, a fixed
dataflow's — is built from its grid lane, equal to the scalar model's
on every field, so the scalar model runs only for warm seeds and lanes
alone in their call (one ``cost_scope`` call is cheaper than a one-row
grid call).

**One list, scored in rounds.**  :func:`run_searches` checks every
request's memo first, in list order.  Its misses then advance
together: after planning, each round scores every miss's rows — fixed
dataflows, every-point spaces and whole small spaces, planned
searches' representatives, then their survivors — in one
:func:`~repro.core.batch.evaluate_grid` call per group of requests
sharing a scope, model options and accelerator, whatever their
workloads, up to ``_MERGE_LANE_LIMIT`` lanes per call (:func:`_scored`,
the one place the engine calls the grid), and each search gates its
own families on its own incumbent.  Each request is then finished in
list order.  Each result and the cache traffic equal those of a loop
of one-request lists over the list (:func:`run_search`,
:func:`evaluate_cost`).

Both search paths return the winner of a plain exhaustive loop: bounds are
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
  :class:`~repro.core.perf.ScopeCost` values; energy is derived from
  them on demand (the default energy table's ``energy_report``).
* **Cross-run persistence.**  When a cache directory is configured
  (``--cache-dir`` / ``REPRO_CACHE_DIR``; see :mod:`repro.core.cache`),
  every request of a list and
  :func:`repro.core.scaleout.search_scaleout` look their answer up on
  disk after an LRU miss and write a fresh answer back — one entry per
  request, committed once per list.  A re-run of any sweep, in any process,
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
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import (
    Any, Callable, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.arch.accelerator import Accelerator
from repro.core.batch import (
    GridEvaluation,
    GridLanes,
    GridRows,
    _GridFeatures,
    evaluate_grid,
    is_wide,
)
from repro.core.cache import PersistentCache, get_default_cache
from repro.core.candidates import (
    _BOUND_SLACK,
    SpaceTable,
    plan_candidates,
    space_table,
)
from repro.core.dataflow import Dataflow
from repro.core.dse import (
    DesignPoint,
    DSEResult,
    Objective,
    SearchSpace,
)
from repro.core.perf import PerfOptions, ScopeCost, cost_scope
from repro.energy.model import energy_report
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span
from repro.ops.attention import AttentionConfig, Scope

__all__ = [
    "SearchRequest",
    "SearchStats",
    "run_search",
    "run_searches",
    "accelerator_fingerprint",
    "clear_evaluation_cache",
    "evaluation_cache_info",
    "CostRequest",
    "evaluate_cost",
    "evaluate_costs",
    "reset_search_totals",
    "search_totals",
    "scoped_search_totals",
]

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
    or by the scalar model: every point of an every-point search, and
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
    exact per-block attribution.  The pipeline opens one scope per
    experiment, in-process or in a pool worker; the serve daemon opens
    none and runs all of its engine work on its one evaluator thread.
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
    registry = _metrics.active()
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
    here: the answer the breakdown belongs to is (:func:`_finish`).
    """
    if lane is None:
        _metrics.inc("engine.breakdowns[scalar]")
        return cost_scope(q.cfg, q.scope, q.accel, dataflow,
                          options=q.options)
    _metrics.inc("engine.breakdowns[grid]")
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

    :func:`run_searches` (per request) and
    :func:`repro.core.scaleout.search_scaleout` (here) answer through
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


# The most lanes (rows of several searches, or fixed dataflows) one
# merged scoring call holds.  Past a few hundred lanes a
# call's rows dominate its fixed cost (~6-7 us per MODEL row against
# ~0.3-0.5 ms per call), and the kernel's transient arrays grow ~2.3 KB
# per lane: a paper pass peaks +3.4% higher in RSS with 512 lanes, +1.9%
# with 256, for 10 fewer grid calls (see "Lane cap" in
# docs/search_engine.md).
_MERGE_LANE_LIMIT = 256

def _merge_group(cfg: AttentionConfig, scope: Scope, options: PerfOptions,
                 accel: Accelerator, accel_fp: tuple) -> tuple:
    """The key under which grid calls on ``cfg`` merge with others'.

    Lanes merge when they share the scope (which fixes the operator
    plan, :func:`~repro.ops.attention.scope_plan`), the model options,
    the accelerator and whether the workload is past the int64 lanes'
    edges (:func:`~repro.core.batch.is_wide`): a wide workload's calls
    run Python-int lanes, so int64 lanes never run as objects.
    """
    return (scope, options, accel_fp,
            is_wide(cfg, scope, accel.bytes_per_element))


@dataclass(frozen=True)
class CostRequest:
    """One fixed dataflow of a :func:`run_searches` list: the arguments
    of :func:`evaluate_cost`."""

    cfg: AttentionConfig
    scope: Scope
    accel: Accelerator
    dataflow: Dataflow
    options: PerfOptions = PerfOptions()


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


def _objective_value(objective: Objective, cost: ScopeCost) -> float:
    """``objective.score`` of one scalar cost, energy derived on demand."""
    energy = (
        energy_report(cost.counts)
        if objective in (Objective.ENERGY, Objective.EDP) else None
    )
    return objective.score(cost, energy)


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


# ----------------------------------------------------------------------
# many searches, scored together in rounds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchRequest:
    """One search of a :func:`run_searches` list: the arguments of
    :func:`run_search`, best-only unless ``retain_points`` asks for
    every point.  ``warm_start`` is a dataflow hint for a planned
    best-only search: see :func:`_search_rounds`."""

    cfg: AttentionConfig
    accel: Accelerator
    scope: Scope = Scope.LA
    objective: Objective = Objective.RUNTIME
    space: SearchSpace = SearchSpace()
    options: PerfOptions = PerfOptions()
    retain_points: bool = False
    warm_start: Optional[Dataflow] = None


class _CostLane:
    """A fixed dataflow's one round-1 row.  Its grid features are built
    (:meth:`grid_rows`) only when a call scores it: a lane alone in its
    call takes the scalar model, which reads none."""

    __slots__ = ("cfg", "dataflow")

    def __init__(self, cfg: AttentionConfig, dataflow: Dataflow) -> None:
        self.cfg = cfg
        self.dataflow = dataflow

    def __len__(self) -> int:
        return 1

    def grid_rows(self) -> GridRows:
        return GridRows(_GridFeatures(self.cfg, [self.dataflow]))


class _Job:
    """One request of a :func:`run_searches` call, in flight.

    ``kind`` is its memo key's tag: ``"cost"`` (a :class:`CostRequest`),
    ``"points"`` (an every-point search) or ``"search"`` (best-only).
    ``answer`` is the request's memo value — a ``ScopeCost``, every
    point's cost in enumeration order, or ``(dataflow, cost, space
    size)`` — a memo hit's, with ``source`` saying where it came from,
    or the one its rounds computed (``source`` ``"model"``), with a
    search's ``stats`` and an every-point search's ``dataflows``;
    ``source`` stays ``None`` for a repeat of an earlier miss's key.  A
    miss holds its :func:`_merge_group` (``None`` when alone), a
    missed search its space ``table`` and, when it is planned, its
    families' ``bounds``; ``rows`` are what it scores in the next round
    (``None``: nothing left), and ``alive`` the families whose
    representatives those rows are, re-gated once they are scored.  A
    best-only search's incumbent is ``value`` and ``index`` plus
    ``origin``: the scalar ``ScopeCost`` it was scored with, or the
    ``(grid, lane)`` that scored it.  The counters book what it scored
    (``scalar``: members scored by the scalar model) and gated.
    """

    __slots__ = ("request", "accel_fp", "start", "kind", "key", "answer",
                 "source", "stats", "dataflows", "table", "group",
                 "bounds", "rows", "alive", "value", "index", "origin",
                 "generated", "skipped", "families_pruned", "scalar",
                 "batch_evaluations")

    def __init__(self, request: Any) -> None:
        self.request = r = request
        self.accel_fp = accel_fp = accelerator_fingerprint(r.accel)
        self.start = time.perf_counter()
        if isinstance(r, CostRequest):
            self.key = ("cost", r.cfg, accel_fp, r.dataflow, r.options,
                        r.scope)
        elif r.retain_points:
            self.key = ("points", r.cfg, accel_fp, r.options, r.scope,
                        r.space)
        else:
            self.key = ("search", r.cfg, accel_fp, r.options, r.scope,
                        r.objective, r.space)
        self.kind: str = self.key[0]
        self.answer: Any = None
        self.source: Optional[str] = None
        self.stats: Optional[SearchStats] = None
        self.dataflows: Optional[Tuple[Dataflow, ...]] = None
        self.table: Optional[SpaceTable] = None
        self.group: Optional[tuple] = None
        self.bounds: Optional[Tuple[float, ...]] = None
        self.rows: Union[GridRows, _CostLane, None] = None
        self.alive: Optional[List[int]] = None
        self.value: Optional[float] = None
        self.index: Optional[int] = None
        self.origin: Any = None
        self.generated = self.skipped = self.families_pruned = 0
        self.scalar = self.batch_evaluations = 0

    def miss(self) -> bool:
        """Book a memo miss; whether it has rows to score (an empty
        space has none)."""
        self.source = "model"
        if self.kind == "cost":
            return True
        self.table = _space_table(self.request.cfg, self.request.space)
        return self.table.total > 0

    def consider(self, value: float, index: int, origin: Any) -> None:
        """Keep the ``(value, index)`` minimum as the incumbent."""
        # ``<=`` on the index: the warm seed's re-score takes its place.
        if (
            self.value is None
            or value < self.value
            or (value == self.value and index <= self.index)
        ):
            self.value, self.index, self.origin = value, index, origin

    def gate(self, families: Sequence[int], scored: int) -> List[int]:
        """``families`` the incumbent does not gate; a gated one is
        booked with its members but the first ``scored``.

        A family is gated on a strictly beaten bound, or on an exact tie
        it cannot win: every member value >= bound >= the incumbent's
        value, and every member index >= the family offset > the
        incumbent's index, so no member survives the ``(value, index)``
        tie-break.  ``bounds`` carry the _BOUND_SLACK factor, so
        comparing against ``value * _BOUND_SLACK`` tests the unslacked
        ``raw_bound >= value`` (rounding is monotone).
        """
        bounds, table = self.bounds, self.table
        alive: List[int] = []
        for fi in families:
            bound = bounds[fi]
            if self.value is not None and (
                bound > self.value
                or (bound >= self.value * _BOUND_SLACK
                    and table.offsets[fi] > self.index)
            ):
                self.families_pruned += 1
                self.skipped += table.sizes[fi] - scored
            else:
                alive.append(fi)
        return alive

    def begin(self) -> None:
        """The rows of round 1: a fixed dataflow's one lane; the whole
        table without a plan; otherwise the families the warm seed
        leaves alive — every member when at most ``_MERGE_BATCH_LIMIT``
        are, else their representatives."""
        req, table = self.request, self.table
        if self.kind == "cost":
            self.rows = _CostLane(req.cfg, req.dataflow)
            return
        if self.bounds is None:
            self.rows = GridRows(table.features)
            return
        # The warm seed can never gate its own family (that family's
        # bound is <= the seed's re-evaluated value), so ``alive`` is
        # never empty and the incumbent is always scored.
        alive = self.gate(range(len(self.bounds)), 0)
        if sum(table.sizes[fi] for fi in alive) <= _MERGE_BATCH_LIMIT:
            # Scoring a member a representative round would have
            # skipped is exact, so the selection is unchanged.
            self.rows = GridRows(table.features, _member_rows(table, alive))
        else:
            self.alive = alive
            self.rows = GridRows(table.features, np.array(
                [table.offsets[fi] for fi in alive], dtype=np.int64))

    def take(self, grid: Optional[GridEvaluation], lo: int,
             values: Optional[np.ndarray]) -> None:
        """Book this round's rows, scored from lane ``lo`` of ``grid``
        (a lone lane, by the scalar model, when ``grid`` is ``None``),
        and set the next round's rows or settle.  A search selects on
        its objective ``values``; a fixed dataflow or an every-point
        search settles at once, every lane's breakdown taken, so no job
        holds a grid past its round."""
        req, rows, table = self.request, self.rows, self.table
        self.rows = None
        if self.kind != "search":
            def lane(i: int) -> Optional[Tuple[GridEvaluation, int]]:
                return None if grid is None else (grid, lo + i)

            if self.kind == "cost":
                self.answer = _breakdown(req, req.dataflow, lane(0))
                return
            n = table.total
            self.dataflows = tuple(map(table.dataflow, range(n)))
            self.answer = tuple(_breakdown(req, dataflow, lane(i))
                                for i, dataflow in enumerate(self.dataflows))
            self.stats = SearchStats(
                enumerated=n, evaluated=n, pruned=0, cache_hits=0,
                wall_time_s=time.perf_counter() - self.start)
            return
        self.generated += len(rows)
        if grid is None:
            index = 0 if rows.index is None else int(rows.index[0])
            cost = _breakdown(req, table.dataflow(index))
            self.scalar += 1
            self.consider(float(_objective_value(req.objective, cost)),
                          index, cost)
        else:
            self.batch_evaluations += len(rows)
            # Rows ascend, so the first minimum is the (value, index) one.
            k = int(np.argmin(values))
            self.consider(float(values[k]),
                          k if rows.index is None else int(rows.index[k]),
                          (grid, lo + k))
        if self.alive is not None:
            # The representatives tightened the incumbent: re-gate, and
            # score the survivors' other members next round.
            survivors = [fi for fi in self.gate(self.alive, 1)
                         if table.sizes[fi] > 1]
            self.alive = None
            if survivors:
                self.rows = GridRows(table.features, _member_rows(
                    table, survivors, skip_first=True))
        if self.rows is None:
            self.settle()

    def settle(self) -> None:
        """The answer and stats, once no rows are left: the winner's
        breakdown comes from the lane that scored it (or is the scalar
        cost it was scored with), which frees that grid call."""
        req, table = self.request, self.table
        winner = table.dataflow(self.index)
        evaluated = self.scalar
        batch_losers = self.batch_evaluations
        if isinstance(self.origin, ScopeCost):
            cost = self.origin  # booked with its scalar call
        else:
            cost = _breakdown(req, winner, self.origin)
            evaluated += 1
            batch_losers -= 1
        self.origin = self.bounds = None
        self.answer = (winner, cost, table.total)
        self.stats = SearchStats(
            enumerated=table.total,
            evaluated=evaluated,
            pruned=self.skipped + batch_losers,
            cache_hits=0,
            wall_time_s=time.perf_counter() - self.start,
            batch_evaluations=self.batch_evaluations,
            candidates_generated=self.generated,
            candidates_skipped=self.skipped,
            families_pruned=self.families_pruned,
        )


def _scored(jobs: Sequence[_Job], tally: dict) -> Iterator[
        Tuple[_Job, Optional[GridEvaluation], int, Optional[np.ndarray]]]:
    """Score every job's ``rows``: the one place the engine calls
    :func:`~repro.core.batch.evaluate_grid`.

    Segments merge by their job's ``group`` (``None``: alone); a call
    holds at most :data:`_MERGE_LANE_LIMIT` lanes (a larger segment gets
    a call of its own).  Yields each job with the call that scored its
    rows, its first lane there and, for a job that selects a winner, its
    objective values, which equal a call on its rows alone; a call's
    jobs come before the next call runs, so the call lives only while a
    job keeps a lane of it.  A call of one lane is never made: one
    ``cost_scope`` call is cheaper than a one-row grid call, so that
    job is yielded with ``None`` and the scalar model scores it.
    """
    groups: dict = {}
    for job in jobs:
        groups.setdefault(job if job.group is None else job.group,
                          []).append(job)
    chunks: List[List[_Job]] = []
    for members in groups.values():
        lanes = _MERGE_LANE_LIMIT
        for job in members:
            if lanes + len(job.rows) > _MERGE_LANE_LIMIT:
                chunks.append([])
                lanes = 0
            chunks[-1].append(job)
            lanes += len(job.rows)
    for chunk in chunks:
        first = chunk[0].request
        if sum(len(job.rows) for job in chunk) == 1:
            yield chunk[0], None, 0, None
            continue
        segments = GridLanes(tuple(
            job.rows.grid_rows() if isinstance(job.rows, _CostLane)
            else job.rows for job in chunk))
        tally["grid_calls"] += 1
        grid = evaluate_grid([job.request.cfg for job in chunk],
                             first.scope, first.accel, segments,
                             options=first.options)
        tally["segments"] += len(chunk)
        scores: dict = {}
        lo = 0
        for job, rows in zip(chunk, segments.segments):
            values = None
            if job.kind == "search":
                objective = job.request.objective
                values = scores.get(objective)
                if values is None:
                    values = scores[objective] = grid.objective_scores(
                        objective)
                values = values[lo:lo + len(rows)]
            yield job, grid, lo, values
            lo += len(rows)
        del grid, scores, values


def _search_rounds(jobs: List[_Job], tally: dict) -> None:
    """Answer the missed requests ``jobs`` together, in rounds.

    Planning comes first (span ``search-plan``): a best-only space above
    ``_MERGE_BATCH_LIMIT`` candidates, unless its objective is
    ``FOOTPRINT``, gets :func:`~repro.core.candidates.plan_candidates`'
    family bounds, and its ``warm_start`` dataflow, when the space
    holds it (:meth:`~repro.core.candidates.SpaceTable.locate`; else
    ``engine.warm_start.rejected`` is booked), is re-evaluated by the
    scalar model under the request's own config, accelerator, scope,
    objective and options to seed the incumbent.  Then each round
    (span ``search-round``) scores every job's rows through
    :func:`_scored`, whatever their workloads, and each search gates
    its own families on its own incumbent: round 1 scores fixed
    dataflows, every-point tables, whole small tables, planned searches'
    live representatives, or the few members a seed leaves alive; round
    2 the survivors' other members.  A job settles as soon as it has
    nothing left to score.
    """
    if len(jobs) > 1:  # a lone request has nothing to merge with
        for job in jobs:
            req = job.request
            job.group = _merge_group(req.cfg, req.scope, req.options,
                                     req.accel, job.accel_fp)
    planned = [job for job in jobs
               if job.kind == "search"
               and job.table.total > _MERGE_BATCH_LIMIT
               and job.request.objective is not Objective.FOOTPRINT]
    if planned:
        with _span("search-plan", searches=len(planned)):
            for job in planned:
                req = job.request
                with _span("candidate-plan",
                           families=len(job.table.families)):
                    job.bounds = plan_candidates(
                        req.objective, req.cfg, req.scope, req.accel,
                        job.table, options=req.options)
                # Not booked in the stats: the seed's family is always
                # scored, and that score (equal value, equal index)
                # replaces it.
                if req.warm_start is None:
                    continue
                seed = job.table.locate(req.warm_start)
                if seed is None:
                    _metrics.inc("engine.warm_start.rejected")
                    continue
                cost = _breakdown(req, req.warm_start)
                job.consider(_objective_value(req.objective, cost), seed,
                             None)
    for job in jobs:
        job.begin()
    # Planned searches last in each group: a round-1 incumbent keeps its
    # call alive until round 2, so they had better share few calls.
    jobs = sorted(jobs, key=lambda job: job.bounds is not None)
    number = 1
    while jobs:
        with _span("search-round", round=number) as sp:
            calls = tally["grid_calls"]
            segments = tally["segments"]
            for job, grid, lo, values in _scored(jobs, tally):
                job.take(grid, lo, values)
            sp.set(segments=tally["segments"] - segments,
                   grid_calls=tally["grid_calls"] - calls)
        jobs = [job for job in jobs if job.rows is not None]
        number += 1


def _finish(job: _Job, store: Optional[PersistentCache],
            tally: dict) -> Any:
    """The result of one request, produced in list order: a
    ``ScopeCost`` for a :class:`CostRequest`, else a ``DSEResult``.

    A computed answer is stored here.  A fixed dataflow books its source
    as ``engine.lru_hits``, ``engine.disk_hits`` or ``engine.evaluated``
    and opens no span; a search books its :class:`SearchStats`.  An
    every-point search's best point is the first attaining the minimum
    — exactly ``min(points, key=...)`` over the enumeration.
    """
    req = job.request
    if job.source is None:
        # A repeat of an earlier miss: by now the LRU hit it is in a
        # loop of one-request lists.
        job.answer, job.source = _lookup(job.key, store)
        if job.answer is None and job.miss():
            _search_rounds([job], tally)
    if job.source == "model":
        if job.answer is None:
            raise ValueError("search space is empty")
        _remember(job.key, job.answer, store)
    if job.kind == "cost":
        _metrics.inc(_SOURCE_METRIC[job.source])
        return job.answer
    with _span("search", scope=req.scope.name,
               objective=req.objective.name):
        stats = job.stats
        if stats is None:
            n = len(job.answer) if job.kind == "points" else job.answer[2]
            stats = _answered(n, job.source, job.start)
        _accumulate(stats)
        if job.kind == "points":
            dataflows = job.dataflows
            if dataflows is None:  # a memo hit
                table = _space_table(req.cfg, req.space)
                dataflows = map(table.dataflow, range(len(job.answer)))
            points = tuple(
                DesignPoint(dataflow=dataflow, cost=cost,
                            energy=energy_report(cost.counts))
                for dataflow, cost in zip(dataflows, job.answer))
            best = min(points, key=lambda p: req.objective.score(p.cost,
                                                                 p.energy))
        else:
            with _span("candidate-search"):
                if job.source == "model":
                    table = job.table
                    with _span("candidate-score",
                               families=len(table.families),
                               candidates=table.total,
                               families_pruned=stats.families_pruned,
                               candidates_skipped=stats.candidates_skipped,
                               scalar=job.scalar):
                        pass  # a ledger: the list's rounds scored its rows
            dataflow, cost, _ = job.answer
            points = ()
            best = DesignPoint(dataflow=dataflow, cost=cost,
                               energy=energy_report(cost.counts))
        return DSEResult(best=best, points=points, objective=req.objective,
                         stats=stats)


def _run_searches(requests: Sequence[Any],
                  store: Optional[PersistentCache],
                  batch_span: Any = None) -> List[Any]:
    """:func:`run_searches` against an explicit disk ``store`` (or none).

    First every request checks its memo (LRU, then disk) in list order;
    a miss takes its space table, and a repeat of an earlier miss waits
    for that answer.  Then the misses run their rounds together
    (:func:`_search_rounds`), and each request is finished in list
    order, inside one ``store.batch()``: the list's disk writes commit
    once.  :func:`repro.core.scaleout.search_scaleout` runs its inner
    searches with ``store=None``: it persists its own answer, one entry
    per call.
    """
    jobs: List[_Job] = []
    # Memo keys of the misses, when a later request may repeat one (a
    # probe hashes the whole key).
    pending: Optional[set] = set() if len(requests) > 1 else None
    misses: List[_Job] = []
    memo_hits = 0
    tally = {"grid_calls": 0, "segments": 0}
    with store.batch() if store is not None else nullcontext():
        for req in requests:
            job = _Job(req)
            jobs.append(job)
            if pending and job.key in pending:
                memo_hits += 1
                continue
            job.answer, job.source = _lookup(job.key, store)
            if job.answer is not None:
                memo_hits += 1
                continue
            if pending is not None:
                pending.add(job.key)
            if job.miss():
                misses.append(job)
        if misses:
            _search_rounds(misses, tally)
        results = [_finish(job, store, tally) for job in jobs]
    if batch_span is not None:
        batch_span.set(memo_hits=memo_hits, segments=tally["segments"],
                       grid_calls=tally["grid_calls"])
    return results


def run_searches(requests: Sequence[Any]) -> List[Any]:
    """Answer a list of searches and fixed dataflows together, in rounds.

    A :class:`SearchRequest`'s result is its ``DSEResult``; a
    :class:`CostRequest`'s is its ``ScopeCost``.  Each result equals
    what a one-request list (:func:`run_search`, :func:`evaluate_cost`)
    returns for that request when the requests are run one by one in
    list order: the same winner and cost, the same
    :class:`SearchStats` (except ``wall_time_s``), the same
    :func:`search_totals`, the same ``engine.lru_hits`` /
    ``engine.disk_hits`` / ``engine.evaluated`` counts and the same LRU
    and disk entries; a request repeating an earlier one is booked as
    the LRU hit it would be.  A fixed dataflow never enters the search
    stats.  The difference is the number of grid calls: the misses
    advance together, and each round scores every miss's rows — fixed
    dataflows, every-point spaces, whole small spaces and ``FOOTPRINT``
    searches, planned searches' family representatives, then their
    survivors — in one :func:`~repro.core.batch.evaluate_grid` call per
    group of requests sharing a scope, model options and accelerator
    (up to :data:`_MERGE_LANE_LIMIT` lanes per call), whatever their
    workloads.  A lane alone in its call takes the scalar model
    instead, so a search whose round is one lane alone books that
    member as scalar-``evaluated`` where, sharing a call in a list, it
    books a ``batch_evaluations``.  Each search gates its own families
    on its own incumbent and takes its own ``warm_start`` dataflow.
    """
    requests = list(requests)
    with _span("search-batch", requests=len(requests)) as sp:
        return _run_searches(requests, get_default_cache(), sp)


def evaluate_costs(requests: Sequence[CostRequest]) -> List[ScopeCost]:
    """Memoized :func:`~repro.core.perf.cost_scope` of a fixed lineup:
    a :func:`run_searches` list of :class:`CostRequest` entries."""
    return run_searches(requests)


def evaluate_cost(
    cfg: AttentionConfig,
    scope: Scope,
    accel: Accelerator,
    dataflow: Dataflow,
    options: PerfOptions = PerfOptions(),
) -> ScopeCost:
    """Memoized :func:`~repro.core.perf.cost_scope` for one fixed
    dataflow: the LRU, then the persistent cross-run cache, then the
    scalar model, its answer stored in both.  A one-request list."""
    return _run_searches([CostRequest(cfg, scope, accel, dataflow,
                                      options)], get_default_cache())[0]


def run_search(
    cfg: AttentionConfig,
    accel: Accelerator,
    scope: Scope = Scope.LA,
    objective: Objective = Objective.RUNTIME,
    space: SearchSpace = SearchSpace(),
    options: PerfOptions = PerfOptions(),
    retain_points: bool = False,
) -> DSEResult:
    """Evaluate the search space and return the optimum plus stats.

    With ``retain_points=False`` (the default) only the optimum
    matters: a small space is scored whole in one round, a larger one's
    families are gated with branch-and-bound over two rounds
    (representatives, then survivors), energy is computed lazily, and
    ``DSEResult.points`` comes back empty.  With ``retain_points=True``
    every design point is evaluated, energy included, and returned.
    The ``FOOTPRINT`` objective has no cost bound, so its best-only
    search scores every point in one round.  A one-request
    :func:`run_searches`.

    Regardless of ``retain_points`` and cache warmth, the returned best
    design point (dataflow and objective value) is identical to a naive
    serial full evaluation: bounds are admissible, pruning is strict,
    and ties resolve to the first candidate in enumeration order.
    """
    request = SearchRequest(cfg, accel, scope, objective, space, options,
                            retain_points)
    return _run_searches([request], get_default_cache())[0]
