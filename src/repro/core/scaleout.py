"""Two-level scale-out DSE: cross-chip partition x per-chip dataflow.

The single-chip engine (:mod:`repro.core.engine`) answers "what is the
best FLAT dataflow on this die"; this module answers the next question
up — "how should an attention workload be cut across ``T`` dies, and
what does the fabric charge for the cut".  The space is the product of

* a **partition** — batch x head x sequence sharding ways whose
  product is the chip count (:func:`enumerate_partitions`),
* a **collective schedule** — how the partition's induced collectives
  are laid onto the fabric (:class:`~repro.arch.fabric.CollectiveSchedule`;
  every search weighs both :data:`DEFAULT_SCHEDULES`, ring and tree),
* and, per partition, the full per-chip FLAT configuration space.

Scoring is hierarchical.  The *outer* level is batch-scored on a
structure-of-arrays grid (:func:`evaluate_partition_grid`, the
``batch.evaluate_grid`` idiom): every partition's induced collective
payloads, fabric cycles per schedule, and admissible lower bounds are
computed in vectorized NumPy with no inner search.  The *inner* level
— the per-chip search — is delegated to the existing candidate-gated
engine's best-only search, and only runs for outer points that survive
branch-and-bound against the incumbent.  A sweep over chip counts
(:func:`sweep_chip_counts`) hands each count's per-chip winner to the
next count's first inner search as a warm seed.

The outer bound is admissible by construction:

* **compute floor** — min over dataflow families of the family bound
  on the sharded workload: no per-chip dataflow beats the best family
  floor.  One :func:`repro.core.candidates.family_bounds` call bounds
  every family of every distinct shard of the grid;
* **fabric term** — the point's *exact* collective cycles (the
  schedule is fixed at the outer level, so nothing is unknown).

Chip and fabric phases are modeled as serialized (no overlap of the
collective with compute), so ``total = chip + fabric`` and the bound
``compute_floor + fabric`` never exceeds the truth.

Selection minimizes ``(total cycles, enumeration index)`` over the
evaluated points.  A pruned point's true value is >= its bound > the
incumbent >= the final optimum, so it can neither win nor displace a
tie — the hierarchical search returns the exact point an exhaustive
cross-product (one inner search per partition and schedule) returns,
bytes included; ``tests/core/test_scaleout.py`` checks it against that
oracle.

Winners are memoized through the engine's LRU and the persistent disk
cache under a ``scaleout-memo`` key, one disk entry per call (inner
searches stay in the LRU); this module and
:mod:`repro.arch.fabric` are in the cache fingerprint set, so editing
either formula invalidates stored winners.

Sharding model (induced collectives)
------------------------------------
* **batch** — embarrassingly parallel; no collective.
* **head** — each chip owns a head shard and produces partial sums of
  the row-parallel output projection: an **all-reduce** of the output
  activations (``B_shard x Nq_shard x D`` elements) over the head
  group.
* **sequence** — each chip owns a Q-row shard but needs every K/V
  column: an **all-gather** of K and V (``2 x B_shard x H_shard x
  Nkv x d_head`` elements) over the sequence group.

Shards use ceiling division (the slowest — largest — shard sets the
pace), and concurrent groups are assumed to map to disjoint fabric
regions, so one group's collective time is charged.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.accelerator import Accelerator
from repro.arch.cluster import ClusteredAccelerator
from repro.arch.fabric import (
    CollectiveKind,
    CollectiveSchedule,
    FabricSpec,
    collective_time_s,
)
from repro.core.candidates import family_bounds
from repro.core.dataflow import Dataflow
from repro.core.dse import Objective, SearchSpace
from repro.core.perf import PerfOptions, ScopeCost
from repro.obs.trace import span as _span
from repro.ops.attention import AttentionConfig, Scope

__all__ = [
    "Partition",
    "Collective",
    "ScaleoutSystem",
    "PartitionGrid",
    "ScaleoutPoint",
    "ScaleoutStats",
    "ScaleoutResult",
    "enumerate_partitions",
    "shard_config",
    "induced_collectives",
    "evaluate_partition_grid",
    "search_scaleout",
    "sweep_chip_counts",
    "scaleout_totals",
    "reset_scaleout_totals",
    "DEFAULT_SCHEDULES",
]

DEFAULT_SCHEDULES: Tuple[CollectiveSchedule, ...] = (
    CollectiveSchedule.RING,
    CollectiveSchedule.TREE,
)


# ----------------------------------------------------------------------
# partition space
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Partition:
    """One way of cutting the workload across ``chips`` dies."""

    chips: int
    batch_ways: int
    head_ways: int
    seq_ways: int

    def __post_init__(self) -> None:
        ways = (self.batch_ways, self.head_ways, self.seq_ways)
        if self.chips < 1 or any(w < 1 for w in ways):
            raise ValueError("chips and sharding ways must be >= 1")
        if self.batch_ways * self.head_ways * self.seq_ways != self.chips:
            raise ValueError("sharding ways must multiply to the chip count")

    @property
    def label(self) -> str:
        return f"b{self.batch_ways}-h{self.head_ways}-s{self.seq_ways}"


def _divisors(n: int) -> List[int]:
    small, large = [], []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def enumerate_partitions(
    cfg: AttentionConfig, chips: int
) -> Tuple[Partition, ...]:
    """Every feasible partition of ``cfg`` over ``chips``, in order.

    Feasible means no sharding dimension is cut finer than its extent
    (a shard must hold at least one batch element / head / Q row).
    Enumeration order — batch ways ascending, then head ways ascending
    (sequence ways are determined) — is the outer level's tie-break
    order, mirrored exactly by the exhaustive reference.
    """
    if chips < 1:
        raise ValueError("chips must be >= 1")
    parts: List[Partition] = []
    for pb in _divisors(chips):
        if pb > cfg.batch:
            continue
        rest = chips // pb
        for ph in _divisors(rest):
            ps = rest // ph
            if ph > cfg.heads or ps > cfg.seq_q:
                continue
            parts.append(Partition(chips, pb, ph, ps))
    return tuple(parts)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _outer_space(cfg: AttentionConfig, chips: int) -> Tuple[Partition, ...]:
    """The partitions of an outer level; rejects an empty one."""
    partitions = enumerate_partitions(cfg, chips)
    if not partitions:
        raise ValueError(
            f"no feasible partition of {cfg.name!r} across {chips} chips"
        )
    return partitions


def _shard_extents(cfg: AttentionConfig,
                   partition: Partition) -> Tuple[int, int, int, int]:
    """``(batch, heads, d_ff, seq_q)`` of one shard: all a cut changes."""
    return (
        _ceil_div(cfg.batch, partition.batch_ways),
        _ceil_div(cfg.heads, partition.head_ways),
        _ceil_div(cfg.d_ff, partition.head_ways),
        _ceil_div(cfg.seq_q, partition.seq_ways),
    )


def _shard(cfg: AttentionConfig, extents: Tuple[int, int, int, int],
           name: str) -> AttentionConfig:
    batch, heads, d_ff, seq_q = extents
    return replace(cfg, name=name, batch=batch, heads=heads,
                   d_model=heads * cfg.d_head, d_ff=d_ff, seq_q=seq_q)


def shard_config(cfg: AttentionConfig, partition: Partition) -> AttentionConfig:
    """The per-chip workload one shard of ``partition`` computes.

    Ceiling division throughout — with non-divisible extents the
    largest shard sets the pace.  A head shard keeps ``d_head`` (so
    ``d_model`` shrinks with the head count and divisibility is
    preserved); a sequence shard cuts Q rows only, leaving ``seq_kv``
    whole — the gathered K/V is what the induced all-gather pays for.
    """
    return _shard(cfg, _shard_extents(cfg, partition),
                  f"{cfg.name}/{partition.label}")


@dataclass(frozen=True)
class Collective:
    """One induced fabric collective: what, over how many, how big."""

    kind: CollectiveKind
    group: int
    payload_bytes: int


def induced_collectives(
    cfg: AttentionConfig,
    partition: Partition,
    bytes_per_element: int,
) -> Tuple[Collective, ...]:
    """The collectives ``partition`` forces onto the fabric.

    See the module docstring for the sharding model.  Payloads are
    aggregate bytes across the group, sized from the (ceil-divided)
    shard the group's chips actually hold.
    """
    kv_bytes, out_bytes = _payload_bytes(
        cfg, partition, shard_config(cfg, partition), bytes_per_element
    )
    out: List[Collective] = []
    if partition.seq_ways > 1:
        out.append(
            Collective(CollectiveKind.ALL_GATHER, partition.seq_ways,
                       kv_bytes)
        )
    if partition.head_ways > 1:
        out.append(
            Collective(CollectiveKind.ALL_REDUCE, partition.head_ways,
                       out_bytes)
        )
    return tuple(out)


def _payload_bytes(
    cfg: AttentionConfig,
    partition: Partition,
    shard: AttentionConfig,
    bytes_per_element: int,
) -> Tuple[int, int]:
    """``(all-gather, all-reduce)`` payload bytes; 0 when not induced."""
    kv_bytes = out_bytes = 0
    if partition.seq_ways > 1:
        kv_elements = (
            2 * shard.batch * shard.heads * cfg.seq_kv * cfg.d_head
        )
        kv_bytes = kv_elements * bytes_per_element
    if partition.head_ways > 1:
        out_elements = shard.batch * shard.seq_q * cfg.d_model
        out_bytes = out_elements * bytes_per_element
    return kv_bytes, out_bytes


# ----------------------------------------------------------------------
# the system under search
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScaleoutSystem:
    """``T`` identical chips on a fabric, with shared memory channels.

    ``chips_per_channel`` chips share one off-chip channel of the
    chip's nominal bandwidth (Simba-style: SRAM scales with silicon,
    DRAM pins do not), derated by ``channel_contention`` — the
    :class:`~repro.arch.cluster.ClusteredAccelerator` arbitration
    factor (1.0 = ideal fair share).
    """

    chip: Accelerator
    fabric: FabricSpec = FabricSpec()
    chips_per_channel: int = 1
    channel_contention: float = 1.0

    def __post_init__(self) -> None:
        if self.chips_per_channel < 1:
            raise ValueError("chips_per_channel must be >= 1")
        if not (math.isfinite(self.channel_contention)
                and self.channel_contention >= 1.0):
            raise ValueError("channel_contention must be finite and >= 1.0")

    def chip_view(self) -> Accelerator:
        """What one chip sees once the channel sharing is priced in."""
        if self.chips_per_channel == 1 and self.channel_contention == 1.0:
            return self.chip
        return ClusteredAccelerator(
            slice_accel=self.chip,
            num_clusters=self.chips_per_channel,
            shared_offchip_bytes_per_sec=(
                self.chip.offchip.bandwidth_bytes_per_sec
            ),
            contention=self.channel_contention,
        ).per_cluster_view()

    def fingerprint(self) -> tuple:
        """Cache identity (name-independent, like the engine's)."""
        from repro.core.engine import accelerator_fingerprint

        return (
            accelerator_fingerprint(self.chip),
            self.fabric,
            self.chips_per_channel,
            self.channel_contention,
        )


# ----------------------------------------------------------------------
# outer-level structure-of-arrays grid
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionGrid:
    """Vectorized outer-level scores for one (workload, system, T).

    Axis 0 is the partition (enumeration order), axis 1 the schedule
    (:data:`DEFAULT_SCHEDULES`).  ``fabric_cycles[p, s]`` is
    bit-identical to summing :func:`~repro.arch.fabric.collective_time_s`
    over the partition's induced collectives (asserted by
    ``tests/core/test_scaleout.py``), and ``bound_cycles[p, s] =
    compute_floor_cycles[p] + fabric_cycles[p, s]`` is the
    branch-and-bound gate.
    """

    partitions: Tuple[Partition, ...]
    schedules: Tuple[CollectiveSchedule, ...]
    fabric_cycles: np.ndarray  # (P, S)
    compute_floor_cycles: np.ndarray  # (P,)
    bound_cycles: np.ndarray  # (P, S)

    @property
    def num_points(self) -> int:
        return len(self.partitions) * len(self.schedules)


def evaluate_partition_grid(
    cfg: AttentionConfig,
    system: ScaleoutSystem,
    chips: int,
    scope: Scope = Scope.LA,
    space: SearchSpace = SearchSpace(),
    options: PerfOptions = PerfOptions(),
) -> PartitionGrid:
    """Batch-score the outer level without running any inner search.

    The fabric side is pure array arithmetic over the partition table
    (payload bytes, group sizes -> alpha-beta terms per schedule).  The
    compute floors are closed-form family bounds over the *distinct*
    shard configs (partitions that shard to the same workload share
    one floor).  One :func:`~repro.core.candidates.family_bounds` call
    bounds every (shard, family) row, assembled from the memoized
    family columns of each shard's query length (no ``Dataflow`` is
    built, no member is expanded and no row is built in Python), and
    a shard's floor is the min of its rows.
    """
    partitions = _outer_space(cfg, chips)
    e = system.chip.bytes_per_element
    freq = system.chip.frequency_hz
    p = len(partitions)

    # The distinct shards, built once; labels are dropped so that
    # partitions cutting to the same workload share one shard.
    shard_index: Dict[Tuple[int, int, int, int], int] = {}
    shards: List[AttentionConfig] = []
    shard_of = np.empty(p, dtype=np.int64)
    kv_bytes = np.zeros(p)
    out_bytes = np.zeros(p)
    for i, part in enumerate(partitions):
        extents = _shard_extents(cfg, part)
        j = shard_index.get(extents)
        if j is None:
            j = shard_index[extents] = len(shards)
            shards.append(_shard(cfg, extents, cfg.name))
        shard_of[i] = j
        kv_bytes[i], out_bytes[i] = _payload_bytes(cfg, part, shards[j], e)

    seq_ways = np.array([t.seq_ways for t in partitions], dtype=np.float64)
    head_ways = np.array([t.head_ways for t in partitions], dtype=np.float64)

    link = system.fabric.link_bytes_per_sec
    hop = system.fabric.hop_latency_s

    # Row 0 is the all-gather over the sequence group, row 1 the
    # all-reduce over the head group (two phases).
    payload = np.stack([kv_bytes, out_bytes])
    ways = np.stack([seq_ways, head_ways])
    phases = np.array([[1], [2]])
    frac = np.where(ways > 1, (ways - 1) / np.maximum(ways, 1), 0.0)
    active = (ways > 1) & (payload > 0)

    fabric_cycles = np.empty((p, len(DEFAULT_SCHEDULES)))
    for si, schedule in enumerate(DEFAULT_SCHEDULES):
        if schedule is CollectiveSchedule.RING:
            bw = frac * payload / (2.0 * link)
            steps = ways - 1
        else:
            bw = frac * payload / link
            steps = np.ceil(np.log2(np.maximum(ways, 1)))
        time_s = np.where(active, phases * (bw + steps * hop), 0.0)
        fabric_cycles[:, si] = (time_s[0] + time_s[1]) * freq

    bounds, counts = family_bounds(Objective.RUNTIME, scope,
                                   system.chip_view(), shards, space,
                                   options)
    starts = np.cumsum([0] + counts[:-1])
    compute_floor = np.minimum.reduceat(bounds, starts)[shard_of]

    return PartitionGrid(
        partitions=partitions,
        schedules=DEFAULT_SCHEDULES,
        fabric_cycles=fabric_cycles,
        compute_floor_cycles=compute_floor,
        bound_cycles=compute_floor[:, None] + fabric_cycles,
    )


# ----------------------------------------------------------------------
# search accounting
# ----------------------------------------------------------------------
@dataclass
class ScaleoutStats:
    """Work accounting of one :func:`search_scaleout` call.

    Invariant (when ``memo_hits == 0``): every enumerated outer point
    is either evaluated or pruned —
    ``outer_enumerated == outer_evaluated + partitions_pruned``.
    ``inner_searches`` counts actual engine invocations; schedules
    sharing a partition reuse its inner result (``inner_reused``).
    """

    outer_enumerated: int = 0
    outer_evaluated: int = 0
    partitions_pruned: int = 0
    inner_searches: int = 0
    inner_reused: int = 0
    memo_hits: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "outer_enumerated": self.outer_enumerated,
            "outer_evaluated": self.outer_evaluated,
            "partitions_pruned": self.partitions_pruned,
            "inner_searches": self.inner_searches,
            "inner_reused": self.inner_reused,
            "memo_hits": self.memo_hits,
        }


_TOTALS_ZERO = ScaleoutStats().as_dict()
_totals = dict(_TOTALS_ZERO)
_TOTALS_LOCK = threading.Lock()


def reset_scaleout_totals() -> None:
    """Zero the per-process accumulated :class:`ScaleoutStats`."""
    with _TOTALS_LOCK:
        _totals.update(_TOTALS_ZERO)


def scaleout_totals() -> dict:
    """Accumulated stats of every scale-out search since the reset."""
    with _TOTALS_LOCK:
        return dict(_totals)


def _accumulate(stats: ScaleoutStats) -> None:
    with _TOTALS_LOCK:
        for key, value in stats.as_dict().items():
            _totals[key] += value
    try:
        from repro.obs.metrics import active
    except ImportError:  # pragma: no cover - obs is stdlib-only
        return
    registry = active()
    if registry is not None:
        registry.counter("scaleout.inner_searches").inc(stats.inner_searches)
        registry.counter("scaleout.partitions_pruned").inc(
            stats.partitions_pruned
        )
        registry.counter("scaleout.memo_hits").inc(stats.memo_hits)


# ----------------------------------------------------------------------
# the two-level search
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScaleoutPoint:
    """One evaluated outer point: partition, schedule, per-chip winner."""

    partition: Partition
    schedule: CollectiveSchedule
    dataflow: Dataflow
    chip_cost: ScopeCost
    chip_cycles: float
    fabric_cycles: float

    @property
    def total_cycles(self) -> float:
        return self.chip_cycles + self.fabric_cycles


@dataclass(frozen=True)
class ScaleoutResult:
    """Outcome of one :func:`search_scaleout`."""

    best: ScaleoutPoint
    chips: int
    stats: ScaleoutStats


def search_scaleout(
    cfg: AttentionConfig,
    system: ScaleoutSystem,
    chips: int,
    scope: Scope = Scope.LA,
    space: SearchSpace = SearchSpace(),
    options: PerfOptions = PerfOptions(),
    warm_start: Optional[Dataflow] = None,
) -> ScaleoutResult:
    """Find the best (partition, schedule, per-chip dataflow) for ``T``.

    Outer points are visited best-bound-first, and every point whose
    admissible bound strictly exceeds the incumbent is pruned before
    its inner search ever runs; the winner is the exhaustive
    cross-product's (see module docstring).  ``warm_start``, a dataflow
    hint (the neighboring chip count's per-chip winner), seeds the first
    inner search; winners also land in the engine's LRU and the
    persistent disk cache.  The outer grid is built only when the memo
    misses: a hit runs no bound and no inner search.
    """
    from repro.core.cache import get_default_cache
    from repro.core.engine import SearchRequest, _memoized, _run_searches

    partitions = _outer_space(cfg, chips)
    n_sched = len(DEFAULT_SCHEDULES)
    stats = ScaleoutStats(outer_enumerated=len(partitions) * n_sched)

    view = system.chip_view()

    inner_cache: Dict[int, tuple] = {}  # partition index -> (result, cycles)

    def _inner(p_idx: int) -> tuple:
        cached = inner_cache.get(p_idx)
        if cached is not None:
            stats.inner_reused += 1
            return cached
        shard = shard_config(cfg, partitions[p_idx])
        # Only the first inner search takes the sweep's seed.
        (result,) = _run_searches([SearchRequest(
            shard, view, scope, space=space, options=options,
            warm_start=None if stats.inner_searches else warm_start)],
            None)
        stats.inner_searches += 1
        entry = (result, float(result.best.cost.total_cycles))
        inner_cache[p_idx] = entry
        return entry

    def _outer_search() -> ScaleoutPoint:
        with _span("scaleout-outer"):
            grid = evaluate_partition_grid(
                cfg, system, chips, scope, space, options
            )
        # Flat outer enumeration order: partition-major, schedule-minor.
        flat_bounds = grid.bound_cycles.reshape(-1)
        # Best-bound-first; index tie-break keeps the visit order
        # deterministic (the *selection* tie-break is handled below).
        visit = sorted(range(grid.num_points),
                       key=lambda i: (flat_bounds[i], i))

        best_value = math.inf
        best_index = -1
        best_point: Optional[ScaleoutPoint] = None
        for flat in visit:
            if flat_bounds[flat] > best_value:
                # Bounds are sorted: this and every later point is pruned.
                stats.partitions_pruned += (grid.num_points
                                            - stats.outer_evaluated)
                break
            p_idx, s_idx = divmod(flat, n_sched)
            result, chip_cycles = _inner(p_idx)
            stats.outer_evaluated += 1
            total = chip_cycles + float(grid.fabric_cycles[p_idx, s_idx])
            if (total, flat) < (best_value, best_index):
                best_value = total
                best_index = flat
                best_point = ScaleoutPoint(
                    partition=grid.partitions[p_idx],
                    schedule=DEFAULT_SCHEDULES[s_idx],
                    dataflow=result.best.dataflow,
                    chip_cost=result.best.cost,
                    chip_cycles=chip_cycles,
                    fabric_cycles=float(grid.fabric_cycles[p_idx, s_idx]),
                )

        assert best_point is not None
        return best_point

    memo_key = ("scaleout-memo", cfg, system.fingerprint(), chips, scope,
                space, options)
    with _span("scaleout", chips=chips, partitions=len(partitions)):
        best, source = _memoized(memo_key, _outer_search,
                                 get_default_cache())
    if source != "model":
        stats.memo_hits = 1
    _accumulate(stats)
    return ScaleoutResult(best=best, chips=chips, stats=stats)


def sweep_chip_counts(
    cfg: AttentionConfig,
    system: ScaleoutSystem,
    chip_counts: Sequence[int],
    scope: Scope = Scope.LA,
    space: SearchSpace = SearchSpace(),
    options: PerfOptions = PerfOptions(),
) -> List[ScaleoutResult]:
    """Run :func:`search_scaleout` at each chip count, warm-chaining.

    Each count's first inner search is seeded with the previous count's
    per-chip winning dataflow.  The seed changes the amount of work,
    never a winner.
    """
    results: List[ScaleoutResult] = []
    warm: Optional[Dataflow] = None
    for chips in chip_counts:
        result = search_scaleout(
            cfg,
            system,
            chips,
            scope=scope,
            space=space,
            options=options,
            warm_start=warm,
        )
        warm = result.best.dataflow
        results.append(result)
    return results
