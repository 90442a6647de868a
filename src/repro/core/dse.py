"""Design-space exploration over FLAT's hyper-parameters (section 5.3.3).

Enumerates every combination of the dataflow knobs of Figure 6(a) —
granularity (with ``B_t``/``H_t``/``R`` sweeps), per-tensor FLAT-tile
enables, and stationarity — evaluates each with the analytical cost
model, and returns the optimum under a user-chosen objective
("We use exhaustive search to find the optimum point under the
user-specified objective, e.g., best run time").

The full enumerated space, not just the winner, is retained so Figure 10
(the Util-vs-footprint scatter) can be regenerated.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple

from repro.arch.accelerator import Accelerator
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
from repro.core.perf import PerfOptions, ScopeCost
from repro.energy.model import EnergyReport
from repro.ops.attention import AttentionConfig, Scope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import SearchStats

__all__ = [
    "Objective",
    "DesignPoint",
    "DSEResult",
    "SearchSpace",
    "DataflowFamily",
    "enumerate_families",
    "expand_family",
    "family_size",
    "enumerate_dataflows",
    "search",
]


class Objective(enum.Enum):
    """Optimization target for the DSE (paper sections 5.3.3, 6.3)."""

    RUNTIME = "runtime"
    ENERGY = "energy"
    EDP = "edp"  # energy-delay product
    FOOTPRINT = "footprint"

    def score(
        self, cost: ScopeCost, energy: Optional[EnergyReport] = None
    ) -> float:
        """Objective value of one evaluated ``(cost, energy)`` pair.

        ``energy`` may be ``None`` for the objectives that do not need
        it (``RUNTIME``, ``FOOTPRINT``) — that is what lets the engine
        defer energy accounting until a winner is known.
        """
        if self is Objective.RUNTIME:
            return cost.total_cycles
        if self is Objective.ENERGY:
            assert energy is not None, "ENERGY objective needs an EnergyReport"
            return energy.total_j
        if self is Objective.EDP:
            assert energy is not None, "EDP objective needs an EnergyReport"
            return energy.total_j * cost.total_cycles
        return float(cost.max_footprint_bytes)

    def key(self) -> Callable[["DesignPoint"], float]:
        return lambda p: self.score(p.cost, p.energy)


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated dataflow configuration."""

    dataflow: Dataflow
    cost: ScopeCost
    energy: EnergyReport

    @property
    def utilization(self) -> float:
        return self.cost.utilization

    @property
    def footprint_bytes(self) -> int:
        return self.cost.max_footprint_bytes


@dataclass(frozen=True)
class DSEResult:
    """Outcome of one exhaustive search.

    ``points`` holds every evaluated design point when the search was
    asked to retain them (``retain_points=True``); a best-only search
    (the default) returns only ``best`` and an empty tuple.  ``stats`` carries
    the engine's work accounting (see
    :class:`~repro.core.engine.SearchStats`) when the search ran
    through the engine.
    """

    best: DesignPoint
    points: Tuple[DesignPoint, ...]
    objective: Objective
    stats: Optional["SearchStats"] = None

    @property
    def num_points(self) -> int:
        return len(self.points)

    def pareto_front(self) -> List[DesignPoint]:
        """Utilization-vs-footprint Pareto front (Figure 10's frontier).

        A point is on the front if no other point has both a smaller
        footprint and a higher utilization.

        Tie handling is deterministic and keeps the front minimal:
        points sort by ``(footprint, -utilization)`` with Python's
        stable sort, and only a *strictly* higher utilization extends
        the front.  Consequently, of several points with equal
        footprint the highest-utilization one wins (ties among those
        resolve to the earliest in ``points`` order), and a point whose
        utilization merely equals the incumbent's is dropped — equal
        utilization at a larger-or-equal footprint adds nothing.
        """
        ordered = sorted(
            self.points, key=lambda p: (p.footprint_bytes, -p.utilization)
        )
        front: List[DesignPoint] = []
        best_util = -1.0
        for p in ordered:
            if p.utilization > best_util:
                front.append(p)
                best_util = p.utilization
        return front


def _default_row_choices(seq_q: int) -> Tuple[int, ...]:
    """Row-count candidates for R granularity.

    Geometric ladder from a single row up to the sequence length
    (capped at 16384); small R keeps the intermediate tile resident at
    long N, large R amortizes K/V streaming, so the sweet spot moves
    with the workload and the DSE needs both ends.  The ladder is
    deliberately independent of the PE-array edge: flexible mapping
    folds any R onto the array, so array-shaped row counts hold no
    special position in the space.
    """
    rows = []
    r = 1
    while r <= seq_q and r <= 16384:
        rows.append(r)
        r *= 4
    cap = min(seq_q, 16384)
    if cap not in rows:
        rows.append(cap)
    return tuple(rows)


@lru_cache(maxsize=None)
def _staging_choices(exhaustive: bool) -> Tuple[StagingPolicy, ...]:
    """FLAT-tile enable/disable combinations to explore.

    The paper's space has 2^5 combinations; the default search uses the
    meaningful corners (all-on, each-single-off, intermediate-only) to
    keep the point count low, and ``exhaustive=True`` enables the full
    2^5 product.
    """
    if exhaustive:
        return tuple(
            StagingPolicy(lhs=a, rhs=b, rhs2=c, out=d, intermediate=e)
            for a, b, c, d, e in itertools.product((True, False), repeat=5)
        )
    policies = [StagingPolicy.all_enabled(), StagingPolicy.intermediate_only()]
    for off in ("lhs", "rhs", "rhs2", "out", "intermediate"):
        kwargs = {name: name != off for name in
                  ("lhs", "rhs", "rhs2", "out", "intermediate")}
        policies.append(StagingPolicy(**kwargs))
    return tuple(policies)


@dataclass(frozen=True)
class SearchSpace:
    """Which slices of the dataflow space the DSE enumerates.

    The named accelerator configurations of Figure 7(c) are expressed as
    restrictions of this space (see :mod:`repro.core.configs`).
    """

    allow_fused: bool = True
    allow_unfused: bool = True
    granularities: Tuple[Granularity, ...] = (
        Granularity.M,
        Granularity.B,
        Granularity.H,
        Granularity.R,
    )
    row_choices: Optional[Tuple[int, ...]] = None
    stationarities: Tuple[Stationarity, ...] = (Stationarity.OUTPUT,)
    exhaustive_staging: bool = False
    include_plain_base: bool = True
    variants: Tuple[AttentionVariant, ...] = (AttentionVariant.SOFTMAX,)

    def __post_init__(self) -> None:
        if not (self.allow_fused or self.allow_unfused):
            raise ValueError("search space admits neither fused nor unfused")
        if not self.granularities and self.include_plain_base is False:
            raise ValueError("empty granularity set with no plain base")
        if not self.variants:
            raise ValueError("search space needs at least one variant")
        if len(set(self.variants)) != len(self.variants):
            raise ValueError("duplicate attention variants in search space")


@dataclass(frozen=True)
class DataflowFamily:
    """One contiguous run of the enumeration order sharing a bound.

    A family fixes everything the engine's admissible lower bound
    (:func:`repro.core.engine.objective_lower_bound`) depends on beyond
    the staging policy — stationarity, cross-loop granularity, and, for
    R granularity, the row count — and leaves only the staging corners
    (and, for M/B/H, the fused/unfused toggle) to expansion.  Because
    :func:`enumerate_dataflows` is exactly the concatenation of
    :func:`expand_family` over :func:`enumerate_families`, a family's
    members occupy a contiguous index range of the exhaustive order,
    which is what lets branch-and-bound skip whole families while
    preserving the engine's first-in-enumeration-order tie-break.

    ``granularity=None`` is the plain (no L3 tile) baseline family,
    whose single member is :func:`repro.core.dataflow.base`.  ``rows``
    is set iff the granularity is R.  ``variant`` is the softmax
    formulation all members share; a non-default variant family
    contains only fused members (variants are fused-only).
    """

    stationarity: Stationarity
    granularity: Optional[Granularity]
    rows: Optional[int] = None
    variant: AttentionVariant = AttentionVariant.SOFTMAX

    def __post_init__(self) -> None:
        if (self.rows is not None) != (self.granularity is Granularity.R):
            raise ValueError("rows must be set exactly for R granularity")
        if self.rows is not None and self.rows < 1:
            raise ValueError("rows must be >= 1")
        if (
            self.variant is not AttentionVariant.SOFTMAX
            and self.granularity is None
        ):
            raise ValueError(
                "the plain baseline family cannot carry an attention "
                "variant (variants are fused-only)"
            )


@lru_cache(maxsize=None)
def _enabled_stagings(exhaustive: bool) -> Tuple[StagingPolicy, ...]:
    """The staging corners that actually stage something.

    The all-disabled corner of the exhaustive 2^5 product is excluded:
    it is the plain baseline, which enumerates separately (and only
    once) as the ``granularity=None`` family.
    """
    return tuple(
        s for s in _staging_choices(exhaustive) if s.any_enabled
    )


def enumerate_families(
    cfg: AttentionConfig, space: SearchSpace = SearchSpace()
) -> Iterator[DataflowFamily]:
    """Yield the space's families in enumeration order.

    ``cfg`` resolves the default row ladder when ``space.row_choices``
    is ``None``; each R row count is its own family because the bound
    (compute efficiency, K/V streaming passes, intermediate residency)
    varies with the row count.
    """
    return query_families(cfg.seq_q, space)


def query_families(
    seq_q: int, space: SearchSpace = SearchSpace()
) -> Iterator[DataflowFamily]:
    """:func:`enumerate_families` on any workload of query length
    ``seq_q``: the families depend on nothing else of it."""
    rows = (
        space.row_choices
        if space.row_choices is not None
        else _default_row_choices(seq_q)
    )
    for stat in space.stationarities:
        if space.allow_unfused and space.include_plain_base:
            yield DataflowFamily(stat, None)
        for gran in space.granularities:
            if gran is Granularity.R:
                if not space.allow_fused:
                    continue
                for r in rows:
                    for var in space.variants:
                        yield DataflowFamily(stat, Granularity.R, r, var)
                continue
            for var in space.variants:
                if (
                    var is not AttentionVariant.SOFTMAX
                    and not space.allow_fused
                ):
                    # Variants are fused-only; an unfused-only space
                    # has no member to put them on.
                    continue
                yield DataflowFamily(stat, gran, None, var)


def expand_family(
    cfg: AttentionConfig,
    family: DataflowFamily,
    space: SearchSpace = SearchSpace(),
) -> Iterator[Dataflow]:
    """Yield a family's members in their exhaustive-enumeration order.

    Per staging corner the unfused (``Base-X``) variant precedes the
    fused (``FLAT-X``) one, mirroring :func:`enumerate_dataflows`.
    Families carrying a non-default attention variant expand to fused
    members only (variants are fused-only by construction).
    """
    stat = family.stationarity
    if family.granularity is None:
        yield base(stationarity=stat)
        return
    stagings = _enabled_stagings(space.exhaustive_staging)
    if family.granularity is Granularity.R:
        for staging in stagings:
            yield flat_r(family.rows, staging=staging, stationarity=stat,
                         variant=family.variant)
        return
    variant_only = family.variant is not AttentionVariant.SOFTMAX
    for staging in stagings:
        if space.allow_unfused and not variant_only:
            yield base_x(family.granularity, staging=staging,
                         stationarity=stat)
        if space.allow_fused:
            yield flat_x(family.granularity, staging=staging,
                         stationarity=stat, variant=family.variant)


def _toggles(family: DataflowFamily, space: SearchSpace) -> int:
    """Members per staging corner: the unfused and fused toggles an
    M/B/H family expands (1 or 2; a variant family only the fused one);
    one for every other family."""
    if family.granularity is None or family.granularity is Granularity.R:
        return 1
    variant_only = family.variant is not AttentionVariant.SOFTMAX
    return int(space.allow_unfused and not variant_only) + int(
        space.allow_fused)


def family_size(
    family: DataflowFamily, space: SearchSpace = SearchSpace()
) -> int:
    """Member count of :func:`expand_family` without expanding it."""
    if family.granularity is None:
        return 1
    return len(_enabled_stagings(space.exhaustive_staging)) * _toggles(
        family, space)


def enumerate_dataflows(
    cfg: AttentionConfig,
    accel: Accelerator,
    space: SearchSpace = SearchSpace(),
) -> Iterator[Dataflow]:
    """Yield every dataflow configuration in the search space.

    Defined as the ordered concatenation of :func:`expand_family` over
    :func:`enumerate_families` — the candidate generator and the
    exhaustive path share one enumeration, so family index ranges are
    global enumeration indices by construction.  ``accel`` is unused
    (the space is hardware-independent) and kept for API stability.
    """
    for family in enumerate_families(cfg, space):
        yield from expand_family(cfg, family, space)


def search(
    cfg: AttentionConfig,
    accel: Accelerator,
    scope: Scope = Scope.LA,
    objective: Objective = Objective.RUNTIME,
    space: SearchSpace = SearchSpace(),
    options: PerfOptions = PerfOptions(),
    retain_points: bool = False,
) -> DSEResult:
    """Exhaustively evaluate the space and return the optimum.

    Every candidate drives the L/A pair; non-fused operators in the
    scope always run with their own per-operator best (handled inside
    :func:`~repro.core.perf.cost_scope` via the ``other_dataflow``
    default).

    Evaluation runs through :mod:`repro.core.engine`: by default
    (``retain_points=False``) everything but the winner is dropped,
    enabling branch-and-bound pruning and lazy energy accounting;
    ``retain_points=True`` returns every point.  The best point is
    identical either way; see :func:`repro.core.engine.run_search`.
    """
    from repro.core.engine import run_search

    return run_search(
        cfg,
        accel,
        scope=scope,
        objective=objective,
        space=space,
        options=options,
        retain_points=retain_points,
    )
