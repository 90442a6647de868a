"""Analytic candidate generation for the DSE engine (ROADMAP item 2).

The engine's historical front end enumerated the full dataflow grid
(~thousands of points per search) and let bounds/batch scoring discard
~99.8% of it.  This module moves that discard *before* generation:
FLAT's closed-form footprint and intensity formulas (paper Tables 1-2;
:mod:`repro.core.footprint`, :mod:`repro.ops.intensity`) make both tile
feasibility and win-ability analytically decidable per *family* of
candidates, so whole families are expanded only if they can still beat
the incumbent.

Three pieces:

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
module is covered by the R3 determinism lint and the disk cache's
source fingerprint (see :mod:`repro.lint.contracts`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.arch.accelerator import Accelerator
from repro.core.batch import _STAT_INDEX, _GridFeatures
from repro.core.dataflow import (
    AttentionVariant,
    Dataflow,
    Granularity,
    StagingPolicy,
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
from repro.core.perf import PerfOptions
from repro.ops.attention import AttentionConfig, Scope

__all__ = [
    "plan_candidates",
    "family_bounds",
    "family_columns",
    "family_lower_bound",
    "SpaceTable",
    "space_table",
]


@lru_cache(maxsize=4096)
def _family_flags(family: DataflowFamily, allow_unfused: bool,
                  allow_fused: bool) -> Tuple[bool, ...]:
    """The bound flags of a family's representative, widened to the
    family (see :func:`family_columns`): its warm-up credit and SG
    floor depend on whether any member fuses (a plain-Base family
    never fuses, a row family always does, and an M/B/H family fuses
    exactly when the space allows fusion)."""
    from repro.core.engine import bound_flags

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

    One :func:`repro.core.engine.bound_table` pass over the bound rows
    of all of them, as columns assembled from the memoized
    :func:`family_columns`: the cross tiles are computed as arrays
    (:func:`_cross_tiles`), and no row is built in Python.
    """
    from repro.core.engine import BoundColumns, bound_table

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
