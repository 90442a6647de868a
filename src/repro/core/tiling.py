"""Tiling math: L2-tile selection and reuse-pass analysis.

The cost model needs two things from the L2 level:

1. **Tile sizes** that fit the scratchpad budget while keeping the PE
   array busy — :func:`choose_l2_tile`, one array pass over the
   candidate grid.
2. **Reuse passes**: with an L2 tile ``(Tm, Tk, Tn)`` on a GEMM
   ``(m, k, n)``, how many times each tensor crosses the chip boundary —
   :func:`reuse_passes`.  This is what makes the plain baseline's
   traffic grow when the scratchpad shrinks (small tiles, many passes),
   producing the left side of Figure 8's curves.

:func:`tile_plan` memoizes both as one record per GEMM shape, budget
and array; the scalar model, the batch kernels and the engine's bounds
all read their tiles from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Tuple

import numpy as np

__all__ = [
    "ceil_div",
    "L2Tile",
    "TilePlan",
    "choose_l2_tile",
    "reuse_passes",
    "tile_plan",
]


def ceil_div(a, b):
    """Ceiling division for positive integers.

    Shape-polymorphic: either argument may also be an integer ndarray,
    in which case the division vectorizes element-wise.  Validation only
    runs on plain-int inputs — the batch evaluator constructs its arrays
    from already-validated dataflows.
    """
    if isinstance(a, int) and isinstance(b, int):
        if b <= 0:
            raise ValueError("divisor must be positive")
        if a < 0:
            raise ValueError("dividend must be non-negative")
    return -(-a // b)


@dataclass(frozen=True)
class L2Tile:
    """An L2 tile ``(tm, tk, tn)`` of a GEMM ``(m, k, n)``."""

    tm: int
    tk: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tm, self.tk, self.tn) < 1:
            raise ValueError("tile dims must be >= 1")

    def footprint_elements(self, double_buffered: bool = True) -> int:
        """Live elements of the tile working set.

        Input and output slices; the factor 2 accounts for double
        buffering (active + warm-up buffers, paper section 5.1).
        """
        single = self.tm * self.tk + self.tk * self.tn + self.tm * self.tn
        return 2 * single if double_buffered else single


@dataclass(frozen=True)
class ReusePasses:
    """How many times each GEMM tensor is streamed from its backing store.

    ``lhs_passes`` multiplies the lhs's compulsory traffic, etc.
    ``out_passes`` > 1 means partial sums spill (read-modify-write).
    """

    lhs_passes: int
    rhs_passes: int
    out_passes: int


def reuse_passes(m: int, k: int, n: int, tile: L2Tile) -> ReusePasses:
    """Reuse analysis for the traffic-minimal L2 loop order.

    Two loop orders are available: keep the lhs L2 tile resident while
    streaming every rhs tile past it (lhs read once, rhs re-read
    ``ceil(m/tm)`` times), or the converse (rhs once, lhs ``ceil(n/tn)``
    times).  A dataflow compiler picks whichever moves fewer bytes, so
    the model does too.  The output is written once when ``tk`` covers
    ``k``; otherwise each extra k-step adds a read-modify-write pass
    (partial-sum spill).
    """
    mo = ceil_div(m, tile.tm)
    no = ceil_div(n, tile.tn)
    ko = ceil_div(k, tile.tk)
    out_passes = 1 if ko == 1 else 2 * ko - 1
    lhs_resident = m * k * 1 + k * n * mo
    rhs_resident = m * k * no + k * n * 1
    if lhs_resident <= rhs_resident:
        return ReusePasses(lhs_passes=1, rhs_passes=mo, out_passes=out_passes)
    return ReusePasses(lhs_passes=no, rhs_passes=1, out_passes=out_passes)


def _tile_candidates(dim: int, unit: int) -> Tuple[int, ...]:
    """Candidate tile sizes along one dimension.

    Multiples of the PE-array edge (``unit``) up to the full dimension,
    in powers of two, plus the dimension itself: a small but effective
    grid for the exhaustive tile search.
    """
    sizes = set()
    size = min(unit, dim)
    while size < dim:
        sizes.add(size)
        size *= 2
    sizes.add(dim)
    return tuple(sorted(sizes))


#: Past this ``m * k * n`` the tile search computes with Python ints:
#: every term it forms (footprints, resident volumes, traffic) is at
#: most ``6 * m * k * n``, so below ``2**60`` int64 holds them exactly.
_MAX_INT64_MKN = 2 ** 60


def _search_tile(
    m: int, k: int, n: int, budget_elements: int, array_rows: int,
    array_cols: int,
) -> L2Tile:
    """The traffic-minimal tile of the geometric grid, scored as arrays.

    Axis 0 holds the ``tm`` candidates, axis 1 ``tn`` and axis 2 ``tk``,
    so the flattened grid is the loop order ``tm``, ``tn``, ``tk``.  The
    choice is least traffic, then the largest footprint, then the first
    in that order.  Past :data:`_MAX_INT64_MKN` the same expressions
    run on object arrays of Python ints.
    """
    k_unit = max(array_rows, array_cols)
    tms = _tile_candidates(m, array_rows)
    tns = _tile_candidates(n, array_cols)
    tks = _tile_candidates(k, k_unit)
    dtype = object
    if m * k * n <= _MAX_INT64_MKN:
        # Footprints stay below 2**63 here, so a larger budget admits
        # the same tiles as 2**63 - 1 does.
        dtype = np.int64
        budget_elements = min(budget_elements, 2 ** 63 - 1)
    tm = np.array(tms, dtype=dtype)[:, None, None]
    tn = np.array(tns, dtype=dtype)[None, :, None]
    tk = np.array(tks, dtype=dtype)[None, None, :]
    footprint = (2 * (tm * tk + tk * tn + tm * tn)).ravel()
    # reuse_passes' traffic: the cheaper loop order streams the inputs
    # as m*k + k*n*ceil(m/tm) or m*k*ceil(n/tn) + k*n, and the output
    # takes 2*ceil(k/tk) - 1 passes (1 when tk covers k).
    inputs = np.minimum(m * k + k * n * -(-m // tm),
                        m * k * -(-n // tn) + k * n)
    traffic = (inputs + m * n * (2 * -(-k // tk) - 1)).ravel()
    fits = np.flatnonzero(footprint <= budget_elements)
    if not fits.size:
        # Budget smaller than even the minimal array-shaped tile: return
        # the minimal tile and let the caller charge the honest traffic.
        return L2Tile(min(array_rows, m), min(k_unit, k), min(array_cols, n))
    least = traffic[fits]
    ties = fits[least == least.min()]
    i, rest = divmod(int(ties[np.argmax(footprint[ties])]),
                     len(tns) * len(tks))
    j, l = divmod(rest, len(tks))
    return L2Tile(tms[i], tks[l], tns[j])


class TilePlan(NamedTuple):
    """A GEMM's L2 tile ``(tm, tk, tn)`` and the reuse passes it
    implies: one flat record per ``(m, k, n, budget, array rows, array
    cols)`` key, which reads as its tile (``tm``/``tk``/``tn`` and
    :meth:`L2Tile.footprint_elements`)."""

    tm: int
    tk: int
    tn: int
    lhs_passes: int
    rhs_passes: int
    out_passes: int

    footprint_elements = L2Tile.footprint_elements

    @property
    def tile(self) -> L2Tile:
        return L2Tile(self.tm, self.tk, self.tn)


@lru_cache(maxsize=65536)
def tile_plan(
    m: int, k: int, n: int, budget_elements: int, array_rows: int,
    array_cols: int,
) -> TilePlan:
    """The traffic-minimal L2 tile fitting the element budget, with its
    :func:`reuse_passes` — memoized, the one record every consumer of
    the L2 tiling reads.

    Exhaustive search over a geometric candidate grid (one array pass);
    ties go to the larger footprint (fewer tile switches), then to the
    first candidate in loop order.  If even the minimal array-sized
    tile exceeds the budget, the minimal tile is returned — the model
    then charges the resulting traffic honestly rather than failing (a
    real compiler would do the same and eat the slowdown).
    """
    if budget_elements <= 0:
        raise ValueError("budget must be positive")
    tile = _search_tile(m, k, n, budget_elements, array_rows, array_cols)
    passes = reuse_passes(m, k, n, tile)
    return TilePlan(tile.tm, tile.tk, tile.tn, passes.lhs_passes,
                    passes.rhs_passes, passes.out_passes)


def choose_l2_tile(
    m: int, k: int, n: int, budget_elements: int, array_rows: int, array_cols: int
) -> L2Tile:
    """Pick the traffic-minimal L2 tile fitting the element budget
    (the tile of :func:`tile_plan`)."""
    return tile_plan(m, k, n, budget_elements, array_rows, array_cols).tile
