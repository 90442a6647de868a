"""Live-memory-footprint model (paper section 4.4, Table 2).

Computes the on-chip bytes a dataflow must keep live.  Double buffering
doubles every tensor that interacts with off-chip memory; the fused
intermediate tile does not (it never leaves the chip), which is why
FLAT's R-granularity footprint grows only as O(N):

==========  ==========================================
Granularity Live footprint (elements, all tiles enabled)
==========  ==========================================
M-Gran      ``8*B*D*N + B*H*N^2``
B-Gran      ``8*D*N  + H*N^2``
H-Gran      ``8*N*dk + N^2``
R-Gran      ``4*R*dk + 4*N*dk + R*N``
==========  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dataflow import Dataflow
from repro.ops.attention import AttentionConfig
from repro.ops.operator import GemmOperator

__all__ = [
    "FootprintBreakdown",
    "fused_la_elements",
    "fused_la_footprint",
    "operator_l3_elements",
    "operator_l3_footprint",
    "footprint_m_gran",
    "footprint_b_gran",
    "footprint_h_gran",
    "footprint_r_gran",
    "invert_r_gran_rows",
]

_DOUBLE_BUFFER = 2


@dataclass(frozen=True)
class FootprintBreakdown:
    """Per-tensor live on-chip elements for one dataflow pass."""

    lhs_elements: int
    rhs_elements: int
    rhs2_elements: int
    out_elements: int
    intermediate_elements: int

    @property
    def total_elements(self) -> int:
        return (
            self.lhs_elements
            + self.rhs_elements
            + self.rhs2_elements
            + self.out_elements
            + self.intermediate_elements
        )

    def total_bytes(self, bytes_per_element: int = 2) -> int:
        return self.total_elements * bytes_per_element


def fused_la_elements(b_t, h_t, r, d_head, n_kv, lhs, rhs, rhs2, out,
                      intermediate):
    """Per-tensor staged elements of an L-A pair's L3 tile.

    Shape-polymorphic core of :func:`fused_la_footprint`: every argument
    may be a scalar or an ndarray, and the staging enables multiply in
    as 0/1 masks.  Returns ``(lhs, rhs, rhs2, out, intermediate)``
    element counts.
    """
    instances = b_t * h_t
    return (
        _DOUBLE_BUFFER * instances * r * d_head * lhs,
        _DOUBLE_BUFFER * instances * n_kv * d_head * rhs,
        _DOUBLE_BUFFER * instances * n_kv * d_head * rhs2,
        _DOUBLE_BUFFER * instances * r * d_head * out,
        instances * r * n_kv * intermediate,
    )


def operator_l3_elements(instances, rhs_instances, m, k, n, lhs, rhs, out):
    """Staged ``(lhs, rhs, out)`` elements of an unfused operator's L3 tile.

    Shape-polymorphic core of :func:`operator_l3_footprint` (same
    conventions as :func:`fused_la_elements`).  ``rhs_instances`` is the
    number of rhs slices staged per pass: ``instances`` for an
    activation, 1 for a weight (one slice is shared across instances).
    """
    lhs_elements = _DOUBLE_BUFFER * instances * m * k * lhs
    rhs_elements = _DOUBLE_BUFFER * rhs_instances * k * n * rhs
    out_elements = _DOUBLE_BUFFER * instances * m * n * out
    return lhs_elements, rhs_elements, out_elements


def fused_la_footprint(
    cfg: AttentionConfig, dataflow: Dataflow
) -> FootprintBreakdown:
    """Live footprint of the fused L-A operator for one cross-loop pass.

    Follows the derivation of section 4.4: the L stage holds Q-row and K
    tiles (double buffered), the A stage holds V and output-row tiles
    (double buffered), and the shared intermediate tile is single
    buffered.  Disabled stagings contribute nothing here — those tensors
    stream through the L2 working set, which the performance model
    budgets separately.

    The same formula covers the *unfused* Base-X dataflows: per the
    paper's footnote 4, a baseline L3 tile also stages the pair's
    tensors at granularity X — it merely runs all of L for the tile
    before starting A.  Only the plain baseline (no L3 tile) stages
    nothing.
    """
    if dataflow.granularity is None:
        return FootprintBreakdown(0, 0, 0, 0, 0)
    b_t, h_t, r = dataflow.cross_tile(cfg.batch, cfg.heads, cfg.seq_q)
    s = dataflow.staging
    lhs, rhs, rhs2, out, intermediate = fused_la_elements(
        b_t, h_t, r, cfg.d_head, cfg.seq_kv,
        s.lhs, s.rhs, s.rhs2, s.out, s.intermediate,
    )
    return FootprintBreakdown(
        lhs_elements=lhs,
        rhs_elements=rhs,
        rhs2_elements=rhs2,
        out_elements=out,
        intermediate_elements=intermediate,
    )


def operator_l3_footprint(
    op: GemmOperator, dataflow: Dataflow, batch: int, heads: int
) -> FootprintBreakdown:
    """Live footprint of an *unfused* operator's L3 staging.

    ``Base-X`` stages the operator's own tensors at granularity X; the
    cross-loop tile fixes how many instances are staged per pass.  A
    weight tensor (projections) is shared across instances, so its
    staged slice does not scale with the batch tile.
    """
    if dataflow.granularity is None or not dataflow.staging.any_enabled:
        return FootprintBreakdown(0, 0, 0, 0, 0)
    b_t, h_t, r = dataflow.cross_tile(batch, heads, op.m)
    if op.is_activation_activation:
        instances = b_t * h_t
    else:
        # Projection/FC: instances are batch samples only.
        instances = b_t
    s = dataflow.staging
    rhs_instances = 1 if op.rhs.role.is_weight else instances
    lhs, rhs, out = operator_l3_elements(
        instances, rhs_instances, r, op.k, op.n, s.lhs, s.rhs, s.out,
    )
    return FootprintBreakdown(
        lhs_elements=lhs,
        rhs_elements=rhs,
        rhs2_elements=0,
        out_elements=out,
        intermediate_elements=0,
    )


# ----------------------------------------------------------------------
# Table 2 closed forms (elements, self-attention, everything enabled)
# ----------------------------------------------------------------------
def footprint_m_gran(batch: int, heads: int, n: int, d_model: int) -> int:
    """``O(8*B*D*N + B*H*N^2)`` — batched multi-head granularity."""
    return 8 * batch * d_model * n + batch * heads * n * n


def footprint_b_gran(heads: int, n: int, d_model: int) -> int:
    """``O(8*D*N + H*N^2)`` — batch granularity."""
    return 8 * d_model * n + heads * n * n


def footprint_h_gran(n: int, d_head: int) -> int:
    """``O(8*N*dk + N^2)`` — head granularity."""
    return 8 * n * d_head + n * n


def footprint_r_gran(rows: int, n: int, d_head: int) -> int:
    """``O(4*R*dk + 4*N*dk + R*N)`` — row granularity; linear in N."""
    return 4 * rows * d_head + 4 * n * d_head + rows * n


def invert_r_gran_rows(budget_elements: int, n: int, d_head: int) -> int:
    """Largest row count whose R-granularity footprint fits a budget.

    Inverts the Table 2 closed form: ``footprint_r_gran(R, n, d_head)``
    is affine in R (slope ``4*d_head + n``, intercept ``4*n*d_head``),
    so the feasibility frontier is exact integer division.  Returns the
    largest ``R >= 0`` with ``footprint_r_gran(R, n, d_head) <=
    budget_elements``; 0 means not even a single staged row fits.  The
    candidate generator (:mod:`repro.core.candidates`) uses this to
    report the analytically feasible row interval for a buffer size
    instead of testing row choices one by one.
    """
    slack = budget_elements - 4 * n * d_head
    if slack < 0:
        return 0
    return slack // (4 * d_head + n)
