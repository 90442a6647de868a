"""Operational intensity characterization (paper section 2.2, Table 1).

The paper's core diagnosis is quantitative: activation-weight operators
(Q/K/V/O) have an operational-intensity reciprocal of ``2/D + 1/(B*N)``
— batching helps — while activation-activation operators (L/A) have
``2/N + H/D`` — batching does *not* help and multi-head makes it worse.
This module provides both the exact counts and those asymptotic forms,
plus the Table 1 staging-requirement calculator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ops.attention import AttentionConfig

__all__ = [
    "IntensityReport",
    "projection_intensity",
    "logit_attend_intensity",
    "projection_intensity_reciprocal",
    "logit_attend_intensity_reciprocal",
    "qkvo_staging_bytes",
    "la_staging_bytes",
    "batch_intensity_sweep",
    "roofline_cycles",
]


def roofline_cycles(compute_cycles: float, *traffic_floors: float) -> float:
    """Admissible roofline floor over one overlapped execution phase.

    A phase that overlaps compute with any number of memory streams can
    finish no earlier than its compute roof and no earlier than any of
    its bandwidth floors (each ``traffic / bytes-per-cycle``, already in
    cycles) — the phase latency is the max of the competing streams.
    This is the paper's roofline argument (section 2.2) turned into the
    combining rule for the DSE engine's admissible lower bounds
    (:mod:`repro.core.candidates`): every term passed in must itself be a
    floor, and the max of floors is a floor.
    """
    floor = compute_cycles
    for traffic in traffic_floors:
        if traffic > floor:
            floor = traffic
    return floor


@dataclass(frozen=True)
class IntensityReport:
    """Exact operation and access counts behind an intensity number."""

    ops: int
    input_accesses: int
    weight_accesses: int
    output_accesses: int

    @property
    def total_accesses(self) -> int:
        return self.input_accesses + self.weight_accesses + self.output_accesses

    @property
    def intensity(self) -> float:
        """Operations per memory access (paper equation 1)."""
        return self.ops / self.total_accesses


def projection_intensity(cfg: AttentionConfig) -> IntensityReport:
    """Exact intensity of one Q/K/V/O projection.

    Ops are ``2 * B * N * D^2`` (multiply + add); accesses are the input
    activation ``B*N*D``, the weight ``D^2`` and the output ``B*N*D``.
    """
    b, n, d = cfg.batch, cfg.seq_q, cfg.d_model
    return IntensityReport(
        ops=2 * b * n * d * d,
        input_accesses=b * n * d,
        weight_accesses=d * d,
        output_accesses=b * n * d,
    )


def logit_attend_intensity(cfg: AttentionConfig) -> IntensityReport:
    """Exact intensity of the Logit operator under multi-head attention.

    Ops are ``2 * B * N^2 * D`` (summed over heads: ``H * N^2 * dk = N^2
    * D``); accesses are the two input activations (``B*N*D`` each) and
    the multi-head logit tensor ``B*H*N^2``.  The Attend operator is
    symmetric (the N^2 tensor moves to the input side).
    """
    b, n, d, h = cfg.batch, cfg.seq_kv, cfg.d_model, cfg.heads
    return IntensityReport(
        ops=2 * b * n * n * d,
        input_accesses=2 * b * n * d,
        weight_accesses=0,
        output_accesses=b * h * n * n,
    )


def projection_intensity_reciprocal(cfg: AttentionConfig) -> float:
    """Asymptotic reciprocal ``2/D + 1/(B*N)`` from the paper.

    Decreasing with batch size: batching raises projection intensity.
    """
    return 2.0 / cfg.d_model + 1.0 / (cfg.batch * cfg.seq_q)


def logit_attend_intensity_reciprocal(cfg: AttentionConfig) -> float:
    """Asymptotic reciprocal ``2/N + H/D`` from the paper.

    Independent of batch size: batching cannot raise L/A intensity, and
    more heads (H) lower it.
    """
    return 2.0 / cfg.seq_kv + cfg.heads / cfg.d_model


def qkvo_staging_bytes(cfg: AttentionConfig, bytes_per_element: int = 2) -> int:
    """Buffer needed to stage one projection fully on-chip (Table 1).

    Weight (``D^2``) plus input and output activations (``N*D`` each).
    Table 1 reports per-sample requirements, so batch is excluded.
    Independent of the head count.
    """
    d, n = cfg.d_model, cfg.seq_q
    return (d * d + 2 * n * d) * bytes_per_element


def la_staging_bytes(cfg: AttentionConfig, bytes_per_element: int = 2) -> int:
    """Buffer needed to stage the L/A pair fully on-chip (Table 1).

    The two GEMM input activations (Q rows and K columns, ``N*D`` total
    each... i.e. ``2*N*D`` summed over heads) plus the multi-head
    intermediate logit tensor ``H*N^2`` — the quadratic term that
    motivates the whole paper.  Per-sample, like Table 1.
    """
    n, d, h = cfg.seq_kv, cfg.d_model, cfg.heads
    return (2 * n * d + h * n * n) * bytes_per_element


def batch_intensity_sweep(
    cfg: AttentionConfig, batches: tuple = (1, 2, 4, 8, 16, 32, 64, 128)
):
    """Intensity of projections vs L/A across batch sizes (Figure 2(b)).

    Returns a list of ``(batch, projection_intensity, la_intensity)``
    triples.  The projection column grows with batch; the L/A column is
    flat — the figure's punchline.
    """
    rows = []
    for b in batches:
        c = cfg.with_batch(b)
        rows.append(
            (b, projection_intensity(c).intensity, logit_attend_intensity(c).intensity)
        )
    return rows
