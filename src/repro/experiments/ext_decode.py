"""Extension experiment: autoregressive decode (where FLAT cannot help).

The paper targets full-sequence (prefill/encoder) attention, where the
intermediate logit tensor is O(N^2).  In autoregressive *decode*, each
step attends one query token against an N-long KV cache: the
intermediate is O(N) per head and there is nothing quadratic to keep
on-chip.  This experiment costs decode attention
(:func:`repro.ops.decode.decode_config`: seq_q = 1, seq_kv = N) under
the **best unfused dataflow** and the **best FLAT dataflow** — each an
actual :func:`~repro.core.dse.search` over its half of the space, so
the collapse-to-1x claim holds against best-of-space rather than two
fixed configurations — and shows the speedup collapse to ~1x: an
honest boundary of the paper's contribution, and the reason
decode-time serving needed different techniques (batching, KV-cache
quantization, GQA) than FLAT provides.

:func:`run_variants` extends the boundary study with the
attention-variant zoo (FLASH-D's hidden division, FuseMax's pipelined
softmax; :class:`~repro.core.dataflow.AttentionVariant`): the same
FLAT-side search with variants enabled, reporting how much the best
variant-carrying dataflow moves the needle.  The variant table is a
*separate* artifact appended after the baseline report, so the
baseline bytes are identical whether or not variants are requested —
the property the ``decode-equivalence`` CI job diffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.reports import format_bytes, format_float, format_table
from repro.arch.accelerator import Accelerator
from repro.arch.presets import get_platform
from repro.core.dataflow import AttentionVariant
from repro.core.dse import DesignPoint, SearchSpace
from repro.core.engine import SearchRequest, run_searches
from repro.models.configs import model_config
from repro.ops.attention import AttentionConfig, Scope
from repro.ops.decode import decode_config

__all__ = [
    "DecodeRow",
    "DecodeVariantRow",
    "run",
    "run_variants",
    "format_report",
]

#: The two halves of the boundary comparison: everything unfused versus
#: everything fused (the FLAT side; plain Base is unfused-only and drops
#: out of the fused half automatically).
_UNFUSED_SPACE = SearchSpace(allow_fused=False)
_FLAT_SPACE = SearchSpace(allow_unfused=False)
_VARIANT_SPACE = SearchSpace(
    allow_unfused=False, variants=tuple(AttentionVariant)
)


@dataclass(frozen=True)
class DecodeRow:
    kv_len: int
    base_util: float
    flat_util: float
    speedup: float
    intermediate_bytes: int


@dataclass(frozen=True)
class DecodeVariantRow:
    kv_len: int
    dataflow: str
    variant_cycles: float
    softmax_cycles: float

    @property
    def speedup(self) -> float:
        """Best variant-enabled FLAT over best softmax-only FLAT."""
        return self.softmax_cycles / self.variant_cycles


def _best_points(decodes: Sequence[AttentionConfig], accel: Accelerator,
                 spaces: Sequence[SearchSpace]) -> List[DesignPoint]:
    """The L-A optimum of every decode workload in every space, in that
    order, from one :func:`~repro.core.engine.run_searches` call."""
    results = run_searches([
        SearchRequest(decode, accel, Scope.LA, space=space)
        for decode in decodes for space in spaces
    ])
    return [result.best for result in results]


def run(
    platform: str = "cloud",
    model: str = "xlm",
    kv_lens: Sequence[int] = (2048, 16384, 131072),
) -> List[DecodeRow]:
    accel = get_platform(platform)
    decodes = [decode_config(model_config(model, seq=kv), kv)
               for kv in kv_lens]
    points = iter(_best_points(decodes, accel,
                               (_UNFUSED_SPACE, _FLAT_SPACE)))
    rows: List[DecodeRow] = []
    for kv, decode in zip(kv_lens, decodes):
        base_point, flat_point = next(points), next(points)
        rows.append(
            DecodeRow(
                kv_len=kv,
                base_util=base_point.utilization,
                flat_util=flat_point.utilization,
                speedup=(
                    base_point.cost.total_cycles
                    / flat_point.cost.total_cycles
                ),
                intermediate_bytes=(
                    decode.batch * decode.heads * decode.seq_q
                    * decode.seq_kv * accel.bytes_per_element
                ),
            )
        )
    return rows


def run_variants(
    platform: str = "cloud",
    model: str = "xlm",
    kv_lens: Sequence[int] = (2048, 16384, 131072),
) -> List[DecodeVariantRow]:
    """The FLAT-side search re-run with the attention-variant zoo."""
    accel = get_platform(platform)
    decodes = [decode_config(model_config(model, seq=kv), kv)
               for kv in kv_lens]
    points = iter(_best_points(decodes, accel,
                               (_FLAT_SPACE, _VARIANT_SPACE)))
    rows: List[DecodeVariantRow] = []
    for kv in kv_lens:
        softmax_best, variant_best = next(points), next(points)
        rows.append(
            DecodeVariantRow(
                kv_len=kv,
                dataflow=variant_best.dataflow.name,
                variant_cycles=variant_best.cost.total_cycles,
                softmax_cycles=softmax_best.cost.total_cycles,
            )
        )
    return rows


def format_report(
    rows: List[DecodeRow],
    variant_rows: Optional[List[DecodeVariantRow]] = None,
) -> str:
    """Render the boundary table; ``variant_rows`` appends the zoo table.

    The baseline portion is byte-identical with and without
    ``variant_rows`` — the variant table is strictly appended.
    """
    table = format_table(
        ["KV length", "Base-opt Util", "FLAT-opt Util", "FLAT speedup",
         "Intermediate size"],
        [
            (r.kv_len, format_float(r.base_util), format_float(r.flat_util),
             f"{r.speedup:.2f}x", format_bytes(r.intermediate_bytes))
            for r in rows
        ],
        title="Extension: decode-time attention (seq_q = 1, cloud/XLM)",
    )
    report = table + (
        "\nWith a single query row the intermediate is O(N) per step — "
        "there is no\nquadratic tensor for FLAT to keep on-chip, so its "
        "advantage largely\ndisappears and decode stays "
        "bandwidth-bound regardless of dataflow."
    )
    if variant_rows is None:
        return report
    variant_table = format_table(
        ["KV length", "Best variant dataflow", "Variant speedup"],
        [
            (r.kv_len, r.dataflow, f"{r.speedup:.2f}x")
            for r in variant_rows
        ],
        title="Attention-variant zoo on the same decode steps",
    )
    return report + "\n\n" + variant_table + (
        "\nVariant dataflows shave the serialized softmax term; on "
        "SFU-rich presets\nthe term is already hidden and the zoo ties "
        "the softmax baseline, while\nSFU-constrained designs see the "
        "pipelined/divide-free variants win."
    )
