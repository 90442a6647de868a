"""Extension experiment: the fig8-style multi-chip scale-out sweep.

For each chip count (8-64) the two-level DSE
(:func:`repro.core.scaleout.search_scaleout`) picks the best cross-chip
partition (batch x head x sequence sharding), collective schedule
(ring vs tree) and per-chip FLAT dataflow, on a system where groups of
chips share one off-chip channel (Simba-style: SRAM scales with
silicon, DRAM pins do not) behind a contended arbiter and the chips
talk over a mesh fabric.

The headline of the report is the *regime* column: the dominant term
of the winner's runtime — compute (ideal MACs), memory (DRAM bytes
over the chip's contended channel share) or fabric (collective cycles).
The paper's Figure 12(b) already shows attention turning
bandwidth-bound as the shared channel saturates; this sweep shows the
next transition — with enough chips the winning partition's collectives
dominate and attention becomes *fabric*-bound, which is the
FlatAttention co-search motivation (PAPERS.md).

The sweep is warm-chained across chip counts (neighboring winners seed
the inner searches) and branch-and-bound-pruned at the outer level;
``tests/core/test_scaleout.py`` checks its winners against the
exhaustive cross-product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.reports import format_float, format_table
from repro.arch.fabric import FabricKind, FabricSpec
from repro.arch.presets import get_platform
from repro.core.dse import Objective, SearchSpace
from repro.core.engine import SearchRequest, run_searches
from repro.core.scaleout import (
    ScaleoutSystem,
    shard_config,
    sweep_chip_counts,
)
from repro.models.configs import model_config
from repro.ops.attention import Scope

# The unfused competitor of the old single-channel experiment, now
# evaluated on the winning partition's shard: its O(N^2) intermediate
# traffic keeps it memory-bound at every chip count (Figure 12(b)),
# which is the bottleneck FLAT removes before the fabric takes over.
_UNFUSED = SearchSpace(allow_fused=False)

__all__ = ["ScaleoutRow", "build_system", "run", "format_report"]


@dataclass(frozen=True)
class ScaleoutRow:
    """One chip count's winning configuration and its regime."""

    chips: int
    partition: str
    schedule: str
    dataflow: str
    chip_mcycles: float
    fabric_mcycles: float
    compute_mcycles: float
    memory_mcycles: float
    tops: float
    unfused_memory_mcycles: float
    chips_per_channel: int
    contention: float

    @property
    def channel_share(self) -> float:
        """Channel fraction one chip achieves once contention is priced."""
        if self.chips_per_channel == 1:
            return 1.0
        return 1.0 / (self.chips_per_channel * self.contention)

    @property
    def total_mcycles(self) -> float:
        return self.chip_mcycles + self.fabric_mcycles

    @property
    def fabric_fraction(self) -> float:
        return self.fabric_mcycles / self.total_mcycles

    @property
    def regime(self) -> str:
        """The dominant runtime term: compute, memory or fabric."""
        terms = (
            (self.compute_mcycles, "compute"),
            (self.memory_mcycles, "memory"),
            (self.fabric_mcycles, "fabric"),
        )
        return max(terms, key=lambda t: t[0])[1]

    @property
    def unfused_regime(self) -> str:
        """Dominant term of the best *unfused* dataflow on this shard."""
        terms = (
            (self.compute_mcycles, "compute"),
            (self.unfused_memory_mcycles, "memory"),
            (self.fabric_mcycles, "fabric"),
        )
        return max(terms, key=lambda t: t[0])[1]


def build_system(
    platform: str = "cloud",
    chips_per_channel: int = 8,
    contention: float = 1.25,
    link_gbs: float = 8.0,
    hop_ns: float = 100.0,
    fabric_kind: str = "mesh",
) -> ScaleoutSystem:
    """The swept system: platform chips on a mesh/torus fabric.

    Defaults: eight chips per 400 GB/s channel behind a contended
    arbiter (each chip achieves ``1/(8 * 1.25)`` = 10% of the channel,
    not the fair-share 12.5%), 8 GB/s full-duplex links, 100 ns hops.
    """
    return ScaleoutSystem(
        chip=get_platform(platform),
        fabric=FabricSpec(
            kind=FabricKind(fabric_kind),
            link_bytes_per_sec=link_gbs * 1e9,
            hop_latency_s=hop_ns * 1e-9,
        ),
        chips_per_channel=chips_per_channel,
        channel_contention=contention,
    )


def run(
    platform: str = "cloud",
    model: str = "xlm",
    seq: int = 16384,
    batch: int = 8,
    chip_counts: Sequence[int] = (8, 16, 32, 64),
    chips_per_channel: int = 8,
    contention: float = 1.25,
    link_gbs: float = 8.0,
    hop_ns: float = 100.0,
    fabric_kind: str = "mesh",
) -> List[ScaleoutRow]:
    cfg = model_config(model, seq=seq, batch=batch)
    system = build_system(
        platform=platform,
        chips_per_channel=chips_per_channel,
        contention=contention,
        link_gbs=link_gbs,
        hop_ns=hop_ns,
        fabric_kind=fabric_kind,
    )
    view = system.chip_view()
    freq = system.chip.frequency_hz
    channel_bytes_per_cycle = view.offchip.bandwidth_bytes_per_sec / freq
    results = sweep_chip_counts(cfg, system, chip_counts)
    unfused_results = run_searches([
        SearchRequest(shard_config(cfg, result.best.partition), view,
                      Scope.LA, Objective.RUNTIME, _UNFUSED)
        for result in results
    ])
    rows: List[ScaleoutRow] = []
    for result, unfused in zip(results, unfused_results):
        best = result.best
        cost = best.chip_cost
        time_s = best.total_cycles / freq
        tops = 2.0 * result.chips * cost.counts.macs / time_s / 1e12
        rows.append(
            ScaleoutRow(
                chips=result.chips,
                partition=best.partition.label,
                schedule=best.schedule.value,
                dataflow=best.dataflow.name,
                chip_mcycles=best.chip_cycles / 1e6,
                fabric_mcycles=best.fabric_cycles / 1e6,
                compute_mcycles=cost.ideal_cycles / 1e6,
                memory_mcycles=cost.dram_bytes / channel_bytes_per_cycle
                / 1e6,
                tops=tops,
                unfused_memory_mcycles=(
                    unfused.best.cost.dram_bytes / channel_bytes_per_cycle
                    / 1e6
                ),
                chips_per_channel=chips_per_channel,
                contention=contention,
            )
        )
    return rows


def format_report(rows: List[ScaleoutRow]) -> str:
    table = format_table(
        ["Chips", "Partition", "Schedule", "Chip dataflow", "Chip Mcyc",
         "Fabric Mcyc", "TOPS", "Unfused", "Regime"],
        [
            (r.chips, r.partition, r.schedule, r.dataflow,
             format_float(r.chip_mcycles, 3),
             format_float(r.fabric_mcycles, 3),
             format_float(r.tops, 2), r.unfused_regime, r.regime)
            for r in rows
        ],
        title="Extension: two-level scale-out DSE, partition x collective "
              "schedule x per-chip FLAT (XLM-16K)",
    )
    flip = next((r for r in rows if r.regime == "fabric"), None)
    if flip is None:
        trailer = (
            "\nNo fabric-bound point in this sweep: the collectives stay "
            "cheaper than the\nper-chip compute/memory terms at every "
            "chip count."
        )
    else:
        trailer = (
            f"\nThe unfused baseline stays memory-bound throughout "
            f"(Figure 12(b)); FLAT removes\nthat bottleneck, and at "
            f"{flip.chips} chips the winner turns fabric-bound "
            f"(partition\n{flip.partition}, {flip.fabric_fraction:.0%} "
            "of runtime in collectives) — past that point the\nfabric, "
            "not the shared DRAM channel, sets the pace."
        )
    lead = rows[0]
    sharing = (
        f"\n{lead.chips_per_channel} chips share each off-chip channel; "
        f"the arbiter's contention factor {lead.contention:.2f}x leaves\n"
        f"each chip {lead.channel_share:.0%} of the channel (fair share "
        f"would be {1.0 / lead.chips_per_channel:.0%})."
    )
    return table + sharing + trailer
