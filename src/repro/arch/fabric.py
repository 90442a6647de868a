"""Chip-to-chip fabric and collective cost model (scale-out tier).

:mod:`repro.arch.noc` models the on-chip distribution network of one
accelerator die; this module models the next level up — the package- or
board-level fabric that connects ``T`` such dies into one system, in
the style of the FlatAttention line of work (PAPERS.md) where the
cross-chip collective is co-optimized with the per-chip dataflow.

The fabric is a 2D mesh or torus of identical full-duplex links.  No
cost reads the topology yet: collectives are charged per link, below.

Collectives use the standard alpha-beta decomposition: a schedule pays
a *bandwidth* term proportional to the payload and a *latency* term
proportional to its step count.

* ``RING`` — bucket algorithm over a bidirectional ring embedded in
  the fabric: both link directions carry traffic, so the bandwidth
  term is halved, but the step count is linear (``T - 1`` hops).
* ``TREE`` — recursive doubling/halving: only ``ceil(log2 T)`` steps,
  but each round crosses one link direction, so the full bandwidth
  term is paid.

Payloads are the *aggregate* tensor bytes across the group (each chip
holds ``1/T`` before an all-gather, after a reduce-scatter).  An
all-reduce is reduce-scatter followed by all-gather and pays both terms
twice.

This module is in the persistent cache's fingerprint set
(:data:`repro.core.cache._FINGERPRINT_MODULES`): cached scale-out
winners depend on these formulas.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "FabricKind",
    "CollectiveKind",
    "CollectiveSchedule",
    "FabricSpec",
    "collective_time_s",
]


class FabricKind(enum.Enum):
    """Topology of the chip-to-chip fabric."""

    MESH = "mesh"
    TORUS = "torus"


class CollectiveKind(enum.Enum):
    """The collectives cross-chip attention sharding induces."""

    ALL_GATHER = "all-gather"
    REDUCE_SCATTER = "reduce-scatter"
    ALL_REDUCE = "all-reduce"

    @property
    def phases(self) -> int:
        """Alpha-beta phases: all-reduce = reduce-scatter + all-gather."""
        return 2 if self is CollectiveKind.ALL_REDUCE else 1


class CollectiveSchedule(enum.Enum):
    """How a collective is laid onto the fabric links."""

    RING = "ring"
    TREE = "tree"


@dataclass(frozen=True)
class FabricSpec:
    """The chip-to-chip fabric: topology plus per-link alpha-beta.

    Parameters
    ----------
    kind:
        Mesh or torus arrangement of the chips.
    link_bytes_per_sec:
        Bandwidth of one link *direction* (links are full duplex).
    hop_latency_s:
        Per-step latency (serdes + router traversal) of one hop.
    """

    kind: FabricKind = FabricKind.MESH
    link_bytes_per_sec: float = 25e9
    hop_latency_s: float = 100e-9

    def __post_init__(self) -> None:
        if not (math.isfinite(self.link_bytes_per_sec)
                and self.link_bytes_per_sec > 0):
            raise ValueError("link bandwidth must be positive and finite")
        if not (math.isfinite(self.hop_latency_s)
                and self.hop_latency_s >= 0):
            raise ValueError("hop latency must be finite and >= 0")


def _steps(schedule: CollectiveSchedule, chips: int) -> int:
    if schedule is CollectiveSchedule.RING:
        return chips - 1
    return math.ceil(math.log2(chips))


def collective_time_s(
    spec: FabricSpec,
    schedule: CollectiveSchedule,
    kind: CollectiveKind,
    chips: int,
    payload_bytes: float,
) -> float:
    """Seconds one collective of ``payload_bytes`` takes over ``chips``.

    ``payload_bytes`` is the aggregate tensor size across the group; a
    one-chip group or an empty payload is free.  Concurrent groups (the
    other shards of a partitioned workload) are assumed to run on
    disjoint fabric regions and overlap perfectly — the caller charges
    one group's time.
    """
    if chips < 1:
        raise ValueError("chips must be >= 1")
    if chips == 1 or payload_bytes <= 0:
        return 0.0
    frac = (chips - 1) / chips
    if schedule is CollectiveSchedule.RING:
        bw_term = frac * payload_bytes / (2.0 * spec.link_bytes_per_sec)
    else:
        bw_term = frac * payload_bytes / spec.link_bytes_per_sec
    latency_term = _steps(schedule, chips) * spec.hop_latency_s
    return kind.phases * (bw_term + latency_term)
