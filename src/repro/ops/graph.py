"""Operator dependency graph for an attention block.

The cost model treats operators independently (the paper's baseline runs
them sequentially), but fusion legality — *which* operators may share a
cross-loop — depends on the dependency structure and on what sits between
producers and consumers.  FLAT's argument (section 4.2.1) is that the
softmax between L and A reduces along the key dimension, so any fused
tiling must keep complete rows resident.  This module encodes the block
DAG and the fusion-legality check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.ops.operator import GemmOperator, OperatorKind

__all__ = ["OperatorGraph", "FusionLegality", "check_fusion_legality"]

# Producer -> consumer edges of one attention block, by operator kind.
_BLOCK_EDGES: Tuple[Tuple[OperatorKind, OperatorKind], ...] = (
    (OperatorKind.QUERY, OperatorKind.LOGIT),
    (OperatorKind.KEY, OperatorKind.LOGIT),
    (OperatorKind.LOGIT, OperatorKind.ATTEND),
    (OperatorKind.VALUE, OperatorKind.ATTEND),
    (OperatorKind.ATTEND, OperatorKind.OUTPUT),
    (OperatorKind.OUTPUT, OperatorKind.FFN_UP),
    (OperatorKind.FFN_UP, OperatorKind.FFN_DOWN),
)


@dataclass
class OperatorGraph:
    """Dependency DAG over a block's operators.

    Built from a list of :class:`GemmOperator` (one per kind); edges
    follow the fixed attention-block structure of Figure 1.
    """

    operators: List[GemmOperator]
    _by_kind: Dict[OperatorKind, GemmOperator] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._by_kind = {}
        for op in self.operators:
            if op.kind in self._by_kind:
                raise ValueError(f"duplicate operator kind {op.kind} in graph")
            self._by_kind[op.kind] = op

    def __contains__(self, kind: OperatorKind) -> bool:
        return kind in self._by_kind

    def __getitem__(self, kind: OperatorKind) -> GemmOperator:
        return self._by_kind[kind]

    def edges(self) -> List[Tuple[GemmOperator, GemmOperator]]:
        """Producer -> consumer pairs present in this graph."""
        out = []
        for src, dst in _BLOCK_EDGES:
            if src in self._by_kind and dst in self._by_kind:
                out.append((self._by_kind[src], self._by_kind[dst]))
        return out

    def predecessors(self, kind: OperatorKind) -> List[GemmOperator]:
        return [
            self._by_kind[src]
            for src, dst in _BLOCK_EDGES
            if dst is kind and src in self._by_kind
        ]

    def successors(self, kind: OperatorKind) -> List[GemmOperator]:
        return [
            self._by_kind[dst]
            for src, dst in _BLOCK_EDGES
            if src is kind and dst in self._by_kind
        ]

    def topological_order(self) -> List[GemmOperator]:
        """Operators in a valid execution order (Kahn's algorithm)."""
        indegree = {op.kind: 0 for op in self.operators}
        for src, dst in _BLOCK_EDGES:
            if src in self._by_kind and dst in self._by_kind:
                indegree[dst] += 1
        ready = [k for k, deg in indegree.items() if deg == 0]
        order: List[GemmOperator] = []
        while ready:
            kind = ready.pop(0)
            order.append(self._by_kind[kind])
            for succ in self.successors(kind):
                indegree[succ.kind] -= 1
                if indegree[succ.kind] == 0:
                    ready.append(succ.kind)
        if len(order) != len(self.operators):
            raise RuntimeError("cycle detected in operator graph")
        return order

    def intermediate_elements(self, producer: OperatorKind) -> int:
        """Size of the tensor flowing out of ``producer`` inside the block.

        For LOGIT this is the O(B*H*N^2) tensor whose footprint motivates
        FLAT; for every other edge it is O(B*N*D) — the reason the paper
        fuses only L and A (section 4.5).
        """
        return self._by_kind[producer].out.num_elements


@dataclass(frozen=True)
class FusionLegality:
    """Outcome of a fusion-legality check for a candidate operator pair."""

    legal: bool
    reason: str
    min_rows: int = 0


def check_fusion_legality(
    producer: GemmOperator, consumer: GemmOperator
) -> FusionLegality:
    """Can ``producer`` and ``consumer`` be fused under FLAT's rules?

    FLAT fuses a producer/consumer GEMM pair when the intermediate tensor
    can be tiled along the producer's ``m`` (row) dimension without
    breaking the intervening activation function.  Softmax reduces along
    the key dimension (the producer's ``n``), so each fused tile must
    contain *complete rows*: the minimum legal tile is one ``[1, N]``
    row (the paper's "row granularity" basic unit).
    """
    if producer.kind is not OperatorKind.LOGIT or consumer.kind is not OperatorKind.ATTEND:
        return FusionLegality(
            legal=False,
            reason=(
                f"FLAT fuses only the Logit->Attend pair; got "
                f"{producer.kind.value}->{consumer.kind.value} whose "
                "intermediate tensor is O(B*N*D), not quadratic"
            ),
        )
    if producer.out.num_elements != consumer.lhs.num_elements:
        return FusionLegality(
            legal=False,
            reason="producer output and consumer input shapes disagree",
        )
    if producer.instances != consumer.instances:
        return FusionLegality(
            legal=False, reason="producer/consumer instance counts disagree"
        )
    return FusionLegality(
        legal=True,
        reason=(
            "softmax reduces along the key dimension; fusing at row "
            "granularity keeps complete [1, N] rows resident"
        ),
        min_rows=1,
    )
