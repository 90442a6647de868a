"""Attention layer / block / model construction.

Builds the operator lists the paper evaluates at three scopes
(Figure 8): **L-A** (just the fused pair), **Block** (all eight operators
of an attention block) and **Model** (blocks replicated ``num_blocks``
times).  Configurations support multi-head attention and cross-attention
(``seq_q != seq_kv``), per Figure 1's footnote.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.ops.operator import GemmOperator, OperatorKind

__all__ = [
    "AttentionConfig",
    "Scope",
    "build_attention_layer",
    "build_attention_block",
    "build_model",
    "operators_for_scope",
    "scope_plan",
]


@dataclass(frozen=True)
class AttentionConfig:
    """Hyper-parameters of one attention-based model.

    Parameters
    ----------
    name:
        Model identifier (``"bert"``, ``"xlm"``, ...).
    batch:
        Batch size ``B``.  The paper runs everything at ``B = 64``.
    heads:
        Number of attention heads ``H``.
    d_model:
        Hidden (embedding) size ``D``.
    seq_q:
        Query sequence length.  For self-attention this equals
        ``seq_kv``.
    seq_kv:
        Key/value sequence length ``N``.
    d_ff:
        Feed-forward inner size for the two FC layers of a block.
    num_blocks:
        Number of (identically parameterized) attention blocks.
    """

    name: str
    batch: int
    heads: int
    d_model: int
    seq_q: int
    seq_kv: int
    d_ff: int
    num_blocks: int = 1

    def __post_init__(self) -> None:
        for label in ("batch", "heads", "d_model", "seq_q", "seq_kv", "d_ff",
                      "num_blocks"):
            value = getattr(self, label)
            if value <= 0:
                raise ValueError(f"{self.name}: {label}={value} must be > 0")
        if self.d_model % self.heads != 0:
            raise ValueError(
                f"{self.name}: d_model={self.d_model} not divisible by "
                f"heads={self.heads}"
            )

    @property
    def d_head(self) -> int:
        """Per-head hidden size ``dk = D / H``."""
        return self.d_model // self.heads

    @property
    def is_self_attention(self) -> bool:
        return self.seq_q == self.seq_kv

    def with_seq(self, seq: int) -> "AttentionConfig":
        """Return a copy at a different (self-attention) sequence length.

        Only valid on self-attention configs: silently overwriting both
        ``seq_q`` and ``seq_kv`` on a cross-attention (or decode) config
        would turn it into a self-attention one.  Use
        :meth:`with_kv_len` to grow the KV side alone.
        """
        if not self.is_self_attention:
            raise ValueError(
                f"{self.name}: with_seq on a cross-attention config "
                f"(seq_q={self.seq_q}, seq_kv={self.seq_kv}) would clobber "
                "it into self-attention; use with_kv_len instead"
            )
        return replace(self, seq_q=seq, seq_kv=seq)

    def with_kv_len(self, kv_len: int) -> "AttentionConfig":
        """Return a copy with a different key/value length only.

        The decode sweep grows the KV cache step by step while the query
        side stays at one token; ``seq_q`` is left untouched.
        """
        return replace(self, seq_kv=kv_len)

    def with_batch(self, batch: int) -> "AttentionConfig":
        return replace(self, batch=batch)


class Scope(enum.Enum):
    """Aggregation scope used throughout the evaluation (Figure 8)."""

    LA = "L-A"
    BLOCK = "Block"
    MODEL = "Model"

    @classmethod
    def from_name(cls, name: object) -> "Scope":
        """The scope whose value is ``name``, ignoring case."""
        for scope in cls:
            if scope.value.lower() == str(name).lower():
                return scope
        raise ValueError(
            f"unknown scope {name!r}; choose from {[s.value for s in cls]}"
        )


def _la_pair(cfg: AttentionConfig) -> List[GemmOperator]:
    """The layer's Logit and Attend operators."""
    return [
        GemmOperator.logit(
            f"{cfg.name}.logit", cfg.batch, cfg.heads, cfg.seq_q,
            cfg.seq_kv, cfg.d_head,
        ),
        GemmOperator.attend(
            f"{cfg.name}.attend", cfg.batch, cfg.heads, cfg.seq_q,
            cfg.seq_kv, cfg.d_head,
        ),
    ]


def build_attention_layer(cfg: AttentionConfig) -> List[GemmOperator]:
    """The six operators of one attention layer: Q, K, V, L, A, O."""
    prefix = cfg.name
    q = GemmOperator.projection(
        OperatorKind.QUERY, f"{prefix}.query", cfg.batch, cfg.seq_q,
        cfg.d_model, cfg.d_model,
    )
    k = GemmOperator.projection(
        OperatorKind.KEY, f"{prefix}.key", cfg.batch, cfg.seq_kv,
        cfg.d_model, cfg.d_model,
    )
    v = GemmOperator.projection(
        OperatorKind.VALUE, f"{prefix}.value", cfg.batch, cfg.seq_kv,
        cfg.d_model, cfg.d_model,
    )
    logit, attend = _la_pair(cfg)
    out = GemmOperator.projection(
        OperatorKind.OUTPUT, f"{prefix}.output", cfg.batch, cfg.seq_q,
        cfg.d_model, cfg.d_model,
    )
    return [q, k, v, logit, attend, out]


def build_attention_block(cfg: AttentionConfig) -> List[GemmOperator]:
    """One attention block: the attention layer plus the two FC layers."""
    layer = build_attention_layer(cfg)
    ffn_up = GemmOperator.projection(
        OperatorKind.FFN_UP, f"{cfg.name}.ffn_up", cfg.batch, cfg.seq_q,
        cfg.d_model, cfg.d_ff,
    )
    ffn_down = GemmOperator.projection(
        OperatorKind.FFN_DOWN, f"{cfg.name}.ffn_down", cfg.batch, cfg.seq_q,
        cfg.d_ff, cfg.d_model,
    )
    return layer + [ffn_up, ffn_down]


def build_model(cfg: AttentionConfig) -> List[GemmOperator]:
    """All blocks of the model.

    Blocks are identically parameterized, so we build ``num_blocks``
    copies with block-indexed names; cost models may instead cost one
    block and multiply, which is what the experiment harnesses do.
    """
    operators: List[GemmOperator] = []
    for i in range(cfg.num_blocks):
        block_cfg = replace(cfg, name=f"{cfg.name}.b{i}")
        operators.extend(build_attention_block(block_cfg))
    return operators


# Small on purpose: the cost model, the batch backend and the
# candidate bounds ask for the same few (config, scope) pairs back to
# back, and a larger table only holds more operator lists alive.
@lru_cache(maxsize=64)
def operators_for_scope(
    cfg: AttentionConfig, scope: Scope
) -> Tuple[GemmOperator, ...]:
    """Return the operators the given evaluation scope covers, in order.

    ``Scope.MODEL`` returns a *single* block — the caller multiplies cost
    by ``cfg.num_blocks`` — because all blocks are identical and the
    paper's model-wise numbers are per-model run time.  Memoized: the
    tuple and its frozen operators are shared between callers.
    """
    if scope is Scope.LA:
        return tuple(_la_pair(cfg))
    if scope is Scope.BLOCK:
        return tuple(build_attention_block(cfg))
    if scope is Scope.MODEL:
        return tuple(build_attention_block(cfg))
    raise ValueError(f"unknown scope {scope!r}")


@lru_cache(maxsize=64)
def scope_plan(
    cfg: AttentionConfig, scope: Scope
) -> Tuple[Tuple[Optional[int], ...], Tuple[GemmOperator, ...]]:
    """A scope's cost rows in execution order, and its non-L-A operators.

    ``None`` is the L-A pair (a ``LOGIT`` directly followed by its
    ``ATTEND``), an int is an index into the returned operators.  Every
    scope holds exactly one pair, so every plan holds exactly one
    ``None``; the scalar model, the grid and the candidate bounds all
    read a scope's operators through this plan.  The L-A scope is the
    pair alone, read off the config without building its operator list.
    """
    if scope is Scope.LA:
        return (None,), ()
    ops = operators_for_scope(cfg, scope)
    plan: List[Optional[int]] = []
    others: List[GemmOperator] = []
    i = 0
    while i < len(ops):
        op = ops[i]
        if (
            op.kind is OperatorKind.LOGIT
            and i + 1 < len(ops)
            and ops[i + 1].kind is OperatorKind.ATTEND
        ):
            plan.append(None)
            i += 2
            continue
        # An L or A without its partner has no cost row: no scope
        # builds one.
        assert not (op.is_activation_activation or op.softmax_after), op
        plan.append(len(others))
        others.append(op)
        i += 1
    return tuple(plan), tuple(others)
