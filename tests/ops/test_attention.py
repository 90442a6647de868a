"""Unit tests for attention layer/block/model builders."""

from dataclasses import replace

import pytest

from repro.models.configs import model_config, model_names
from repro.ops.attention import (
    AttentionConfig,
    Scope,
    build_attention_block,
    build_attention_layer,
    build_model,
    operators_for_scope,
    scope_plan,
)
from repro.ops.operator import OperatorKind


class TestAttentionConfig:
    def test_d_head(self, small_cfg):
        assert small_cfg.d_head == small_cfg.d_model // small_cfg.heads

    def test_self_attention_flag(self, small_cfg):
        assert small_cfg.is_self_attention
        cross = AttentionConfig(
            "x", batch=1, heads=2, d_model=8, seq_q=4, seq_kv=16, d_ff=16
        )
        assert not cross.is_self_attention

    def test_with_seq(self, small_cfg):
        c = small_cfg.with_seq(128)
        assert c.seq_q == c.seq_kv == 128
        assert c.batch == small_cfg.batch

    def test_with_batch(self, small_cfg):
        assert small_cfg.with_batch(7).batch == 7

    def test_heads_must_divide_d_model(self):
        with pytest.raises(ValueError):
            AttentionConfig("bad", 1, 3, 64, 8, 8, 16)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            AttentionConfig("bad", 0, 2, 64, 8, 8, 16)


class TestBuilders:
    def test_layer_has_six_operators(self, small_cfg):
        ops = build_attention_layer(small_cfg)
        assert [o.kind for o in ops] == [
            OperatorKind.QUERY, OperatorKind.KEY, OperatorKind.VALUE,
            OperatorKind.LOGIT, OperatorKind.ATTEND, OperatorKind.OUTPUT,
        ]

    def test_block_appends_two_ffns(self, small_cfg):
        ops = build_attention_block(small_cfg)
        assert len(ops) == 8
        assert ops[-2].kind is OperatorKind.FFN_UP
        assert ops[-1].kind is OperatorKind.FFN_DOWN
        assert ops[-2].n == small_cfg.d_ff

    def test_model_replicates_blocks(self, small_cfg):
        ops = build_model(small_cfg)
        assert len(ops) == 8 * small_cfg.num_blocks

    def test_logit_attend_chain_shapes(self, small_cfg):
        ops = build_attention_layer(small_cfg)
        logit = next(o for o in ops if o.kind is OperatorKind.LOGIT)
        attend = next(o for o in ops if o.kind is OperatorKind.ATTEND)
        assert logit.out.num_elements == attend.lhs.num_elements

    def test_cross_attention_key_length(self):
        cfg = AttentionConfig("x", 1, 2, 8, seq_q=4, seq_kv=16, d_ff=16)
        ops = build_attention_layer(cfg)
        logit = next(o for o in ops if o.kind is OperatorKind.LOGIT)
        assert logit.n == 16 and logit.m == 4


class TestScope:
    def test_la_scope_is_only_activation_activation(self, small_cfg):
        ops = operators_for_scope(small_cfg, Scope.LA)
        assert len(ops) == 2
        assert all(o.is_activation_activation for o in ops)

    def test_block_scope_has_eight(self, small_cfg):
        assert len(operators_for_scope(small_cfg, Scope.BLOCK)) == 8

    def test_model_scope_returns_single_block(self, small_cfg):
        # Model scope is block ops; the cost layer multiplies by
        # num_blocks.
        assert len(operators_for_scope(small_cfg, Scope.MODEL)) == 8


def _zoo_shapes():
    """Every zoo model as prefill, decode (one query row) and
    cross-attention (query and key lengths differ)."""
    for name in model_names():
        cfg = model_config(name, seq=512)
        yield cfg
        yield replace(cfg, seq_q=1, seq_kv=2048)
        yield replace(cfg, seq_q=384, seq_kv=1024)


class TestScopePlan:
    """The one reading of a scope's operators: every scope holds exactly
    one L-A pair, so no L or A is ever costed alone."""

    @pytest.mark.parametrize("scope", list(Scope), ids=lambda s: s.name)
    def test_one_pair_and_the_rest_in_order(self, scope):
        for cfg in _zoo_shapes():
            plan, others = scope_plan(cfg, scope)
            assert plan.count(None) == 1, (cfg, scope)
            ops = operators_for_scope(cfg, scope)
            kinds = [op.kind for op in ops]
            pair = kinds.index(OperatorKind.LOGIT)
            assert kinds[pair + 1] is OperatorKind.ATTEND
            assert plan.index(None) == pair
            assert others == tuple(
                op for op in ops if op.kind not in (OperatorKind.LOGIT,
                                                    OperatorKind.ATTEND))
            assert [row for row in plan if row is not None] == list(
                range(len(others)))

    def test_memoized(self, small_cfg):
        assert scope_plan(small_cfg, Scope.BLOCK) is scope_plan(
            small_cfg, Scope.BLOCK)
