"""Unit tests for the named accelerator policies (Figure 7(c))."""

import pytest

from repro.core.configs import (
    attacc,
    attacc_m,
    attacc_r,
    base_accel,
    flex_accel,
    flex_accel_m,
    named_policies,
)
from repro.ops.attention import Scope


class TestPolicyShapes:
    def test_base_accel_runs_plain_base(self, bert_512, edge_accel):
        best = base_accel().evaluate(bert_512, edge_accel)
        assert best.dataflow.name == "Base"
        assert not best.dataflow.fused

    def test_flex_accel_never_fuses(self, bert_512, edge_accel):
        best = flex_accel().evaluate(bert_512, edge_accel)
        assert not best.dataflow.fused

    def test_flex_accel_m_restricted_to_m(self, bert_512, edge_accel):
        from repro.core.dataflow import Granularity

        result = flex_accel_m().search(bert_512, edge_accel,
                                       retain_points=True)
        for p in result.points:
            assert p.dataflow.granularity in (None, Granularity.M)
            assert not p.dataflow.fused

    def test_attacc_r_fixed_rows(self, bert_512, edge_accel):
        result = attacc_r(64).search(bert_512, edge_accel,
                                     retain_points=True)
        assert all(p.dataflow.rows == 64 for p in result.points)
        assert all(p.dataflow.fused for p in result.points)

    def test_attacc_r_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            attacc_r(0)

    def test_named_policies_order(self):
        names = [p.name for p in named_policies()]
        assert names == ["FlexAccel-M", "FlexAccel", "ATTACC"]


class TestPolicyOrdering:
    """Supersets of the search space can never do worse."""

    @pytest.mark.parametrize("scope", [Scope.LA, Scope.BLOCK])
    def test_attacc_at_least_flex(self, bert_512, edge_accel, scope):
        flex = flex_accel().evaluate(bert_512, edge_accel, scope=scope)
        att = attacc().evaluate(bert_512, edge_accel, scope=scope)
        assert att.cost.total_cycles <= flex.cost.total_cycles

    def test_flex_at_least_flex_m(self, bert_512, edge_accel):
        fm = flex_accel_m().evaluate(bert_512, edge_accel)
        fx = flex_accel().evaluate(bert_512, edge_accel)
        assert fx.cost.total_cycles <= fm.cost.total_cycles

    def test_attacc_at_least_attacc_m(self, bert_512, edge_accel):
        am = attacc_m().evaluate(bert_512, edge_accel)
        at = attacc().evaluate(bert_512, edge_accel)
        assert at.cost.total_cycles <= am.cost.total_cycles

    def test_flexible_policies_beat_rigid_base(self, bert_512, edge_accel):
        ba = base_accel().evaluate(bert_512, edge_accel)
        fx = flex_accel().evaluate(bert_512, edge_accel)
        assert fx.cost.total_cycles <= ba.cost.total_cycles

    def test_attacc_speedup_on_cloud_long_sequence(self, cloud_accel):
        from repro.models.configs import model_config

        cfg = model_config("xlm", seq=16384)
        fx = flex_accel().evaluate(cfg, cloud_accel, scope=Scope.LA)
        at = attacc().evaluate(cfg, cloud_accel, scope=Scope.LA)
        assert fx.cost.total_cycles / at.cost.total_cycles > 2.0
