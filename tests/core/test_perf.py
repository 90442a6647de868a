"""Unit tests for the analytical performance model."""

import dataclasses

import numpy as np
import pytest

from repro.core.dataflow import (
    AttentionVariant,
    Granularity,
    StagingPolicy,
    Stationarity,
    base,
    base_x,
    flat_r,
    flat_x,
    parse_dataflow,
)
from repro.core.dse import SearchSpace, enumerate_dataflows
from repro.core.perf import (
    PerfOptions,
    cost_fused_la,
    cost_la_pair,
    cost_operator,
    cost_scope,
    l2_reserve_bytes,
    partition_scratchpad,
)
from repro.models.configs import model_config
from repro.ops.attention import Scope, operators_for_scope
from repro.ops.operator import OperatorKind
from tests.oracles import chained_counts


class TestBasicInvariants:
    @pytest.mark.parametrize(
        "dataflow",
        [base(), base_x(Granularity.M), base_x(Granularity.H),
         flat_x(Granularity.H), flat_r(64)],
    )
    def test_utilization_in_unit_interval(self, bert_512, edge_accel,
                                          dataflow):
        cost = cost_la_pair(bert_512, dataflow, edge_accel)
        assert 0.0 < cost.utilization <= 1.0

    def test_total_at_least_ideal(self, bert_512, edge_accel):
        cost = cost_la_pair(bert_512, flat_r(64), edge_accel)
        assert cost.total_cycles >= cost.ideal_cycles

    def test_ideal_cycles_are_macs_over_peak(self, bert_512, edge_accel):
        cost = cost_la_pair(bert_512, flat_r(64), edge_accel)
        c = bert_512
        macs = 2 * c.batch * c.heads * c.seq_q * c.seq_kv * c.d_head
        assert cost.ideal_cycles == pytest.approx(
            macs / edge_accel.peak_macs_per_cycle
        )

    def test_counts_nonnegative(self, bert_512, edge_accel):
        cost = cost_la_pair(bert_512, base(), edge_accel)
        c = cost.counts
        assert c.macs > 0 and c.dram_words > 0 and c.sg_words > 0

    def test_cost_fused_la_rejects_unfused(self, bert_512, edge_accel):
        with pytest.raises(ValueError):
            cost_fused_la(bert_512, base(), edge_accel)

    def test_cost_operator_rejects_fused(self, bert_512, edge_accel):
        ops = operators_for_scope(bert_512, Scope.BLOCK)
        with pytest.raises(ValueError):
            cost_operator(bert_512, ops[0], flat_r(8), edge_accel)


class TestPaperOrderings:
    """Qualitative claims of the paper, as assertions."""

    def test_flat_beats_base_on_la(self, bert_512, edge_accel):
        b = cost_la_pair(bert_512, base(), edge_accel)
        f = cost_la_pair(bert_512, flat_r(64), edge_accel)
        assert f.total_cycles < b.total_cycles

    def test_flat_traffic_below_base_traffic(self, bert_512, edge_accel):
        b = cost_la_pair(bert_512, base(), edge_accel)
        f = cost_la_pair(bert_512, flat_r(64), edge_accel)
        assert f.dram_bytes < b.dram_bytes

    def test_base_m_worse_than_base_at_small_buffer(self, bert_512,
                                                    edge_accel):
        small = edge_accel.with_scratchpad_bytes(128 * 1024)
        b = cost_la_pair(bert_512, base(), small)
        bm = cost_la_pair(bert_512, base_x(Granularity.M), small)
        assert bm.utilization < b.utilization

    def test_base_m_beats_base_at_huge_buffer(self, bert_512, edge_accel):
        huge = edge_accel.with_scratchpad_bytes(2 * 1024 ** 3)
        b = cost_la_pair(bert_512, base(), huge)
        bm = cost_la_pair(bert_512, base_x(Granularity.M), huge)
        assert bm.utilization > b.utilization

    def test_flat_r_near_cap_at_default_edge_buffer(self, bert_512,
                                                    edge_accel):
        f = cost_la_pair(bert_512, flat_r(64), edge_accel)
        assert f.utilization > 0.9

    def test_flat_holds_cap_across_sequence_lengths(self, edge_accel):
        from repro.models.configs import model_config

        utils = []
        for seq in (512, 4096, 65536):
            cfg = model_config("bert", seq=seq)
            # Size the buffer so the R-gran FLAT-tile fits, as the
            # paper's sweep does.
            accel = edge_accel.with_scratchpad_bytes(256 * 1024 * 1024)
            utils.append(cost_la_pair(cfg, flat_r(256), accel).utilization)
        assert all(u > 0.9 for u in utils)

    def test_unfused_pair_serializes_softmax(self, bert_512, edge_accel):
        """The baseline pays a softmax phase the fused dataflow hides."""
        b = cost_la_pair(bert_512, base(), edge_accel)
        f = cost_la_pair(bert_512, flat_r(64), edge_accel)
        assert b.softmax_cycles == pytest.approx(f.softmax_cycles)
        # ... but the baseline's total reflects the serial phase.
        assert b.total_cycles - b.compute_cycles > f.total_cycles - \
            f.compute_cycles


class TestStagingEffects:
    def test_disabling_k_staging_raises_traffic(self, bert_4k, edge_accel):
        accel = edge_accel.with_scratchpad_bytes(64 * 1024 * 1024)
        full = cost_la_pair(bert_4k, flat_r(128), accel)
        no_k = cost_la_pair(
            bert_4k,
            flat_r(128, staging=StagingPolicy(rhs=False)),
            accel,
        )
        assert no_k.dram_bytes > full.dram_bytes

    def test_disabling_intermediate_costs_round_trip(self, bert_512,
                                                     edge_accel):
        accel = edge_accel.with_scratchpad_bytes(64 * 1024 * 1024)
        full = cost_la_pair(bert_512, flat_r(64), accel)
        no_int = cost_la_pair(
            bert_512,
            flat_r(64, staging=StagingPolicy(intermediate=False)),
            accel,
        )
        c = bert_512
        logit_elems = c.batch * c.heads * c.seq_q * c.seq_kv
        extra = no_int.dram_bytes - full.dram_bytes
        assert extra >= 2 * logit_elems * accel.bytes_per_element * 0.9


class TestMonotonicity:
    def test_more_offchip_bandwidth_never_slower(self, bert_4k, edge_accel):
        cycles = []
        for gbps in (10, 50, 200, 1000):
            accel = edge_accel.with_offchip_bandwidth(gbps * 1e9)
            cycles.append(cost_la_pair(bert_4k, base(), accel).total_cycles)
        assert all(b <= a for a, b in zip(cycles, cycles[1:]))

    def test_bigger_buffer_never_slower_for_flat(self, bert_4k, edge_accel):
        cycles = []
        for mb in (1, 8, 64, 512):
            accel = edge_accel.with_scratchpad_bytes(mb * 1024 * 1024)
            cycles.append(
                cost_la_pair(bert_4k, flat_r(128), accel).total_cycles
            )
        assert all(b <= a * 1.001 for a, b in zip(cycles, cycles[1:]))


class TestStationarity:
    def test_weight_stationary_psum_overhead(self, bert_512, edge_accel):
        """Non-output stationarity spills partial sums on deep-k GEMMs."""
        out = cost_la_pair(
            bert_512, flat_r(64, stationarity=Stationarity.OUTPUT),
            edge_accel,
        )
        ws = cost_la_pair(
            bert_512, flat_r(64, stationarity=Stationarity.WEIGHT),
            edge_accel,
        )
        # A's k-dim is N: weight-stationary must not be cheaper.
        assert ws.dram_bytes >= out.dram_bytes


class TestScopeAggregation:
    def test_scope_cost_sums_operators(self, small_cfg, edge_accel):
        cost = cost_scope(small_cfg, Scope.BLOCK, edge_accel, flat_r(8))
        assert len(cost.operator_costs) == 7  # 6 ops with L+A fused as one
        assert cost.total_cycles == pytest.approx(
            sum(c.total_cycles for c in cost.operator_costs)
        )

    def test_model_scope_replicates_blocks(self, small_cfg, edge_accel):
        block = cost_scope(small_cfg, Scope.BLOCK, edge_accel, flat_r(8))
        model = cost_scope(small_cfg, Scope.MODEL, edge_accel, flat_r(8))
        assert model.total_cycles == pytest.approx(
            small_cfg.num_blocks * block.total_cycles
        )
        assert model.utilization == pytest.approx(block.utilization)

    def test_la_scope_is_single_fused_cost(self, small_cfg, edge_accel):
        cost = cost_scope(small_cfg, Scope.LA, edge_accel, flat_r(8))
        assert len(cost.operator_costs) == 1

    def test_la_scope_unfused_is_single_pair_cost(self, small_cfg,
                                                  edge_accel):
        cost = cost_scope(small_cfg, Scope.LA, edge_accel, base())
        assert len(cost.operator_costs) == 1

    def test_projections_unaffected_by_la_dataflow(self, small_cfg,
                                                   edge_accel):
        fused = cost_scope(small_cfg, Scope.BLOCK, edge_accel, flat_r(8))
        unfused = cost_scope(small_cfg, Scope.BLOCK, edge_accel, base())
        fused_proj = [
            c.total_cycles for c in fused.operator_costs
            if "query" in c.name or "ffn" in c.name
        ]
        unfused_proj = [
            c.total_cycles for c in unfused.operator_costs
            if "query" in c.name or "ffn" in c.name
        ]
        assert fused_proj == pytest.approx(unfused_proj)


class TestRigidVsFlexible:
    def test_flexible_mapping_at_least_as_fast(self, bert_512, edge_accel):
        flex = cost_la_pair(
            bert_512, base(), edge_accel,
            PerfOptions(flexible_mapping=True),
        )
        rigid = cost_la_pair(
            bert_512, base(), edge_accel,
            PerfOptions(flexible_mapping=False),
        )
        assert flex.total_cycles <= rigid.total_cycles

    def test_rigid_strands_pes_on_narrow_gemm(self, cloud_accel):
        """A d_head narrower than the array hurts rigid mapping."""
        from repro.models.configs import model_config

        cfg = model_config("t5", seq=2048)  # d_head = 64 < 256 columns
        flex = cost_la_pair(cfg, base(), cloud_accel,
                            PerfOptions(flexible_mapping=True))
        rigid = cost_la_pair(cfg, base(), cloud_accel,
                             PerfOptions(flexible_mapping=False))
        assert rigid.compute_cycles > 1.5 * flex.compute_cycles


class TestL2Reserve:
    """The one L2-reserve rule: an eighth of the scratchpad, at least
    4096 bytes, never more than half of it."""

    # (scratchpad bytes, reserved bytes) in each regime.
    _REGIMES = [
        (16 * 1024, 4096),    # an eighth is 2048: the 4096-byte floor
        (512 * 1024, 65536),  # the 12.5% share
        (6000, 3000),         # the floor passes half: sg // 2
    ]

    @pytest.mark.parametrize("sg_bytes, reserve", _REGIMES)
    def test_regimes(self, sg_bytes, reserve):
        assert l2_reserve_bytes(sg_bytes) == reserve

    @pytest.mark.parametrize("sg_bytes, reserve", _REGIMES)
    def test_partition_takes_the_reserve(self, edge_accel, sg_bytes,
                                         reserve):
        """Both branches of ``partition_scratchpad`` hand the reserve to
        L2 while staging is active, and the rest to staging."""
        accel = edge_accel.with_scratchpad_bytes(sg_bytes)
        e = accel.bytes_per_element
        scalar = partition_scratchpad(1, True, accel)
        assert scalar.staging_budget_bytes == sg_bytes - reserve
        assert scalar.l2_budget_elements == reserve // e
        lanes = partition_scratchpad(np.array([1, 1]),
                                     np.array([True, False]), accel)
        assert lanes.staging_budget_bytes.tolist() == [sg_bytes - reserve,
                                                       0]
        assert lanes.l2_budget_elements.tolist() == [reserve // e,
                                                     sg_bytes // e]


class TestScopeCounts:
    """``ScopeCost.counts`` sums in one pass what a chained
    ``ActivityCounts`` fold sums, bit for bit."""

    @pytest.mark.parametrize("scope", list(Scope))
    @pytest.mark.parametrize("model,seq", [("bert", 512), ("t5", 1024)])
    def test_one_pass_equals_the_chained_fold(self, scope, model, seq,
                                              edge_accel):
        cfg = model_config(model, seq=seq, batch=4)
        space = SearchSpace(variants=tuple(AttentionVariant))
        dataflows = list(enumerate_dataflows(cfg, edge_accel, space))
        assert len(dataflows) > 20
        specs = [parse_dataflow(s) for s in
                 ("flat-r64+flashd", "flat-r64+fusemax", "base")]
        replications = set()
        for df in dataflows[::7] + specs:
            cost = cost_scope(cfg, scope, edge_accel, df)
            replications.add(cost.replication)
            assert _bits(cost.counts) == _bits(chained_counts(cost)), df.name
        if scope is Scope.MODEL:
            assert replications == {cfg.num_blocks} and cfg.num_blocks > 1


def _bits(counts):
    return tuple(float(v).hex() for v in dataclasses.astuple(counts))
