"""Tests for the attention-variant zoo (FLASH-D, FuseMax).

Covers the variant field end to end: spelling/parsing, fused-only
enforcement, the scalar cost model's softmax-term accounting, scalar
vs batch bit-equality on decode shapes, enumeration stability (the
default space is byte-identical to the pre-variant space), candidate
invariants, admissible bounds (candidate-gated search equals
exhaustive search with variants enabled), and JSON round-tripping.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.arch.config_io import dataflow_from_dict, dataflow_to_dict
from repro.arch.presets import get_platform
from repro.arch.sfu import SFUSpec
from repro.core.batch import evaluate_grid
from repro.core.dataflow import (
    AttentionVariant,
    Granularity,
    base_x,
    flat_r,
    flat_x,
    parse_dataflow,
)
from repro.core.dse import (
    Objective,
    SearchSpace,
    enumerate_dataflows,
    search,
)
from repro.core.engine import EngineOptions
from repro.core.perf import cost_scope
from repro.models.configs import model_config
from repro.ops.attention import Scope
from repro.ops.decode import decode_config
from tests.oracles import assert_matches_oracle, exhaustive_best

ALL_VARIANTS = tuple(AttentionVariant)


@pytest.fixture(scope="module")
def accel():
    # A deliberately narrow SFU: on the stock presets (SFU as wide as
    # the PE array) the softmax serial term vanishes and the variants
    # tie the baseline, which would make these tests vacuous.
    edge = get_platform("edge")
    return replace(edge, sfu=SFUSpec(elements_per_cycle=16))


@pytest.fixture(scope="module")
def cfg():
    return model_config("bert", seq=256, batch=2)


class TestSpelling:
    def test_parse_round_trips_variants(self):
        for spec in ("flat-r64+flashd", "flat-r64+fusemax", "flat-b+flashd"):
            df = parse_dataflow(spec)
            assert df.fused
            assert df.variant is not AttentionVariant.SOFTMAX
            assert parse_dataflow(df.name) == df

    def test_base_spellings_reject_variants(self):
        with pytest.raises(ValueError):
            parse_dataflow("base+flashd")

    def test_variants_are_fused_only(self):
        with pytest.raises(ValueError, match="fused"):
            replace(base_x(Granularity.B),
                    variant=AttentionVariant.FUSEMAX)

    def test_constructors_suffix_the_name(self):
        assert flat_r(32, variant=AttentionVariant.FLASH_D).name == \
            "FLAT-R32+flashd"
        assert flat_x(Granularity.H,
                      variant=AttentionVariant.FUSEMAX).name == \
            "FLAT-H+fusemax"


class TestScalarAccounting:
    """The variant's softmax term lands exactly where the model says."""

    def test_flashd_drops_the_division_pass(self, cfg, accel):
        ref = cost_scope(cfg, Scope.LA, accel, flat_r(32))
        fd = cost_scope(cfg, Scope.LA, accel,
                        flat_r(32, variant=AttentionVariant.FLASH_D))
        assert fd.total_cycles < ref.total_cycles
        # The SFU op count drops by exactly one pass over the logits
        # minus one pass over the (much smaller) output tile.
        assert fd.counts.sfu_ops < ref.counts.sfu_ops

    def test_fusemax_overlaps_softmax_with_compute(self, cfg, accel):
        ref = cost_scope(cfg, Scope.LA, accel, flat_r(32))
        fm = cost_scope(cfg, Scope.LA, accel,
                        flat_r(32, variant=AttentionVariant.FUSEMAX))
        assert fm.total_cycles < ref.total_cycles
        # Pipelining hides cycles but does not change the work done.
        assert fm.counts.sfu_ops == ref.counts.sfu_ops
        assert fm.counts.macs == ref.counts.macs
        assert fm.dram_bytes == ref.dram_bytes

    def test_variants_near_tie_when_sfu_is_wide(self, cfg):
        # On the stock preset (SFU as wide as the PE array) the softmax
        # serial term is marginal: the variant can only shave it, and
        # the shave is a few percent at most.
        wide = get_platform("edge")
        ref = cost_scope(cfg, Scope.LA, wide, flat_r(32))
        fm = cost_scope(cfg, Scope.LA, wide,
                        flat_r(32, variant=AttentionVariant.FUSEMAX))
        assert fm.total_cycles <= ref.total_cycles
        assert fm.total_cycles >= 0.95 * ref.total_cycles


class TestBatchEquivalence:
    """Scalar vs ``evaluate_grid`` bit-equality on decode shapes."""

    def test_decode_step_sweep_bit_equal(self, accel):
        prefill = model_config("bert", seq=512, batch=1)
        dataflows = [
            flat_r(1),
            flat_r(1, variant=AttentionVariant.FLASH_D),
            flat_r(1, variant=AttentionVariant.FUSEMAX),
            flat_x(Granularity.B, variant=AttentionVariant.FLASH_D),
            base_x(Granularity.B),
        ]
        for kv_len in (128, 1024, 4096):
            step = decode_config(prefill, kv_len)
            grid = evaluate_grid(step, Scope.LA, accel, dataflows)
            for i, df in enumerate(dataflows):
                cost = cost_scope(step, Scope.LA, accel, df)
                assert grid.total_cycles[i] == cost.total_cycles, df.name
                assert grid.dram_bytes[i] == cost.dram_bytes, df.name
                assert grid.sfu_ops[i] == cost.counts.sfu_ops, df.name

    def test_prefill_variants_bit_equal(self, cfg, accel):
        dataflows = [
            flat_r(r, variant=v)
            for r in (8, 64) for v in ALL_VARIANTS
        ]
        grid = evaluate_grid(cfg, Scope.LA, accel, dataflows)
        for i, df in enumerate(dataflows):
            cost = cost_scope(cfg, Scope.LA, accel, df)
            assert grid.total_cycles[i] == cost.total_cycles, df.name
            assert grid.sfu_ops[i] == cost.counts.sfu_ops, df.name


class TestEnumeration:
    def test_default_space_is_unchanged(self, cfg):
        default = [df.name for df in enumerate_dataflows(cfg, None)]
        assert not any("+" in name for name in default)

    def test_variant_space_is_a_superset(self, cfg):
        default = list(enumerate_dataflows(cfg, None, SearchSpace()))
        zoo = list(
            enumerate_dataflows(cfg, None,
                                SearchSpace(variants=ALL_VARIANTS))
        )
        assert set(default) <= set(zoo)
        assert len(zoo) > len(default)
        assert all(
            df.fused for df in zoo
            if df.variant is not AttentionVariant.SOFTMAX
        )

    def test_variant_space_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SearchSpace(variants=(AttentionVariant.FLASH_D,
                                  AttentionVariant.FLASH_D))


class TestSearchWithVariants:
    def test_candidate_gated_equals_exhaustive(self, cfg, accel):
        space = SearchSpace(variants=ALL_VARIANTS)
        gated = search(
            cfg, accel, scope=Scope.LA, space=space, retain_points=False,
            engine=EngineOptions(),
        )
        assert_matches_oracle(
            gated, exhaustive_best(cfg, accel, scope=Scope.LA, space=space)
        )

    def test_variant_wins_on_narrow_sfu(self, cfg, accel):
        space = SearchSpace(variants=ALL_VARIANTS)
        result = search(cfg, accel, scope=Scope.LA, space=space,
                        retain_points=False)
        baseline = search(cfg, accel, scope=Scope.LA, retain_points=False)
        assert result.best.dataflow.variant is not AttentionVariant.SOFTMAX
        assert result.best.cost.total_cycles < \
            baseline.best.cost.total_cycles

    def test_objectives_accept_variants(self, cfg, accel):
        space = SearchSpace(variants=(AttentionVariant.SOFTMAX,
                                      AttentionVariant.FUSEMAX))
        result = search(cfg, accel, scope=Scope.LA,
                        objective=Objective.EDP, space=space,
                        retain_points=False)
        assert result.best is not None


class TestConfigIO:
    def test_variant_round_trips(self):
        df = flat_r(16, variant=AttentionVariant.FLASH_D)
        data = dataflow_to_dict(df)
        assert data["variant"] == "flash-d"
        assert dataflow_from_dict(data) == df

    def test_default_payload_has_no_variant_key(self):
        data = dataflow_to_dict(flat_r(16))
        assert "variant" not in data
        assert dataflow_from_dict(data) == flat_r(16)
