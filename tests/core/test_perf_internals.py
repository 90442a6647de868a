"""Direct tests of the cost model's internal helpers.

The public invariants live in ``test_perf.py``/``test_perf_properties``;
these pin down the arithmetic of the building blocks so a regression
is reported at the helper, not three layers up.
"""

import pytest

from repro.arch.presets import edge
from repro.core.dataflow import Stationarity
from repro.core.perf import (
    PerfOptions,
    _allocate_staging,
    _blend_passes,
    _mapping_efficiency,
    _Phase,
    _strict_axis_eff,
    sg_stream_words,
)

_EDGE = edge()


class TestAllocateStaging:
    def test_everything_fits(self):
        fits = _allocate_staging([100.0, 200.0], 1000.0)
        assert fits == [1.0, 1.0]

    def test_priority_order(self):
        # First tensor claims the budget; later ones get the remainder.
        fits = _allocate_staging([600.0, 600.0], 900.0)
        assert fits[0] == 1.0
        assert fits[1] == pytest.approx(0.5)

    def test_zero_sized_tensor_is_trivially_fit(self):
        fits = _allocate_staging([0.0, 500.0], 400.0)
        assert fits[0] == 1.0
        assert fits[1] == pytest.approx(0.8)

    def test_empty_budget(self):
        fits = _allocate_staging([100.0], 0.0)
        assert fits == [0.0]


class TestBlendPasses:
    def test_unstaged_uses_l2_passes(self):
        assert _blend_passes(False, 1.0, 7.0) == 7.0

    def test_staged_and_fitting_is_one_pass(self):
        assert _blend_passes(True, 1.0, 7.0) == 1.0

    def test_strict_spill_restreams(self):
        # Half staged: 0.5 * 1 + 0.5 * (7 + 1) = 4.5
        assert _blend_passes(True, 0.5, 7.0, extra_pass_only=False) == 4.5

    def test_lenient_spill_two_passes(self):
        # Half staged: 0.5 * 1 + 0.5 * 2 = 1.5
        assert _blend_passes(True, 0.5, 7.0, extra_pass_only=True) == 1.5

    def test_lenient_never_exceeds_strict(self):
        for fit in (0.0, 0.3, 0.9, 1.0):
            for passes in (1.0, 4.0, 128.0):
                lenient = _blend_passes(True, fit, passes, True)
                strict = _blend_passes(True, fit, passes, False)
                assert lenient <= strict + 1e-12


class TestMappingEfficiency:
    def test_strict_axis_quantization(self):
        assert _strict_axis_eff(64, 32) == 1.0
        assert _strict_axis_eff(48, 32) == pytest.approx(48 / 64)
        assert _strict_axis_eff(16, 32) == 0.5

    def test_flexible_folds_everything(self):
        opts = PerfOptions(flexible_mapping=True)
        # Space is an exact multiple of the PE count: efficiency 1.
        eff = _mapping_efficiency(32, 32, 32, Stationarity.OUTPUT, _EDGE,
                                  opts)
        assert eff == 1.0

    def test_flexible_instances_fold(self):
        opts = PerfOptions(flexible_mapping=True)
        solo = _mapping_efficiency(8, 8, 8, Stationarity.OUTPUT, _EDGE,
                                   opts, instances=1)
        packed = _mapping_efficiency(8, 8, 8, Stationarity.OUTPUT, _EDGE,
                                     opts, instances=2)
        assert packed >= solo

    def test_rigid_strands_on_narrow_dims(self):
        opts = PerfOptions(flexible_mapping=False)
        eff = _mapping_efficiency(8, 64, 8, Stationarity.OUTPUT, _EDGE,
                                  opts)
        assert eff == pytest.approx((8 / 32) * (8 / 32))

    def test_stationarity_selects_spatial_dims(self):
        opts = PerfOptions(flexible_mapping=False)
        # WEIGHT maps (k, n): a big k saves it where OUTPUT (m, n) loses.
        out = _mapping_efficiency(8, 256, 256, Stationarity.OUTPUT, _EDGE,
                                  opts)
        ws = _mapping_efficiency(8, 256, 256, Stationarity.WEIGHT, _EDGE,
                                 opts)
        assert ws > out


class TestPhase:
    def test_phase_time_is_max_of_streams(self):
        p = _Phase(compute_cycles=100.0, softmax_cycles=10.0,
                   dram_elements=1000.0, sg_words=100.0)
        # dram: 1000 * 2 / 50 = 40; sg: 100 * 2 / 1000 = 0.2.
        assert p.time(_EDGE) == 110.0

    def test_memory_bound_phase(self):
        p = _Phase(compute_cycles=1.0, dram_elements=10000.0)
        assert p.time(_EDGE) == pytest.approx(10000.0 * 2 / 50)


class TestSgStreamWords:
    def test_systolic_injection_rate(self):
        # (rows + cols) / (rows * cols) words per MAC.
        words = sg_stream_words(1024.0, _EDGE)
        assert words == pytest.approx(1024.0 * 64 / 1024)
