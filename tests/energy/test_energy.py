"""Unit tests for the energy model."""

import pytest

from repro.energy.model import ActivityCounts, EnergyReport, energy_report
from repro.energy.tables import EnergyTable, default_table


class TestEnergyTable:
    def test_default_hierarchy(self):
        t = default_table()
        assert t.pj_per_mac <= t.pj_per_sg_word <= t.pj_per_dram_word
        assert t.dram_to_sg_ratio > 10  # orders-of-magnitude gap

    def test_rejects_inverted_hierarchy(self):
        with pytest.raises(ValueError):
            EnergyTable(pj_per_sg_word=100.0, pj_per_dram_word=10.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EnergyTable(pj_per_mac=-1.0)


class TestActivityCounts:
    @pytest.mark.parametrize(
        "name", ["macs", "sl_words", "sg_words", "dram_words", "sfu_ops"]
    )
    def test_rejects_each_negative_field(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be non-negative$"):
            ActivityCounts(**{name: -1.0})

    def test_addition(self):
        a = ActivityCounts(macs=1, sl_words=2, sg_words=3, dram_words=4,
                           sfu_ops=5)
        b = ActivityCounts(macs=10, sl_words=20, sg_words=30, dram_words=40,
                           sfu_ops=50)
        c = a + b
        assert c.macs == 11 and c.dram_words == 44 and c.sfu_ops == 55

    def test_scaling(self):
        a = ActivityCounts(macs=2, dram_words=3)
        s = a.scaled(12)
        assert s.macs == 24 and s.dram_words == 36

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ActivityCounts(macs=-1)
        with pytest.raises(ValueError):
            ActivityCounts().scaled(-1)


class TestEnergyReport:
    def test_total_is_sum_of_parts(self):
        counts = ActivityCounts(macs=1e9, sl_words=2e9, sg_words=1e8,
                                dram_words=1e7, sfu_ops=1e6)
        r = energy_report(counts)
        assert r.total_j == pytest.approx(
            r.compute_j + r.sl_j + r.sg_j + r.dram_j + r.sfu_j
        )

    def test_known_values(self):
        counts = ActivityCounts(macs=1e12)
        r = energy_report(counts, EnergyTable(pj_per_mac=1.0))
        assert r.compute_j == pytest.approx(1.0)  # 1e12 * 1 pJ = 1 J

    def test_dram_dominates_when_traffic_heavy(self):
        counts = ActivityCounts(macs=1e9, dram_words=1e9)
        r = energy_report(counts)
        assert r.offchip_fraction > 0.9

    def test_report_addition(self):
        a = energy_report(ActivityCounts(macs=1e9))
        b = energy_report(ActivityCounts(dram_words=1e9))
        c = a + b
        assert c.total_j == pytest.approx(a.total_j + b.total_j)
        assert c.counts.macs == 1e9 and c.counts.dram_words == 1e9

    def test_zero_counts_zero_energy(self):
        r = energy_report(ActivityCounts())
        assert r.total_j == 0.0
        assert r.offchip_fraction == 0.0
