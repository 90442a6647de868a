"""Tests for the chip-to-chip fabric collective cost model: spec
validation, free collectives, the ring/tree alpha-beta tradeoff landing
on the right side of its crossover, and all-reduce paying both phases.
"""

import pytest

from repro.arch.fabric import (
    CollectiveKind,
    CollectiveSchedule,
    FabricSpec,
    collective_time_s,
)


class TestFabricSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FabricSpec(link_bytes_per_sec=0)
        with pytest.raises(ValueError):
            FabricSpec(hop_latency_s=-1e-9)


class TestCollectiveTime:
    def test_one_chip_group_is_free(self):
        spec = FabricSpec()
        for schedule in CollectiveSchedule:
            assert collective_time_s(
                spec, schedule, CollectiveKind.ALL_GATHER, 1, 1 << 30
            ) == 0.0

    def test_empty_payload_is_free(self):
        spec = FabricSpec()
        assert collective_time_s(
            spec, CollectiveSchedule.RING, CollectiveKind.ALL_GATHER, 8, 0
        ) == 0.0

    def test_ring_wins_big_payloads_tree_wins_small(self):
        """The alpha-beta crossover: bandwidth vs latency dominance."""
        spec = FabricSpec(link_bytes_per_sec=25e9, hop_latency_s=1e-6)

        def t(schedule, payload):
            return collective_time_s(
                spec, schedule, CollectiveKind.ALL_GATHER, 64, payload
            )

        big, small = 1 << 30, 1 << 10
        assert t(CollectiveSchedule.RING, big) < t(
            CollectiveSchedule.TREE, big
        )
        assert t(CollectiveSchedule.TREE, small) < t(
            CollectiveSchedule.RING, small
        )

    def test_all_reduce_pays_two_phases(self):
        spec = FabricSpec()
        gather = collective_time_s(
            spec, CollectiveSchedule.RING, CollectiveKind.ALL_GATHER,
            16, 1 << 20,
        )
        reduce_ = collective_time_s(
            spec, CollectiveSchedule.RING, CollectiveKind.ALL_REDUCE,
            16, 1 << 20,
        )
        assert reduce_ == pytest.approx(2.0 * gather)

    def test_rejects_zero_chips(self):
        with pytest.raises(ValueError):
            collective_time_s(
                FabricSpec(), CollectiveSchedule.RING,
                CollectiveKind.ALL_GATHER, 0, 1,
            )
