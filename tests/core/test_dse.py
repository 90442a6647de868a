"""Unit tests for the design-space exploration framework."""

import pytest

from repro.core.dataflow import Granularity
from repro.core.dse import (
    Objective,
    SearchSpace,
    enumerate_dataflows,
    search,
)
from repro.ops.attention import Scope


class TestEnumeration:
    def test_default_space_contains_all_families(self, bert_512, edge_accel):
        names = {
            df.name for df in enumerate_dataflows(bert_512, edge_accel)
        }
        assert "Base" in names
        assert any(n.startswith("Base-M") for n in names)
        assert any(n.startswith("FLAT-H") for n in names)
        assert any(n.startswith("FLAT-R") for n in names)

    def test_unfused_space_has_no_flat(self, bert_512, edge_accel):
        space = SearchSpace(allow_fused=False,
                            granularities=(Granularity.M, Granularity.B,
                                           Granularity.H))
        names = {
            df.name for df in enumerate_dataflows(bert_512, edge_accel,
                                                  space)
        }
        assert all(not n.startswith("FLAT") for n in names)

    def test_fused_only_space_has_no_base_x(self, bert_512, edge_accel):
        space = SearchSpace(
            allow_fused=True, allow_unfused=False,
            include_plain_base=False,
        )
        flows = list(enumerate_dataflows(bert_512, edge_accel, space))
        assert flows
        assert all(df.fused for df in flows)

    def test_row_choices_respected(self, bert_512, edge_accel):
        space = SearchSpace(
            granularities=(Granularity.R,), row_choices=(16, 32),
            allow_unfused=False, include_plain_base=False,
        )
        rows = {
            df.rows for df in enumerate_dataflows(bert_512, edge_accel,
                                                  space)
        }
        assert rows == {16, 32}

    def test_exhaustive_staging_grows_space(self, bert_512, edge_accel):
        lean = len(list(enumerate_dataflows(bert_512, edge_accel)))
        fat = len(list(enumerate_dataflows(
            bert_512, edge_accel, SearchSpace(exhaustive_staging=True)
        )))
        assert fat > lean

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(allow_fused=False, allow_unfused=False)


class TestSearch:
    def test_best_is_minimum_over_points(self, bert_512, edge_accel):
        result = search(bert_512, edge_accel, scope=Scope.LA,
                        retain_points=True)
        best_cycles = result.best.cost.total_cycles
        assert all(
            p.cost.total_cycles >= best_cycles for p in result.points
        )

    def test_flat_opt_wins_on_la(self, bert_512, edge_accel):
        result = search(bert_512, edge_accel, scope=Scope.LA)
        assert result.best.dataflow.fused

    def test_energy_objective_finds_min_energy(self, bert_512, edge_accel):
        result = search(
            bert_512, edge_accel, scope=Scope.LA, objective=Objective.ENERGY,
            retain_points=True,
        )
        best = result.best.energy.total_j
        assert all(p.energy.total_j >= best for p in result.points)

    def test_energy_opt_no_worse_energy_than_runtime_opt(
        self, bert_512, edge_accel
    ):
        rt = search(bert_512, edge_accel, objective=Objective.RUNTIME)
        en = search(bert_512, edge_accel, objective=Objective.ENERGY)
        assert en.best.energy.total_j <= rt.best.energy.total_j

    def test_edp_objective(self, bert_512, edge_accel):
        result = search(
            bert_512, edge_accel, objective=Objective.EDP,
            retain_points=True,
        )
        best = result.best
        key = best.energy.total_j * best.cost.total_cycles
        assert all(
            p.energy.total_j * p.cost.total_cycles >= key
            for p in result.points
        )

    def test_footprint_objective(self, bert_512, edge_accel):
        result = search(
            bert_512, edge_accel, objective=Objective.FOOTPRINT,
            retain_points=True,
        )
        best = result.best.footprint_bytes
        assert all(p.footprint_bytes >= best for p in result.points)


class TestParetoFront:
    def test_front_is_strictly_improving(self, bert_512, edge_accel):
        result = search(bert_512, edge_accel, retain_points=True)
        front = result.pareto_front()
        assert front
        for a, b in zip(front, front[1:]):
            assert a.footprint_bytes <= b.footprint_bytes
            assert a.utilization < b.utilization

    def test_front_dominates_all_points(self, bert_512, edge_accel):
        result = search(bert_512, edge_accel, retain_points=True)
        front = result.pareto_front()
        for p in result.points:
            dominated = any(
                f.footprint_bytes <= p.footprint_bytes
                and f.utilization >= p.utilization
                for f in front
            )
            assert dominated

    def test_tie_handling_keeps_first_in_points_order(self, bert_512,
                                                      edge_accel):
        """Full ties resolve deterministically to the earlier point.

        Duplicating a front point (same cost, different name) must not
        change the front when the duplicate comes later, and must swap
        in the duplicate when it comes first — ``pareto_front`` is a
        pure, stable function of ``points`` order.
        """
        import dataclasses

        from repro.core.dse import DSEResult

        result = search(bert_512, edge_accel, retain_points=True)
        front = result.pareto_front()
        dup = dataclasses.replace(
            front[0],
            dataflow=dataclasses.replace(front[0].dataflow, name="twin"),
        )
        appended = DSEResult(
            best=result.best, points=result.points + (dup,),
            objective=result.objective,
        )
        assert appended.pareto_front() == front
        prepended = DSEResult(
            best=result.best, points=(dup,) + result.points,
            objective=result.objective,
        )
        swapped = prepended.pareto_front()
        assert swapped[0].dataflow.name == "twin"
        assert swapped[1:] == front[1:]

    def test_front_is_deterministic(self, bert_512, edge_accel):
        result = search(bert_512, edge_accel, retain_points=True)
        assert result.pareto_front() == result.pareto_front()


class TestSpaceClosedForms:
    """The enumeration's size is predictable in closed form."""

    def test_exhaustive_staging_is_full_2_to_the_5(self):
        from repro.core.dse import _staging_choices

        exhaustive = _staging_choices(True)
        assert len(exhaustive) == 2 ** 5 == 32
        assert len(set(exhaustive)) == 32
        # Exactly one member is all-disabled; enumerate_dataflows skips
        # it, so 31 policies reach the cost model.
        assert sum(1 for s in exhaustive if not s.any_enabled) == 1

    def test_default_staging_corners(self):
        from repro.core.dse import _staging_choices

        lean = _staging_choices(False)
        assert len(lean) == 7  # all-on, int-only, five single-offs
        assert all(s.any_enabled for s in lean)

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_enumeration_count_matches_closed_form(self, bert_512,
                                                   edge_accel, exhaustive):
        from repro.core.dse import _default_row_choices, _staging_choices

        space = SearchSpace(exhaustive_staging=exhaustive)
        stagings = sum(
            1 for s in _staging_choices(exhaustive) if s.any_enabled
        )
        rows = len(_default_row_choices(bert_512.seq_q))
        xy_grans = sum(
            1 for g in space.granularities if g is not Granularity.R
        )
        # plain Base + (Base-X and FLAT-X per staging) + FLAT-R grid
        predicted = 1 + 2 * xy_grans * stagings + rows * stagings
        actual = len(list(enumerate_dataflows(bert_512, edge_accel, space)))
        assert actual == predicted
        if exhaustive:
            assert actual == 1 + 2 * 3 * 31 + 6 * 31 == 373


class TestRowChoices:
    def test_ladder_depends_only_on_seq(self):
        from repro.core.dse import _default_row_choices

        rows = _default_row_choices(512)
        assert rows == (1, 4, 16, 64, 256, 512)
        assert _default_row_choices(512) == rows  # deterministic
        # Capped at 16384 regardless of sequence length.
        assert max(_default_row_choices(10 ** 6)) == 16384

    def test_ladder_covers_both_ends(self):
        from repro.core.dse import _default_row_choices

        for seq in (1, 7, 512, 4096, 65536):
            rows = _default_row_choices(seq)
            assert rows[0] == 1
            assert rows[-1] == min(seq, 16384)

    def test_ladder_has_no_duplicates(self):
        from repro.core.dse import _default_row_choices

        # Sequence lengths on the geometric ladder (powers of four, and
        # anything past the 16384 cap) used to get their final entry
        # appended twice, inflating the R-granularity grid.
        for seq in (1, 4, 64, 1024, 16384, 65536, 10 ** 6, 7, 100):
            rows = _default_row_choices(seq)
            assert len(rows) == len(set(rows)), seq
