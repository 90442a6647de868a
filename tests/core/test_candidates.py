"""Tests for the analytic candidate-generation layer.

Two bars, matching :mod:`repro.core.candidates`'s contract:

* **Admissibility** — every family's analytic lower bound must sit at
  or below the true cost of every member of that family, and the
  feasible-row interval must agree with the Table 2 closed form it
  inverts.  Randomized (hypothesis) workloads and buffer sizes probe
  the closed forms off the presets.
* **Equivalence** — the generated search must return the *same bytes*
  as the exhaustive oracle (``tests/oracles.py``): identical winner,
  identical cost, with the exhaustive winner never bound-pruned (not
  even by the enumeration-order tie gate).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.presets import cloud, edge
from repro.core.candidates import (
    Incumbent,
    family_lower_bound,
    feasible_row_interval,
    make_incumbent,
    plan_candidates,
    space_table,
)
from repro.core.dataflow import AttentionVariant, Granularity, flat_r
from repro.core.dse import (
    Objective,
    SearchSpace,
    enumerate_dataflows,
    enumerate_families,
    expand_family,
    family_size,
    search,
)
from repro.core.engine import _BOUND_SLACK, clear_evaluation_cache
from repro.core.footprint import footprint_r_gran
from repro.core.perf import PerfOptions, cost_scope, partition_scratchpad
from repro.energy.model import energy_report
from repro.ops.attention import AttentionConfig, Scope
from tests.oracles import (
    assert_matches_oracle,
    exhaustive_best,
    family_representative,
)

SPACES = {
    "default": SearchSpace(),
    "exhaustive-staging": SearchSpace(exhaustive_staging=True),
    "fused-only": SearchSpace(allow_fused=True, allow_unfused=False,
                              include_plain_base=False),
    "unfused-only": SearchSpace(
        allow_fused=False,
        granularities=(Granularity.M, Granularity.B, Granularity.H),
    ),
}


def _small_cfg(batch=2, heads=4, d_head=16, seq=64):
    return AttentionConfig(
        name="cand", batch=batch, heads=heads, d_model=heads * d_head,
        seq_q=seq, seq_kv=seq, d_ff=4 * heads * d_head,
    )


workloads = st.builds(
    _small_cfg,
    batch=st.integers(min_value=1, max_value=8),
    heads=st.integers(min_value=1, max_value=4),
    d_head=st.sampled_from([16, 32]),
    seq=st.sampled_from([32, 64, 256]),
)
buffer_kb = st.sampled_from([20, 64, 512, 4096, 65536])


class TestPlanStructure:
    """The plan must mirror the exhaustive enumeration exactly."""

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_families_concatenate_to_enumeration(self, bert_512,
                                                 edge_accel, name):
        space = SPACES[name]
        flat = [
            df
            for fam in enumerate_families(bert_512, space)
            for df in expand_family(bert_512, fam, space)
        ]
        assert flat == list(
            enumerate_dataflows(bert_512, edge_accel, space)
        )

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_family_size_matches_expansion(self, bert_512, name):
        space = SPACES[name]
        for fam in enumerate_families(bert_512, space):
            assert family_size(fam, space) == len(
                list(expand_family(bert_512, fam, space))
            )

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_representative_is_first_member(self, bert_512, name):
        """The branch-and-bound scores ``offsets[fi]`` as the rep —
        the representative must be member 0 of every expansion."""
        space = SPACES[name]
        for fam in enumerate_families(bert_512, space):
            first = next(iter(expand_family(bert_512, fam, space)))
            assert family_representative(fam, space) == first

    def test_footprint_objective_rejected(self, bert_512, edge_accel):
        with pytest.raises(ValueError):
            plan_candidates(Objective.FOOTPRINT, bert_512, Scope.LA,
                            edge_accel, space_table(bert_512))


class TestLocate:
    def test_every_member_found_at_its_index(self, bert_512):
        space = SearchSpace()
        for i, df in enumerate(
            enumerate_dataflows(bert_512, edge(), space)
        ):
            assert space_table(bert_512, space).locate(df) == i

    def test_foreign_row_count_absent(self, bert_512):
        assert space_table(bert_512, SearchSpace()).locate(flat_r(3)) is None


class TestIntervalInversion:
    @settings(max_examples=30, deadline=None)
    @given(cfg=workloads, kb=buffer_kb)
    def test_interval_matches_closed_form(self, cfg, kb):
        accel = edge().with_scratchpad_bytes(kb * 1024)
        options = PerfOptions()
        lo, hi = feasible_row_interval(cfg, accel, options)
        assert lo == 1
        assert hi <= cfg.seq_q
        e = accel.bytes_per_element
        budget = partition_scratchpad(1, True, accel, options)
        budget_elements = budget.staging_budget_bytes // e
        if hi >= 1:
            assert footprint_r_gran(hi, cfg.seq_kv,
                                    cfg.d_head) <= budget_elements
        if hi < cfg.seq_q:
            assert footprint_r_gran(hi + 1, cfg.seq_kv,
                                    cfg.d_head) > budget_elements


class TestBoundAdmissibility:
    """bound(family) <= true cost of every member, always."""

    @settings(max_examples=25, deadline=None)
    @given(cfg=workloads, kb=buffer_kb)
    def test_runtime_bounds_admissible(self, cfg, kb):
        accel = edge().with_scratchpad_bytes(kb * 1024)
        space = SearchSpace()
        for fam in enumerate_families(cfg, space):
            bound = family_lower_bound(Objective.RUNTIME, cfg, Scope.LA,
                                       accel, fam, space)
            for df in expand_family(cfg, fam, space):
                value = cost_scope(cfg, Scope.LA, accel, df).total_cycles
                assert bound <= value, (fam, df.name, bound, value)

    def test_exhaustive_staging_bounds_admissible(self, edge_accel):
        cfg = _small_cfg(seq=64)
        space = SearchSpace(exhaustive_staging=True)
        for fam in enumerate_families(cfg, space):
            bound = family_lower_bound(Objective.RUNTIME, cfg, Scope.LA,
                                       accel=edge_accel, family=fam,
                                       space=space)
            for df in expand_family(cfg, fam, space):
                value = cost_scope(cfg, Scope.LA, edge_accel,
                                   df).total_cycles
                assert bound <= value, (fam, df.name, bound, value)

    def test_block_scope_bounds_admissible(self, edge_accel):
        cfg = _small_cfg(seq=64)
        space = SearchSpace()
        for fam in enumerate_families(cfg, space):
            bound = family_lower_bound(Objective.RUNTIME, cfg,
                                       Scope.BLOCK, edge_accel, fam,
                                       space)
            for df in expand_family(cfg, fam, space):
                value = cost_scope(cfg, Scope.BLOCK, edge_accel,
                                   df).total_cycles
                assert bound <= value, (fam, df.name, bound, value)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        batch=st.integers(min_value=1, max_value=4),
        heads=st.sampled_from([1, 2, 4]),
        d_head=st.sampled_from([16, 32]),
        # Decode (seq_q=1), cross-attention both ways, self-attention.
        seq=st.sampled_from([(1, 64), (1, 257), (24, 96), (100, 33),
                             (64, 64)]),
        kb=buffer_kb,
        objective=st.sampled_from([Objective.RUNTIME, Objective.ENERGY,
                                   Objective.EDP]),
        scope=st.sampled_from(list(Scope)),
        rigid=st.booleans(),
        strict_spill=st.booleans(),
        variants=st.booleans(),
    )
    def test_generated_bounds_admissible(self, batch, heads, d_head, seq,
                                         kb, objective, scope, rigid,
                                         strict_spill, variants):
        """Every plan bound sits at or below the objective score of
        every member of its family, on the new axes: energy objectives,
        MODEL scope, decode and cross-attention shapes, variant spaces,
        rigid mapping and the strict spill accounting."""
        seq_q, seq_kv = seq
        cfg = AttentionConfig(
            name="gen", batch=batch, heads=heads, d_model=heads * d_head,
            seq_q=seq_q, seq_kv=seq_kv, d_ff=4 * heads * d_head,
            num_blocks=3,
        )
        accel = edge().with_scratchpad_bytes(kb * 1024)
        options = PerfOptions(flexible_mapping=not rigid,
                              spill_extra_pass_only=not strict_spill)
        space = SearchSpace(
            variants=(tuple(AttentionVariant) if variants
                      else (AttentionVariant.SOFTMAX,)),
        )
        table = space_table(cfg, space)
        bounds = plan_candidates(objective, cfg, scope, accel, table,
                                 options)
        assert len(bounds) == len(table.families)
        for fam, bound in zip(table.families, bounds):
            for df in expand_family(cfg, fam, space):
                cost = cost_scope(cfg, scope, accel, df, options=options)
                value = objective.score(cost, energy_report(cost.counts))
                assert bound <= value, (fam, df.name, bound, value)

    @settings(max_examples=15, deadline=None)
    @given(cfg=workloads, kb=buffer_kb)
    def test_winner_never_pruned(self, cfg, kb):
        """The exhaustive winner's family survives both gates: its
        bound can never exceed the optimum, and the tie gate cannot
        fire against it (the family offset is <= the winner index)."""
        accel = edge().with_scratchpad_bytes(kb * 1024)
        space = SearchSpace()
        table = space_table(cfg, space)
        bounds = plan_candidates(Objective.RUNTIME, cfg, Scope.LA, accel,
                                 table)
        best_value, best_index = None, None
        for i, df in enumerate(enumerate_dataflows(cfg, accel, space)):
            value = cost_scope(cfg, Scope.LA, accel, df).total_cycles
            if best_value is None or value < best_value:
                best_value, best_index = value, i
        fi = max(
            i for i in range(len(table.families))
            if table.offsets[i] <= best_index
        )
        assert bounds[fi] <= best_value
        assert table.offsets[fi] <= best_index
        gated = bounds[fi] > best_value or (
            bounds[fi] >= best_value * _BOUND_SLACK
            and table.offsets[fi] > best_index
        )
        assert not gated


class TestSearchEquivalence:
    """The generated search and the exhaustive oracle agree to the byte."""

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_same_winner_all_spaces(self, edge_accel, name):
        cfg = _small_cfg(seq=64)
        oracle = exhaustive_best(cfg, edge_accel, scope=Scope.LA,
                                 space=SPACES[name])
        clear_evaluation_cache()
        fast = search(cfg, edge_accel, scope=Scope.LA, space=SPACES[name],
                      retain_points=False)
        assert_matches_oracle(fast, oracle)

    @settings(max_examples=12, deadline=None)
    @given(cfg=workloads, kb=buffer_kb)
    def test_same_winner_randomized(self, cfg, kb):
        accel = edge().with_scratchpad_bytes(kb * 1024)
        oracle = exhaustive_best(cfg, accel, scope=Scope.LA)
        clear_evaluation_cache()
        fast = search(cfg, accel, scope=Scope.LA, retain_points=False)
        assert_matches_oracle(fast, oracle)

    def test_objectives_agree(self, small_cfg, edge_accel):
        for objective in (Objective.RUNTIME, Objective.ENERGY,
                          Objective.EDP):
            oracle = exhaustive_best(small_cfg, edge_accel,
                                     objective=objective)
            clear_evaluation_cache()
            fast = search(small_cfg, edge_accel, objective=objective,
                          retain_points=False)
            assert_matches_oracle(fast, oracle, objective)

    def test_footprint_objective_scores_the_whole_table(self, small_cfg,
                                                        edge_accel):
        """FOOTPRINT has no bound; the engine scores every point on the
        grid rather than reject the search, and prunes no family."""
        clear_evaluation_cache()
        res = search(small_cfg, edge_accel, objective=Objective.FOOTPRINT,
                     retain_points=False)
        s = res.stats
        assert s.candidates_generated == s.batch_evaluations == s.enumerated
        assert s.families_pruned == s.candidates_skipped == 0
        assert s.evaluated == 1  # the winner's breakdown
        assert_matches_oracle(
            res, exhaustive_best(small_cfg, edge_accel,
                                 objective=Objective.FOOTPRINT),
            Objective.FOOTPRINT,
        )

    def test_stats_ledger_balances(self, small_cfg, edge_accel):
        clear_evaluation_cache()
        res = search(small_cfg, edge_accel, retain_points=False)
        s = res.stats
        assert s.enumerated == s.cache_hits + s.pruned + s.evaluated
        assert s.candidates_generated + s.candidates_skipped == s.enumerated
        assert s.candidates_skipped <= s.pruned


class TestWarmStart:
    """Warm starts change the amount of work, never the answer."""

    def test_warm_sweep_bit_identical_to_cold(self, edge_accel):
        """Each point of a neighbor-chained sweep is the cold oracle's."""
        cfg = _small_cfg(seq=256)
        sizes = [20 * 1024, 128 * 1024, 512 * 1024, 4096 * 1024]
        clear_evaluation_cache()
        incumbent = None
        for size in sizes:
            sized = edge_accel.with_scratchpad_bytes(size)
            res = search(cfg, sized, scope=Scope.LA, retain_points=False,
                         warm_start=incumbent)
            incumbent = make_incumbent(res, Scope.LA, sized)
            assert_matches_oracle(res, exhaustive_best(cfg, sized))

    def test_stale_incumbent_is_reevaluated(self, edge_accel,
                                            cloud_accel):
        """A seed from another accelerator (with a poisoned carried
        value) must be re-scored under the current one — the result
        cannot depend on the stale value."""
        cfg = _small_cfg(seq=64)
        clear_evaluation_cache()
        donor = search(cfg, cloud_accel, scope=Scope.LA, retain_points=False)
        stale = Incumbent(
            dataflow=donor.best.dataflow, objective=Objective.RUNTIME,
            scope=Scope.LA, options=PerfOptions(), value=0.0,
        )
        clear_evaluation_cache()
        baseline = search(cfg, edge_accel, scope=Scope.LA, retain_points=False)
        clear_evaluation_cache()
        seeded = search(cfg, edge_accel, scope=Scope.LA, retain_points=False,
                        warm_start=stale)
        assert seeded.best.dataflow == baseline.best.dataflow
        assert seeded.best.cost == baseline.best.cost

    @pytest.mark.parametrize(
        "mutate",
        [
            dict(objective=Objective.ENERGY),
            dict(scope=Scope.BLOCK),
            dict(options=PerfOptions(l2_reserve_fraction=0.25)),
            dict(dataflow=flat_r(3)),  # rows outside the ladder
        ],
        ids=["objective", "scope", "options", "not-in-space"],
    )
    def test_mismatched_incumbent_rejected(self, edge_accel, mutate):
        import repro.obs as obs

        cfg = _small_cfg(seq=64)
        # Above the one-call limit: only a planned search reads a seed.
        space = SearchSpace(exhaustive_staging=True)
        clear_evaluation_cache()
        donor = search(cfg, edge_accel, scope=Scope.LA, space=space,
                       retain_points=False)
        fields = dict(
            dataflow=donor.best.dataflow, objective=Objective.RUNTIME,
            scope=Scope.LA, options=PerfOptions(),
        )
        fields.update(mutate)
        bad = Incumbent(**fields)
        clear_evaluation_cache()
        baseline = search(cfg, edge_accel, scope=Scope.LA, space=space,
                          retain_points=False)
        clear_evaluation_cache()
        with obs.observed() as session:
            seeded = search(cfg, edge_accel, scope=Scope.LA, space=space,
                            retain_points=False,
                            warm_start=bad)
            snap = session.registry.snapshot()
        assert snap["engine.warm_start.rejected"]["value"] == 1
        assert seeded.best.dataflow == baseline.best.dataflow
        assert seeded.best.cost == baseline.best.cost

    def test_buffer_sweep_matches_oracle(self, edge_accel):
        """The sweep helper chains each curve's winner into the next
        buffer size; every point must still be the oracle's."""
        from repro.analysis.utilization import SweepPoint, buffer_sweep
        from repro.energy.model import energy_report

        cfg = _small_cfg(seq=64)
        spaces = {"opt": SearchSpace()}
        sizes = (20 * 1024, 512 * 1024, 4096 * 1024)
        clear_evaluation_cache()
        points = buffer_sweep(cfg, Scope.LA, edge_accel, [], sizes,
                              dse_spaces=spaces)
        expected = []
        for size in sizes:
            oracle = exhaustive_best(
                cfg, edge_accel.with_scratchpad_bytes(size)
            )
            expected.append(SweepPoint(
                dataflow_name="opt", buffer_bytes=size,
                utilization=oracle.cost.utilization,
                total_cycles=oracle.cost.total_cycles,
                energy=energy_report(oracle.cost.counts),
            ))
        assert points == expected

    def test_memo_hit_short_circuits_repeat_search(self, small_cfg,
                                                   edge_accel):
        clear_evaluation_cache()
        first = search(small_cfg, edge_accel, retain_points=False)
        second = search(small_cfg, edge_accel, retain_points=False)
        assert second.best.dataflow == first.best.dataflow
        assert second.stats.batch_evaluations == 0
        assert second.stats.candidates_generated == 0
