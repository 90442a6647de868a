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
    _BOUND_SLACK,
    family_lower_bound,
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
from repro.core.engine import (
    SearchRequest,
    clear_evaluation_cache,
    run_searches,
)
from repro.core.perf import PerfOptions, cost_scope
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


def _seeded(cfg, accel, seed, **fields):
    """A best-only search seeded with the dataflow ``seed``."""
    (result,) = run_searches([SearchRequest(cfg, accel, warm_start=seed,
                                            **fields)])
    return result


class TestWarmStart:
    """Warm starts change the amount of work, never the answer."""

    def test_warm_sweep_bit_identical_to_cold(self, edge_accel):
        """Each point of a neighbor-chained sweep is the cold oracle's."""
        cfg = _small_cfg(seq=256)
        # Above the one-call limit: only a planned search reads a seed.
        space = SearchSpace(exhaustive_staging=True)
        sizes = [20 * 1024, 128 * 1024, 512 * 1024, 4096 * 1024]
        clear_evaluation_cache()
        seed = None
        for size in sizes:
            sized = edge_accel.with_scratchpad_bytes(size)
            res = _seeded(cfg, sized, seed, scope=Scope.LA, space=space)
            seed = res.best.dataflow
            assert_matches_oracle(res, exhaustive_best(cfg, sized,
                                                       space=space))

    def test_stale_incumbent_is_reevaluated(self, edge_accel,
                                            cloud_accel):
        """A seed won on another accelerator is re-scored under the
        current one: the result cannot depend on where it was won."""
        cfg = _small_cfg(seq=64)
        space = SearchSpace(exhaustive_staging=True)
        clear_evaluation_cache()
        donor = search(cfg, cloud_accel, scope=Scope.LA, space=space)
        clear_evaluation_cache()
        baseline = search(cfg, edge_accel, scope=Scope.LA, space=space)
        clear_evaluation_cache()
        seeded = _seeded(cfg, edge_accel, donor.best.dataflow,
                         scope=Scope.LA, space=space)
        assert seeded.best.dataflow == baseline.best.dataflow
        assert seeded.best.cost == baseline.best.cost

    def test_seed_outside_the_space_is_rejected(self, edge_accel):
        import repro.obs as obs

        seed = flat_r(3)  # rows outside the ladder
        cfg = _small_cfg(seq=64)
        # Above the one-call limit: only a planned search reads a seed.
        space = SearchSpace(exhaustive_staging=True)
        clear_evaluation_cache()
        baseline = search(cfg, edge_accel, scope=Scope.LA, space=space,
                          retain_points=False)
        clear_evaluation_cache()
        with obs.observed() as session:
            seeded = _seeded(cfg, edge_accel, seed, scope=Scope.LA,
                             space=space)
            snap = session.registry.snapshot()
        assert snap["engine.warm_start.rejected"]["value"] == 1
        assert seeded.best.dataflow == baseline.best.dataflow
        assert seeded.best.cost == baseline.best.cost

    def test_buffer_sweep_matches_oracle(self, edge_accel):
        """Every point of a sweep helper's DSE curve is the oracle's."""
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


class TestGeneratedSeeds:
    """A seed changes the work of a planned search, never its answer.

    Drawn: a space above ``_MERGE_BATCH_LIMIT`` (exhaustive staging, or
    the default space at seq 16384), the objective, the scope, the model
    options, and a seed that is any member of the space, the winner of
    a search under another objective, scope or option set, or a
    dataflow outside the space.  The seeded list's winner and cost equal
    the unseeded search's.
    """

    _PLANNED = (
        (_small_cfg(seq=64), SearchSpace(exhaustive_staging=True)),
        (_small_cfg(batch=1, seq=16384), SearchSpace()),
    )
    _OPTIONS = (PerfOptions(), PerfOptions(flexible_mapping=False))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        workload=st.sampled_from(range(len(_PLANNED))),
        objective=st.sampled_from([Objective.RUNTIME, Objective.ENERGY,
                                   Objective.EDP]),
        scope=st.sampled_from([Scope.LA, Scope.BLOCK]),
        options=st.sampled_from(_OPTIONS),
        seed=st.one_of(
            st.tuples(st.just("member"), st.integers(min_value=0)),
            st.tuples(st.just("won"), st.sampled_from(list(Objective)),
                      st.sampled_from(list(Scope)),
                      st.sampled_from(_OPTIONS)),
            st.tuples(st.just("outside"),
                      st.sampled_from([flat_r(3), flat_r(5)])),
        ),
    )
    def test_seeded_winner_equals_unseeded(self, workload, objective,
                                           scope, options, seed):
        from repro.core import engine

        cfg, space = self._PLANNED[workload]
        accel = edge()
        table = space_table(cfg, space)
        assert table.total > engine._MERGE_BATCH_LIMIT
        kind, *draw = seed
        if kind == "member":
            dataflow = table.dataflow(draw[0] % table.total)
        elif kind == "won":
            donor_objective, donor_scope, donor_options = draw
            dataflow = search(cfg, accel, scope=donor_scope,
                              objective=donor_objective, space=space,
                              options=donor_options).best.dataflow
        else:
            dataflow = draw[0]
        fields = dict(scope=scope, objective=objective, space=space,
                      options=options)
        clear_evaluation_cache()
        unseeded = search(cfg, accel, **fields)
        clear_evaluation_cache()
        seeded = _seeded(cfg, accel, dataflow, **fields)
        assert seeded.best.dataflow == unseeded.best.dataflow
        assert seeded.best.cost == unseeded.best.cost
