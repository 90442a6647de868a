"""Unit tests for the DSE search engine (pruned / memoized).

The load-bearing property is *equivalence*: whichever path a search
takes and whatever the cache holds, the best design point it returns —
dataflow identity, cost and objective value — must match the
exhaustive oracle (``tests/oracles.py``).  Everything else (stats
invariants, bound admissibility, cache behavior) supports that
guarantee.
"""

import dataclasses

import pytest

from repro.core.dse import Objective, SearchSpace, enumerate_dataflows, search
from repro.core.engine import (
    EngineOptions,
    accelerator_fingerprint,
    clear_evaluation_cache,
    cycles_lower_bound,
    default_warm_start,
    evaluation_cache_info,
    get_default_engine,
    objective_lower_bound,
    set_default_engine,
)
from repro.core.perf import cost_scope
from repro.ops.attention import Scope
from tests.oracles import assert_matches_oracle, exhaustive_best

# The single engine route with and without its evaluation cache.
NO_CACHE = EngineOptions(cache_size=0)
FAST = EngineOptions(cache_size=8192)


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Isolate every test from cross-test memoization."""
    clear_evaluation_cache()
    yield
    clear_evaluation_cache()


class TestEquivalence:
    """Engine vs the exhaustive oracle on fixed grids."""

    def test_grid_edge_exhaustive_runtime(self, bert_512, edge_accel):
        space = SearchSpace(exhaustive_staging=True)
        oracle = exhaustive_best(bert_512, edge_accel, scope=Scope.BLOCK,
                                 space=space)
        fast = search(bert_512, edge_accel, scope=Scope.BLOCK,
                      space=space, engine=FAST, retain_points=False)
        assert_matches_oracle(fast, oracle)

    def test_grid_cloud_la_runtime(self, bert_4k, cloud_accel):
        oracle = exhaustive_best(bert_4k, cloud_accel, scope=Scope.LA)
        fast = search(bert_4k, cloud_accel, scope=Scope.LA,
                      engine=FAST, retain_points=False)
        assert_matches_oracle(fast, oracle)

    @pytest.mark.parametrize(
        "objective", [Objective.ENERGY, Objective.EDP, Objective.FOOTPRINT]
    )
    def test_every_objective_matches_naive(self, small_cfg, edge_accel,
                                           objective):
        oracle = exhaustive_best(small_cfg, edge_accel, scope=Scope.LA,
                                 objective=objective)
        for retain_points in (True, False):
            clear_evaluation_cache()
            result = search(small_cfg, edge_accel, scope=Scope.LA,
                            objective=objective, engine=FAST,
                            retain_points=retain_points)
            assert_matches_oracle(result, oracle, objective)

    def test_retained_points_match_oracle(self, small_cfg, edge_accel):
        retained = search(small_cfg, edge_accel, scope=Scope.LA,
                          engine=NO_CACHE)
        dataflows = list(enumerate_dataflows(small_cfg, edge_accel))
        assert [p.dataflow for p in retained.points] == dataflows
        assert [p.cost for p in retained.points] == [
            cost_scope(small_cfg, Scope.LA, edge_accel, df)
            for df in dataflows
        ]
        assert_matches_oracle(
            retained, exhaustive_best(small_cfg, edge_accel, scope=Scope.LA)
        )

    def test_cache_does_not_change_best(self, bert_512, edge_accel):
        space = SearchSpace(exhaustive_staging=True)
        oracle = exhaustive_best(bert_512, edge_accel, space=space)
        # Warm the per-point cache with the every-point path, then
        # search best-only: cache hits seed the incumbent before any
        # family is scored.
        search(bert_512, edge_accel, space=space, engine=FAST)
        warm = search(bert_512, edge_accel, space=space, engine=FAST,
                      retain_points=False)
        assert_matches_oracle(warm, oracle)
        assert warm.stats.cache_hits > 0


class TestBounds:
    def test_cycles_bound_admissible_over_space(self, small_cfg, edge_accel):
        space = SearchSpace(exhaustive_staging=True)
        for scope in (Scope.LA, Scope.BLOCK):
            for df in enumerate_dataflows(small_cfg, edge_accel, space):
                lb = cycles_lower_bound(small_cfg, scope, edge_accel, df)
                actual = cost_scope(small_cfg, scope, edge_accel,
                                    df).total_cycles
                assert lb <= actual, (df.name, df.staging, scope)

    def test_cycles_bound_admissible_bandwidth_bound(self, bert_4k,
                                                     edge_accel):
        # Long sequence on the edge platform: the regime where the
        # traffic floor dominates and pruning actually fires.
        for df in enumerate_dataflows(bert_4k, edge_accel):
            lb = cycles_lower_bound(bert_4k, Scope.LA, edge_accel, df)
            actual = cost_scope(bert_4k, Scope.LA, edge_accel,
                                df).total_cycles
            assert lb <= actual, (df.name, df.staging)

    def test_footprint_objective_has_no_bound(self, small_cfg, edge_accel):
        df = next(iter(enumerate_dataflows(small_cfg, edge_accel)))
        assert objective_lower_bound(
            Objective.FOOTPRINT, small_cfg, Scope.LA, edge_accel, df
        ) is None

    def test_objective_bounds_positive(self, small_cfg, edge_accel):
        df = next(iter(enumerate_dataflows(small_cfg, edge_accel)))
        for objective in (Objective.RUNTIME, Objective.ENERGY,
                          Objective.EDP):
            lb = objective_lower_bound(
                objective, small_cfg, Scope.LA, edge_accel, df
            )
            assert lb is not None and lb > 0


class TestStats:
    def test_invariant_and_pruning_fires(self, bert_4k, edge_accel):
        space = SearchSpace(exhaustive_staging=True)
        res = search(bert_4k, edge_accel, scope=Scope.LA, space=space,
                     engine=FAST, retain_points=False)
        s = res.stats
        assert s.enumerated == s.cache_hits + s.pruned + s.evaluated
        assert s.pruned > 0
        assert s.wall_time_s > 0

    def test_no_pruning_when_points_retained(self, small_cfg, edge_accel):
        res = search(small_cfg, edge_accel, engine=FAST)  # retain default
        assert res.stats.pruned == 0
        assert len(res.points) == res.stats.enumerated

    def test_no_pruning_for_footprint(self, small_cfg, edge_accel):
        res = search(small_cfg, edge_accel, objective=Objective.FOOTPRINT,
                     engine=FAST, retain_points=False)
        assert res.stats.pruned == 0

    def test_repeat_search_is_all_cache_hits(self, small_cfg, edge_accel):
        first = search(small_cfg, edge_accel, engine=FAST,
                       retain_points=False)
        second = search(small_cfg, edge_accel, engine=FAST,
                        retain_points=False)
        # Served from the winner memo: every point counts as a hit.
        assert second.stats.cache_hits == first.stats.enumerated
        assert second.stats.evaluated == second.stats.pruned == 0
        assert second.best == first.best

    def test_cache_size_zero_disables_memoization(self, small_cfg,
                                                  edge_accel):
        search(small_cfg, edge_accel, engine=NO_CACHE)
        search(small_cfg, edge_accel, engine=NO_CACHE, retain_points=False)
        assert evaluation_cache_info()["entries"] == 0

    def test_stats_validation(self):
        from repro.core.engine import SearchStats

        with pytest.raises(ValueError):
            SearchStats(enumerated=3, evaluated=1, pruned=1, cache_hits=0,
                        wall_time_s=0.0)


class TestRetainPoints:
    def test_fast_path_returns_no_points(self, small_cfg, edge_accel):
        res = search(small_cfg, edge_accel, engine=FAST,
                     retain_points=False)
        assert res.points == ()
        assert res.best.energy is not None  # winner's energy still derived

    def test_retained_points_carry_energy(self, small_cfg, edge_accel):
        res = search(small_cfg, edge_accel, engine=FAST)
        assert res.points
        assert all(p.energy is not None for p in res.points)


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineOptions(cache_size=-1)
        assert [f.name for f in dataclasses.fields(EngineOptions)] == [
            "cache_size", "warm_start",
        ]

    def test_default_warm_start_contextmanager(self):
        before = get_default_engine()
        with default_warm_start(not before.warm_start):
            assert get_default_engine().warm_start is not before.warm_start
        assert get_default_engine() == before
        with default_warm_start(None):  # None leaves the default untouched
            assert get_default_engine() == before

    def test_set_default_engine_roundtrip(self):
        previous = set_default_engine(EngineOptions(cache_size=7))
        try:
            assert get_default_engine().cache_size == 7
        finally:
            set_default_engine(previous)


class TestFingerprint:
    def test_name_excluded(self, edge_accel):
        renamed = dataclasses.replace(edge_accel, name="other")
        assert accelerator_fingerprint(renamed) == accelerator_fingerprint(
            edge_accel
        )

    def test_scratchpad_included(self, edge_accel):
        resized = edge_accel.with_scratchpad_bytes(
            edge_accel.sg_bytes * 2
        )
        assert accelerator_fingerprint(resized) != accelerator_fingerprint(
            edge_accel
        )
