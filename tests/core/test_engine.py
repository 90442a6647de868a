"""Unit tests for the DSE search engine (pruned / memoized).

The load-bearing property is *equivalence*: whichever path a search
takes and whatever the cache holds, the best design point it returns —
dataflow identity, cost and objective value — must match the
exhaustive oracle (``tests/oracles.py``).  Everything else (stats
invariants, bound admissibility, cache behavior) supports that
guarantee.
"""

import dataclasses
import pickle

import pytest

from repro.core import engine
from repro.core.cache import default_cache_dir
from repro.core.candidates import objective_lower_bound
from repro.core.dataflow import AttentionVariant, Granularity, Stationarity
from repro.core.dse import Objective, SearchSpace, enumerate_dataflows, search
from repro.core.engine import (
    SearchRequest,
    SearchStats,
    accelerator_fingerprint,
    clear_evaluation_cache,
    evaluate_cost,
    evaluation_cache_info,
    run_searches,
)
from repro.core.perf import cost_scope
from repro.energy.model import energy_report
from repro.ops.attention import Scope
from tests.oracles import assert_matches_oracle, exhaustive_best


def _seeded(cfg, accel, seed, **fields):
    """A best-only search seeded with the dataflow ``seed``."""
    (result,) = run_searches([SearchRequest(cfg, accel, warm_start=seed,
                                            **fields)])
    return result


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
                      space=space, retain_points=False)
        assert_matches_oracle(fast, oracle)

    def test_grid_cloud_la_runtime(self, bert_4k, cloud_accel):
        oracle = exhaustive_best(bert_4k, cloud_accel, scope=Scope.LA)
        fast = search(bert_4k, cloud_accel, scope=Scope.LA,
                      retain_points=False)
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
                            objective=objective, retain_points=retain_points)
            assert_matches_oracle(result, oracle, objective)

    def test_retained_points_match_oracle(self, small_cfg, edge_accel):
        retained = search(small_cfg, edge_accel, scope=Scope.LA,
                          retain_points=True)
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
        # The every-point answer of the space is cached, but no point
        # is: the best-only search misses its own memo and scores the
        # space, then its repeat is the memo's hit.
        search(bert_512, edge_accel, space=space, retain_points=True)
        warm = search(bert_512, edge_accel, space=space, retain_points=False)
        assert_matches_oracle(warm, oracle)
        assert warm.stats.cache_hits == 0 and warm.stats.evaluated == 1
        again = search(bert_512, edge_accel, space=space,
                       retain_points=False)
        assert again.best == warm.best
        assert again.stats.cache_hits == again.stats.enumerated


class TestBounds:
    def test_cycles_bound_admissible_over_space(self, small_cfg, edge_accel):
        space = SearchSpace(exhaustive_staging=True)
        for scope in (Scope.LA, Scope.BLOCK):
            for df in enumerate_dataflows(small_cfg, edge_accel, space):
                lb = objective_lower_bound(Objective.RUNTIME, small_cfg,
                                           scope, edge_accel, df)
                actual = cost_scope(small_cfg, scope, edge_accel,
                                    df).total_cycles
                assert lb <= actual, (df.name, df.staging, scope)

    def test_cycles_bound_admissible_bandwidth_bound(self, bert_4k,
                                                     edge_accel):
        # Long sequence on the edge platform: the regime where the
        # traffic floor dominates and pruning actually fires.
        for df in enumerate_dataflows(bert_4k, edge_accel):
            lb = objective_lower_bound(Objective.RUNTIME, bert_4k,
                                       Scope.LA, edge_accel, df)
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
                     retain_points=False)
        s = res.stats
        assert s.enumerated == s.cache_hits + s.pruned + s.evaluated
        assert s.pruned > 0
        assert s.wall_time_s > 0

    def test_no_pruning_when_points_retained(self, small_cfg, edge_accel):
        res = search(small_cfg, edge_accel, retain_points=True)
        assert res.stats.pruned == 0
        assert len(res.points) == res.stats.enumerated

    def test_no_pruning_for_footprint(self, small_cfg, edge_accel):
        """FOOTPRINT has no bound: no family or candidate is skipped;
        every candidate is scored on the grid, and ``pruned`` books only
        the batch-scored losers."""
        res = search(small_cfg, edge_accel, objective=Objective.FOOTPRINT,
                     retain_points=False)
        s = res.stats
        assert s.families_pruned == s.candidates_skipped == 0
        assert s.batch_evaluations == s.enumerated
        assert s.pruned == s.batch_evaluations - 1

    def test_repeat_search_is_all_cache_hits(self, small_cfg, edge_accel):
        first = search(small_cfg, edge_accel, retain_points=False)
        second = search(small_cfg, edge_accel, retain_points=False)
        # Served from the winner memo: every point counts as a hit.
        assert second.stats.cache_hits == first.stats.enumerated
        assert second.stats.evaluated == second.stats.pruned == 0
        assert second.best == first.best

    def test_lru_capacity_is_fixed(self, small_cfg, edge_accel):
        search(small_cfg, edge_accel)
        info = evaluation_cache_info()
        assert info["maxsize"] == 8192
        assert 0 < info["entries"] <= info["maxsize"]

    def test_stats_validation(self):
        from repro.core.engine import SearchStats

        with pytest.raises(ValueError):
            SearchStats(enumerated=3, evaluated=1, pruned=1, cache_hits=0,
                        wall_time_s=0.0)


class TestMemoHitSkipsPlanning:
    """A memoized best-only answer neither plans the space nor expands a
    family: it carries its winner and the space size.  The space is
    above the one-call limit, so a miss plans."""

    _SPACE = SearchSpace(exhaustive_staging=True)

    @pytest.fixture()
    def plans(self, monkeypatch):
        calls = []
        real = engine.plan_candidates

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "plan_candidates", counting)
        return calls

    @staticmethod
    def _hit_stats(cold: SearchStats, hit: SearchStats,
                   disk: bool) -> SearchStats:
        n = cold.enumerated
        return SearchStats(enumerated=n, evaluated=0, pruned=0,
                           cache_hits=n, wall_time_s=hit.wall_time_s,
                           disk_hits=n if disk else 0)

    def test_lru_and_disk_hits_make_no_plans(self, plans, tmp_path,
                                             bert_4k, edge_accel):
        space = self._SPACE
        with default_cache_dir(str(tmp_path)):
            cold = search(bert_4k, edge_accel, space=space,
                          retain_points=False)
            assert len(plans) == 1
            lru = search(bert_4k, edge_accel, space=space,
                         retain_points=False)
            clear_evaluation_cache()
            disk = search(bert_4k, edge_accel, space=space,
                          retain_points=False)
        assert len(plans) == 1
        assert lru.best == disk.best == cold.best
        assert lru.stats == self._hit_stats(cold.stats, lru.stats, False)
        assert disk.stats == self._hit_stats(cold.stats, disk.stats, True)

    def test_warm_started_sweep_point_hit_makes_no_plans(
        self, plans, bert_4k, edge_accel
    ):
        space = self._SPACE
        small = edge_accel.with_scratchpad_bytes(edge_accel.sg_bytes // 4)
        neighbor = search(bert_4k, small, space=space, retain_points=False)
        warm = neighbor.best.dataflow
        cold = _seeded(bert_4k, edge_accel, warm, space=space)
        assert len(plans) == 2
        again = _seeded(bert_4k, edge_accel, warm, space=space)
        assert len(plans) == 2
        assert again.best == cold.best
        assert again.stats == self._hit_stats(cold.stats, again.stats, False)
        assert_matches_oracle(cold, exhaustive_best(bert_4k, edge_accel,
                                                    space=space))

    def test_planned_miss_lists_the_families_once(self, plans, monkeypatch,
                                                  bert_4k, edge_accel):
        """The plan bounds the space table's families: a cold planned
        search lists them once, in the memoized family columns both its
        table and its plan read."""
        from repro.core import candidates

        listed = []
        real = candidates.query_families

        def families(*args, **kwargs):
            listed.append(args)
            return real(*args, **kwargs)

        candidates.family_columns.cache_clear()
        monkeypatch.setattr(candidates, "query_families", families)
        res = search(bert_4k, edge_accel, space=self._SPACE,
                     retain_points=False)
        assert len(plans) == 1
        assert len(listed) == 1
        assert_matches_oracle(res, exhaustive_best(bert_4k, edge_accel,
                                                   space=self._SPACE))


class TestOneCallRoute:
    """A best-only space of at most ``_MERGE_BATCH_LIMIT`` candidates is
    scored whole in one grid call: no plan, no bounds, no warm seed."""

    # Per stationarity: plain Base plus one R family with every staging
    # corner (1 + 31), so exactly 96 candidates.
    _SPACE = SearchSpace(
        stationarities=tuple(Stationarity),
        granularities=(Granularity.R,),
        row_choices=(16,),
        exhaustive_staging=True,
    )

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = {"plan": 0, "grid": 0}
        real_plan, real_grid = engine.plan_candidates, engine.evaluate_grid

        def plan(*args, **kwargs):
            calls["plan"] += 1
            return real_plan(*args, **kwargs)

        def grid(*args, **kwargs):
            calls["grid"] += 1
            return real_grid(*args, **kwargs)

        monkeypatch.setattr(engine, "plan_candidates", plan)
        monkeypatch.setattr(engine, "evaluate_grid", grid)
        return calls

    @pytest.mark.parametrize("above", [False, True],
                             ids=["at-limit", "limit-plus-one"])
    @pytest.mark.parametrize("scope", [Scope.LA, Scope.BLOCK, Scope.MODEL])
    @pytest.mark.parametrize(
        "objective", [Objective.RUNTIME, Objective.ENERGY, Objective.EDP]
    )
    def test_boundary(self, calls, monkeypatch, small_cfg, edge_accel,
                      above, scope, objective):
        n = len(list(enumerate_dataflows(small_cfg, edge_accel,
                                         self._SPACE)))
        assert n == engine._MERGE_BATCH_LIMIT == 96
        if above:
            # No space has exactly 97 candidates; lowering the limit by
            # one makes this one the limit plus one.
            monkeypatch.setattr(engine, "_MERGE_BATCH_LIMIT", n - 1)
        res = search(small_cfg, edge_accel, scope=scope,
                     objective=objective, space=self._SPACE,
                     retain_points=False)
        assert_matches_oracle(
            res, exhaustive_best(small_cfg, edge_accel, scope=scope,
                                 objective=objective, space=self._SPACE),
            objective,
        )
        s = res.stats
        assert s.enumerated == n
        assert s.enumerated == s.cache_hits + s.pruned + s.evaluated
        if above:
            assert calls["plan"] == 1
        else:
            assert calls == {"plan": 0, "grid": 1}
            assert s.candidates_generated == s.batch_evaluations == n
            assert s.evaluated == 1 and s.families_pruned == 0

    def test_ledger_cold_and_warm_seeded(self, calls, bert_512, edge_accel):
        space = SearchSpace()
        n = len(list(enumerate_dataflows(bert_512, edge_accel, space)))
        assert n <= engine._MERGE_BATCH_LIMIT
        cold = search(bert_512, edge_accel, space=space,
                      retain_points=False)
        small = edge_accel.with_scratchpad_bytes(edge_accel.sg_bytes // 4)
        warm = search(bert_512, small, space=space,
                      retain_points=False).best.dataflow
        clear_evaluation_cache()
        seeded = _seeded(bert_512, edge_accel, warm, space=space)
        assert calls == {"plan": 0, "grid": 3}
        assert seeded.best == cold.best
        assert_matches_oracle(seeded, exhaustive_best(bert_512, edge_accel))
        for s in (cold.stats, seeded.stats):
            assert s.enumerated == n
            assert s.enumerated == s.cache_hits + s.pruned + s.evaluated
            assert s.batch_evaluations == s.candidates_generated == n
            assert s.candidates_skipped == s.families_pruned == 0
        assert seeded.stats == dataclasses.replace(
            cold.stats, wall_time_s=seeded.stats.wall_time_s)


class TestFootprintOnTheGrid:
    """A best-only ``FOOTPRINT`` search has no bounds: at any size it is
    one grid call over the whole space table, plus the winner's
    breakdown."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = {"plan": 0, "grid": 0}
        real_plan, real_grid = engine.plan_candidates, engine.evaluate_grid

        def plan(*args, **kwargs):
            calls["plan"] += 1
            return real_plan(*args, **kwargs)

        def grid(*args, **kwargs):
            calls["grid"] += 1
            return real_grid(*args, **kwargs)

        monkeypatch.setattr(engine, "plan_candidates", plan)
        monkeypatch.setattr(engine, "evaluate_grid", grid)
        return calls

    @pytest.mark.parametrize("scope", [Scope.LA, Scope.BLOCK, Scope.MODEL])
    @pytest.mark.parametrize("large", [False, True],
                             ids=["small", "past-merge-limit"])
    def test_one_call_matches_oracle(self, calls, small_cfg, edge_accel,
                                     scope, large):
        space = (SearchSpace(exhaustive_staging=True,
                             stationarities=tuple(Stationarity))
                 if large else SearchSpace())
        n = len(list(enumerate_dataflows(small_cfg, edge_accel, space)))
        assert (n > engine._MERGE_BATCH_LIMIT) == large
        res = search(small_cfg, edge_accel, scope=scope,
                     objective=Objective.FOOTPRINT, space=space,
                     retain_points=False)
        assert_matches_oracle(
            res, exhaustive_best(small_cfg, edge_accel, scope=scope,
                                 objective=Objective.FOOTPRINT, space=space),
            Objective.FOOTPRINT,
        )
        assert calls == {"plan": 0, "grid": 1}
        s = res.stats
        assert s.enumerated == s.batch_evaluations == n
        assert s.evaluated == 1 and s.families_pruned == 0


class TestSpaceTableReuse:
    """One table per ``(batch, heads, seq_q, space)``: a search of the
    same space on another accelerator builds none, and builds a
    ``Dataflow`` only for its winner and its warm seed."""

    _SPACE = SearchSpace(exhaustive_staging=True)

    @pytest.fixture()
    def counts(self, monkeypatch):
        from repro.core.dataflow import Dataflow

        counts = {"tables": 0, "dataflows": 0}
        real_table = engine.space_table
        real_init = Dataflow.__post_init__
        real_cost = engine.cost_scope
        scalar = []

        def table(*args, **kwargs):
            counts["tables"] += 1
            return real_table(*args, **kwargs)

        def init(self):
            # The scalar model's own helpers (cost_scope builds the
            # plain Base it runs non-L-A operators with) are not the
            # engine's doing.
            if not scalar:
                counts["dataflows"] += 1
            real_init(self)

        def cost(*args, **kwargs):
            scalar.append(1)
            try:
                return real_cost(*args, **kwargs)
            finally:
                scalar.pop()

        monkeypatch.setattr(engine, "space_table", table)
        monkeypatch.setattr(Dataflow, "__post_init__", init)
        monkeypatch.setattr(engine, "cost_scope", cost)
        return counts

    def test_other_accelerator_builds_no_table(self, counts, bert_4k,
                                               edge_accel, cloud_accel):
        space = self._SPACE
        first = search(bert_4k, edge_accel, space=space, retain_points=False)
        assert counts["tables"] == 1
        counts["dataflows"] = 0
        again = _seeded(bert_4k, cloud_accel, first.best.dataflow,
                        space=space)
        assert counts["tables"] == 1
        assert counts["dataflows"] <= 2  # the winner and the warm seed
        assert_matches_oracle(again, exhaustive_best(bert_4k, cloud_accel,
                                                     space=space))

    def test_one_call_route_builds_only_the_winner(self, counts, bert_512,
                                                   edge_accel, cloud_accel):
        search(bert_512, edge_accel, retain_points=False)
        counts["dataflows"] = 0
        res = search(bert_512, cloud_accel, scope=Scope.BLOCK,
                     retain_points=False)
        assert counts == {"tables": 1, "dataflows": 1}
        assert_matches_oracle(res, exhaustive_best(bert_512, cloud_accel,
                                                   scope=Scope.BLOCK))

    def test_threads_on_one_new_space(self, bert_4k, edge_accel):
        """Threads racing on a space no search has seen may each build
        its table; every one gets the oracle's answer."""
        import sys
        import threading

        space = self._SPACE
        workers = 4  # more than the cores of a CI runner
        barrier = threading.Barrier(workers)
        results = [None] * workers

        def run(slot):
            barrier.wait(timeout=60)
            results[slot] = search(bert_4k, edge_accel, space=space,
                                   retain_points=False)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        oracle = exhaustive_best(bert_4k, edge_accel, space=space)
        for result in results:
            assert_matches_oracle(result, oracle)


class TestWinnerBreakdown:
    """A grid-scored winner's breakdown comes from its grid lane: equal
    to ``cost_scope``, pickled bytes included, with no scalar run."""

    @pytest.fixture()
    def scalar(self, monkeypatch):
        calls = []
        real = engine.cost_scope

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "cost_scope", counting)
        return calls

    @pytest.mark.parametrize("scope", [Scope.LA, Scope.BLOCK, Scope.MODEL])
    @pytest.mark.parametrize(
        "space", [SearchSpace(), SearchSpace(exhaustive_staging=True)],
        ids=["one-call", "planned"])
    def test_winner_from_its_lane(self, scalar, bert_512, edge_accel,
                                  scope, space):
        res = search(bert_512, edge_accel, scope=scope, space=space,
                     objective=Objective.EDP, retain_points=False)
        want = cost_scope(bert_512, scope, edge_accel, res.best.dataflow)
        assert res.best.cost == want
        assert pickle.dumps(res.best.cost) == pickle.dumps(want)
        assert scalar == []
        assert res.stats.evaluated == 1 and res.stats.cache_hits == 0

    def test_warm_seed_is_costed_by_the_scalar_model(
        self, scalar, bert_512, edge_accel, cloud_accel
    ):
        space = SearchSpace(exhaustive_staging=True)
        seed = search(bert_512, cloud_accel, space=space,
                      retain_points=False).best.dataflow
        assert scalar == []
        res = _seeded(bert_512, edge_accel, seed, space=space)
        # The seed is re-evaluated by the scalar model; the winner takes
        # its breakdown from the lane that scored it.
        assert len(scalar) == 1
        assert_matches_oracle(res, exhaustive_best(bert_512, edge_accel,
                                                   space=space))
        assert res.stats.evaluated == 1 and res.stats.cache_hits == 0

    def test_winning_seed_takes_its_lane_breakdown(self, scalar, bert_512,
                                                   edge_accel):
        """A seed that wins is scored again with its family, and that
        score replaces it: the winner's cost comes from its lane, and
        the search books one breakdown, as an unseeded one does."""
        space = SearchSpace(exhaustive_staging=True)
        cold = search(bert_512, edge_accel, space=space, retain_points=False)
        seed = cold.best.dataflow
        clear_evaluation_cache()
        res = _seeded(bert_512, edge_accel, seed, space=space)
        assert len(scalar) == 1  # the seed
        assert res.best.dataflow == seed
        want = cost_scope(bert_512, Scope.LA, edge_accel, seed)
        assert pickle.dumps(res.best.cost) == pickle.dumps(want)
        assert res.best == cold.best
        assert res.stats.evaluated == 1 and res.stats.cache_hits == 0


class TestRetainPoints:
    def test_fast_path_returns_no_points(self, small_cfg, edge_accel):
        res = search(small_cfg, edge_accel, retain_points=False)
        assert res.points == ()
        assert res.best.energy is not None  # winner's energy still derived

    def test_retained_points_carry_energy(self, small_cfg, edge_accel):
        res = search(small_cfg, edge_accel, retain_points=True)
        assert res.points
        assert all(p.energy is not None for p in res.points)

    def test_each_member_is_built_once(self, monkeypatch, small_cfg,
                                       edge_accel):
        """A cold every-point search builds each member's ``Dataflow``
        once, for its breakdown and its point; a memo hit builds each
        once for its point."""
        from repro.core.candidates import SpaceTable

        built = []
        real = SpaceTable.dataflow

        def dataflow(table, index):
            built.append(index)
            return real(table, index)

        monkeypatch.setattr(SpaceTable, "dataflow", dataflow)
        cold = search(small_cfg, edge_accel, retain_points=True)
        n = cold.stats.enumerated
        assert sorted(built) == list(range(n))
        built.clear()
        hit = search(small_cfg, edge_accel, retain_points=True)
        assert sorted(built) == list(range(n))
        assert hit.points == cold.points

    @pytest.mark.parametrize("scope", [Scope.LA, Scope.BLOCK, Scope.MODEL])
    def test_grid_points_equal_the_scalar_route(self, monkeypatch,
                                                small_cfg, edge_accel,
                                                scope):
        """Points, stats and winner equal the route that costs every
        point with the scalar model, to the pickle bytes.  Every point
        is booked as evaluated: the lineup answers cached before hold
        no point the search could reuse."""
        space = SearchSpace(variants=(AttentionVariant.SOFTMAX,
                                      AttentionVariant.FLASH_D))
        dataflows = list(enumerate_dataflows(small_cfg, edge_accel, space))

        def run():
            clear_evaluation_cache()
            for df in dataflows[2:4]:  # two lineup answers in the LRU
                evaluate_cost(small_cfg, scope, edge_accel, df)
            return search(small_cfg, edge_accel, scope=scope, space=space,
                          objective=Objective.EDP, retain_points=True)

        grids = []
        real_grid = engine.evaluate_grid

        def counting(*args, **kwargs):
            grids.append(1)
            return real_grid(*args, **kwargs)

        monkeypatch.setattr(engine, "evaluate_grid", counting)
        on_grid = run()
        assert len(grids) == 1
        costs = [cost_scope(small_cfg, scope, edge_accel, df)
                 for df in dataflows]
        assert [p.dataflow for p in on_grid.points] == dataflows
        assert [p.cost for p in on_grid.points] == costs
        assert (pickle.dumps([p.cost for p in on_grid.points])
                == pickle.dumps(costs))
        assert [p.energy for p in on_grid.points] == [
            energy_report(cost.counts) for cost in costs]
        assert_matches_oracle(
            on_grid, exhaustive_best(small_cfg, edge_accel, scope=scope,
                                     objective=Objective.EDP, space=space),
            Objective.EDP)
        n = len(dataflows)
        assert dataclasses.replace(on_grid.stats, wall_time_s=0.0) == (
            SearchStats(enumerated=n, evaluated=n, pruned=0, cache_hits=0,
                        wall_time_s=0.0))


class TestAnswersNotPoints:
    """The LRU memoizes answers — searches, every-point costs, fixed
    lineups, scale-outs — and space tables, never a single point."""

    _TAGS = {"search", "points", "cost", "space", "scaleout-memo"}

    def test_no_per_point_key(self, small_cfg, edge_accel):
        from repro.core.engine import CostRequest, evaluate_costs
        from repro.core.scaleout import ScaleoutSystem, search_scaleout

        space = SearchSpace(exhaustive_staging=True)
        search(small_cfg, edge_accel, space=space, retain_points=False)
        search(small_cfg, edge_accel, scope=Scope.BLOCK, retain_points=True)
        lineup = list(enumerate_dataflows(small_cfg, edge_accel))[:3]
        evaluate_costs([CostRequest(small_cfg, Scope.LA, edge_accel, df)
                        for df in lineup])
        search_scaleout(small_cfg, ScaleoutSystem(chip=edge_accel), 2)
        # A per-point key was (cfg, accelerator fingerprint, dataflow,
        # options, scope); every key here names its kind first.
        assert {key[0] for key in engine._CACHE._data} == self._TAGS

    def test_misses_book_what_they_build(self, small_cfg, edge_accel):
        n = len(list(enumerate_dataflows(small_cfg, edge_accel)))
        best = search(small_cfg, edge_accel, retain_points=False)
        assert best.stats.evaluated == 1 and best.stats.cache_hits == 0
        # The same space's every points: a miss, whatever the best-only
        # search scored.
        every = search(small_cfg, edge_accel, retain_points=True)
        assert every.stats.evaluated == every.stats.enumerated == n
        assert every.stats.cache_hits == 0
        # And the best-only answer of another scope misses again.
        block = search(small_cfg, edge_accel, scope=Scope.BLOCK,
                       retain_points=False)
        assert block.stats.evaluated == 1 and block.stats.cache_hits == 0


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
