"""Equivalence tests for the vectorized batch backend.

The contract under test is *bit-for-bit* agreement with the scalar
cost model: for every candidate in the enumerated grid,
:func:`repro.core.batch.evaluate_grid` must reproduce
``cost_scope``'s cycles, DRAM bytes, footprint and activity counts
exactly (``==``, not approx), and ``np.argmin`` over the score array
must land on the same index as the engine's first-strictly-less scan,
so tie-breaking survives vectorization.  The engine-level tests then
check that ``run_search`` returns the exhaustive oracle's best point on
both sides of the float64-exactness guard and that the accounting
fields behave.
"""

import random

import pytest

from repro.arch.presets import cloud, edge
from repro.core import batch as batch_backend
from repro.core.batch import (
    BatchFallback,
    best_index,
    evaluate_grid,
)
from repro.core.dse import (
    Objective,
    SearchSpace,
    enumerate_dataflows,
    search,
)
from repro.core.engine import EngineOptions, clear_evaluation_cache
from repro.core.dataflow import Granularity
from repro.core.perf import cost_scope
from repro.energy.model import energy_report
from repro.ops.attention import AttentionConfig, Scope
from tests.oracles import assert_matches_oracle, exhaustive_best

BATCH = EngineOptions(cache_size=8192)

_SCOPES = (Scope.LA, Scope.BLOCK, Scope.MODEL)


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Isolate every test from cross-test memoization."""
    clear_evaluation_cache()
    yield
    clear_evaluation_cache()


def _grid(cfg, accel, space=SearchSpace()):
    return list(enumerate_dataflows(cfg, accel, space))


def _scalar_scores(cfg, scope, accel, dataflows, objective):
    scores = []
    for df in dataflows:
        cost = cost_scope(cfg, scope, accel, df)
        energy = (
            energy_report(cost.counts)
            if objective in (Objective.ENERGY, Objective.EDP)
            else None
        )
        scores.append(objective.score(cost, energy))
    return scores


def _first_min_index(scores):
    best = 0
    for i in range(1, len(scores)):
        if scores[i] < scores[best]:
            best = i
    return best


def _assert_grid_matches_scalar(cfg, scope, accel, dataflows):
    grid = evaluate_grid(cfg, scope, accel, dataflows)
    assert len(grid) == len(dataflows)
    for i, df in enumerate(dataflows):
        cost = cost_scope(cfg, scope, accel, df)
        label = (df.name, df.staging, scope)
        assert float(grid.total_cycles[i]) == float(cost.total_cycles), label
        assert float(grid.dram_bytes[i]) == float(cost.dram_bytes), label
        assert int(grid.footprint_bytes[i]) == cost.max_footprint_bytes, label
        counts = cost.counts
        assert float(grid.macs[i]) == counts.macs, label
        assert float(grid.sl_words[i]) == counts.sl_words, label
        assert float(grid.sg_words[i]) == counts.sg_words, label
        assert float(grid.dram_words[i]) == counts.dram_words, label
        assert float(grid.sfu_ops[i]) == counts.sfu_ops, label
    return grid


class TestGridEquivalence:
    """evaluate_grid vs a per-candidate cost_scope loop, exact equality."""

    @pytest.mark.parametrize("scope", _SCOPES)
    def test_small_cfg_every_scope(self, small_cfg, edge_accel, scope):
        _assert_grid_matches_scalar(
            small_cfg, scope, edge_accel, _grid(small_cfg, edge_accel)
        )

    def test_bert512_edge_exhaustive_staging(self, bert_512, edge_accel):
        space = SearchSpace(exhaustive_staging=True)
        _assert_grid_matches_scalar(
            bert_512, Scope.BLOCK, edge_accel,
            _grid(bert_512, edge_accel, space),
        )

    def test_bert4k_cloud(self, bert_4k, cloud_accel):
        _assert_grid_matches_scalar(
            bert_4k, Scope.LA, cloud_accel, _grid(bert_4k, cloud_accel)
        )

    @pytest.mark.parametrize("platform", ["edge", "cloud"])
    def test_seeded_random_workloads(self, platform):
        """Seeded sweep over random shapes x scopes x sequence lengths."""
        rng = random.Random(0x46AC1 + (platform == "cloud"))
        accel = edge() if platform == "edge" else cloud()
        for _ in range(4):
            heads = rng.choice([2, 4, 8])
            d_model = heads * rng.choice([32, 64])
            seq = rng.choice([16, 48, 160, 512])
            cfg = AttentionConfig(
                name=f"rand-{platform}", batch=rng.choice([1, 2, 4]),
                heads=heads, d_model=d_model, seq_q=seq, seq_kv=seq,
                d_ff=4 * d_model, num_blocks=rng.choice([1, 3]),
            )
            scope = rng.choice(_SCOPES)
            _assert_grid_matches_scalar(
                cfg, scope, accel, _grid(cfg, accel)
            )

    def test_empty_grid_rejected(self, small_cfg, edge_accel):
        with pytest.raises(ValueError):
            evaluate_grid(small_cfg, Scope.LA, edge_accel, [])


class TestObjectiveScores:
    """Score arrays and argmin tie-breaking vs the scalar scan."""

    @pytest.mark.parametrize("objective", list(Objective))
    def test_scores_and_argmin_match_scalar(self, bert_512, edge_accel,
                                            objective):
        dataflows = _grid(bert_512, edge_accel)
        grid = evaluate_grid(bert_512, Scope.LA, edge_accel, dataflows)
        scores = grid.objective_scores(objective)
        expected = _scalar_scores(
            bert_512, Scope.LA, edge_accel, dataflows, objective
        )
        assert [float(s) for s in scores] == expected
        assert best_index(scores) == _first_min_index(expected)

    @pytest.mark.parametrize("scope", _SCOPES)
    def test_argmin_over_scopes(self, small_cfg, cloud_accel, scope):
        dataflows = _grid(small_cfg, cloud_accel)
        grid = evaluate_grid(small_cfg, scope, cloud_accel, dataflows)
        for objective in Objective:
            expected = _scalar_scores(
                small_cfg, scope, cloud_accel, dataflows, objective
            )
            assert best_index(grid.objective_scores(objective)) == (
                _first_min_index(expected)
            ), (scope, objective)


class TestEngineEquivalence:
    """run_search vs the exhaustive scalar oracle: identical winner."""

    @pytest.mark.parametrize("objective", list(Objective))
    def test_every_objective(self, bert_512, edge_accel, objective):
        oracle = exhaustive_best(bert_512, edge_accel, scope=Scope.LA,
                                 objective=objective)
        fast = search(bert_512, edge_accel, scope=Scope.LA,
                      objective=objective, engine=BATCH,
                      retain_points=False)
        assert_matches_oracle(fast, oracle, objective)

    @pytest.mark.parametrize("scope", _SCOPES)
    def test_every_scope(self, small_cfg, cloud_accel, scope):
        oracle = exhaustive_best(small_cfg, cloud_accel, scope=scope)
        fast = search(small_cfg, cloud_accel, scope=scope, engine=BATCH,
                      retain_points=False)
        assert_matches_oracle(fast, oracle)

    def test_exhaustive_staging_grid(self, bert_4k, edge_accel):
        space = SearchSpace(exhaustive_staging=True)
        oracle = exhaustive_best(bert_4k, edge_accel, scope=Scope.LA,
                                 space=space)
        fast = search(bert_4k, edge_accel, scope=Scope.LA, space=space,
                      engine=BATCH, retain_points=False)
        assert_matches_oracle(fast, oracle)


class TestStats:
    def test_cold_search_accounting(self, small_cfg, edge_accel):
        res = search(small_cfg, edge_accel, engine=BATCH,
                     retain_points=False)
        s = res.stats
        # Every generated candidate went through the array path; the
        # winner alone got the scalar breakdown, the losers are booked
        # as pruned.
        assert s.batch_evaluations == s.candidates_generated
        assert s.evaluated == 1
        assert s.cache_hits == 0
        assert s.enumerated == s.cache_hits + s.pruned + s.evaluated

    def test_cold_candidate_accounting(self, small_cfg, edge_accel):
        res = search(small_cfg, edge_accel, engine=BATCH,
                     retain_points=False)
        s = res.stats
        # The generated front end never expands skipped families, so
        # fewer candidates hit the array than were (virtually)
        # enumerated; the ledger invariant still balances.
        assert s.candidates_generated + s.candidates_skipped >= s.enumerated
        assert s.batch_evaluations < s.enumerated
        assert s.enumerated == s.cache_hits + s.pruned + s.evaluated

    def test_memo_hit_skips_the_grid(self, small_cfg, edge_accel):
        first = search(small_cfg, edge_accel, engine=BATCH,
                       retain_points=False)
        second = search(small_cfg, edge_accel, engine=BATCH,
                        retain_points=False)
        assert first.best.dataflow == second.best.dataflow
        assert second.stats.batch_evaluations == 0
        assert second.stats.evaluated == 0
        assert second.stats.cache_hits == second.stats.enumerated

    def test_retain_points_stays_scalar(self, small_cfg, edge_accel):
        res = search(small_cfg, edge_accel, engine=BATCH)  # retain default
        assert res.stats.batch_evaluations == 0
        assert len(res.points) == res.stats.enumerated
        assert all(p.energy is not None for p in res.points)

    def test_validation(self):
        from repro.core.engine import SearchStats

        with pytest.raises(ValueError):
            SearchStats(enumerated=1, evaluated=1, pruned=0, cache_hits=0,
                        wall_time_s=0.0, batch_evaluations=-1)


def _edge_cfg(batch: int) -> AttentionConfig:
    """A workload whose L-A pair has ``2 * batch * 2**45`` MACs."""
    return AttentionConfig(
        name=f"edge-b{batch}", batch=batch, heads=16, d_model=1024,
        seq_q=2 ** 17, seq_kv=2 ** 17, d_ff=4096, num_blocks=1,
    )


class TestFallback:
    """Workloads beyond the float64-exactness guard: scalar scoring."""

    # 64 * 16 * 262144^2 * 64 = 2^52 MACs in the logit operator alone,
    # past the 2^50 static ceiling.
    _HUGE = AttentionConfig(
        name="huge", batch=64, heads=16, d_model=1024,
        seq_q=262144, seq_kv=262144, d_ff=4096, num_blocks=1,
    )
    # A narrow space keeps the scalar oracle sweep fast.
    _SPACE = SearchSpace(
        allow_unfused=False, granularities=(Granularity.R,),
        row_choices=(64,), include_plain_base=False,
    )
    # Every R row count of the default ladder: several families, so
    # family pruning has something to prune.
    _LADDER = SearchSpace(allow_unfused=False,
                          granularities=(Granularity.R,),
                          include_plain_base=False)

    def test_grid_raises(self, edge_accel):
        dataflows = _grid(self._HUGE, edge_accel, self._SPACE)
        with pytest.raises(BatchFallback):
            evaluate_grid(self._HUGE, Scope.LA, edge_accel, dataflows)

    def test_engine_falls_back_to_scalar(self, edge_accel):
        oracle = exhaustive_best(self._HUGE, edge_accel, scope=Scope.LA,
                                 space=self._SPACE)
        fast = search(self._HUGE, edge_accel, scope=Scope.LA,
                      space=self._SPACE, engine=BATCH,
                      retain_points=False)
        assert_matches_oracle(fast, oracle)
        assert fast.stats.batch_evaluations == 0

    def test_edge_repeat_search_served_from_memo(self, edge_accel):
        """At the exactness edge: oracle winner, balanced ledger, memo."""
        cfg = _edge_cfg(batch=32)
        assert 2 * cfg.batch * cfg.heads * cfg.seq_q * cfg.seq_kv * (
            cfg.d_model // cfg.heads
        ) == batch_backend._MAX_EXACT_MACS
        dataflows = _grid(cfg, edge_accel, self._LADDER)
        with pytest.raises(BatchFallback):
            evaluate_grid(cfg, Scope.LA, edge_accel, dataflows)

        first = search(cfg, edge_accel, scope=Scope.LA, space=self._LADDER,
                       engine=BATCH, retain_points=False)
        assert_matches_oracle(
            first, exhaustive_best(cfg, edge_accel, scope=Scope.LA,
                                   space=self._LADDER),
        )
        s = first.stats
        assert s.enumerated == len(dataflows)
        assert s.enumerated == s.cache_hits + s.pruned + s.evaluated
        # Scalar-scored members count as evaluated, never as batch
        # evaluations; whole families are still gated.
        assert s.batch_evaluations == 0
        assert s.evaluated == s.candidates_generated
        assert s.families_pruned > 0
        assert s.pruned == s.candidates_skipped > 0

        again = search(cfg, edge_accel, scope=Scope.LA, space=self._LADDER,
                       engine=BATCH, retain_points=False)
        assert again.best == first.best
        assert again.stats.evaluated == 0
        assert again.stats.pruned == 0
        assert again.stats.cache_hits == again.stats.enumerated

    def test_just_below_the_edge_takes_the_grid(self, edge_accel):
        cfg = _edge_cfg(batch=16)
        res = search(cfg, edge_accel, scope=Scope.LA, space=self._LADDER,
                     engine=BATCH, retain_points=False)
        assert_matches_oracle(
            res, exhaustive_best(cfg, edge_accel, scope=Scope.LA,
                                 space=self._LADDER),
        )
        assert res.stats.batch_evaluations == res.stats.candidates_generated
        assert res.stats.evaluated == 1
