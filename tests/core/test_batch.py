"""Equivalence tests for the vectorized batch backend.

The contract under test is *bit-for-bit* agreement with the scalar
cost model: for every candidate in the enumerated grid,
:func:`repro.core.batch.evaluate_grid` must reproduce
``cost_scope``'s cycles, DRAM bytes, footprint and activity counts
exactly (``==``, not approx), and ``np.argmin`` over the score array
must land on the same index as the engine's first-strictly-less scan,
so tie-breaking survives vectorization.  The engine-level tests then
check that ``run_search`` returns the exhaustive oracle's best point on
both sides of the array path's exactness edge and that the accounting
fields behave.
"""

import dataclasses
import pickle
import random
import time

import numpy as np
import pytest

from repro.analysis.utilization import default_buffer_sizes
from repro.arch.presets import cloud, edge, get_platform
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
from repro.core.configs import attacc, flex_accel, flex_accel_m
from repro.core import engine
from repro.core.engine import clear_evaluation_cache
from repro.core.dataflow import AttentionVariant, Granularity
from repro.core.dataflow import base as base_dataflow
from repro.core.footprint import operator_l3_footprint
from repro.core.perf import PerfOptions, cost_scope, partition_scratchpad
from repro.energy.model import energy_report
from repro.experiments.fig8 import dse_lineup as fig8_dse_lineup
from repro.models.configs import model_config, model_names
from repro.ops.attention import AttentionConfig, Scope, operators_for_scope
from tests.oracles import assert_matches_oracle, exhaustive_best

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


def _assert_grid_matches_scalar(cfg, scope, accel, dataflows,
                                options=PerfOptions()):
    grid = evaluate_grid(cfg, scope, accel, dataflows, options=options)
    assert len(grid) == len(dataflows)
    for i, df in enumerate(dataflows):
        cost = cost_scope(cfg, scope, accel, df, options=options)
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


def _operator_l2_budgets(cfg, scope, accel, dataflows, options):
    """The L2 budgets the scalar model gives the non-L-A operators."""
    budgets = set()
    for df in dataflows:
        if df.fused or df.granularity is None:
            other = base_dataflow(df.stationarity)
        else:
            other = df
        for op in operators_for_scope(cfg, scope):
            if op.is_activation_activation:
                continue
            fp = operator_l3_footprint(op, other, cfg.batch, cfg.heads)
            budgets.add(partition_scratchpad(
                fp.total_bytes(accel.bytes_per_element),
                other.staging.any_enabled, accel, options,
            ).l2_budget_elements)
    return budgets


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

    @pytest.mark.parametrize(
        "options",
        [PerfOptions(flexible_mapping=False),
         PerfOptions(spill_extra_pass_only=True)],
        ids=["rigid", "extra-pass-only"],
    )
    @pytest.mark.parametrize("scope", [Scope.BLOCK, Scope.MODEL])
    @pytest.mark.parametrize("workload", ["small", "bert512-exhaustive"])
    def test_stacked_operators_under_options(self, small_cfg, bert_512,
                                             edge_accel, workload, scope,
                                             options):
        """The stacked non-L-A operators mirror the non-default model
        options too, on weight-rhs operators whose lanes see both L2
        budgets."""
        if workload == "small":
            cfg, space = small_cfg, SearchSpace()
        else:
            cfg, space = bert_512, SearchSpace(exhaustive_staging=True)
        dataflows = _grid(cfg, edge_accel, space)
        _assert_grid_matches_scalar(cfg, scope, edge_accel, dataflows,
                                    options)
        assert any(op.rhs.role.is_weight
                   for op in operators_for_scope(cfg, scope))
        assert len(_operator_l2_budgets(cfg, scope, edge_accel, dataflows,
                                        options)) == 2

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
                      objective=objective, retain_points=False)
        assert_matches_oracle(fast, oracle, objective)

    @pytest.mark.parametrize("scope", _SCOPES)
    def test_every_scope(self, small_cfg, cloud_accel, scope):
        oracle = exhaustive_best(small_cfg, cloud_accel, scope=scope)
        fast = search(small_cfg, cloud_accel, scope=scope, retain_points=False)
        assert_matches_oracle(fast, oracle)

    def test_exhaustive_staging_grid(self, bert_4k, edge_accel):
        space = SearchSpace(exhaustive_staging=True)
        oracle = exhaustive_best(bert_4k, edge_accel, scope=Scope.LA,
                                 space=space)
        fast = search(bert_4k, edge_accel, scope=Scope.LA, space=space,
                      retain_points=False)
        assert_matches_oracle(fast, oracle)


class TestStats:
    def test_cold_search_accounting(self, small_cfg, edge_accel):
        res = search(small_cfg, edge_accel, retain_points=False)
        s = res.stats
        # Every generated candidate went through the array path; the
        # winner alone got the scalar breakdown, the losers are booked
        # as pruned.
        assert s.batch_evaluations == s.candidates_generated
        assert s.evaluated == 1
        assert s.cache_hits == 0
        assert s.enumerated == s.cache_hits + s.pruned + s.evaluated

    def test_cold_candidate_accounting(self, small_cfg, edge_accel):
        # A space above the one-call limit, so the search plans.
        space = SearchSpace(exhaustive_staging=True)
        res = search(small_cfg, edge_accel, space=space,
                     retain_points=False)
        s = res.stats
        assert s.enumerated > engine._MERGE_BATCH_LIMIT
        # The generated front end never expands skipped families, so
        # fewer candidates hit the array than were (virtually)
        # enumerated; the ledger invariant still balances.
        assert s.candidates_generated + s.candidates_skipped >= s.enumerated
        assert s.batch_evaluations < s.enumerated
        assert s.enumerated == s.cache_hits + s.pruned + s.evaluated

    def test_memo_hit_skips_the_grid(self, small_cfg, edge_accel):
        first = search(small_cfg, edge_accel, retain_points=False)
        second = search(small_cfg, edge_accel, retain_points=False)
        assert first.best.dataflow == second.best.dataflow
        assert second.stats.batch_evaluations == 0
        assert second.stats.evaluated == 0
        assert second.stats.cache_hits == second.stats.enumerated

    def test_retain_points_stays_scalar(self, small_cfg, edge_accel):
        res = search(small_cfg, edge_accel)  # retain default
        assert res.stats.batch_evaluations == 0
        assert len(res.points) == res.stats.enumerated
        assert all(p.energy is not None for p in res.points)

    def test_validation(self):
        from repro.core.engine import SearchStats

        with pytest.raises(ValueError):
            SearchStats(enumerated=1, evaluated=1, pruned=0, cache_hits=0,
                        wall_time_s=0.0, batch_evaluations=-1)


def _edge_cfg(batch: int) -> AttentionConfig:
    """A workload whose L and A operators each have ``batch * 2**44`` MACs."""
    return AttentionConfig(
        name=f"edge-b{batch}", batch=batch, heads=16, d_model=1024,
        seq_q=2 ** 17, seq_kv=2 ** 17, d_ff=4096, num_blocks=1,
    )


def _fallback_shapes(experiment):
    """The grids whose L-A pair crossed the retired ``2 * macs >= 2**50``
    guard in a registry pass: ``(cfg, scope, accel, dataflows)``.

    Each shape enumerates the union of the spaces its experiment
    searches, a superset of the members the pass scored.
    """
    zoo_seqs = [(model, 262144) for model in model_names()]
    zoo_seqs.append(("xlm", 65536))
    if experiment == "fig12a":
        policies = (flex_accel_m(), flex_accel(), attacc())
        for platform in ("edge", "cloud"):
            accel = get_platform(platform)
            for model, seq in zoo_seqs:
                cfg = model_config(model, seq=seq)
                yield cfg, Scope.MODEL, accel, [p.space for p in policies]
    elif experiment == "fig12b":
        policies = (flex_accel_m(), flex_accel(), attacc())
        for seq in (131072, 524288):
            for gbps in (1.0, 400.0, 100_000.0):
                accel = cloud().with_offchip_bandwidth(gbps * 1e9)
                yield (model_config("xlm", seq=seq), Scope.LA, accel,
                       [p.space for p in policies])
    else:  # fig8-cloud
        rows = 2 * cloud().pe_array.rows
        spaces = list(fig8_dse_lineup([rows // 4, rows, rows * 4,
                                       rows * 16]).values())
        for size in default_buffer_sizes():
            accel = cloud().with_scratchpad_bytes(size)
            for scope in (Scope.LA, Scope.BLOCK):
                yield model_config("xlm", seq=65536), scope, accel, spaces


class TestFallback:
    """Both sides of the old float64 edge and of the new int64 one."""

    # 64 * 16 * 262144^2 * 64 = 2^52 MACs in the logit operator alone,
    # four times past the retired 2^50 ceiling on the L-A pair.
    _HUGE = AttentionConfig(
        name="huge", batch=64, heads=16, d_model=1024,
        seq_q=262144, seq_kv=262144, d_ff=4096, num_blocks=1,
    )
    # 2^13 * 2^44 MACs per operator at two bytes per element: exactly
    # the int64-headroom ceiling of the array path.
    _PAST = _edge_cfg(batch=2 ** 13)
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
    # The ladder with every staging corner: above the one-call limit,
    # so the search plans and gates families.
    _WIDE_LADDER = dataclasses.replace(_LADDER, exhaustive_staging=True)

    def test_grid_raises(self, edge_accel):
        cfg = self._PAST
        macs = cfg.batch * cfg.heads * cfg.seq_q * cfg.seq_kv * cfg.d_head
        assert macs * edge_accel.bytes_per_element == (
            batch_backend._MAX_INT64_MAC_BYTES
        )
        dataflows = _grid(cfg, edge_accel, self._SPACE)
        with pytest.raises(BatchFallback, match="int64 headroom"):
            evaluate_grid(cfg, Scope.LA, edge_accel, dataflows)

    def test_staged_footprint_past_float64_raises(self, edge_accel):
        # An M-granular intermediate of 2^52 elements: 2^53 bytes enter
        # the int / int staging-fit division, below the int64 ceiling.
        cfg = AttentionConfig(
            name="wide", batch=2 ** 14, heads=16, d_model=256,
            seq_q=2 ** 17, seq_kv=2 ** 17, d_ff=1024, num_blocks=1,
        )
        space = SearchSpace(allow_unfused=False,
                            granularities=(Granularity.M,),
                            include_plain_base=False)
        with pytest.raises(BatchFallback, match="staged footprint"):
            evaluate_grid(cfg, Scope.LA, edge_accel,
                          _grid(cfg, edge_accel, space))

    def test_engine_falls_back_to_scalar(self, edge_accel):
        oracle = exhaustive_best(self._PAST, edge_accel, scope=Scope.LA,
                                 space=self._SPACE)
        fast = search(self._PAST, edge_accel, scope=Scope.LA,
                      space=self._SPACE, retain_points=False)
        assert_matches_oracle(fast, oracle)
        assert fast.stats.batch_evaluations == 0

    def test_small_space_past_the_edge_scores_scalar(self, edge_accel,
                                                     monkeypatch):
        """A one-call space past the edge: one fallback, no plan."""
        import repro.obs as obs

        plans = []
        monkeypatch.setattr(engine, "plan_candidates",
                            lambda *a, **k: plans.append(a))
        n = len(_grid(self._PAST, edge_accel, self._SPACE))
        assert n <= engine._MERGE_BATCH_LIMIT
        with obs.observed() as session:
            res = search(self._PAST, edge_accel, scope=Scope.LA,
                         space=self._SPACE, retain_points=False)
            snap = session.registry.snapshot()
        assert snap["batch.fallbacks"]["value"] == 1
        assert plans == []
        assert_matches_oracle(
            res, exhaustive_best(self._PAST, edge_accel, scope=Scope.LA,
                                 space=self._SPACE),
        )
        s = res.stats
        assert s.batch_evaluations == 0
        assert s.evaluated == s.enumerated == s.candidates_generated == n

    def test_edge_repeat_search_served_from_memo(self, edge_accel):
        """Past the edge: oracle winner, balanced ledger, memo."""
        cfg = self._PAST
        dataflows = _grid(cfg, edge_accel, self._WIDE_LADDER)
        assert len(dataflows) > engine._MERGE_BATCH_LIMIT
        first = search(cfg, edge_accel, scope=Scope.LA,
                       space=self._WIDE_LADDER, retain_points=False)
        assert_matches_oracle(
            first, exhaustive_best(cfg, edge_accel, scope=Scope.LA,
                                   space=self._WIDE_LADDER),
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

        again = search(cfg, edge_accel, scope=Scope.LA,
                       space=self._WIDE_LADDER, retain_points=False)
        assert again.best == first.best
        assert again.stats.evaluated == 0
        assert again.stats.pruned == 0
        assert again.stats.cache_hits == again.stats.enumerated

    def test_just_below_the_edge_takes_the_grid(self, edge_accel):
        cfg = _edge_cfg(batch=2 ** 12)
        _assert_grid_matches_scalar(cfg, Scope.LA, edge_accel,
                                    _grid(cfg, edge_accel, self._LADDER))
        res = search(cfg, edge_accel, scope=Scope.LA, space=self._LADDER,
                     retain_points=False)
        assert_matches_oracle(
            res, exhaustive_best(cfg, edge_accel, scope=Scope.LA,
                                 space=self._LADDER),
        )
        assert res.stats.batch_evaluations == res.stats.candidates_generated
        assert res.stats.evaluated == 1

    @pytest.mark.parametrize("name", ["huge", "edge-b32"])
    def test_past_the_old_edge_takes_the_grid(self, edge_accel, name):
        cfg, space = {
            "huge": (self._HUGE, self._SPACE),
            "edge-b32": (_edge_cfg(batch=32), self._LADDER),
        }[name]
        _assert_grid_matches_scalar(cfg, Scope.LA, edge_accel,
                                    _grid(cfg, edge_accel, space))
        res = search(cfg, edge_accel, scope=Scope.LA, space=space,
                     retain_points=False)
        assert_matches_oracle(
            res, exhaustive_best(cfg, edge_accel, scope=Scope.LA,
                                 space=space),
        )
        assert res.stats.batch_evaluations == res.stats.candidates_generated
        assert res.stats.evaluated == 1

    def test_integer_traffic_sums_round_once(self):
        """Two unstaged traffic terms past 2**53 add as exact ints.

        A 4x4 array with a 4 KiB scratchpad re-streams K thousands of
        times, so Q and K traffic are exact ints the scalar model adds
        before rounding; adding their float64 roundings instead gives
        a different last bit on some of these members.
        """
        cfg = AttentionConfig(
            name="odd", batch=509, heads=9, d_model=9 * 129,
            seq_q=262139, seq_kv=262139, d_ff=4 * 9 * 129, num_blocks=1,
        )
        small = edge().with_scratchpad_bytes(4096)
        accel = dataclasses.replace(
            small, pe_array=dataclasses.replace(small.pe_array, rows=4,
                                                cols=4),
        )
        _assert_grid_matches_scalar(cfg, Scope.BLOCK, accel,
                                    _grid(cfg, accel))

    def test_traffic_sum_is_exact_past_float64(self):
        big = np.array([2 ** 53 + 1, 2 ** 53 + 1])
        one = np.array([1, 1])
        off = np.array([False, False])
        total = batch_backend._traffic_sum(off, big * 1.0, big,
                                           off, one * 1.0, one)
        assert total.tolist() == [float(2 ** 53 + 2)] * 2

    @pytest.mark.parametrize("experiment", ["fig12a", "fig12b", "fig8-cloud"])
    def test_captured_fallback_shapes_match_scalar(self, experiment):
        """Every member the old guard sent to the scalar path now scores
        on the grid, bit-equal to ``cost_scope`` on every field."""
        for cfg, scope, accel, spaces in _fallback_shapes(experiment):
            dataflows = list(dict.fromkeys(
                df for space in spaces
                for df in enumerate_dataflows(cfg, accel, space)
            ))
            _assert_grid_matches_scalar(cfg, scope, accel, dataflows)


# ----------------------------------------------------------------------
# a lane's full breakdown (GridEvaluation.scope_cost)
# ----------------------------------------------------------------------
_TINY = AttentionConfig(name="tiny", batch=2, heads=4, d_model=64,
                        seq_q=32, seq_kv=32, d_ff=128, num_blocks=2)
_BREAKDOWN_WORKLOADS = (
    _TINY,
    # Decode: one query token against a KV cache.
    dataclasses.replace(_TINY, name="decode", seq_q=1, seq_kv=96),
    # Cross-attention, with lengths that leave remainder tiles.
    AttentionConfig(name="cross", batch=3, heads=2, d_model=64, seq_q=48,
                    seq_kv=80, d_ff=96, num_blocks=3),
    model_config("bert", seq=512),
)
_BREAKDOWN_SPACES = (
    SearchSpace(),
    SearchSpace(variants=(AttentionVariant.SOFTMAX,
                          AttentionVariant.FLASH_D)),
    SearchSpace(variants=(AttentionVariant.SOFTMAX,
                          AttentionVariant.FUSEMAX)),
    SearchSpace(exhaustive_staging=True),
)
_BREAKDOWN_OPTIONS = (PerfOptions(), PerfOptions(flexible_mapping=False))
# Seconds each test may spend drawing (seeded: a slower machine checks
# a prefix of the same draws).
_DRAW_BUDGET_S = 1.0


def _breakdown_accels():
    # The small scratchpad spills staged tensors.
    return (edge(), cloud(), edge().with_scratchpad_bytes(20 * 1024))


def _assert_python_leaves(got, want):
    """Every leaf of ``got`` is a Python ``float``/``int``/``str`` of
    the scalar leaf's type — never a numpy scalar."""
    assert type(got.replication) is int
    for g, w in zip(got.operator_costs, want.operator_costs,
                    strict=True):
        for f in dataclasses.fields(g):
            value = getattr(g, f.name)
            if f.name == "counts":
                for c in dataclasses.fields(value):
                    assert type(getattr(value, c.name)) is float, c.name
                continue
            assert type(value) in (float, int, str), f.name
            assert type(value) is type(getattr(w, f.name)), f.name


def _assert_lane_is_scalar(grid, i, cfg, scope, accel, dataflow, options):
    got = grid.scope_cost(i, dataflow)
    want = cost_scope(cfg, scope, accel, dataflow, options=options)
    label = (cfg.name, scope, dataflow.name, dataflow.staging)
    assert got == want, label
    assert pickle.dumps(got) == pickle.dumps(want), label
    _assert_python_leaves(got, want)


def _draws(seed: int):
    """Draws of (workload, accelerator, space): first a fixed round
    that uses every workload, accelerator and space at least once, then
    seeded random ones until the time box closes."""
    rng = random.Random(seed)
    accels = _breakdown_accels()
    for k, (cfg, space) in enumerate(zip(_BREAKDOWN_WORKLOADS,
                                         _BREAKDOWN_SPACES, strict=True)):
        yield cfg, accels[k % len(accels)], space, rng
    deadline = time.perf_counter() + _DRAW_BUDGET_S
    while time.perf_counter() < deadline:
        yield (rng.choice(_BREAKDOWN_WORKLOADS), rng.choice(accels),
               rng.choice(_BREAKDOWN_SPACES), rng)


class TestScopeCost:
    """``GridEvaluation.scope_cost(i)`` is ``cost_scope`` of lane ``i``:
    ``==`` on every field, the same pickle bytes, Python leaves."""

    @pytest.mark.parametrize("options", _BREAKDOWN_OPTIONS,
                             ids=["flexible", "rigid"])
    @pytest.mark.parametrize("scope", _SCOPES)
    def test_dataflow_grids(self, scope, options):
        for cfg, accel, space, _ in _draws(0xB4D + _SCOPES.index(scope)):
            dataflows = _grid(cfg, accel, space)
            grid = evaluate_grid(cfg, scope, accel, dataflows, options)
            for i, dataflow in enumerate(dataflows):
                _assert_lane_is_scalar(grid, i, cfg, scope, accel,
                                       dataflow, options)

    @pytest.mark.parametrize("options", _BREAKDOWN_OPTIONS,
                             ids=["flexible", "rigid"])
    @pytest.mark.parametrize("scope", _SCOPES)
    def test_every_lane_of_merged_calls(self, scope, options):
        """Every lane of 8-segment multi-workload calls, each on its
        own segment's workload."""
        for _, accel, _, rng in _draws(0x5E6 + _SCOPES.index(scope)):
            configs, segments, members = [], [], []
            for _ in range(8):
                cfg = rng.choice(_BREAKDOWN_WORKLOADS)
                table = engine._space_table(cfg,
                                            rng.choice(_BREAKDOWN_SPACES))
                index = np.sort(rng.sample(range(table.total),
                                           rng.randint(1, 6)))
                configs.append(cfg)
                segments.append(batch_backend.GridRows(table.features,
                                                       index))
                members += [(cfg, table.dataflow(int(i))) for i in index]
            grid = evaluate_grid(configs, scope, accel,
                                 batch_backend.GridLanes(tuple(segments)),
                                 options)
            assert len(grid) == len(members)
            for i, (cfg, dataflow) in enumerate(members):
                _assert_lane_is_scalar(grid, i, cfg, scope, accel,
                                       dataflow, options)

    def test_single_lane_and_table_rows(self, edge_accel):
        """A one-row call, and rows of a space table, agree too."""
        cfg = _BREAKDOWN_WORKLOADS[2]
        table = engine._space_table(cfg, SearchSpace())
        for scope in _SCOPES:
            for i in (0, table.total - 1):
                grid = evaluate_grid(
                    cfg, scope, edge_accel,
                    batch_backend.GridRows(table.features,
                                           np.array([i], dtype=np.int64)))
                _assert_lane_is_scalar(grid, 0, cfg, scope, edge_accel,
                                       table.dataflow(i), PerfOptions())

    def test_without_arrays_raises(self, small_cfg, edge_accel):
        df = _grid(small_cfg, edge_accel)[0]
        scores = batch_backend.GridEvaluation(*([np.zeros(1)] * 8))
        with pytest.raises(ValueError, match="per-operator"):
            scores.scope_cost(0, df)
