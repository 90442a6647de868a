"""``run_searches``: many searches, one grid call.

A list of searches is answered with one
:func:`~repro.core.batch.evaluate_grid` call per group of small missed
spaces, whatever their workloads.  These tests check three things:

* every answer is the exhaustive oracle's (``tests/oracles.py``), and
  every lane of a multi-workload grid call equals the one-workload call
  on every :class:`~repro.core.batch.GridEvaluation` field;
* a workload past the int64 lanes' edges (the int64 headroom, or a
  staged footprint past float64's exact range) is scored on the grid
  in calls of its own, and the other segments still merge;
* the answers, stats and cache traffic equal those of a
  :func:`~repro.core.engine.run_search` loop over the same list.

Draws are seeded and the workloads are small, so the module runs in a
few seconds.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
import sqlite3
import threading
from contextlib import closing

import numpy as np
import pytest

from repro.analysis.utilization import buffer_sweep, buffer_sweeps
from repro.arch.presets import cloud, edge
from repro.core import batch as batch_backend
from repro.core import engine
from repro.core.batch import GridLanes, GridRows, evaluate_grid
from repro.core.cache import default_cache_dir, get_default_cache
from repro.core.configs import (
    AcceleratorPolicy,
    attacc,
    flex_accel,
    flex_accel_m,
)
from repro.core.dataflow import (
    AttentionVariant,
    Dataflow,
    Granularity,
    base,
    flat_r,
    flat_x,
)
from repro.core.dse import (
    DSEResult,
    Objective,
    SearchSpace,
    enumerate_dataflows,
)
from repro.core.engine import (
    CostRequest,
    SearchRequest,
    clear_evaluation_cache,
    evaluate_cost,
    evaluate_costs,
    evaluation_cache_info,
    run_search,
    run_searches,
    search_totals,
)
from repro.core.perf import PerfOptions, cost_scope
from repro.experiments import fig12
from repro.models.configs import model_config
from repro.obs import metrics as obs_metrics
from repro.ops.attention import AttentionConfig, Scope, operators_for_scope
from tests.oracles import assert_matches_oracle, exhaustive_best

_TINY = AttentionConfig(name="tiny", batch=2, heads=4, d_model=64,
                        seq_q=32, seq_kv=32, d_ff=128, num_blocks=2)
# Decode: one query token against a KV cache.
_DECODE = dataclasses.replace(_TINY, name="decode", seq_q=1, seq_kv=96)
# Cross-attention, with lengths that leave remainder tiles.
_CROSS = AttentionConfig(name="cross", batch=3, heads=2, d_model=64,
                         seq_q=48, seq_kv=80, d_ff=96, num_blocks=3)
_WORKLOADS = (_TINY, _DECODE, _CROSS)

_FLASHD = SearchSpace(variants=(AttentionVariant.SOFTMAX,
                                AttentionVariant.FLASH_D))
_FUSEMAX = SearchSpace(variants=(AttentionVariant.SOFTMAX,
                                 AttentionVariant.FUSEMAX))
# Spaces at most _MERGE_BATCH_LIMIT candidates large (merged), and
# larger ones (branch-and-bound, unless the objective is FOOTPRINT).
_SMALL_SPACES = (SearchSpace(), flex_accel_m().space, flex_accel().space)
_LARGE_SPACES = (_FLASHD, _FUSEMAX, SearchSpace(exhaustive_staging=True))
_OPTIONS = (PerfOptions(), PerfOptions(flexible_mapping=False))


@pytest.fixture(autouse=True)
def _fresh_cache():
    """No memo or disk store leaks between tests."""
    clear_evaluation_cache()
    with default_cache_dir(""):
        yield
    clear_evaluation_cache()


def _counting_grid(monkeypatch) -> list:
    """Record the segment count of every ``evaluate_grid`` call the
    engine makes."""
    calls = []
    real = engine.evaluate_grid

    def counting(cfg, scope, accel, dataflows, options=PerfOptions()):
        calls.append(len(dataflows.segments)
                     if isinstance(dataflows, GridLanes) else 1)
        return real(cfg, scope, accel, dataflows, options)

    monkeypatch.setattr(engine, "evaluate_grid", counting)
    return calls


def _draw_requests(rng: random.Random, n: int) -> list:
    requests = []
    for _ in range(n):
        spaces = _LARGE_SPACES if rng.random() < 0.2 else _SMALL_SPACES
        requests.append(SearchRequest(
            cfg=rng.choice(_WORKLOADS),
            accel=edge(),
            scope=rng.choice(list(Scope)),
            objective=rng.choice(list(Objective)),
            space=rng.choice(spaces),
            options=rng.choice(_OPTIONS),
        ))
    return requests


def _oracle(req: SearchRequest):
    return exhaustive_best(req.cfg, req.accel, scope=req.scope,
                           objective=req.objective, space=req.space,
                           options=req.options)


class TestOracle:
    def test_mixed_list_matches_exhaustive_search(self, monkeypatch):
        requests = _draw_requests(random.Random(21), 40)
        # Every kind of request at least once, whatever the draw.
        requests += [
            SearchRequest(_DECODE, edge(), Scope.MODEL, Objective.FOOTPRINT,
                          _FUSEMAX),
            SearchRequest(_CROSS, cloud(), Scope.BLOCK, Objective.EDP,
                          _FLASHD, PerfOptions(flexible_mapping=False)),
            SearchRequest(_TINY, edge(), Scope.LA, Objective.ENERGY,
                          SearchSpace(exhaustive_staging=True)),
        ]
        calls = _counting_grid(monkeypatch)
        results = run_searches(requests)
        merged = [n for n in calls if n > 1]
        assert merged, "no grid call scored several searches"
        for req, result in zip(requests, results):
            assert_matches_oracle(result, _oracle(req), req.objective)
            assert result.points == ()
            # The winner's breakdown, from its grid lane, is the
            # scalar model's, pickled bytes included.
            want = cost_scope(req.cfg, req.scope, req.accel,
                              result.best.dataflow, options=req.options)
            assert result.best.cost == want
            assert pickle.dumps(result.best.cost) == pickle.dumps(want)

    def test_run_search_is_a_one_request_list(self):
        req = SearchRequest(_CROSS, edge(), Scope.BLOCK, Objective.ENERGY)
        (batched,) = run_searches([req])
        clear_evaluation_cache()
        alone = run_search(_CROSS, edge(), Scope.BLOCK, Objective.ENERGY,
                           retain_points=False)
        assert batched.best == alone.best
        assert (dataclasses.replace(batched.stats, wall_time_s=0.0)
                == dataclasses.replace(alone.stats, wall_time_s=0.0))

    def test_retain_points_request_scores_every_point(self):
        req = SearchRequest(_TINY, edge(), space=flex_accel().space,
                            retain_points=True)
        (result,) = run_searches([req])
        assert len(result.points) == result.stats.enumerated
        assert_matches_oracle(result, _oracle(req))


class TestLanes:
    @pytest.mark.parametrize("scope", list(Scope))
    @pytest.mark.parametrize("options", _OPTIONS)
    def test_every_lane_equals_its_one_workload_call(self, scope, options):
        rng = random.Random(7)
        segments = []
        configs = []
        for _ in range(8):
            cfg = rng.choice(_WORKLOADS)
            table = engine._space_table(
                cfg, rng.choice(_SMALL_SPACES + _LARGE_SPACES))
            index = np.sort(rng.sample(range(table.total),
                                       rng.randint(1, table.total)))
            segments.append(GridRows(table.features, index))
            configs.append(cfg)
        merged = evaluate_grid(configs, scope, cloud(),
                               GridLanes(tuple(segments)), options)
        assert len(merged) == sum(len(s) for s in segments)
        lo = 0
        for cfg, rows in zip(configs, segments):
            alone = evaluate_grid(cfg, scope, cloud(), rows, options)
            for field in dataclasses.fields(alone):
                want = getattr(alone, field.name)
                got = getattr(merged, field.name)[lo:lo + len(rows)]
                assert got.dtype == want.dtype, field.name
                assert np.array_equal(got, want), field.name
            lo += len(rows)

    def test_one_workload_per_segment(self):
        table = engine._space_table(_TINY, SearchSpace())
        rows = GridRows(table.features)
        with pytest.raises(ValueError, match="one workload per segment"):
            evaluate_grid([_TINY], Scope.LA, edge(),
                          GridLanes((rows, rows)))


class TestFallbackIsolation:
    """A wide workload (:func:`~repro.core.batch.is_wide`), where the
    grid once fell back to the scalar model, gets grid calls of its
    own: its lanes run as Python ints, the others stay int64."""

    # Past the int64 headroom: 2^13 * 2^44 MACs per operator at two
    # bytes per element.
    _PAST = AttentionConfig(name="past", batch=2 ** 13, heads=16,
                            d_model=1024, seq_q=2 ** 17, seq_kv=2 ** 17,
                            d_ff=4096)
    # Below the headroom, but an M-granular intermediate of 2^52
    # elements stages 2^53 bytes, past float64's exact range.
    _WIDE = AttentionConfig(name="wide", batch=2 ** 14, heads=16,
                            d_model=256, seq_q=2 ** 17, seq_kv=2 ** 17,
                            d_ff=1024)
    _R64 = SearchSpace(allow_unfused=False, granularities=(Granularity.R,),
                       row_choices=(64,), include_plain_base=False)
    _M = SearchSpace(allow_unfused=False, granularities=(Granularity.M,),
                     include_plain_base=False)

    def _check(self, monkeypatch, edge_case: SearchRequest):
        normal = [SearchRequest(cfg, edge(), space=space)
                  for cfg in (_TINY, _CROSS)
                  for space in (SearchSpace(), flex_accel().space)]
        requests = normal[:2] + [edge_case] + normal[2:]
        calls = _counting_grid(monkeypatch)
        results = run_searches(requests)
        for req, result in zip(requests, results):
            assert_matches_oracle(result, _oracle(req), req.objective)
        scored = [r.stats for req, r in zip(requests, results)
                  if req is not edge_case]
        assert all(s.batch_evaluations == s.enumerated for s in scored)
        edge_stats = results[2].stats
        assert edge_stats.batch_evaluations == edge_stats.enumerated
        assert edge_stats.evaluated == 1
        # The four normal spaces in one call, the edge case alone.
        assert sorted(calls) == [1, 4]

    def test_past_the_int64_headroom_is_scored_alone(self, monkeypatch):
        edge_case = SearchRequest(self._PAST, edge(), space=self._R64)
        self._check(monkeypatch, edge_case)

    def test_past_the_footprint_edge_is_scored_alone(self, monkeypatch):
        edge_case = SearchRequest(self._WIDE, edge(), space=self._M)
        ops = operators_for_scope(self._WIDE, Scope.LA)
        assert max(op.macs for op in ops) * 2 < (
            batch_backend._MAX_INT64_MAC_BYTES)
        assert batch_backend.is_wide(self._WIDE, Scope.LA, 2)
        self._check(monkeypatch, edge_case)


def _snapshot() -> tuple:
    store = get_default_cache()
    return (search_totals(), evaluation_cache_info(), store.stats.copy())


def _delta(before: tuple, after: tuple) -> dict:
    totals = {k: after[0][k] - before[0][k] for k in after[0]
              if k != "wall_time_s"}
    lru = {k: after[1][k] - before[1][k] for k in ("entries", "hits",
                                                  "misses")}
    return {"totals": totals, "lru": lru,
            "disk": (after[2] - before[2]).as_dict()}


class TestSequentialEquivalence:
    """A list equals a ``run_search`` loop over it, stats and traffic."""

    _ON_DISK = (SearchRequest(_TINY, edge(), Scope.BLOCK),
                SearchRequest(_DECODE, cloud(), Scope.LA, Objective.ENERGY,
                              flex_accel().space))
    _IN_LRU = (SearchRequest(_CROSS, edge(), Scope.MODEL,
                             space=flex_accel_m().space),
               SearchRequest(_TINY, edge(), Scope.LA, Objective.EDP,
                             _FLASHD))

    def _requests(self) -> list:
        misses = [
            SearchRequest(_CROSS, edge(), Scope.BLOCK, Objective.ENERGY),
            SearchRequest(_DECODE, edge(), Scope.BLOCK,
                          space=flex_accel().space),
            SearchRequest(_TINY, edge(), Scope.LA, space=_FUSEMAX),
            SearchRequest(_CROSS, edge(), Scope.LA, Objective.FOOTPRINT,
                          SearchSpace(exhaustive_staging=True)),
            SearchRequest(_TINY, edge(), Scope.BLOCK,
                          space=flex_accel_m().space),
        ]
        return [
            misses[0], self._ON_DISK[0], misses[1], self._IN_LRU[0],
            misses[2], misses[0],  # a repeat of a miss
            SearchRequest(_TINY, edge(), space=flex_accel().space,
                          retain_points=True),
            misses[3], self._ON_DISK[0],  # a repeat of a disk hit
            self._ON_DISK[1], misses[4], self._IN_LRU[1], misses[3],
        ]

    def _run(self, tmp_path, batched: bool):
        clear_evaluation_cache()
        with default_cache_dir(str(tmp_path)):
            for req in self._ON_DISK:
                run_searches([req])
            clear_evaluation_cache()  # the disk keeps them
            for req in self._IN_LRU:
                run_searches([req])
            before = _snapshot()
            requests = self._requests()
            if batched:
                results = run_searches(requests)
            else:
                results = [
                    run_search(r.cfg, r.accel, r.scope, r.objective,
                               r.space, r.options, r.retain_points)
                    for r in requests
                ]
            after = _snapshot()
            get_default_cache().close()
        return results, _delta(before, after)

    def test_list_equals_a_run_search_loop(self, tmp_path):
        looped, loop_delta = self._run(tmp_path / "loop", batched=False)
        batched, batch_delta = self._run(tmp_path / "batch", batched=True)
        for a, b in zip(looped, batched):
            assert a.best == b.best
            assert a.points == b.points
            assert (dataclasses.replace(a.stats, wall_time_s=0.0)
                    == dataclasses.replace(b.stats, wall_time_s=0.0))
        # The list commits its writes and touches once; the loop once
        # per list, i.e. per request that staged something.
        assert batch_delta["disk"].pop("flushes") == 1
        assert loop_delta["disk"].pop("flushes") > 1
        assert batch_delta == loop_delta
        disk = batch_delta["disk"]
        assert disk["hits"] + disk["misses"] == disk["lookups"]
        # One put per computed answer, one lookup per LRU miss.
        assert disk["writes"] == 6
        assert disk["lookups"] == 8 and disk["hits"] == 2
        sources = [r.stats.disk_hits for r in batched]
        assert sources[1] and sources[9] and not sources[8]

    def test_overlapping_lists_on_two_threads(self):
        requests = self._requests()
        expected = [r.best for r in run_searches(requests)]
        clear_evaluation_cache()
        lists = (requests, requests[::-1])
        answers = [None, None]
        barrier = threading.Barrier(2)

        def worker(i: int) -> None:
            barrier.wait()
            answers[i] = [r.best for r in run_searches(lists[i])]

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert answers[0] == expected
        assert answers[1] == expected[::-1]


class TestGeneratedLists:
    """Seeded lists that mix every kind of miss in shared merge groups.

    Planned spaces (unseeded, with a valid warm seed, with a rejected
    seed), small spaces, ``FOOTPRINT`` searches, every-point searches,
    fixed dataflows, decode and cross-attention workloads, a workload
    past the int64 headroom and one past the staged-footprint edge,
    plus repeats.  Each answer is the exhaustive oracle's (a fixed
    dataflow's: ``cost_scope``) and equals a loop of one-request lists
    (``run_search``, ``evaluate_cost``), and each round makes one grid
    call per chunk of more than one lane.
    """

    _PAST = TestFallbackIsolation._PAST
    _WIDE = TestFallbackIsolation._WIDE

    @staticmethod
    def _seed(rng: random.Random, req: SearchRequest) -> Dataflow:
        """Any member of the space (valid, whatever search won it), or
        a row count outside the ladder (rejected)."""
        table = engine._space_table(req.cfg, req.space)
        dataflow = table.dataflow(rng.randrange(table.total))
        return flat_r(5) if rng.random() < 0.15 else dataflow

    def _draw(self, seed: int) -> list:
        rng = random.Random(seed)
        requests = []
        for _ in range(36):
            large = rng.random() < 0.5
            req = SearchRequest(
                cfg=rng.choice(_WORKLOADS),
                accel=edge(),
                scope=rng.choice(list(Scope)),
                objective=rng.choice(list(Objective)),
                space=rng.choice(_LARGE_SPACES if large else _SMALL_SPACES),
                options=rng.choice(_OPTIONS),
            )
            if large and rng.random() < 0.6:
                req = dataclasses.replace(req,
                                          warm_start=self._seed(rng, req))
            requests.append(req)
        for _ in range(4):
            requests.append(SearchRequest(
                cfg=rng.choice(_WORKLOADS), accel=edge(),
                scope=rng.choice(list(Scope)),
                objective=rng.choice(list(Objective)),
                space=rng.choice(_SMALL_SPACES),
                options=rng.choice(_OPTIONS), retain_points=True))
        for _ in range(16):
            cfg = rng.choice(_WORKLOADS)
            table = engine._space_table(cfg, rng.choice(_SMALL_SPACES))
            requests.append(CostRequest(
                cfg, rng.choice(list(Scope)), rng.choice((edge(), cloud())),
                table.dataflow(rng.randrange(table.total)),
                rng.choice(_OPTIONS)))
        requests += [
            # Past the int64 headroom: planned (99 members) and small,
            # both batch-scored in calls of their own.
            SearchRequest(self._PAST, edge(), Scope.LA),
            SearchRequest(self._PAST, edge(), Scope.LA,
                          space=TestFallbackIsolation._R64),
            CostRequest(self._PAST, Scope.LA, edge(), flat_r(64)),
            # Past the staged-footprint edge: calls of its own too.
            SearchRequest(self._WIDE, edge(), Scope.LA,
                          space=TestFallbackIsolation._M),
        ]
        requests += rng.sample(requests, 4)  # repeats
        rng.shuffle(requests)
        return requests

    @staticmethod
    def _recording_grid(monkeypatch) -> list:
        """Record ``(merge group, segment sizes)`` per call."""
        calls = []
        real = engine.evaluate_grid

        def recording(cfg, scope, accel, dataflows, options=PerfOptions()):
            group = engine._merge_group(
                cfg[0], scope, options, accel,
                engine.accelerator_fingerprint(accel))
            calls.append((group, [len(s) for s in dataflows.segments]))
            return real(cfg, scope, accel, dataflows, options)

        monkeypatch.setattr(engine, "evaluate_grid", recording)
        return calls

    @staticmethod
    def _check_rounds(calls: list, rounds: list) -> None:
        """Each round's calls are its greedy chunks, in group order."""
        assert [r["round"] for r in rounds] == [1, 2]
        assert sum(r["grid_calls"] for r in rounds) == len(calls)
        assert all(sum(sizes) > 1 for _, sizes in calls)
        limit = engine._MERGE_LANE_LIMIT
        pending = iter(calls)
        for r in rounds:
            chunks: dict = {}
            segments = 0
            for _ in range(r["grid_calls"]):
                group, sizes = next(pending)
                segments += len(sizes)
                chunks.setdefault(group, []).append(sizes)
            assert segments == r["segments"]
            for parts in chunks.values():
                assert all(len(p) == 1 or sum(p) <= limit for p in parts)
                # The next segment did not fit in the previous call.
                assert all(sum(a) + b[0] > limit
                           for a, b in zip(parts, parts[1:]))

    def _run(self, tmp_path, requests: list, batched: bool):
        import repro.obs as obs

        clear_evaluation_cache()
        with default_cache_dir(str(tmp_path)), obs.observed() as session:
            before = _snapshot()
            if batched:
                results = run_searches(requests)
            else:
                results = [_one_request(r) for r in requests]
            after = _snapshot()
            snap = session.registry.snapshot()
            rounds = [e["attrs"] for e in session.collector.events
                      if e["name"] == "search-round"]
            get_default_cache().close()
        # A breakdown's source depends on what shares its call; their
        # number does not.
        metrics = {name: data["value"] for name, data in snap.items()
                   if name.startswith("engine.")
                   and not name.startswith("engine.breakdowns[")}
        metrics["engine.breakdowns"] = sum(
            snap.get(f"engine.breakdowns[{source}]", {"value": 0})["value"]
            for source in ("grid", "scalar"))
        return results, _delta(before, after), metrics, rounds

    @pytest.mark.parametrize("seed", [3, 11])
    def test_list_matches_oracle_and_loop(self, tmp_path, monkeypatch,
                                          seed):
        requests = self._draw(seed)
        looped, loop_delta, loop_metrics, _ = self._run(
            tmp_path / "loop", requests, batched=False)
        calls = self._recording_grid(monkeypatch)
        batched, delta, metrics, rounds = self._run(
            tmp_path / "list", requests, batched=True)
        # The list commits its disk writes once, the loop per request.
        assert delta["disk"].pop("flushes") == 1
        loop_delta["disk"].pop("flushes")
        assert delta == loop_delta
        assert metrics == loop_metrics
        assert metrics["engine.warm_start.rejected"] > 0
        self._check_rounds(calls, rounds)
        seeded = 0
        for req, got, want in zip(requests, batched, looped, strict=True):
            if isinstance(req, CostRequest):
                assert got == want
                assert pickle.dumps(got) == pickle.dumps(want)
                assert got == cost_scope(req.cfg, req.scope, req.accel,
                                         req.dataflow, options=req.options)
                continue
            assert got.best == want.best
            assert got.points == want.points
            assert (dataclasses.replace(got.stats, wall_time_s=0.0)
                    == dataclasses.replace(want.stats, wall_time_s=0.0))
            assert_matches_oracle(got, _oracle(req), req.objective)
            seeded += req.warm_start is not None
        assert seeded
        assert any(r.points for r in batched if isinstance(r, DSEResult))
        # The planned search past the headroom: batch-scored, its
        # families gated.
        (past,) = [r.stats for req, r in zip(requests, batched)
                   if isinstance(req, SearchRequest)
                   and req.cfg is self._PAST and req.space == SearchSpace()
                   and not r.stats.cache_hits]
        assert past.batch_evaluations == past.candidates_generated > 0
        assert past.evaluated == 1 and past.families_pruned > 0


def _one_request(req):
    """``req`` answered as a one-request list, through its public
    entry point."""
    if isinstance(req, CostRequest):
        return evaluate_cost(req.cfg, req.scope, req.accel, req.dataflow,
                             req.options)
    if req.warm_start is not None:  # only a list takes a seed
        return run_searches([req])[0]
    return run_search(req.cfg, req.accel, req.scope, req.objective,
                      req.space, req.options, req.retain_points)


class TestConsumers:
    """The sweeps that submit lists answer what their loops answered."""

    def test_evaluate_many_equals_evaluate(self):
        jobs = [(policy, cfg, accel)
                for accel in (edge(), cloud())
                for cfg in _WORKLOADS
                for policy in (flex_accel_m(), flex_accel(), attacc())]
        points = AcceleratorPolicy.evaluate_many(jobs, scope=Scope.BLOCK,
                                                 objective=Objective.EDP)
        clear_evaluation_cache()
        assert points == [
            policy.evaluate(cfg, accel, Scope.BLOCK, Objective.EDP)
            for policy, cfg, accel in jobs
        ]

    def test_buffer_sweeps_equal_one_sweep_per_case(self, monkeypatch):
        spaces = {"small": flex_accel().space, "large": _FLASHD}
        cases = [(cfg, scope, [flat_r(16)], spaces)
                 for cfg in (_TINY, _CROSS) for scope in (Scope.LA,
                                                          Scope.MODEL)]
        sizes = (20 * 1024, 64 * 1024, 512 * 1024)
        calls = _counting_grid(monkeypatch)
        swept = buffer_sweeps(cases, edge(), sizes)
        # Per (size, scope), one merged call scores the two workloads'
        # fixed lineups together with the small curves and the large
        # curves' first round.  The large curves' survivors share a
        # second-round call: unseeded, both have some every time.
        assert calls.count(6) == len(sizes) * 2
        assert calls.count(2) == len(sizes) * 2
        clear_evaluation_cache()
        assert swept == [buffer_sweep(cfg, scope, edge(), lineup, sizes,
                                      dse_spaces=dse)
                         for cfg, scope, lineup, dse in cases]

    def test_lockstep_bisections_equal_one_at_a_time(self):
        accel = edge()
        policies = (flex_accel(), attacc())
        rows = fig12.run_bw_requirement(platform="edge", model="bert",
                                        seqs=(512, 2048),
                                        policies=policies)
        assert any(r.required_gbps is not None for r in rows)
        clear_evaluation_cache()

        def bisect(policy, cfg, target=0.95, max_gbps=100_000.0,
                   tolerance=0.02):
            def util_at(gbps):
                sized = accel.with_offchip_bandwidth(gbps * 1e9)
                return policy.evaluate(cfg, sized).cost.utilization

            if util_at(max_gbps) < target:
                return None
            lo, hi = 0.001, max_gbps
            while hi / lo > 1.0 + tolerance:
                mid = (lo * hi) ** 0.5
                if util_at(mid) >= target:
                    hi = mid
                else:
                    lo = mid
            return hi

        assert [(r.seq, r.accelerator, r.required_gbps) for r in rows] == [
            (seq, policy.name, bisect(policy, model_config("bert", seq=seq)))
            for seq in (512, 2048) for policy in policies
        ]


def _evaluate_cost_loop(requests) -> list:
    """The reference for ``evaluate_costs``: per request, in list
    order, one memo lookup (LRU, then disk) and, on a miss, the scalar
    model — ``evaluate_cost`` as it was before fixed lineups were scored
    together."""
    costs = []
    for req in requests:
        key = ("cost", req.cfg, engine.accelerator_fingerprint(req.accel),
               req.dataflow, req.options, req.scope)
        cost, source = engine._memoized(
            key,
            lambda: engine.cost_scope(req.cfg, req.scope, req.accel,
                                      req.dataflow, options=req.options),
            get_default_cache())
        obs_metrics.inc(engine._SOURCE_METRIC[source])
        costs.append(cost)
    return costs


class TestEvaluateCosts:
    """A fixed lineup: ``evaluate_costs`` equals a loop of one-point
    lookups — values, metric deltas, LRU and disk entries — while its
    misses share grid calls."""

    _PAST = TestFallbackIsolation._PAST
    _ON_DISK = (CostRequest(_TINY, Scope.LA, edge(), flat_r(16)),
                CostRequest(_CROSS, Scope.BLOCK, edge(), base()))
    _IN_LRU = (CostRequest(_DECODE, Scope.LA, edge(), flat_r(16)),)
    # An every-point answer: it caches no point a lineup could reuse.
    _POINTS = SearchRequest(_TINY, edge(), Scope.BLOCK, retain_points=True)

    def _requests(self) -> list:
        point = list(enumerate_dataflows(_TINY, edge(), SearchSpace()))[3]
        misses = [
            CostRequest(_TINY, Scope.LA, edge(), flat_r(32)),
            CostRequest(_CROSS, Scope.LA, edge(), flat_r(16)),
            CostRequest(_DECODE, Scope.LA, edge(), base()),
            CostRequest(_TINY, Scope.MODEL, edge(), flat_r(16)),
            CostRequest(_CROSS, Scope.MODEL, edge(),
                        flat_x(Granularity.H)),
            CostRequest(_CROSS, Scope.LA, edge(), flat_r(16),
                        PerfOptions(flexible_mapping=False)),
            CostRequest(_DECODE, Scope.LA, edge(), flat_r(8),
                        PerfOptions(flexible_mapping=False)),
        ]
        lone = CostRequest(_CROSS, Scope.LA, cloud(), flat_r(16))
        # Past the int64 headroom: a grid call of their own.
        past = [CostRequest(self._PAST, Scope.LA, edge(), df)
                for df in (flat_r(64), base())]
        return [
            misses[0], self._ON_DISK[0], misses[1], self._IN_LRU[0],
            past[0], misses[2], misses[0],  # a repeat of a miss
            CostRequest(_TINY, Scope.BLOCK, edge(), point),  # a miss
            misses[3], lone, self._ON_DISK[0],  # a repeat of a disk hit
            misses[4], past[1], self._ON_DISK[1], misses[5], misses[6],
            misses[3],
        ]

    def _run(self, tmp_path, batched: bool, monkeypatch):
        import repro.obs as obs

        calls = _counting_grid(monkeypatch)
        scalar = []
        real_cost = engine.cost_scope
        monkeypatch.setattr(engine, "cost_scope", lambda *a, **k: (
            scalar.append(1) or real_cost(*a, **k)))
        clear_evaluation_cache()
        with default_cache_dir(str(tmp_path)):
            store = get_default_cache()
            evaluate_costs(self._ON_DISK)
            clear_evaluation_cache()  # the disk keeps them
            evaluate_costs(self._IN_LRU)
            run_searches([self._POINTS])
            before = _snapshot()
            keys_before = set(engine._CACHE._data)
            calls.clear()
            scalar.clear()
            requests = self._requests()
            with obs.observed() as session:
                costs = (evaluate_costs(requests) if batched
                         else _evaluate_cost_loop(requests))
                snap = session.registry.snapshot()
            after = _snapshot()
            metrics = {name: snap.get(name, {"value": 0})["value"]
                       for name in ("engine.lru_hits", "engine.disk_hits",
                                    "engine.evaluated")}
            lru_keys = set(engine._CACHE._data) - keys_before
            with closing(sqlite3.connect(store.path)) as conn:
                disk = conn.execute(
                    "SELECT key, value FROM entries ORDER BY key").fetchall()
            store.close()
        return (costs, metrics, _delta(before, after), lru_keys, disk,
                list(calls), len(scalar))

    def test_list_equals_a_lookup_loop(self, tmp_path, monkeypatch):
        looped = self._run(tmp_path / "loop", False, monkeypatch)
        batched = self._run(tmp_path / "batch", True, monkeypatch)
        requests = self._requests()
        for got, want, req in zip(batched[0], looped[0], requests,
                                  strict=True):
            assert got == want
            assert pickle.dumps(got) == pickle.dumps(want)
            assert got == cost_scope(req.cfg, req.scope, req.accel,
                                     req.dataflow, options=req.options)
        # One commit for the list, one per request for the loop.
        assert batched[2]["disk"].pop("flushes") == 1
        assert looped[2]["disk"].pop("flushes") == len(requests) - 4
        assert batched[1:5] == looped[1:5]
        # Four LRU hits (a memo, a repeated miss, a repeated disk hit,
        # a second repeat), two disk hits and eleven distinct misses:
        # the point of the every-point answer is one of them.
        assert looped[1] == {"engine.lru_hits": 4, "engine.disk_hits": 2,
                             "engine.evaluated": 11}
        # The loop runs the scalar model per miss and no grid; the list
        # scores the LA misses (flexible and rigid), the MODEL misses
        # and, in a call of their own, the two past the headroom on the
        # grid, one segment per workload, and leaves the lone misses
        # (the cloud one and the BLOCK point) to the scalar model.
        assert looped[5:] == ([], 11)
        assert sorted(batched[5]) == [2, 2, 2, 3]
        assert batched[6] == 2

    @pytest.mark.parametrize("n,grid_calls,scalar_calls", [(1, 0, 1),
                                                           (2, 1, 0)])
    def test_a_lone_lane_takes_the_scalar_model(self, monkeypatch, n,
                                                grid_calls, scalar_calls):
        calls = _counting_grid(monkeypatch)
        scalar = []
        real_cost = engine.cost_scope
        monkeypatch.setattr(engine, "cost_scope", lambda *a, **k: (
            scalar.append(1) or real_cost(*a, **k)))
        requests = [CostRequest(_TINY, Scope.LA, edge(), df)
                    for df in (flat_r(16), base())[:n]]
        costs = evaluate_costs(requests)
        assert (len(calls), len(scalar)) == (grid_calls, scalar_calls)
        assert costs == [real_cost(r.cfg, r.scope, r.accel, r.dataflow)
                         for r in requests]

    @pytest.mark.parametrize("n,builds", [(1, 0), (2, 2)])
    def test_a_lone_cost_request_builds_no_grid_features(
            self, monkeypatch, n, builds):
        built = []
        real = engine._GridFeatures
        monkeypatch.setattr(engine, "_GridFeatures", lambda *a: (
            built.append(1) or real(*a)))
        requests = [CostRequest(_TINY, Scope.LA, edge(), df)
                    for df in (flat_r(16), base())[:n]]
        costs = evaluate_costs(requests)
        assert len(built) == builds
        assert costs == [cost_scope(r.cfg, r.scope, r.accel, r.dataflow)
                         for r in requests]

    def test_a_list_commits_its_disk_writes_once(self, tmp_path):
        requests = [CostRequest(cfg, Scope.BLOCK, edge(), df)
                    for cfg in _WORKLOADS for df in (flat_r(16), base())]
        with default_cache_dir(str(tmp_path)):
            store = get_default_cache()
            before = store.stats.copy()
            evaluate_costs(requests)
            delta = (store.stats - before).as_dict()
            store.close()
        assert delta["writes"] == len(requests)
        assert delta["flushes"] == 1
