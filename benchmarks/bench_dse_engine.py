"""Benchmark: the DSE engine vs the naive serial full evaluation.

Runs the same exhaustive-staging sweep (one workload, two scopes,
three objectives — the shape of the fig8/fig11-style grids, which
re-visit identical design points across searches) twice: once naive
(every point scored by the scalar model, no cache, eager energy) and
once through the engine's best-only route (family branch-and-bound,
vectorized scoring, memoization).  Asserts:

* identical best dataflow and objective value on every cell,
* >= 2x wall-clock speedup for the engine,
* nonzero pruned and cache-hit counts in the reported SearchStats.
"""

import os
import time

import pytest

from repro.arch.presets import edge
from repro.core.dse import Objective, SearchSpace, search
from repro.core.engine import (
    EngineOptions,
    SearchStats,
    clear_evaluation_cache,
)
from repro.models.configs import model_config
from repro.ops.attention import Scope

# NAIVE scores every point (retain_points=True) with the cache off;
# FAST is the engine's single best-only route.
NAIVE = EngineOptions(cache_size=0)
FAST = EngineOptions(cache_size=8192)

SCOPES = (Scope.LA, Scope.BLOCK)
OBJECTIVES = (Objective.RUNTIME, Objective.ENERGY, Objective.EDP)


def _sweep(cfg, accel, engine, retain_points):
    """One grid: scopes x objectives over the exhaustive staging space."""
    space = SearchSpace(exhaustive_staging=True)
    cells = {}
    for scope in SCOPES:
        for objective in OBJECTIVES:
            cells[(scope, objective)] = search(
                cfg, accel, scope=scope, objective=objective, space=space,
                engine=engine, retain_points=retain_points,
            )
    return cells


def test_engine_speedup(benchmark, report_printer):
    # BENCH_DSE_SEQ shrinks the grid for CI smoke runs; the default is
    # the paper's bandwidth-bound regime where pruning bites hardest.
    cfg = model_config("bert", seq=int(os.environ.get("BENCH_DSE_SEQ",
                                                      "4096")))
    accel = edge()

    clear_evaluation_cache()
    t0 = time.perf_counter()
    naive = _sweep(cfg, accel, NAIVE, retain_points=True)
    naive_s = time.perf_counter() - t0

    clear_evaluation_cache()
    t0 = time.perf_counter()
    fast = benchmark.pedantic(
        lambda: _sweep(cfg, accel, FAST, retain_points=False),
        rounds=1, iterations=1,
    )
    fast_s = time.perf_counter() - t0

    totals = SearchStats(
        enumerated=sum(r.stats.enumerated for r in fast.values()),
        evaluated=sum(r.stats.evaluated for r in fast.values()),
        pruned=sum(r.stats.pruned for r in fast.values()),
        cache_hits=sum(r.stats.cache_hits for r in fast.values()),
        wall_time_s=sum(r.stats.wall_time_s for r in fast.values()),
    )
    lines = [
        f"grid: {len(fast)} searches x "
        f"{next(iter(fast.values())).stats.enumerated} points",
        f"naive sweep : {naive_s * 1e3:9.1f} ms",
        f"engine sweep: {fast_s * 1e3:9.1f} ms "
        f"({naive_s / fast_s:.1f}x speedup)",
        f"engine stats: {totals}",
    ]
    report_printer("\n".join(lines))

    # Equivalence: every cell agrees on the winning dataflow and value.
    for key, naive_res in naive.items():
        fast_res = fast[key]
        objective = naive_res.objective
        assert fast_res.best.dataflow == naive_res.best.dataflow, key
        assert objective.score(
            fast_res.best.cost, fast_res.best.energy
        ) == pytest.approx(
            objective.score(naive_res.best.cost, naive_res.best.energy)
        ), key

    # The optimizations must actually fire...
    assert totals.pruned > 0
    assert totals.cache_hits > 0
    assert totals.evaluated < totals.enumerated
    # ...and buy at least the acceptance-criterion speedup.
    assert naive_s >= 2.0 * fast_s, (
        f"engine only {naive_s / fast_s:.2f}x faster"
    )
