"""Benchmark: vectorized grid scoring vs the scalar per-candidate loop.

Scores the full exhaustive-staging candidate grid twice — once with a
plain Python loop over ``cost_scope`` (what the engine's evaluation
stage did before the batch backend) and once with
:func:`repro.core.batch.evaluate_grid` — and asserts the acceptance
criteria of the batch-backend PR:

* bit-for-bit identical objective scores and argmin on every point,
* >= 5x wall-clock speedup for the vectorized pass.

``BENCH_BATCH_SEQ`` shrinks the workload for CI smoke runs; the
default is the paper's bandwidth-bound regime.

A second, ungated report prints the per-call floor: a one-lane L-A,
Block and Model grid call plus its breakdown against one scalar
``cost_scope`` call, on bert-512, bert-4096 and t5-16384 (edge).
"""

import os
import statistics
import time

import numpy as np

from repro.arch.presets import edge
from repro.core.batch import GridRows, _l2_budgets, best_index, evaluate_grid
from repro.core.candidates import space_table
from repro.core.dse import Objective, SearchSpace, enumerate_dataflows
from repro.core.perf import cost_scope
from repro.core.tiling import tile_plan
from repro.energy.model import energy_report
from repro.models.configs import model_config
from repro.ops.attention import Scope

OBJECTIVES = (Objective.RUNTIME, Objective.ENERGY)
FLOOR_CASES = (("bert", 512), ("bert", 4096), ("t5", 16384))


def _clear_tile_caches():
    """Cold-start both paths: they share the memoized tile records and
    the L2 budget slots."""
    tile_plan.cache_clear()
    _l2_budgets.cache_clear()


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


def test_batch_vs_scalar_speedup(benchmark, report_printer):
    cfg = model_config("bert", seq=int(os.environ.get("BENCH_BATCH_SEQ",
                                                      "4096")))
    accel = edge()
    scope = Scope.BLOCK
    space = SearchSpace(exhaustive_staging=True)
    dataflows = list(enumerate_dataflows(cfg, accel, space))

    _clear_tile_caches()
    t0 = time.perf_counter()
    scalar = {
        obj: _scalar_scores(cfg, scope, accel, dataflows, obj)
        for obj in OBJECTIVES
    }
    scalar_s = time.perf_counter() - t0

    _clear_tile_caches()
    t0 = time.perf_counter()
    grid = benchmark.pedantic(
        lambda: evaluate_grid(cfg, scope, accel, dataflows),
        rounds=1, iterations=1,
    )
    vectorized = {obj: grid.objective_scores(obj) for obj in OBJECTIVES}
    batch_s = time.perf_counter() - t0

    # Exact agreement: every score, and the enumeration-order argmin.
    for obj in OBJECTIVES:
        assert [float(s) for s in vectorized[obj]] == scalar[obj], obj
        first_min = min(range(len(dataflows)),
                        key=lambda i: (scalar[obj][i], i))
        assert best_index(vectorized[obj]) == first_min, obj

    lines = [
        f"grid: {len(dataflows)} candidates x {len(OBJECTIVES)} objectives "
        f"(seq={cfg.seq_q})",
        f"scalar loop : {scalar_s * 1e3:9.1f} ms",
        f"batch pass  : {batch_s * 1e3:9.1f} ms "
        f"({scalar_s / batch_s:.1f}x speedup)",
    ]
    report_printer("\n".join(lines))

    assert scalar_s >= 5.0 * batch_s, (
        f"batch backend only {scalar_s / batch_s:.2f}x faster"
    )


def _median_us(fn, reps: int = 60) -> float:
    """Median per-call thread CPU time of ``fn``, warm, in microseconds."""
    fn()
    samples = []
    for _ in range(reps):
        start = time.thread_time_ns()
        fn()
        samples.append(time.thread_time_ns() - start)
    return statistics.median(samples) / 1e3


def test_one_lane_floor(report_printer):
    """The fixed cost of a grid call: one lane plus its breakdown
    against scalar ``cost_scope`` on the same point (report only)."""
    accel = edge()
    lines = [f"{'workload':<12} {'scope':<6} {'grid+breakdown':>15} "
             f"{'cost_scope':>11} {'ratio':>6}"]
    for model, seq in FLOOR_CASES:
        cfg = model_config(model, seq=seq)
        table = space_table(cfg, SearchSpace())
        index = table.total // 2
        dataflow = table.dataflow(index)
        lane = GridRows(table.features, np.array([index]))
        for scope in Scope:
            grid_us = _median_us(lambda: evaluate_grid(
                cfg, scope, accel, lane).scope_cost(0, dataflow))
            scalar_us = _median_us(
                lambda: cost_scope(cfg, scope, accel, dataflow))
            assert evaluate_grid(cfg, scope, accel, lane).scope_cost(
                0, dataflow) == cost_scope(cfg, scope, accel, dataflow)
            lines.append(
                f"{f'{model}-{seq}':<12} {scope.value:<6} {grid_us:13.0f}us "
                f"{scalar_us:9.0f}us {grid_us / scalar_us:5.1f}x")
    report_printer("\n".join(lines))
