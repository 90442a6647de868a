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
"""

import os
import time

from repro.arch.presets import edge
from repro.core.batch import best_index, evaluate_grid
from repro.core.dse import Objective, SearchSpace, enumerate_dataflows
from repro.core.perf import cost_scope
from repro.core.tiling import choose_l2_tile
from repro.energy.model import energy_report
from repro.models.configs import model_config
from repro.ops.attention import Scope

OBJECTIVES = (Objective.RUNTIME, Objective.ENERGY)


def _clear_tile_caches():
    """Cold-start both paths: they share the lru-cached tile chooser."""
    choose_l2_tile.cache_clear()


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
